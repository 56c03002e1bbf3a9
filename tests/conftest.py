"""Shared fixtures: small grids, assembled operators and preset instances."""

import json

import numpy as np
import pytest

from tiklav import cli
from tiklav.admissible import AdmissibleSet, BoxBounds, StateConstraint
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion
from tiklav.operators import KernelSpec, assemble_fredholm, assemble_poisson
from tiklav.solver import RegularizedProblem
from reference import assemble


@pytest.fixture(scope="session")
def grid16():
    return DomainGrid(1, 16)


@pytest.fixture(scope="session")
def poisson16(grid16):
    return assemble_poisson(grid16)


@pytest.fixture(scope="session")
def fredholm16(grid16):
    return assemble_fredholm(grid16, KernelSpec("gaussian", width=0.3))


def load_preset_instance(name, seed=0):
    cfg = json.load(open(cli.preset_path(name)))
    op = cli.build_operator(cfg)
    aset = cli.build_admissible(cfg, op)
    inst = cli.build_instance(cfg, aset, seed)
    return cfg, op, aset, inst


@pytest.fixture(scope="session")
def interior_preset():
    return load_preset_instance("interior-attainable-poisson-1d")


@pytest.fixture(scope="session")
def clipped_preset():
    return load_preset_instance("clipped-fredholm-1d")


@pytest.fixture(scope="session")
def binding_preset():
    return load_preset_instance("binding-state-poisson-2d")


def random_problem(rng, n_choices=(4, 5, 6, 7, 8),
                   n_probs=(0.3, 0.3, 0.2, 0.1, 0.1)):
    """A small random box/state-constrained problem, feasible by psi > 0,
    and the dense reference S of its operator."""
    n = int(rng.choice(n_choices, p=n_probs))
    grid = DomainGrid(1, n)
    kernel = None
    if rng.random() >= 0.5:
        kind = str(rng.choice(["constant", "separable", "gaussian"]))
        kernel = KernelSpec(kind, value=float(rng.uniform(0.5, 2.0)),
                            width=float(rng.uniform(0.2, 1.0)))
    op, S = assemble(grid, kernel)
    b = np.full(n, np.inf) if rng.random() < 0.25 else rng.uniform(0.3, 2.0, n)
    m = int(rng.integers(1, 3))
    idx = np.sort(rng.choice(n, size=m, replace=False))
    psi = rng.uniform(0.01, 0.3, m)
    lam = 0.0 if rng.random() < 0.5 else float(rng.uniform(1e-3, 0.1))
    sign = str(rng.choice(["plus", "minus"]))
    state = StateConstraint(ObservationRegion(grid, idx), psi, lam, sign)
    aset = AdmissibleSet(BoxBounds(grid, b), state, op)
    y_d = GridFunction(grid, rng.standard_normal(n) * rng.uniform(0.5, 3.0))
    alpha = float(10 ** rng.uniform(-3, 0))
    return RegularizedProblem(y_d, aset, alpha), S
