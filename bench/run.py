"""tiklav benchmark: runs one workload for a fixed time and checks its outputs.

Run it from the repository root:

    python3 bench/run.py --workload lavrentiev-2d --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  lavrentiev-2d   `tiklav verify` on the binding-state-poisson-2d preset
  sweep-1d-large  `tiklav verify` on interior-attainable-poisson-1d at n=2048

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (run_s, setup_s, peak_rss_mb). With --trace 1 the first
half of the time is measured as with --trace 0 and the second half with
every public function and property of the tiklav modules wrapped in spans
(spans.py); the last line then holds the per-layer metrics, each the median
over the traced runs, the tracing overhead, and the latency percentiles of
the `solver.solve` calls of the first half, where only that call is wrapped.
Set-up time is the median of separate set-up processes.

An operation is one `solve` call of a run, one verify check, the verify call
itself or its exit code. It fails when the solve raises or its KKT
certificate exceeds the tolerance, the check fails, the call raises or exits
with an error. Every run has the same inputs and so the same operations; one
fails if it fails in any run, and `failed`/`attempted` counts distinct
operations, so the counts do not depend on how many runs fit in the time.
`correct` is false when any operation failed.

Everything is written under .bench_out/: the verify outputs, a strict-JSON
result file with the machine facts, and the spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("lavrentiev-2d", "sweep-1d-large")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# tiklav modules whose public callables become spans; `grid` only has O(N)
# constructors and `errors` only exception classes
LAYERS = ("operators", "admissible", "qp", "solver", "manufacture",
          "experiments", "cli")
SOLVE = "solver.solve"


def _load_workloads():
    """Import tiklav from this checkout's sources, then the workloads."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tiklav
    import workloads
    origin = Path(tiklav.__file__).resolve().parent
    if origin != (SRC / "tiklav").resolve():
        raise ImportError(f"tiklav imported from {origin}, not from {SRC}")
    return workloads


def set_up(name: str, seed: int):
    """Import tiklav, build what the runs reuse and make one warm-up call."""
    t0 = perf_counter()
    workloads = _load_workloads()
    work = workloads.make(name, OUT, seed)
    work.warm_up()
    return work, perf_counter() - t0


def set_up_in_fresh_processes(name: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


@dataclass
class Run:
    id: int
    seconds: float
    ops: dict            # operation key -> None or the failure note
    solve_ms: list = field(default_factory=list)


def _observe_solve(sol):
    return (sol.iterations,
            max(sol.kkt_stationarity, sol.kkt_primal, sol.kkt_complementarity))


def _account(run_id: int, seconds: float, outcome, solves, tol: float) -> Run:
    """One run's operations: each solve (fails if it raised or its KKT
    certificate exceeds tol) plus the workload's own checks."""
    run = Run(run_id, seconds, dict(outcome.ops))
    for i, s in enumerate(solves):
        run.solve_ms.append(1e3 * s.duration)
        run.ops[("solve", i)] = None
        if s.error or s.extra is None or not s.extra[1] <= tol:
            kkt = "raised" if s.extra is None else f"KKT {s.extra[1]:.3e}"
            run.ops[("solve", i)] = f"solve {kkt} (tol {tol:g})"
    return run


def measure(work, tracer, modules, seconds: float, only=None) -> list[Run]:
    """Run the workload until the next run would end after `seconds`."""
    traced = [m for m in modules if m.__name__.rsplit(".", 1)[-1] in LAYERS]
    tracer.install(traced, modules, only=only)
    runs = []
    try:
        end = perf_counter() + seconds
        while True:
            tracer.run += 1
            t0 = perf_counter()
            outcome = work.run()
            dt = perf_counter() - t0
            runs.append(_account(tracer.run, dt, outcome,
                                 tracer.in_run(tracer.run, SOLVE), work.tol))
            if perf_counter() + dt > end:
                return runs
    finally:
        tracer.uninstall()


# -- per-layer metrics from the spans of one run -----------------------------

def _last(span) -> str:
    return span.name.rsplit(".", 1)[-1]


def _is_io(span) -> bool:
    return _last(span) == "write" or "csv" in _last(span)


def _is_entry(span, layer: str) -> bool:
    """A call into `layer` from outside it."""
    return span.layer == layer and (span.parent is None
                                    or span.parent.layer != layer)


def layer_metrics(spans) -> dict:
    def total(pred, self_time=False):
        return sum(s.self_time if self_time else s.duration
                   for s in spans if pred(s))

    def count(pred):
        return sum(1 for s in spans if pred(s))

    def named(name):
        return lambda s: s.name == name

    def member(layer, test):
        return lambda s: s.layer == layer and test(_last(s))

    assemble = member("operators", lambda f: f.startswith("assemble"))
    sweep = lambda s: s.layer == "experiments" and not _is_io(s)  # noqa: E731
    solves = [s for s in spans if s.name == SOLVE]
    iters = sum(s.extra[0] for s in solves if s.extra is not None)
    return {
        "operators.assemble.s": total(assemble),
        "operators.assemble.calls": count(assemble),
        "operators.gram.s": total(member("operators", lambda f: f == "gram")),
        "admissible.constraint_matrix.s":
            total(member("admissible", lambda f: f == "constraint_matrix")),
        "admissible.project.s":
            total(member("admissible", lambda f: f.startswith("project"))),
        "admissible.feasibility.s":
            total(member("admissible", lambda f: f == "feasibility")),
        "qp.solve.s": total(lambda s: _is_entry(s, "qp")),
        "qp.solve.calls": count(lambda s: _is_entry(s, "qp")),
        "qp.inner_iters": iters,
        "qp.iters_per_solve": iters / len(solves) if solves else 0.0,
        "qp.spectral.s": total(member("qp", lambda f: "spectral" in f)),
        "solver.solve.self_s": total(named(SOLVE), self_time=True),
        "solver.solve.calls": len(solves),
        "solver.unconstrained.s": total(named("solver.solve_unconstrained")),
        "manufacture.manufacture.self_s":
            total(named("manufacture.manufacture"), self_time=True),
        "experiments.sweep.self_s": total(sweep, self_time=True),
        "experiments.sweep.calls":
            count(lambda s: sweep(s) and _is_entry(s, "experiments")),
        "cli.io.s": total(_is_io),
    }


def _unit(metric: str) -> str:
    if metric.endswith("iters_per_solve"):
        return "iters/solve"
    if metric.endswith(("calls", "iters")):
        return "count"
    return "s"


def span_table(spans, runs: int) -> dict:
    """Calls, time and self time per span name, averaged over the runs."""
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.self_time
    return {name: {k: v / runs for k, v in row.items()}
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])}


# -- machine facts ----------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- command line -------------------------------------------------------------

def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q)) if values else 0.0


def solve_latency(runs) -> dict:
    """Percentiles of the `solver.solve` calls, pooled over the runs."""
    ms = [v for r in runs for v in r.solve_ms]
    return {"p50": _percentile(ms, 50), "p90": _percentile(ms, 90),
            "samples": len(ms)}


def _totals(runs):
    """Distinct operations over all runs; one fails if it failed in any."""
    ops = {}
    for r in runs:
        for key, failure in r.ops.items():
            if ops.get(key) is None:
                ops[key] = failure
    notes = [f for f in ops.values() if f is not None]
    return len(ops), notes


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "tiklav" / "__init__.py").is_file():
        print(f"error: no tiklav sources under {SRC}", file=sys.stderr)
        return 1
    if args.setup_probe:
        _, seconds = set_up(args.workload, args.seed)
        print(repr(seconds))
        return 0

    setup_samples = set_up_in_fresh_processes(args.workload, args.seed)
    work, own_setup = set_up(args.workload, args.seed)
    import tiklav
    from spans import Tracer
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tiklav" or name.startswith("tiklav.")]
    tracer = Tracer({SOLVE: _observe_solve})

    if args.trace == 0:
        runs = measure(work, tracer, modules, args.seconds, only={SOLVE})
        metrics = {
            "run_s": (_median([r.seconds for r in runs]), "s"),
            "setup_s": (_median(setup_samples), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        latency = solve_latency(runs)
        extra = {}
        all_runs = runs
    else:
        plain = measure(work, tracer, modules, args.seconds / 2, only={SOLVE})
        first_traced = tracer.run + 1
        # a fresh workload gives the traced runs the inputs of the untraced ones
        work, _ = set_up(args.workload, args.seed)
        traced = measure(work, tracer, modules, args.seconds / 2)
        per_run = [layer_metrics(tracer.in_run(r.id)) for r in traced]
        metrics = {name: (_median([m[name] for m in per_run]), _unit(name))
                   for name in per_run[0]}
        untraced_s = _median([r.seconds for r in plain])
        traced_s = _median([r.seconds for r in traced])
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        latency = solve_latency(plain)
        metrics["solver.solve.p50_ms"] = (latency["p50"], "ms")
        metrics["solver.solve.p90_ms"] = (latency["p90"], "ms")
        extra = {"untraced_run_s": untraced_s, "traced_run_s": traced_s,
                 "traced_runs": len(traced),
                 "spans": span_table([s for s in tracer.spans
                                      if s.run >= first_traced], len(traced))}
        all_runs = plain + traced

    attempted, notes = _totals(all_runs)
    failed = len(notes)
    fail_frac = failed / attempted if attempted else 1.0
    correct = attempted > 0 and failed == 0
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiklav": tiklav.__version__,
        "machine": machine_facts(),
        "setup_samples_s": setup_samples, "own_setup_s": own_setup,
        "runs": [{"seconds": r.seconds, "operations": len(r.ops),
                  "failed": sum(f is not None for f in r.ops.values()),
                  "solves": len(r.solve_ms)}
                 for r in all_runs],
        "attempted": attempted, "failed": failed, "fail_frac": fail_frac,
        "correct": correct, "failures": notes[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "solve_ms": latency,
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(details, indent=2, allow_nan=False) + "\n")
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec, allow_nan=False) + "\n")

    m = details["machine"]
    print(f"{args.workload} seed {args.seed}: {len(all_runs)} runs, "
          f"{attempted} operations, {failed} failed (fail_frac {fail_frac:.3g})")
    for note in notes[:5]:
        print(f"  failure: {note.strip().splitlines()[-1]}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(f"  solve latency: p50 {latency['p50']:.4g} ms, p90 "
          f"{latency['p90']:.4g} ms over {latency['samples']} calls")
    print(f"machine: nproc {m['nproc']}, {m['blas']['name']} "
          f"{m['blas']['version']} ({m['blas']['threads']} threads), python "
          f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": details["metrics"]}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
