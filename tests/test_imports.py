"""Lint rules with the standard library's ast only: every name a module of
tiklav imports is used in that module (a linter's unused-import rule),
every private top-level name of tiklav is referenced somewhere in tiklav (a
dead-code rule), tiklav raises no bare ValueError or TypeError (a
rejected input is `InvalidInput`), only one function reads a state
constraint's region nodes (every other reader uses the rows of
`constraint_matrix()`), the tests' dense references in reference.py
read nothing of the operator's eigenbasis or of the QP engine, one
function of tiklav runs the QP engine and it certifies its point, no
call of `minimize` hands it a basis (the set pairs the Hessian's
eigenvalues with its own operator's), and `cli.main` catches every
`TiklavError` subclass (none escapes as a traceback)."""

import ast
from pathlib import Path

import pytest

import tiklav

SOURCES = sorted(Path(tiklav.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES
           if p.name != "__init__.py"]  # __init__ imports to re-export


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = ("import os, numpy as np\nfrom typing import List, Optional\n"
              "x: Optional[int] = np.pi\n")
    assert unused_imports(source) == ["os", "List"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(tree: ast.Module) -> list:
    """Top-level functions, classes and constants whose name starts with a
    single underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private(sources: list) -> list:
    """Private top-level names of the sources that no expression in any of
    them reads, by name or as an attribute."""
    trees = [ast.parse(s) for s in sources]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [name for tree in trees for name in private_names(tree)
            if name not in read]


def test_checker_flags_an_unreferenced_private_name():
    sources = ["_A = 1\n_B = 2\n\ndef _f():\n    return _A\n\n"
               "class _C:\n    pass\n",
               "import m\n\ndef g():\n    return m._C\n"]
    assert unreferenced_private(sources) == ["_B", "_f"]


def test_no_unreferenced_private_names():
    assert unreferenced_private([p.read_text() for p in SOURCES]) == []


def bare_raises(source: str) -> list:
    """Line numbers of `raise ValueError(...)` and `raise TypeError(...)`,
    or of the bare class without a call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError",
                                                        "TypeError"):
                lines.append(node.lineno)
    return lines


def test_checker_flags_a_bare_value_or_type_error():
    source = ("def f(x):\n    if x < 0:\n        raise ValueError('x')\n"
              "    if x is None:\n        raise TypeError\n"
              "    raise InvalidInput('y')\n\n"
              "def g():\n    try:\n        pass\n"
              "    except ValueError as exc:\n        raise\n")
    assert bare_raises(source) == [3, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_value_or_type_errors(path):
    assert bare_raises(path.read_text()) == []


def region_index_readers(source: str) -> list:
    """Qualified names of the functions (or "<module>") that read
    `<x>.region.indices`: the nodes of a state constraint's region, the
    ones with psi = +inf included. A region held in a local name, as one
    being built, is not counted."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "indices" \
                    and isinstance(child.value, ast.Attribute) \
                    and child.value.attr == "region":
                readers.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return readers


def test_checker_flags_a_region_index_read():
    source = ("class A:\n    def f(self):\n"
              "        return self.state.region.indices\n\n"
              "def g(aset):\n    return aset.constraint_matrix()[0].idx\n\n"
              "def h(aset, u):\n    return u[aset.state.region.indices]\n\n"
              "def k(region):\n    return region.indices\n\n"
              "X = STATE.region.indices\n")
    assert region_index_readers(source) == ["A.f", "h", "<module>"]


def test_only_the_row_builders_read_region_indices():
    # the state rows exist where psi is finite; AdmissibleSet._state_rows
    # numbers them for everything else
    readers = {f"{p.stem}.{name}" for p in SOURCES
               for name in region_index_readers(p.read_text())}
    assert readers == {"admissible.AdmissibleSet._state_rows"}


ENGINE_ATTRS = {"V", "s", "apply_values", "at_values", "adjoint",
                "solve_box_state_qp"}


def engine_reads(source: str) -> list:
    """(line, name) of each read of an operator's eigenbasis or applies
    (the attributes `V`, `s`, `apply_values`, `at_values`, `adjoint`) and
    of the QP engine `solve_box_state_qp`, by attribute, name or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENGINE_ATTRS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "solve_box_state_qp":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name == "solve_box_state_qp"]
    return sorted(found)


def test_checker_flags_an_engine_read():
    source = ("from tiklav.qp import solve_box_state_qp as run\n"
              "def f(op, T, u, s):\n"
              "    x = op.V.T @ u * op.s + s\n"
              "    return op.apply_values(x) + T.at_values(u, x)\n"
              "def g(op, T, eta, region):\n"
              "    return T.adjoint(eta), op.grid, region.indices\n"
              "y = qp.solve_box_state_qp(H)\n")
    assert engine_reads(source) == [
        (1, "solve_box_state_qp"), (3, "V"), (3, "s"), (4, "apply_values"),
        (4, "at_values"), (6, "adjoint"), (7, "solve_box_state_qp")]


def test_reference_shares_no_basis_with_the_engine():
    # the oracle and the dense S of tests/reference.py are built from the
    # grid, the kernel and the finite-difference Laplacian alone, so a
    # wrong eigenbasis cannot pass both the library and its reference
    source = (Path(__file__).parent / "reference.py").read_text()
    assert engine_reads(source) == []


def _calls(fn, name):
    """Whether fn calls `name`, by name or as an attribute."""
    return any(isinstance(n, ast.Call) and name in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(fn))


def engine_callers(source: str) -> list:
    """Names of the functions that call the QP engine `solve_box_state_qp`,
    by name or as an attribute."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef)
            and _calls(fn, "solve_box_state_qp")]


def uncertified_engine_calls(source: str) -> list:
    """Names of the functions that call the QP engine `solve_box_state_qp`
    but not `certify`, each by name or as an attribute: the engine returns
    its point uncertified."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef)
            and _calls(fn, "solve_box_state_qp") and not _calls(fn, "certify")]


def test_checker_flags_an_uncertified_engine_call():
    flagged = ("def f(H, g):\n"
               "    res = qp.solve_box_state_qp(H, g)\n"
               "    return res.u, certify\n")
    clean = ("from tiklav.qp import certify, solve_box_state_qp\n"
             "def g(H, g, r):\n"
             "    res = solve_box_state_qp(H, g)\n"
             "    return res.u, certify(r(res.u), res.eta)\n")
    assert uncertified_engine_calls(flagged) == ["f"]
    assert uncertified_engine_calls(clean) == []
    assert engine_callers(flagged + clean) == ["f", "g"]


def test_every_engine_call_is_certified():
    # the engine does not certify: its one caller, AdmissibleSet.minimize,
    # measures the KKT certificate at the point it returns, for the solve
    # and the projections alike
    src = {p.stem: p.read_text() for p in SOURCES}
    assert [(stem, name) for stem, s in src.items()
            for name in engine_callers(s)] == [("admissible", "minimize")]
    assert [name for s in src.values()
            for name in uncertified_engine_calls(s)] == []


def basis_passed_to_minimize(source: str) -> list:
    """Line numbers of the calls of `minimize`, by name or as an attribute,
    whose first argument is a tuple literal or reads an attribute `V`: a
    basis beside the Hessian's eigenvalues d, which `AdmissibleSet.minimize`
    takes from its own operator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args and "minimize" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            first = node.args[0]
            if isinstance(first, ast.Tuple) or any(
                    isinstance(n, ast.Attribute) and n.attr == "V"
                    for n in ast.walk(first)):
                lines.append(node.lineno)
    return lines


def test_checker_flags_a_basis_passed_to_minimize():
    flagged = ("def f(aset, n, gx, grad):\n"
               "    a = aset.minimize((aset.op.V, 2.0 * ones(n)), gx, grad)\n"
               "    return a, minimize(2.0 * aset.op.V[:, 0], gx, grad)\n")
    clean = ("def g(aset, op, n, v, grad):\n"
             "    return aset.minimize(full(n, 2.0), -2.0 * (op.V.T @ v),"
             " grad, 1e-9)\n")
    assert basis_passed_to_minimize(flagged) == [2, 3]
    assert basis_passed_to_minimize(clean) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_minimize_takes_no_basis(path):
    # the Hessian is V diag(d) V^T with V the set's own operator basis, so
    # a caller passes d alone and cannot pair it with another basis
    assert basis_passed_to_minimize(path.read_text()) == []


def uncaught_errors(errors: str, cli: str) -> list:
    """The subclasses of TiklavError that the errors source defines and no
    except clause of the cli source's top-level `main` catches, by their
    own name or the name of a class they derive from."""
    bases = {n.name: [b.id for b in n.bases if isinstance(b, ast.Name)]
             for n in ast.parse(errors).body if isinstance(n, ast.ClassDef)}

    def lineage(name):
        return {name}.union(*(lineage(b) for b in bases.get(name, [])))

    main = next(n for n in ast.parse(cli).body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = set()
    for h in ast.walk(main):
        if isinstance(h, ast.ExceptHandler) and h.type is not None:
            types = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
            caught |= {t.id if isinstance(t, ast.Name) else t.attr
                       for t in types}
    return [c for c in bases if c != "TiklavError"
            and "TiklavError" in lineage(c) and not lineage(c) & caught]


def test_checker_flags_an_uncaught_error():
    errors = ("class TiklavError(Exception):\n    pass\n"
              "class A(TiklavError):\n    pass\n"
              "class B(A, ValueError):\n    pass\n"
              "class C(TiklavError):\n    pass\n"
              "class D(TiklavError):\n    pass\n"
              "class Other(Exception):\n    pass\n")
    cli = ("def helper():\n    try:\n        pass\n"
           "    except D:\n        pass\n"
           "def main():\n    try:\n        pass\n"
           "    except (A, errors.X):\n        return 2\n")
    assert uncaught_errors(errors, cli) == ["C", "D"]


def test_main_catches_every_library_error():
    # each library error maps to an exit code of main
    src = {p.stem: p.read_text() for p in SOURCES}
    assert uncaught_errors(src["errors"], src["cli"]) == []
