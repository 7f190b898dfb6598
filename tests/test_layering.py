"""Layer boundaries read from the source: the closed-form layer imports
nothing from the rest of the package, estimation reaches the Fock-space layer
only through its public names, no source file reaches a private scipy
module, no module imports scipy at load time, importing the package loads
no scipy module, each run loads only the scipy it uses, and every exported
name exists."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jcsense

SRC = Path(jcsense.__file__).parent


def _load_time_nodes(tree: ast.AST):
    """Every node that runs when the module is imported: function bodies
    are skipped, class bodies are not."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)


def test_every_exported_name_resolves():
    # a deleted name left in __all__ breaks "from jcsense import *" only
    missing = [name for name in jcsense.__all__ if not hasattr(jcsense, name)]
    assert not missing, missing


def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def test_analytic_imports_nothing_from_the_package():
    # every import, function bodies included: the closed forms are the
    # oracle of the Fock-space layer, not a client of it
    for node in ast.walk(_parse("analytic")):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            assert not (node.module or "").startswith("jcsense"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("jcsense") for a in node.names), ast.unparse(node)


def test_metrology_uses_no_private_fockspace_name():
    for node in ast.walk(_parse("metrology")):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "fockspace":
                assert not node.attr.startswith("_"), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fockspace"):
            assert not any(a.name.startswith("_") for a in node.names), ast.unparse(node)


def _is_private(dotted: str) -> bool:
    return any(part.startswith("_") for part in dotted.split("."))


def _private_scipy_modules(tree: ast.Module) -> set[str]:
    """Every private scipy module a source file imports, or reaches as an
    attribute of an imported scipy name (``sp._sparsetools``)."""
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                found.add(a.name)
                # "import scipy.sparse" binds scipy; "import scipy.sparse as sp" binds sp
                bound = a.name if a.asname else a.name.split(".")[0]
                aliases[a.asname or bound] = bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                # the imported name may itself be a module
                dotted = f"{node.module}.{a.name}" if a.name.startswith("_") else node.module
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                found.add(dotted)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, value = [], node
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in aliases:
                parts = aliases[value.id].split(".")
                for attr in reversed(chain):  # stop at the first private part
                    parts.append(attr)
                    if attr.startswith("_"):
                        found.add(".".join(parts))
                        break
    return {name for name in found if name.split(".")[0] == "scipy" and _is_private(name)}


def test_no_source_file_reaches_a_private_scipy_module():
    # any scipy release may move scipy's internals
    for path in sorted(SRC.glob("*.py")):
        private = _private_scipy_modules(ast.parse(path.read_text()))
        assert not private, (path.name, sorted(private))


def _load_time_scipy_imports(tree: ast.Module) -> set[str]:
    found = set()
    for node in _load_time_nodes(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return {name for name in found if name.split(".")[0] == "scipy"}


def test_load_time_scipy_imports_are_pinned():
    # none: each would cost start-up time in every run that imports the
    # module, closed-form runs included; add one here only on purpose
    for path in sorted(SRC.glob("*.py")):
        found = _load_time_scipy_imports(ast.parse(path.read_text()))
        assert found == set(), (path.name, sorted(found))


def _run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; return its stdout."""
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_leaves_the_solvers_unloaded():
    # scipy.sparse, the one scipy module the package uses, loads only in a
    # run that builds an operator
    probe = (
        "import sys, jcsense, jcsense.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(probe).strip() == "[]"


# In one fresh interpreter: validate every experiment's default config, run
# the four closed-form experiments, a smoke-size fidelity_sweep (k = 0.05 to
# eta 0.9), then moments_check, the one that builds Fock-space operators;
# then the doublet spectrum; print the scipy modules loaded after each stage.
_STAGED_RUNS = """
import contextlib, io, json, sys, warnings
from pathlib import Path
from jcsense import cli, experiments, fockspace

tmp = Path(sys.argv[1])

def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

def config(name, numerics, physics=None):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps({"experiment": name, "numerics": numerics, "physics": physics or {}}))
    return str(path)

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
for name in experiments.RUNNERS:
    main("validate", config(name, {}))
loaded["validate"] = scipy_loaded()
for name in ("qfi_curve", "ramp_curve", "scaling", "cramer_rao"):
    numerics = {"shots": 100, "replicas": 4} if name == "cramer_rao" else {}
    main("run", config(name, numerics), "--out", str(tmp / f"{name}.csv"))
loaded["closed_forms"] = scipy_loaded()
smoke_ramp = config("fidelity_sweep", {}, {"k": 0.05, "eta_target": 0.9})
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the fast ramp reaches the top doublet pair
    main("run", smoke_ramp, "--out", str(tmp / "fidelity_sweep.csv"))
loaded["fidelity_sweep"] = scipy_loaded()
main("run", config("moments_check", {}), "--out", str(tmp / "moments_check.csv"))
loaded["moments_check"] = scipy_loaded()
fockspace.doublet_spectrum(fockspace.HilbertSpec(n_max=160), 1.0, 0.6, 3)
loaded["doublet_spectrum"] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_each_run_loads_only_the_scipy_it_uses(tmp_path):
    loaded = json.loads(_run_python(_STAGED_RUNS, str(tmp_path)))
    assert loaded["validate"] == []
    assert loaded["closed_forms"] == []
    # the ramp's integrator is numpy only
    assert loaded["fidelity_sweep"] == []
    assert "scipy.sparse" in loaded["moments_check"]
    for solver in ("scipy.integrate", "scipy.sparse.linalg"):
        assert solver not in loaded["moments_check"], solver
    assert "scipy.sparse.linalg" not in loaded["doublet_spectrum"]


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.sparse.linalg"])
def test_no_source_file_names_scipy_integrate(module):
    # the ramp is stepped by the package's own Magnus integrator, and the
    # doublet block is diagonalised densely by numpy
    for path in sorted(SRC.glob("*.py")):
        assert module not in path.read_text(), path.name
