"""The benchmark's tracer wraps public names of every jcsense layer.

``perfbench/tracer.py`` replaces those names with timing wrappers and puts
the originals back on ``uninstall``.  Deleting or renaming a name it wraps
breaks ``perfbench/run.py --trace 1``; this test fails first.  The smoke
passes of ``perfbench/workloads.py`` run here with the tracer installed, so
a change to the API they call fails here too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import jcsense
from jcsense import analytic, cli, dynamics, experiments, fockspace, metrology, ramp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (analytic, fockspace, ramp, dynamics, metrology, experiments, cli)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


@pytest.fixture
def workloads(tracer):
    import workloads

    return workloads


def _snapshot():
    names = {module: dict(vars(module)) for module in MODULES}
    return names, dict(experiments.RUNNERS)


def test_install_wraps_and_uninstall_restores_every_original(tracer):
    names, runners = _snapshot()
    traced = tracer.Tracer()
    tracer.install(traced, jcsense)
    try:
        patched = [
            (module, attr)
            for module, before in names.items()
            for attr, value in before.items()
            if vars(module)[attr] is not value
        ]
        assert (metrology, "quadrature_distribution") in patched
        assert (metrology, "cramer_rao_ratio") in patched
        assert all(experiments.RUNNERS[key] is not fn for key, fn in runners.items())
    finally:
        traced.uninstall()
    for module, before in names.items():
        after = vars(module)
        assert set(after) == set(before), module.__name__
        for attr, value in before.items():
            assert after[attr] is value, f"{module.__name__}.{attr} not restored"
    assert experiments.RUNNERS == runners
    assert all(experiments.RUNNERS[key] is fn for key, fn in runners.items())


@pytest.mark.parametrize("name", ["headline_ramp", "estimation_mc", "probe_sweep"])
def test_traced_smoke_pass_fails_only_at_known_limits(tracer, workloads, name):
    run_pass = workloads.make(name, True)
    traced = tracer.Tracer()
    tracer.install(traced, jcsense)
    try:
        log = run_pass(3)
    finally:
        traced.uninstall()
    assert log.ops
    unexpected = [op for op in log.ops if not op.ok and not op.known_limit]
    assert not unexpected, [(op.label, op.detail) for op in unexpected]
    assert traced.calls
