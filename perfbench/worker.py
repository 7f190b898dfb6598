"""One workload run in a fresh process; started by run.py, not by hand.

Protocol on stdout: the line ``READY <window> <window at reference speed>
<mean probe time>`` once numpy, scipy and jcsense are imported and the
workload's config is resolved (the window is the part of set-up the probe
sampled), then one JSON object as the last line.  With ``--setup-only`` the
process exits right after ``READY``.

Passes of the workload are repeated while another pass is expected to end
within ``--seconds`` of measured time (at least one).  Set-up and every pass
run under the core-speed probes of speed.py.  With ``--trace 1`` the first
pass runs untraced as the reference for the tracing overhead, and the
remaining passes run with the tracer installed; probe samples taken inside a
span are booked to the benchmark's own layer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

import speed

# run.py times set-up from process start to READY; sample the core speed over
# it from before numpy, scipy and jcsense load
SETUP_PROBE = speed.setup_probe()
SETUP_PROBE.start()

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import jcsense  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Counters that depend only on the code and the workload size; they must
# repeat exactly from pass to pass and from run to run.
DETERMINISTIC = (
    "dynamics.rhs_evals",
    "dynamics.fidelity_calls",
    "ramp.eta_at_calls",
    "fockspace.eigenstate_dark_calls",
    "fockspace.eigenstate_doublet_calls",
    "fockspace.squeezed_vacuum_calls",
    "metrology.quadrature_distribution_calls",
    "metrology.shots_drawn",
    "analytic.evaluate_calls",
)


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _probed_pass(run_pass, seed, probe, tr):
    """One pass under the speed probe and, unless ``tr`` is None, the tracer."""
    probe.on_sample = tr.absorb if tr is not None else None
    probe.start()
    if tr is None:
        log = run_pass(seed)
    else:
        tr.reset()
        with tr.root("bench.pass"):
            log = run_pass(seed)
    probe.stop()
    return log


def _per_layer(tr: tracing.Tracer, probe: speed.SpeedProbe) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, total = tr.calls, tr.total_s
    cnt = tr.counters
    rhs = cnt["dynamics.rhs_evals"]
    cr_quad = calls["metrology.cramer_rao.x_squared"] + calls["metrology.cramer_rao.p_squared"]
    returned = cnt["fockspace.returned_dim"]
    m = {
        "dynamics.evolve_s": total["dynamics.evolve"],
        "dynamics.integrate_s": total["dynamics.integrate"],
        "dynamics.records_s": tr.records_s,
        "dynamics.rhs_evals": rhs,
        "dynamics.rhs_us": 1e6 * total["dynamics.rhs"] / rhs if rhs else 0.0,
        "dynamics.matvecs_computed": 2 * rhs,
        "dynamics.fidelity_calls": calls["dynamics.fidelity"],
        "dynamics.fidelity_s": total["dynamics.fidelity"],
        "ramp.eta_at_calls": calls["ramp.eta_at"],
        "ramp.eta_at_s": total["ramp.eta_at"],
        "fockspace.eigenstate_dark_calls": calls["fockspace.eigenstate_dark"],
        "fockspace.eigenstate_dark_s": total["fockspace.eigenstate_dark"],
        "fockspace.eigenstate_doublet_calls": calls["fockspace.eigenstate_doublet"],
        "fockspace.eigenstate_doublet_s": total["fockspace.eigenstate_doublet"],
        "fockspace.squeezed_vacuum_calls": calls["fockspace.squeezed_vacuum"],
        "fockspace.squeezed_vacuum_s": total["fockspace.squeezed_vacuum"],
        "fockspace.hamiltonian_s": total["fockspace.hamiltonian"] + total["fockspace.hamiltonian_parts"],
        "fockspace.doublet_spectrum_s": total["fockspace.doublet_spectrum"],
        "fockspace.operators_calls": calls["fockspace.operators"],
        "fockspace.operators_s": total["fockspace.operators"],
        "fockspace.pad_ratio_computed": cnt["fockspace.padded_dim"] / returned if returned else 0.0,
        "metrology.sample_s": total["metrology.sample"],
        "metrology.estimate_s": total["metrology.estimate"],
        "metrology.quadrature_distribution_calls": calls["metrology.quadrature_distribution"],
        "metrology.quadrature_distribution_s": total["metrology.quadrature_distribution"],
        "metrology.quad_builds_per_probe": (
            calls["metrology.quadrature_distribution"] / cr_quad if cr_quad else 0.0
        ),
        "metrology.shots_drawn": cnt["metrology.shots_drawn"],
        "metrology.inverted_variance_s": total["metrology.inverted_variance"],
        "analytic.evaluate_calls": calls["analytic.evaluate"],
        "analytic.evaluate_s": total["analytic.evaluate"],
        "analytic.qfi_fd_s": total["analytic.qfi_fd"],
        "cli.resolve_s": total["cli.resolve"],
        "cli.render_s": total["cli.render"],
    }
    for kind in workloads.SCHEMES:
        m[f"metrology.cramer_rao_s.{kind}"] = total[f"metrology.cramer_rao.{kind}"]
    for name in ("fidelity_sweep", "qfi_curve", "ramp_curve", "scaling", "moments_check"):
        m[f"experiments.{name}_s"] = total[f"experiments.{name}"]
    layers = tracing.LAYERS + (tracing.BENCH_LAYER,)
    for layer in layers:
        m[f"self_s.{layer}"] = tr.self_s[layer]
    m["bench.traced_wall_s"] = probe.work_s()
    m["bench.traced_wall_ref_s"] = probe.reference_time()
    # self times, probe samples included, cover the probed window but for the
    # moments between starting the probe and entering the root span
    window = probe.t_stop - probe.t_start
    m["bench.self_time_residual_s"] = window - sum(tr.self_s[layer] for layer in layers)
    return {k: float(v) for k, v in m.items()}


def _limit_metrics(logs) -> dict:
    """Known-limit accounting over every pass: warnings by emitting layer."""
    entries = [w for log in logs for w in log.warnings]
    m = {}
    for layer in ("fockspace", "dynamics"):
        mine = [w for w in entries if w["layer"] == layer and w["category"] == "TruncationWarning"]
        m[f"{layer}.truncation_warnings"] = float(len(mine) / len(logs))
        tails = [w["tail_mass"] for w in mine if w["tail_mass"] is not None]
        m[f"{layer}.max_tail_mass"] = float(max(tails, default=0.0))
    m["bench.non_truncation_warnings"] = float(sum(1 for w in entries if w["category"] != "TruncationWarning") / len(logs))
    diag = logs[-1].diagnostics
    m["fockspace.max_tail_mass"] = max(m["fockspace.max_tail_mass"], diag.get("tail_mass", 0.0))
    m["fockspace.max_var_rel_err"] = diag.get("var_rel_err", 0.0)
    m["fockspace.max_dark_residual"] = diag.get("dark_residual", 0.0)
    return m


def _worst_warnings(logs) -> list:
    """Each distinct warning once, worst tail mass first."""
    seen = {}
    for w in (w for log in logs for w in log.warnings):
        seen.setdefault((w["layer"], w["where"], w["message"]), w)
    return sorted(seen.values(), key=lambda w: -(w["tail_mass"] or 0.0))


def main(argv=None) -> int:
    args = _parse(argv)
    run_pass = workloads.make(args.workload, args.smoke)
    if not jcsense.__file__.startswith(SRC + os.sep):
        print(f"jcsense imported from {jcsense.__file__}, not {SRC}", file=sys.stderr)
        return 2
    SETUP_PROBE.stop()
    window = SETUP_PROBE.t_stop - SETUP_PROBE.t_start
    print(f"READY {window!r} {SETUP_PROBE.reference_time()!r} {SETUP_PROBE.mean_s()!r}",
          flush=True)
    if args.setup_only:
        return 0

    walls, ref_walls, probe_means, logs, layer_runs, traced_passes = [], [], [], [], [], []
    probe = speed.pass_probe()
    tr = None
    start = perf_counter()
    # Start a pass only if the last one would fit again in the measured time;
    # a traced run always gets its untraced reference pass and one traced pass.
    while len(walls) < 1 + args.trace or perf_counter() - start + walls[-1] <= args.seconds:
        if args.trace and walls and tr is None:
            tr = tracing.Tracer()
            tracing.install(tr, jcsense)
        logs.append(_probed_pass(run_pass, args.seed, probe, tr))
        walls.append(probe.work_s())
        ref_walls.append(probe.reference_time())
        probe_means.append(probe.mean_s())
        if tr is not None:
            layer_runs.append(_per_layer(tr, probe))
            traced_passes.append(
                {"spans": tr.spans, "calls": dict(tr.calls), "total_s": dict(tr.total_s)}
            )
    if tr is not None:
        tr.uninstall()

    ops = [op for log in logs for op in log.ops]
    out = {
        "walls": walls,
        "ref_walls": ref_walls,
        "probe_mean_s": probe_means,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "unexpected": [f"{op.label}: {op.detail}" for op in ops if not op.ok and not op.known_limit],
        "ops": [vars(op) for op in logs[-1].ops],
        "warnings": _worst_warnings(logs),
        "diagnostics": logs[-1].diagnostics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "limits": _limit_metrics(logs),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jcsense": jcsense.__version__,
            "jcsense_path": os.path.dirname(jcsense.__file__),
        },
    }
    if tr is not None:
        out["untraced_wall_s"] = walls[0]
        out["untraced_wall_ref_s"] = ref_walls[0]
        out["layer_runs"] = layer_runs
        out["deterministic"] = [{k: run[k] for k in DETERMINISTIC} for run in layer_runs]
        out["traced_passes"] = traced_passes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
