"""The three benchmark workloads and the checks on their outputs.

Every workload is a function ``body(size, log, seed)`` that performs one
full pass of its work through the public jcsense API, checks each output
against the references the acceptance suite uses, and records the checked
operations, warnings and diagnostics in ``log``.  Library names are looked
up on the modules at call time, so a tracer installed on them sees every
call.  ``make(name, smoke)`` returns the pass function at full or smoke
size; the smoke size exercises every check in a few seconds.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from jcsense import analytic, cli, experiments, fockspace, metrology

OMEGA = 1.0
SCHEMES = ("photon_number", "x_squared", "p_squared")
# first-moment tolerance of acceptance criterion 3, inverted-variance
# tolerance of criterion 9, QFI finite-difference tolerance of criterion 4,
# eigenvalue tolerance of criterion 2
MOMENT_TOL = 1e-8
INV_VAR_TOL = 1e-3
QFI_FD_TOL = 1e-4
SPECTRUM_TOL = 1e-6
SPECTRUM_N_MAX = 160
CLAMP_N_MAX = 512  # adaptive_n_max's upper clamp
CRITERION_3_MAX_ETA = 0.9  # criterion 3 checks the moment formulas up to here

_TAIL_RE = re.compile(r"tail mass ([0-9.eE+-]+)")

SIZES = {
    "full": {
        # the default fidelity_sweep config: k = Omega/200 to eta = 0.995
        "ramp": {"experiment": "fidelity_sweep"},
        "ramp_fidelity_floor": 0.9996,  # acceptance criterion 5
        "ramp_kt_end": 31.4,
        "ramp_records": 201,
        "mc_eta": 0.995,
        "mc_shots": (100, 1000, 10000),
        "mc_replicas": 500,
        "probe_one_minus_eta": tuple(np.geomspace(1e-1, 1e-4, 12)),
        "cross_etas": (0.3, 0.5, 0.8),
        "spectrum_etas": (0.3, 0.6, 0.9),
    },
    "smoke": {
        "ramp": {
            "experiment": "fidelity_sweep",
            "physics": {"k": 0.05, "eta_target": 0.9},
            "numerics": {"n_max": 32},
        },
        "ramp_fidelity_floor": 0.99,
        "ramp_kt_end": 2.96,
        "ramp_records": 201,
        "mc_eta": 0.995,
        "mc_shots": (100,),
        "mc_replicas": 4,
        "probe_one_minus_eta": (1e-1, 1e-4),
        "cross_etas": (0.5,),
        "spectrum_etas": (0.6,),
    },
}


@dataclass
class Op:
    """One checked operation.  ``known_limit`` marks a failure at a probe
    point beyond the library's stated accuracy range (see _probe_point)."""

    label: str
    ok: bool
    detail: str = ""
    known_limit: bool = False

    def __post_init__(self):
        self.ok, self.known_limit = bool(self.ok), bool(self.known_limit)


@dataclass
class PassLog:
    """Outputs of one pass: checked operations, warnings and diagnostics."""

    ops: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def diag_max(self, key: str, value: float, where=None) -> None:
        if value > self.diagnostics.get(key, -math.inf):
            self.diagnostics[key] = float(value)
            if where is not None:
                self.diagnostics[key + "_where"] = where


class _WarningLog(warnings.catch_warnings):
    """Record every warning with the jcsense module that emitted it."""

    def __init__(self, log: PassLog, where: str):
        super().__init__()
        self.log, self.where, self.caught = log, where, []

    def __enter__(self):
        super().__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._show
        return self.caught

    def _show(self, message, category, filename, lineno, file=None, line=None):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_globals.get("__name__", "").startswith("jcsense."):
            frame = frame.f_back
        layer = frame.f_globals["__name__"].split(".")[1] if frame is not None else "other"
        text = str(message)
        tail = _TAIL_RE.search(text)
        entry = {
            "layer": layer,
            "category": category.__name__,
            "where": self.where,
            "tail_mass": float(tail.group(1)) if tail else None,
            "message": text,
        }
        self.caught.append(entry)
        self.log.warnings.append(entry)


def _rel(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def _is_truncation(entry: dict) -> bool:
    return entry["category"] == "TruncationWarning"


# ---------------------------------------------------------------------------
# headline_ramp
# ---------------------------------------------------------------------------


def headline_ramp(size: dict, log: PassLog, seed: int) -> None:
    """The paper's ramp through the CLI's runner and renderer (seed unused)."""
    label = "fidelity_sweep"
    with _WarningLog(log, label):
        resolved = cli.resolve_config(size["ramp"])
        columns, rows, extras = experiments.RUNNERS["fidelity_sweep"](resolved)
        text = cli.render_csv(resolved, columns, rows, extras)
    col = {name: i for i, name in enumerate(columns)}
    atol = resolved["numerics"]["atol"]
    eta_target = resolved["physics"]["eta_target"]
    min_fid = min(r[col["fidelity"]] for r in rows)
    kt_end = rows[-1][col["kt"]]
    eta_end = rows[-1][col["eta"]]
    max_defect = max(r[col["norm_defect"]] for r in rows)
    data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    checks = {
        "min_fidelity": min_fid >= size["ramp_fidelity_floor"],
        "extras_min_fidelity": extras["min_fidelity"] == min_fid,
        "kt_end": abs(kt_end - size["ramp_kt_end"]) < 0.1,
        "eta_end": abs(eta_end - eta_target) <= 1e-12,
        "norm_defect": max_defect <= 10 * atol,
        "records": len(rows) == size["ramp_records"],
        "csv_rows": len(data_lines) == len(rows) + 1,  # + column header
    }
    log.diag_max("min_infidelity", 1.0 - min_fid)
    log.diag_max("max_norm_defect", max_defect)
    failed = [k for k, ok in checks.items() if not ok]
    log.ops.append(Op(
        label, not failed,
        f"min F {min_fid:.7f}, kt_end {kt_end:.3f}, eta_end {eta_end}, "
        f"max norm defect {max_defect:.2e}; failed: {failed}",
    ))


# ---------------------------------------------------------------------------
# estimation_mc
# ---------------------------------------------------------------------------


def estimation_mc(size: dict, log: PassLog, seed: int) -> None:
    """Cramer-Rao ratio for every scheme and shot count, replicas from seed."""
    eta, replicas = size["mc_eta"], size["mc_replicas"]
    window = 5.0 * math.sqrt(2.0 / (replicas - 1))  # 5 sd of a sample variance
    top = max(size["mc_shots"])
    seeds = np.random.SeedSequence(seed).generate_state(len(SCHEMES) * len(size["mc_shots"]))
    i = 0
    for kind in SCHEMES:
        for shots in size["mc_shots"]:
            label = f"cramer_rao {kind} shots={shots}"
            scheme = metrology.MeasurementScheme(kind=kind, shots=shots)
            with _WarningLog(log, label):
                ratio, mean_hat = metrology.cramer_rao_ratio(
                    eta, scheme, replicas=replicas, seed=int(seeds[i])
                )
            i += 1
            ok = math.isfinite(ratio) and math.isfinite(mean_hat)
            if shots == top:
                ok = ok and abs(ratio - 1.0) <= window
            log.ops.append(Op(label, ok, f"ratio {ratio:.4f}, mean eta_hat {mean_hat:.6f}"))


# ---------------------------------------------------------------------------
# probe_sweep
# ---------------------------------------------------------------------------


def _probe_point(log: PassLog, eta: float) -> None:
    label = f"probe eta={eta:.6f}"
    n_max = fockspace.adaptive_n_max(eta)
    field_spec = fockspace.HilbertSpec(n_max=n_max, with_qubit=False)
    spec = fockspace.HilbertSpec(n_max=n_max, with_qubit=True)
    r = 0.25 * math.log(1.0 - eta * eta)
    with _WarningLog(log, label) as caught:
        probe = fockspace.squeezed_vacuum(field_spec, r)
        dark = fockspace.eigenstate(spec, OMEGA, eta, 0, "dark")
    cutoff_warnings = [w for w in caught if _is_truncation(w)]
    with _WarningLog(log, label):
        for n in (1, 2, 3):
            for branch in ("+", "-"):
                fockspace.eigenstate(spec, OMEGA, eta, n, branch)
        h = fockspace.build_hamiltonian(spec, OMEGA, eta)
    log.diag_max("dark_residual", float(np.linalg.norm(h.matrix @ dark.amplitudes)) / OMEGA, eta)
    log.diag_max("tail_mass", max(probe.tail_mass(), dark.tail_mass()), eta)

    exact = analytic.evaluate(eta)
    x = fockspace.quadrature_x(field_spec).matrix
    p = fockspace.quadrature_p(field_spec).matrix
    worst_mean = 0.0
    for op, mean_ref, var_ref in (
        (fockspace.number_op(field_spec).matrix, exact.mean_n, exact.var_n),
        (x @ x, exact.mean_x2, exact.var_x2),
        (p @ p, exact.mean_p2, exact.var_p2),
    ):
        mean, var = metrology.mean_and_variance(probe, op)
        worst_mean = max(worst_mean, _rel(mean, mean_ref))
        log.diag_max("var_rel_err", _rel(var, var_ref), eta)
    moments_ok = worst_mean <= MOMENT_TOL
    # Known limits, counted as failed but not as incorrect output: moments
    # beyond the eta range criterion 3 covers, and truncation at the clamp.
    # A cutoff warning below the clamp breaks the auto-cutoff promise.
    known = (moments_ok or eta > CRITERION_3_MAX_ETA) and (
        not cutoff_warnings or n_max >= CLAMP_N_MAX
    )
    ok = moments_ok and not cutoff_warnings
    log.ops.append(Op(
        label, ok,
        f"n_max {n_max}, worst first-moment rel err {worst_mean:.2e}, "
        f"cutoff warnings {len(cutoff_warnings)}",
        known_limit=not ok and known,
    ))


def _cross_checks(size: dict, log: PassLog) -> None:
    for eta in size["cross_etas"]:
        spec = fockspace.HilbertSpec(n_max=fockspace.adaptive_n_max(eta), with_qubit=False)
        label = f"cross eta={eta}"
        with _WarningLog(log, label):
            state = fockspace.squeezed_vacuum(spec, 0.25 * math.log(1.0 - eta * eta))
            qfi = analytic.evaluate(eta).qfi
            for kind in SCHEMES:
                value = metrology.inverted_variance_numeric(
                    state, metrology.MeasurementScheme(kind, 1), eta
                )
                err = _rel(value, qfi)
                log.ops.append(Op(f"{label} inverted_variance {kind}", err <= INV_VAR_TOL,
                                  f"rel err {err:.2e}"))
            err = _rel(analytic.qfi_from_state_derivative(eta), qfi)
            log.ops.append(Op(f"{label} qfi_fd", err <= QFI_FD_TOL, f"rel err {err:.2e}"))
    for eta in size["spectrum_etas"]:
        label = f"spectrum eta={eta}"
        with _WarningLog(log, label):
            got = fockspace.doublet_spectrum(
                fockspace.HilbertSpec(n_max=SPECTRUM_N_MAX), OMEGA, eta, 3
            )
            expected = np.sort([
                analytic.eigenvalue(OMEGA, eta, n, b) for n in (1, 2, 3) for b in ("+", "-")
            ])
        err = float(np.max(np.abs(got - expected) / np.abs(expected)))
        log.ops.append(Op(label, err <= SPECTRUM_TOL, f"max rel err {err:.2e}"))


def _run_experiment(log: PassLog, name: str):
    with _WarningLog(log, name):
        resolved = cli.resolve_config({"experiment": name})
        columns, rows, extras = experiments.RUNNERS[name](resolved)
        cli.render_csv(resolved, columns, rows, extras)
    return {c: np.array([r[i] for r in rows]) for i, c in enumerate(columns)}, extras


def _runners(log: PassLog) -> None:
    table, _ = _run_experiment(log, "qfi_curve")
    ok = bool((np.diff(table["qfi"]) > 0).all()) and table["qfi"][-1] > 2.4e3  # criterion 4
    log.ops.append(Op("qfi_curve", ok, f"endpoint QFI {table['qfi'][-1]:.1f}"))

    table, extras = _run_experiment(log, "ramp_curve")
    ok = abs(extras["kt_end"] - 31.4) < 0.1 and abs(table["eta"][-1] - 0.995) <= 1e-12
    log.ops.append(Op("ramp_curve", ok, f"kt_end {extras['kt_end']:.3f}"))

    _, extras = _run_experiment(log, "scaling")
    fits = {f["quantity"]: f["fitted_exponent"] for f in extras["fits"]}
    ok = (  # criterion 7
        abs(fits["inverted_variance"] - 8 / 3) <= 0.05
        and abs(fits["mean_n"] - 2 / 3) <= 0.05
        and abs(fits["epsilon"] + 4 / 3) <= 0.02
    )
    log.ops.append(Op("scaling", ok, f"slopes {fits}"))

    table, _ = _run_experiment(log, "moments_check")
    worst = max(
        float(np.max(np.abs(table[f"{m}_num"] - table[f"{m}_exact"]) / np.abs(table[f"{m}_exact"])))
        for m in ("mean_n", "mean_x2", "mean_p2")
    )
    log.diag_max("moments_check_max_rel_err", float(np.max(table["max_rel_err"])))
    log.ops.append(Op("moments_check", worst <= MOMENT_TOL, f"worst first-moment rel err {worst:.2e}"))


def probe_sweep(size: dict, log: PassLog, seed: int) -> None:
    """Near-critical state construction and closed-form cross-checks (seed unused)."""
    for one_minus_eta in size["probe_one_minus_eta"]:
        _probe_point(log, 1.0 - float(one_minus_eta))
    _cross_checks(size, log)
    _runners(log)


WORKLOADS = {
    "headline_ramp": headline_ramp,
    "estimation_mc": estimation_mc,
    "probe_sweep": probe_sweep,
}


def make(name: str, smoke: bool):
    """Pass function ``fn(seed) -> PassLog`` of one workload."""
    body, size = WORKLOADS[name], SIZES["smoke" if smoke else "full"]

    def run_pass(seed: int) -> PassLog:
        log = PassLog()
        body(size, log, seed)
        return log

    return run_pass
