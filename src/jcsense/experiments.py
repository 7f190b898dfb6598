"""Named experiments: each produces one plot-ready table.

qfi_curve      closed-form sensitivity quantities on an eta grid
ramp_curve     the drive schedule eta(kt) and its derivative
fidelity_sweep integrated trajectory with dark-state fidelity tracking
scaling        near-critical log-log scaling fits along the ramp
cramer_rao     Monte-Carlo estimator variance against the quantum bound
moments_check  Fock-space moments against the closed forms

Every experiment returns (columns, rows, extras); emission and formatting
live in the CLI layer.
"""

from __future__ import annotations

import numpy as np

from . import analytic, dynamics, fockspace, metrology, ramp

QFI_GRID_POINTS = 200
RAMP_GRID_POINTS = 200
SCALING_KT_RANGE = (1e2, 1e4)
SCALING_KT_POINTS = 24
MOMENTS_ETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def qfi_curve(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Closed-form sensitivity table over eta in [0, eta_target]."""
    eta_target = resolved["physics"]["eta_target"]
    etas = np.linspace(0.0, eta_target, QFI_GRID_POINTS)
    columns = [
        "eta", "qfi", "mean_n", "var_n", "chi",
        "mean_x2", "var_x2", "mean_p2", "var_p2", "squeeze_r", "epsilon",
    ]
    p = analytic.evaluate(etas)
    rows = np.column_stack([
        p.eta, p.qfi, p.mean_n, p.var_n, p.chi,
        p.mean_x2, p.var_x2, p.mean_p2, p.var_p2, p.r, p.epsilon,
    ]).tolist()
    return columns, rows, {}


def _schedule(resolved: dict) -> ramp.RampSchedule:
    phys = resolved["physics"]
    return ramp.RampSchedule(k=phys["k"], xi=phys["xi"], eta_target=phys["eta_target"])


def ramp_curve(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Schedule table: kt, t, eta, epsilon and the exact ramp velocity."""
    sched = _schedule(resolved)
    kts = np.linspace(0.0, sched.kt_end, RAMP_GRID_POINTS + 1)
    if sched.kt_end > 1.0:  # keep the exact kt = 1 point on the grid
        kts = np.unique(np.append(kts, 1.0))
    columns = ["kt", "t", "eta", "epsilon", "eta_dot"]
    rows = []
    for kt in kts:
        t = kt / sched.k
        rows.append([
            float(kt), t, ramp.eta_at(sched, t),
            ramp.epsilon_at(sched, t), ramp.eta_dot_at(sched, t),
        ])
    return columns, rows, {"kt_end": sched.kt_end}


def _resolve_n_max(resolved: dict, eta: float) -> int:
    n_max = resolved["numerics"]["n_max"]
    if n_max == "auto":
        return fockspace.adaptive_n_max(eta)
    return int(n_max)


def fidelity_sweep(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Integrated trajectory with instantaneous dark-state fidelity.

    The ramp runs in the adiabatic frame of :func:`dynamics.evolve`, which
    builds no Fock space: ``numerics.n_max`` does not apply.  The extras
    give the frame's doublet count, the peak population of its top pair,
    and the integrator's generator evaluations and accepted steps.
    """
    sched = _schedule(resolved)
    num = resolved["numerics"]
    traj = dynamics.evolve(sched, resolved["physics"]["Omega"], rtol=num["rtol"], atol=num["atol"])
    columns = [
        "kt", "t", "eta", "fidelity",
        "mean_n", "var_n", "mean_x2", "mean_p2", "norm_defect",
    ]
    rows = np.column_stack([
        sched.k * traj.t, traj.t, traj.eta, traj.fidelity,
        traj.mean_n, traj.var_n, traj.mean_x2, traj.mean_p2, traj.norm_defect,
    ]).tolist()
    extras = {
        "n_doublets": dynamics.N_DOUBLETS,
        "top_pair_population": traj.top_pair_population.max(),
        "min_fidelity": traj.fidelity.min(),
        "final_fidelity": traj.fidelity[-1],
        "nfev": traj.nfev,
        "steps": traj.steps,
    }
    return columns, rows, extras


def scaling(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Scaling table plus fitted exponents (in the extras block)."""
    sched = _schedule(resolved)
    kts = np.logspace(
        np.log10(SCALING_KT_RANGE[0]), np.log10(SCALING_KT_RANGE[1]), SCALING_KT_POINTS
    )
    fits = metrology.scaling_experiment(sched, kts)
    ratio = metrology.heisenberg_ratio(sched, kts)
    p = metrology.paper_ramp_points(sched, kts)
    columns = ["kt", "eta", "epsilon", "inverted_variance", "mean_n", "fisher_per_n_kt2"]
    rows = np.column_stack([kts, p.eta, p.epsilon, p.qfi, p.mean_n, ratio]).tolist()
    extras = {
        "fits": [
            {
                "quantity": f.quantity,
                "fitted_exponent": f.fitted_exponent,
                "expected_exponent": f.expected_exponent,
                "r_squared": f.r_squared,
            }
            for f in fits
        ]
    }
    return columns, rows, extras


def cramer_rao(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Monte-Carlo estimator study over three decades of shot counts.

    ``numerics.scheme`` picks the measured observable: photon counts
    (default), X^2 or P^2.  The extras give, per shot count, how many
    estimates clipped to 0 (``clipped_to_zero``) and to ``ETA_CLIP``
    (``clipped_to_eta_clip``); a clipped fan's variance understates the
    estimator's.

    With ``output.dump_outcomes`` each replica's nu-shot outcome total, the
    number its estimate inverts, is collected in the extras under
    ``raw_outcomes`` (one list per shot count); the emitter writes them to a
    sidecar file.  ``cli.resolve_config`` guarantees shots >= 100 and
    replicas >= 2.
    """
    num = resolved["numerics"]
    eta = resolved["physics"]["eta_target"]
    shots = num["shots"]
    qfi = analytic.evaluate(eta).qfi
    columns = ["nu", "replicas", "mean_eta_hat", "var_eta_hat", "qfi", "ratio"]
    rows = []
    raw, to_zero, to_clip = {}, {}, {}
    for nu in (shots // 100, shots // 10, shots):
        scheme = metrology.MeasurementScheme(kind=num["scheme"], shots=nu)
        totals = []
        ratio, mean_hat = metrology.cramer_rao_ratio(
            eta, scheme, replicas=int(num["replicas"]), seed=int(num["seed"]),
            outcome_sink=totals,
        )
        raw[str(nu)] = totals
        to_zero[str(nu)], to_clip[str(nu)] = metrology.clip_counts(totals, scheme)
        rows.append([float(nu), float(num["replicas"]), mean_hat,
                     ratio / (nu * qfi), qfi, ratio])
    extras = {"eta": eta, "clipped_to_zero": to_zero, "clipped_to_eta_clip": to_clip}
    if resolved["output"]["dump_outcomes"]:
        extras["raw_outcomes"] = raw
    return columns, rows, extras


def moments_check(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Fock-space squeezed-vacuum moments against the closed forms."""
    columns = [
        "eta", "n_max",
        "mean_n_num", "mean_n_exact", "var_n_num", "var_n_exact",
        "mean_x2_num", "mean_x2_exact", "var_x2_num", "var_x2_exact",
        "mean_p2_num", "mean_p2_exact", "var_p2_num", "var_p2_exact",
        "max_rel_err",
    ]
    rows = []
    for eta in MOMENTS_ETAS:
        n_max = _resolve_n_max(resolved, eta)
        spec = fockspace.HilbertSpec(n_max=n_max, with_qubit=False)
        state = fockspace.squeezed_vacuum(spec, analytic.squeezing_parameter(eta))
        p = analytic.evaluate(eta)
        observables = fockspace.field_observables(spec)
        pairs = []
        for kind, mean_exact, var_exact in (
            ("photon_number", p.mean_n, p.var_n),
            ("x_squared", p.mean_x2, p.var_x2),
            ("p_squared", p.mean_p2, p.var_p2),
        ):
            mean_num, var_num = metrology.mean_and_variance(state, observables[kind])
            pairs.append((mean_num, mean_exact, var_num, var_exact))
        rel_errs = [
            abs(num - exact) / abs(exact) if exact != 0 else abs(num - exact)
            for mn, me, vn, ve in pairs
            for num, exact in ((mn, me), (vn, ve))
        ]
        row = [float(eta), float(n_max)]
        for mn, me, vn, ve in pairs:
            row.extend([mn, me, vn, ve])
        row.append(max(rel_errs))
        rows.append(row)
    return columns, rows, {}


RUNNERS = {
    "qfi_curve": qfi_curve,
    "ramp_curve": ramp_curve,
    "fidelity_sweep": fidelity_sweep,
    "scaling": scaling,
    "cramer_rao": cramer_rao,
    "moments_check": moments_check,
}
