"""Named experiments: each produces one plot-ready table.

qfi_curve      closed-form sensitivity quantities on an eta grid
ramp_curve     the drive schedule eta(kt) and its derivative
fidelity_sweep integrated trajectory with dark-state fidelity tracking
scaling        near-critical scaling table and log-log fits along the ramp
cramer_rao     Monte-Carlo estimator variance against the quantum bound
moments_check  Fock-space moments against the closed forms

Every experiment returns (columns, rows, extras); emission and formatting
live in the CLI layer.  Each builds its table through ``_table``, which
takes the columns in order as ``name=values`` (equal-length 1-D sequences
of numbers) and returns their names and the rows as lists of floats, so a
column is declared once, by one keyword.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import analytic, dynamics, fockspace, metrology, ramp

QFI_GRID_POINTS = 200
RAMP_GRID_POINTS = 200
SCALING_KT_RANGE = (1e2, 1e4)
SCALING_KT_POINTS = 24
MOMENTS_ETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _table(**columns) -> tuple[list[str], list[list[float]]]:
    """The column names and the rows of the table given as name=values."""
    return list(columns), np.column_stack(tuple(columns.values())).tolist()


def qfi_curve(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Closed-form sensitivity table over eta in [0, eta_target]."""
    eta_target = resolved["physics"]["eta_target"]
    etas = np.linspace(0.0, eta_target, QFI_GRID_POINTS)
    p = analytic.evaluate(etas)
    columns, rows = _table(
        eta=p.eta, qfi=p.qfi, mean_n=p.mean_n, var_n=p.var_n, chi=p.chi,
        mean_x2=p.mean_x2, var_x2=p.var_x2, mean_p2=p.mean_p2, var_p2=p.var_p2,
        squeeze_r=p.r, epsilon=p.epsilon,
    )
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
    ts = kts / sched.k
    columns, rows = _table(
        kt=kts, t=ts, eta=[ramp.eta_at(sched, t) for t in ts],
        epsilon=[ramp.epsilon_at(sched, t) for t in ts],
        eta_dot=[ramp.eta_dot_at(sched, t) for t in ts],
    )
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
    the worst norm defect |1 - ||c||^2| over the records, and the
    integrator's generator evaluations and accepted steps.
    """
    sched = _schedule(resolved)
    num = resolved["numerics"]
    traj = dynamics.evolve(sched, resolved["physics"]["Omega"], rtol=num["rtol"], atol=num["atol"])
    columns, rows = _table(
        kt=sched.k * traj.t, t=traj.t, eta=traj.eta, fidelity=traj.fidelity,
        mean_n=traj.mean_n, var_n=traj.var_n, mean_x2=traj.mean_x2,
        mean_p2=traj.mean_p2, norm_defect=traj.norm_defect,
    )
    extras = {
        "n_doublets": dynamics.N_DOUBLETS,
        "top_pair_population": traj.top_pair_population.max(),
        "min_fidelity": traj.fidelity.min(),
        "final_fidelity": traj.fidelity[-1],
        "max_norm_defect": traj.norm_defect.max(),
        "nfev": traj.nfev,
        "steps": traj.steps,
    }
    return columns, rows, extras


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    lx, ly = np.log(x), np.log(y)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ np.array([slope, intercept])
    total = ((ly - ly.mean()) ** 2).sum()
    r2 = 1.0 - float((resid**2).sum() / total) if total > 0 else 1.0
    return float(slope), r2


def paper_ramp_points(schedule, kt_points) -> analytic.AnalyticPoint:
    """The closed forms at each kt of the ramp.

    With w = phi(kt)^xi on the schedule's own clock, every closed form is
    evaluated from epsilon = 1/(w + 1) and eta^2 = w/(w + 1) themselves, so
    ``.epsilon`` is exact: re-deriving it from the rounded eta would lose
    the digits that cancel in 1 - eta^2 (2.8e-11 relative at kt = 1e4).
    """
    phi = np.array([ramp._clock(schedule, kt)[0] for kt in kt_points], dtype=float)
    w = phi**schedule.xi
    eta2 = w / (w + 1.0)
    return analytic._evaluate(np.sqrt(eta2), eta2, 1.0 / (w + 1.0))


def scaling(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Near-critical scaling along the ramp, in closed form.

    The closed forms are evaluated once, by :func:`paper_ramp_points`, at
    ``SCALING_KT_POINTS`` log-spaced kt in ``SCALING_KT_RANGE`` on the
    schedule's own clock.  The table gives kt, eta, epsilon, the inverted
    variance (the QFI), <N> and ``fisher_per_n_kt2`` = F / (<N> kt^2),
    constant where the Heisenberg scaling holds.  The extras' ``fits`` give
    the log-log slope and r^2 against kt of the inverted variance, <N> and
    epsilon, which approach 8/3, 2/3 and -4/3 on the xi = 4/3 schedule that
    ``cli.resolve_config`` requires.
    """
    sched = _schedule(resolved)
    kts = np.logspace(
        np.log10(SCALING_KT_RANGE[0]), np.log10(SCALING_KT_RANGE[1]), SCALING_KT_POINTS
    )
    p = paper_ramp_points(sched, kts)
    fits = []
    for quantity, values, expected in (
        ("inverted_variance", p.qfi, 8.0 / 3.0),
        ("mean_n", p.mean_n, 2.0 / 3.0),
        ("epsilon", p.epsilon, -4.0 / 3.0),
    ):
        slope, r2 = _loglog_fit(kts, values)
        fits.append({"quantity": quantity, "fitted_exponent": slope,
                     "expected_exponent": expected, "r_squared": r2})
    columns, rows = _table(
        kt=kts, eta=p.eta, epsilon=p.epsilon, inverted_variance=p.qfi,
        mean_n=p.mean_n, fisher_per_n_kt2=p.qfi / (p.mean_n * kts**2),
    )
    return columns, rows, {"fits": fits}


def cramer_rao(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Monte-Carlo estimator study over three decades of shot counts.

    ``numerics.scheme`` picks the measured observable: photon counts
    (default), X^2 or P^2.  Each shot count nu runs one
    :func:`metrology.replica_fan`, whose estimates give its row
    (``var_eta_hat`` their sample variance, ddof=1).  The extras give its
    counts of estimates clipped to 0 (``clipped_to_zero``) and to
    ``ETA_CLIP`` (``clipped_to_eta_clip``); a clipped fan's variance
    understates the estimator's.

    With ``output.dump_outcomes`` each replica's nu-shot outcome total, the
    number its estimate inverts, is collected in the extras under
    ``raw_outcomes`` (one list per shot count); the emitter writes them to a
    sidecar file.  ``cli.resolve_config`` guarantees shots >= 100 and
    replicas >= 2.
    """
    num = resolved["numerics"]
    eta = resolved["physics"]["eta_target"]
    shots, replicas = num["shots"], int(num["replicas"])
    qfi = analytic.evaluate(eta).qfi
    nus = (shots // 100, shots // 10, shots)
    fans = {str(nu): metrology.replica_fan(eta, metrology.MeasurementScheme(num["scheme"], nu),
                                           replicas, seed=int(num["seed"])) for nu in nus}
    var = np.array([fan.estimates.var(ddof=1) for fan in fans.values()])
    columns, rows = _table(
        nu=nus, replicas=np.full(len(nus), replicas),
        mean_eta_hat=[fan.estimates.mean() for fan in fans.values()],
        var_eta_hat=var, qfi=np.full(len(nus), qfi), ratio=np.array(nus) * var * qfi,
    )
    extras = {
        "eta": eta,
        "clipped_to_zero": {nu: fan.clipped_to_zero for nu, fan in fans.items()},
        "clipped_to_eta_clip": {nu: fan.clipped_to_eta_clip for nu, fan in fans.items()},
    }
    if resolved["output"]["dump_outcomes"]:
        extras["raw_outcomes"] = {nu: fan.totals.tolist() for nu, fan in fans.items()}
    return columns, rows, extras


def moments_check(resolved: dict) -> tuple[list[str], list[list[float]], dict]:
    """Fock-space squeezed-vacuum moments against the closed forms."""
    table = defaultdict(list)  # column name -> values, in the order first named
    for eta in MOMENTS_ETAS:
        n_max = _resolve_n_max(resolved, eta)
        spec = fockspace.HilbertSpec(n_max=n_max, with_qubit=False)
        state = fockspace.squeezed_vacuum(spec, analytic.squeezing_parameter(eta))
        p = analytic.evaluate(eta)
        observables = fockspace.field_observables(spec)
        table["eta"].append(eta)
        table["n_max"].append(n_max)
        rel_errs = []
        for kind, name, mean_exact, var_exact in (
            ("photon_number", "n", p.mean_n, p.var_n),
            ("x_squared", "x2", p.mean_x2, p.var_x2),
            ("p_squared", "p2", p.mean_p2, p.var_p2),
        ):
            mean_num, var_num = metrology.mean_and_variance(state, observables[kind])
            for moment, got, exact in (("mean", mean_num, mean_exact), ("var", var_num, var_exact)):
                table[f"{moment}_{name}_num"].append(got)
                table[f"{moment}_{name}_exact"].append(exact)
                rel_errs.append(abs(got - exact) / exact)
        table["max_rel_err"].append(max(rel_errs))
    columns, rows = _table(**table)
    return columns, rows, {}


RUNNERS = {
    "qfi_curve": qfi_curve,
    "ramp_curve": ramp_curve,
    "fidelity_sweep": fidelity_sweep,
    "scaling": scaling,
    "cramer_rao": cramer_rao,
    "moments_check": moments_check,
}
