"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.

The trajectories of criterion 5 are shared with the dynamics tests through
session fixtures: the headline ramp in the adiabatic frame and its
lab-frame oracle at n_max 244, which dominates the runtime (about 15 s on a
2-vCPU machine).  Criterion 6 runs six ramps to eta = 0.99 (three rates,
with and without the onset) in the frame, a few seconds together.
"""

from __future__ import annotations

import numpy as np
from conftest import HEADLINE

from jcsense import analytic, cli, dynamics, experiments, fockspace, metrology, ramp
from jcsense.fockspace import HilbertSpec

OMEGA = 1.0
ETA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_dark_state_exactness():
    worst = 0.0
    for eta in ETA_GRID:
        spec = HilbertSpec(n_max=fockspace.adaptive_n_max(eta))
        h = fockspace.build_hamiltonian(spec, OMEGA, eta)
        dark = fockspace.eigenstate(spec, OMEGA, eta, 0, "dark")
        worst = max(worst, np.linalg.norm(h.matrix @ dark.amplitudes) / OMEGA)
    report(
        "criterion 1 (dark-state exactness)",
        worst <= 1e-8,
        f"max ||H psi0||/Omega = {worst:.3e} over eta grid (tol 1e-8)",
    )


def test_criterion_2_spectrum():
    worst = 0.0
    for eta in (0.3, 0.6, 0.9):
        got = fockspace.doublet_spectrum(HilbertSpec(n_max=160), OMEGA, eta, 3)
        expected = np.sort(
            [analytic.eigenvalue(OMEGA, eta, n, b) for n in (1, 2, 3) for b in ("+", "-")]
        )
        worst = max(worst, float(np.max(np.abs(got - expected) / np.abs(expected))))
    report(
        "criterion 2 (spectrum)",
        worst <= 1e-6,
        f"max relative eigenvalue error = {worst:.3e} (tol 1e-6)",
    )


def test_criterion_3_moment_formulas():
    worst = 0.0
    for eta in ETA_GRID:
        spec = HilbertSpec(n_max=fockspace.adaptive_n_max(eta), with_qubit=False)
        state = fockspace.squeezed_vacuum(spec, 0.25 * np.log(1 - eta**2))
        psi = state.amplitudes
        num = fockspace.number_op(spec).matrix
        mx = fockspace.quadrature_x(spec).matrix
        mp = fockspace.quadrature_p(spec).matrix
        x2, p2 = mx @ mx, mp @ mp
        p = analytic.evaluate(eta)

        def ev(op):
            return float(np.real(np.vdot(psi, op @ psi)))

        checks = {
            "N": (ev(num), p.mean_n),
            "N^2": (ev(num @ num), p.var_n + p.mean_n**2),
            "X^2": (ev(x2), p.mean_x2),
            "X^4": (ev(x2 @ x2), p.var_x2 + p.mean_x2**2),
            "P^2": (ev(p2), p.mean_p2),
            "P^4": (ev(p2 @ p2), p.var_p2 + p.mean_p2**2),
        }
        for got, expected in checks.values():
            worst = max(worst, abs(got - expected) / abs(expected))
    report(
        "criterion 3 (moment formulas)",
        worst <= 1e-8,
        f"max relative moment error = {worst:.3e} over eta <= 0.9 (tol 1e-8)",
    )


def test_criterion_4_qfi_cross_check():
    worst = 0.0
    for eta in ETA_GRID:
        got = analytic.qfi_from_state_derivative(eta)
        expected = analytic.evaluate(eta).qfi
        worst = max(worst, abs(got - expected) / expected)
    etas = np.linspace(0.0, 0.995, 400)
    qfi = np.array([analytic.evaluate(float(e)).qfi for e in etas])
    monotone = bool((np.diff(qfi) > 0).all())
    diverging = qfi[-1] > 2.4e3
    report(
        "criterion 4 (QFI cross-check)",
        worst <= 1e-4 and monotone and diverging,
        f"max relative FD-vs-closed-form error = {worst:.3e} (tol 1e-4); "
        f"monotone to 0.995 = {monotone}, endpoint QFI = {qfi[-1]:.1f}",
    )


def test_criterion_5_fidelity_ramp(headline_ramp_run, headline_lab_oracle):
    # the drift is the frame's final fidelity against the lab-frame oracle
    # on twice the headline's Fock cutoff
    traj = headline_ramp_run
    min_fidelity = traj.fidelity.min()
    kt_end = HEADLINE.kt_end
    drift = abs(headline_lab_oracle.fidelity[-1] - traj.fidelity[-1])
    passed = min_fidelity >= 0.9996 and abs(kt_end - 31.4) < 0.1 and drift < 1e-6
    report(
        "criterion 5 (fidelity ramp, k = Omega/200)",
        passed,
        f"min fidelity = {min_fidelity:.6f} (floor 0.9996), kt_end = {kt_end:.2f}, "
        f"|F(lab, n_max 244) - F(frame)| = {drift:.2e} (tol 1e-6)",
    )


def test_criterion_6_rate_scaling():
    # leakage 1 - F at eta = 0.99 across three ramp rates, log-log slope,
    # integrated in the adiabatic frame at tightened tolerances.  The k^2 law covers the
    # near-critical channel only, so it is checked on the same xi = 4/3
    # schedule driven through the cusp-free onset clock (tau = 2).  Ramps
    # started with the paper's t^(2/3) cusp leak mostly at start-up, which
    # first-order perturbation theory pins at 0.204 (k/Omega)^(4/3): their
    # slope must be xi instead.
    eta_target = 0.99
    xi = 4.0 / 3.0
    rates = (OMEGA / 400, OMEGA / 200, OMEGA / 100)

    def leakage_slope(onset):
        leakages = []
        for k in rates:
            sched = ramp.RampSchedule(k=k, xi=xi, eta_target=eta_target, onset=onset)
            leakages.append(1.0 - dynamics.evolve(sched, OMEGA, rtol=1e-10, atol=1e-12).fidelity[-1])
        return leakages, float(np.polyfit(np.log(rates), np.log(leakages), 1)[0])

    smooth, smooth_slope = leakage_slope(2.0)
    paper, paper_slope = leakage_slope(0.0)
    detail = (
        f"onset tau = 2: 1-F = {smooth[0]:.3e}/{smooth[1]:.3e}/{smooth[2]:.3e} at "
        f"k = Omega/400/200/100, fitted slope = {smooth_slope:.3f} (2 +/- 0.3); "
        f"paper schedule (start-up cusp): 1-F = "
        f"{paper[0]:.3e}/{paper[1]:.3e}/{paper[2]:.3e}, fitted slope = "
        f"{paper_slope:.3f} (xi = {xi:.3f} +/- 0.3)"
    )
    report(
        "criterion 6 (k^2 leakage scaling)",
        abs(smooth_slope - 2.0) <= 0.3 and abs(paper_slope - xi) <= 0.3,
        detail,
    )


def test_criterion_7_scaling_exponents():
    # the runner's 24 kt in [1e2, 1e4]; on the paper clock the points do
    # not depend on k
    columns, rows, extras = experiments.scaling(
        cli.resolve_config({"experiment": "scaling", "physics": {"k": 1.0}}))
    table = dict(zip(columns, np.array(rows).T))
    slopes = {f["quantity"]: f["fitted_exponent"] for f in extras["fits"]}
    ratio = table["fisher_per_n_kt2"][table["kt"] >= 1e3]
    spread = float(ratio.max() / ratio.min() - 1.0)
    ok = (
        abs(slopes["inverted_variance"] - 8 / 3) <= 0.05
        and abs(slopes["mean_n"] - 2 / 3) <= 0.05
        and abs(slopes["epsilon"] + 4 / 3) <= 0.02
        and spread <= 0.10
    )
    report(
        "criterion 7 (scaling exponents)",
        ok,
        f"slopes: inverted variance {slopes['inverted_variance']:.4f} "
        f"(8/3 +/- 0.05), mean N {slopes['mean_n']:.4f} (2/3 +/- 0.05), "
        f"epsilon {slopes['epsilon']:.4f} (-4/3 +/- 0.02); "
        f"F/(N t^2) spread over top decade = {spread:.3f} (tol 0.10)",
    )


def test_criterion_8_cramer_rao_saturation():
    eta, seed = 0.8, 2026
    ratios = {}
    for shots in (100, 1000, 10000):
        scheme = metrology.MeasurementScheme("photon_number", shots)
        ratios[shots], _ = metrology.cramer_rao_ratio(
            eta, scheme, replicas=500, seed=seed
        )
    distances = [abs(ratios[s] - 1.0) for s in (100, 1000, 10000)]
    monotone = distances[0] >= distances[1] >= distances[2]
    in_window = 0.9 <= ratios[10000] <= 1.3
    report(
        "criterion 8 (Cramer-Rao saturation)",
        in_window and monotone,
        f"nu*Var*QFI = {ratios[100]:.3f}/{ratios[1000]:.3f}/{ratios[10000]:.3f} "
        f"at nu = 1e2/1e3/1e4 (window [0.9, 1.3] at 1e4; monotone approach: {monotone})",
    )


def test_criterion_9_observable_equivalence():
    worst = 0.0
    for eta in (0.3, 0.5, 0.8):
        spec = HilbertSpec(n_max=fockspace.adaptive_n_max(eta), with_qubit=False)
        state = fockspace.squeezed_vacuum(spec, 0.25 * np.log(1 - eta**2))
        qfi = analytic.evaluate(eta).qfi
        values = [
            metrology.inverted_variance_numeric(
                state, metrology.MeasurementScheme(kind, 1), eta
            )
            for kind in ("photon_number", "x_squared", "p_squared")
        ]
        for v in values:
            worst = max(worst, abs(v - qfi) / qfi)
        worst = max(worst, (max(values) - min(values)) / qfi)
    report(
        "criterion 9 (observable equivalence)",
        worst <= 1e-3,
        f"max relative spread of inverted variances vs QFI = {worst:.3e} (tol 1e-3)",
    )


def test_criterion_10_adiabaticity_bound():
    sched = ramp.RampSchedule(k=OMEGA / 200, xi=4.0 / 3.0, eta_target=0.995)
    bound = ramp.transition_bound(sched, OMEGA)
    worst = 0.0
    for eta in (0.9, 0.99, 0.999):
        for n in range(1, 21):
            worst = max(worst, ramp.transition_probability(sched, OMEGA, eta, n))
    report(
        "criterion 10 (adiabaticity bound)",
        worst < bound,
        f"max P_n = {worst:.3e} < bound (k/(3 sqrt2 Omega))^2 = {bound:.3e}",
    )
