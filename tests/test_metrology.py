from __future__ import annotations

import math

import numpy as np
import pytest

from jcsense import analytic, fockspace, metrology, ramp
from jcsense.fockspace import HilbertSpec
from jcsense.metrology import (
    EstimateClippedWarning,
    MeasurementScheme,
    cramer_rao_ratio,
    estimate_eta,
    heisenberg_ratio,
    inverted_variance_numeric,
    quadrature_distribution,
    replica_estimates,
    sample_outcomes,
    scaling_experiment,
)


def probe_state(eta: float, n_max: int | None = None):
    spec = HilbertSpec(
        n_max=n_max if n_max is not None else fockspace.adaptive_n_max(eta),
        with_qubit=False,
    )
    return fockspace.squeezed_vacuum(spec, 0.25 * np.log(1 - eta**2))


class TestMeasurementScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementScheme(kind="parity", shots=10)
        with pytest.raises(ValueError):
            MeasurementScheme(kind="photon_number", shots=0)


class TestInvertedVariance:
    def test_photon_number_at_half(self):
        # eta = 0.5: qfi = 0.25 / (2 * 0.5625) = 2/9
        state = probe_state(0.5)
        scheme = MeasurementScheme(kind="photon_number", shots=1)
        got = inverted_variance_numeric(state, scheme, 0.5)
        assert got == pytest.approx(2.0 / 9.0, rel=1e-3)

    def test_quadratures_agree(self):
        state = probe_state(0.5)
        x = inverted_variance_numeric(
            state, MeasurementScheme(kind="x_squared", shots=1), 0.5
        )
        p = inverted_variance_numeric(
            state, MeasurementScheme(kind="p_squared", shots=1), 0.5
        )
        assert x == pytest.approx(p, rel=1e-3)
        assert x == pytest.approx(analytic.evaluate(0.5).qfi, rel=1e-3)

    def test_vanishes_toward_zero_drive(self):
        state = probe_state(0.05)
        scheme = MeasurementScheme(kind="photon_number", shots=1)
        got = inverted_variance_numeric(state, scheme, 0.05)
        assert got == pytest.approx(analytic.evaluate(0.05).qfi, rel=1e-3)
        assert got < 2e-3

    def test_undefined_at_zero_variance(self):
        # the vacuum has Var[N] = 0
        state = probe_state(0.0)
        scheme = MeasurementScheme(kind="photon_number", shots=1)
        with pytest.raises(ValueError):
            inverted_variance_numeric(state, scheme, 1e-3, d_eta=1e-4)

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("kind", ["photon_number", "x_squared", "p_squared"])
    def test_matches_qfi_on_grid(self, eta, kind):
        state = probe_state(eta)
        got = inverted_variance_numeric(state, MeasurementScheme(kind=kind, shots=1), eta)
        assert got == pytest.approx(analytic.evaluate(eta).qfi, rel=1e-3)


class TestQuadratureDistribution:
    def test_mass_and_moments(self):
        state = probe_state(0.8)
        grid, weights = quadrature_distribution(state, "x_squared")
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        mean_x2 = float((weights * grid**2).sum())
        assert mean_x2 == pytest.approx(analytic.evaluate(0.8).mean_x2, rel=1e-6)

    def test_p_distribution_squeezed_below_vacuum(self):
        state = probe_state(0.8)
        grid, weights = quadrature_distribution(state, "p_squared")
        mean_p2 = float((weights * grid**2).sum())
        assert mean_p2 == pytest.approx(analytic.evaluate(0.8).mean_p2, rel=1e-6)
        assert mean_p2 < 0.25


class TestSampleOutcomes:
    def test_vacuum_photon_outcomes_all_zero(self):
        state = probe_state(0.0)
        out = sample_outcomes(state, MeasurementScheme("photon_number", 500), seed=1)
        assert (out == 0).all()

    def test_squeezed_vacuum_outcomes_even(self):
        state = probe_state(0.7)
        out = sample_outcomes(state, MeasurementScheme("photon_number", 2000), seed=2)
        assert (out % 2 == 0).all()

    def test_deterministic_per_seed(self):
        state = probe_state(0.6)
        scheme = MeasurementScheme("x_squared", 100)
        a = sample_outcomes(state, scheme, seed=42)
        b = sample_outcomes(state, scheme, seed=42)
        c = sample_outcomes(state, scheme, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_photon_sample_mean_within_three_sigma(self):
        eta, shots = 0.8, 100_000
        state = probe_state(eta)
        out = sample_outcomes(state, MeasurementScheme("photon_number", shots), seed=7)
        p = analytic.evaluate(eta)
        sigma = np.sqrt(p.var_n / shots)
        assert abs(out.mean() - p.mean_n) <= 3 * sigma

    def test_quadrature_sample_mean_within_three_sigma(self):
        eta, shots = 0.8, 100_000
        state = probe_state(eta)
        out = sample_outcomes(state, MeasurementScheme("x_squared", shots), seed=8)
        p = analytic.evaluate(eta)
        sigma = np.sqrt(p.var_x2 / shots)
        assert abs(out.mean() - p.mean_x2) <= 3 * sigma

    def test_rejects_composite_state(self):
        state = fockspace.eigenstate(HilbertSpec(n_max=32), 1.0, 0.2, 0, "dark")
        with pytest.raises(ValueError):
            sample_outcomes(state, MeasurementScheme("photon_number", 10), seed=0)


class TestEstimateEta:
    def test_exact_mean_inverts_exactly(self):
        p = analytic.evaluate(0.8)
        scheme = MeasurementScheme("photon_number", 1)
        assert estimate_eta(np.array([p.mean_n]), scheme) == pytest.approx(0.8, abs=1e-10)

    def test_exact_inversion_all_schemes(self):
        for eta in (0.2, 0.5, 0.95):
            p = analytic.evaluate(eta)
            for kind, mean in (
                ("photon_number", p.mean_n),
                ("x_squared", p.mean_x2),
                ("p_squared", p.mean_p2),
            ):
                got = estimate_eta(np.array([mean]), MeasurementScheme(kind, 1))
                assert got == pytest.approx(eta, abs=1e-10), kind

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError):
            estimate_eta(np.array([]), MeasurementScheme("photon_number", 1))

    def test_clipping_below_vacuum_value(self):
        scheme = MeasurementScheme("x_squared", 1)
        with pytest.warns(EstimateClippedWarning):
            got = estimate_eta(np.array([0.2]), scheme)  # below <X^2>(0) = 1/4
        assert got == 0.0

    def test_clipping_above_vacuum_for_p(self):
        scheme = MeasurementScheme("p_squared", 1)
        with pytest.warns(EstimateClippedWarning):
            got = estimate_eta(np.array([0.3]), scheme)  # above <P^2>(0) = 1/4
        assert got == 0.0

    def test_all_zero_photon_outcomes(self):
        scheme = MeasurementScheme("photon_number", 4)
        assert estimate_eta(np.zeros(4), scheme) == 0.0

    def test_clip_at_upper_boundary(self):
        scheme = MeasurementScheme("photon_number", 1)
        got = estimate_eta(np.array([1e9]), scheme)
        assert got <= 1.0 - 1e-9


class TestCramerRao:
    def test_ratio_near_one_at_large_shots(self):
        scheme = MeasurementScheme("photon_number", 2000)
        ratio, mean_hat = cramer_rao_ratio(0.8, scheme, replicas=300, seed=11)
        assert 0.7 <= ratio <= 1.5
        assert mean_hat == pytest.approx(0.8, abs=0.01)

    def test_reproducible(self):
        scheme = MeasurementScheme("photon_number", 500)
        a = cramer_rao_ratio(0.8, scheme, replicas=50, seed=3)
        b = cramer_rao_ratio(0.8, scheme, replicas=50, seed=3)
        assert a == b

    def test_needs_replicas(self):
        with pytest.raises(ValueError):
            cramer_rao_ratio(0.8, MeasurementScheme("photon_number", 10), replicas=1)


class TestReplicaFan:
    @pytest.mark.parametrize("kind", ["photon_number", "x_squared", "p_squared"])
    def test_replicas_draw_what_sample_outcomes_draws(self, kind):
        eta, replicas, seed = 0.8, 5, 21
        scheme = MeasurementScheme(kind, 64)
        sink = []
        replica_estimates(eta, scheme, replicas, seed=seed, outcome_sink=sink)
        probe = probe_state(eta)
        children = np.random.SeedSequence(seed).spawn(replicas)
        assert len(sink) == replicas
        for outcomes, child in zip(sink, children):
            np.testing.assert_array_equal(outcomes, sample_outcomes(probe, scheme, child))

    @pytest.mark.parametrize(
        "kind, builds", [("photon_number", 0), ("x_squared", 1), ("p_squared", 1)]
    )
    def test_one_distribution_build_per_fan(self, monkeypatch, kind, builds):
        calls = []
        original = metrology.quadrature_distribution

        def counting(state, quadrature):
            calls.append(quadrature)
            return original(state, quadrature)

        monkeypatch.setattr(metrology, "quadrature_distribution", counting)
        replica_estimates(0.8, MeasurementScheme(kind, 64), 5, seed=3)
        assert len(calls) == builds

    def test_under_resolved_grid_still_warns(self, monkeypatch):
        # the squeezed probe's X is Gaussian: a +/- 2 sigma grid misses ~5% of it
        sigmas = 2.0
        assert 1.0 - math.erf(sigmas / math.sqrt(2.0)) > metrology.QUAD_MASS_TOL
        monkeypatch.setattr(metrology, "QUAD_GRID_SIGMAS", sigmas)
        scheme = MeasurementScheme("x_squared", 100)
        with pytest.warns(UserWarning, match="distribution is under-resolved"):
            cramer_rao_ratio(0.8, scheme, replicas=3, seed=5)


class TestScalingExperiment:
    def test_fitted_exponents(self):
        sched = ramp.RampSchedule(k=1.0, xi=4.0 / 3.0, eta_target=0.995)
        kts = np.logspace(2, 4, 24)
        fits = {f.quantity: f for f in scaling_experiment(sched, kts)}
        assert fits["inverted_variance"].fitted_exponent == pytest.approx(8 / 3, abs=0.05)
        assert fits["mean_n"].fitted_exponent == pytest.approx(2 / 3, abs=0.05)
        assert fits["epsilon"].fitted_exponent == pytest.approx(-4 / 3, abs=0.02)
        for f in fits.values():
            assert f.r_squared > 0.999

    def test_input_validation(self):
        sched = ramp.RampSchedule(k=1.0, xi=4.0 / 3.0, eta_target=0.995)
        with pytest.raises(ValueError):
            scaling_experiment(sched, np.logspace(2, 4, 5))  # too few points
        with pytest.raises(ValueError):
            scaling_experiment(sched, np.logspace(0, 3, 10))  # kt < 10
        bad = ramp.RampSchedule(k=1.0, xi=1.0, eta_target=0.995)
        with pytest.raises(ValueError):
            scaling_experiment(bad, np.logspace(2, 4, 10))

    def test_paper_ramp_points_follow_the_schedule(self):
        sched = ramp.RampSchedule(k=0.5, xi=4.0 / 3.0, eta_target=0.995)
        kts = np.logspace(2, 4, 8)
        eps, points = metrology.paper_ramp_points(sched, kts)
        for i, kt in enumerate(kts):
            t = kt / sched.k
            assert eps[i] == pytest.approx(ramp.epsilon_at(sched, t), rel=1e-14)
            assert points.eta[i] == pytest.approx(ramp.eta_at(sched, t), rel=1e-14)
        assert points.epsilon == pytest.approx(eps, rel=1e-12)
        with pytest.raises(ValueError, match="onset"):
            metrology.paper_ramp_points(ramp.RampSchedule(k=0.5, onset=1.0), kts)

    def test_heisenberg_ratio_constant_in_power_law_regime(self):
        sched = ramp.RampSchedule(k=1.0, xi=4.0 / 3.0, eta_target=0.995)
        kts = np.logspace(3, 4, 10)
        ratio = heisenberg_ratio(sched, kts)
        assert ratio.max() / ratio.min() - 1.0 <= 0.10
