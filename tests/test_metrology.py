from __future__ import annotations

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import (
    fock_outcome_law,
    fock_probe,
    photon_count_distribution,
    quadrature_density,
    squeezed_vacuum_coefficients,
)
from scipy import integrate, stats

from jcsense import analytic, cli, experiments, fockspace, metrology, ramp
from jcsense.metrology import (
    ETA_CLIP,
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


class TestMeasurementScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementScheme(kind="parity", shots=10)
        with pytest.raises(ValueError):
            MeasurementScheme(kind="photon_number", shots=0)

    @pytest.mark.parametrize("shots", [100.5, 100.0, True, "100", None])
    def test_rejects_a_shot_count_that_is_not_an_integer(self, shots):
        # a fractional count would pass the samplers' shape parameter nu/2
        with pytest.raises(ValueError, match="shots must be an integer"):
            MeasurementScheme(kind="photon_number", shots=shots)

    def test_accepts_numpy_integers(self):
        scheme = MeasurementScheme(kind="x_squared", shots=np.int64(100))
        assert replica_estimates(0.8, scheme, 2, seed=1).shape == (2,)


class TestInvertedVariance:
    def test_photon_number_at_half(self):
        # eta = 0.5: qfi = 0.25 / (2 * 0.5625) = 2/9
        state = fock_probe(0.5)
        scheme = MeasurementScheme(kind="photon_number", shots=1)
        got = inverted_variance_numeric(state, scheme, 0.5)
        assert got == pytest.approx(2.0 / 9.0, rel=1e-3, abs=0.0)

    def test_quadratures_agree(self):
        state = fock_probe(0.5)
        x = inverted_variance_numeric(
            state, MeasurementScheme(kind="x_squared", shots=1), 0.5
        )
        p = inverted_variance_numeric(
            state, MeasurementScheme(kind="p_squared", shots=1), 0.5
        )
        assert x == pytest.approx(p, rel=1e-3, abs=0.0)
        assert x == pytest.approx(analytic.evaluate(0.5).qfi, rel=1e-3, abs=0.0)

    def test_vanishes_toward_zero_drive(self):
        state = fock_probe(0.05)
        scheme = MeasurementScheme(kind="photon_number", shots=1)
        got = inverted_variance_numeric(state, scheme, 0.05)
        assert got == pytest.approx(analytic.evaluate(0.05).qfi, rel=1e-3, abs=0.0)
        assert got < 2e-3

    def test_undefined_at_zero_variance(self):
        # the vacuum has Var[N] = 0
        state = fock_probe(0.0)
        scheme = MeasurementScheme(kind="photon_number", shots=1)
        with pytest.raises(ValueError):
            inverted_variance_numeric(state, scheme, 1e-3)

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("kind", ["photon_number", "x_squared", "p_squared"])
    def test_matches_qfi_on_grid(self, eta, kind):
        state = fock_probe(eta)
        got = inverted_variance_numeric(state, MeasurementScheme(kind=kind, shots=1), eta)
        assert got == pytest.approx(analytic.evaluate(eta).qfi, rel=1e-3, abs=0.0)


class TestQuadratureLaw:
    """The exact Gaussian law of the quadratures against the Fock route, and
    photon-count draws against the Fock-sampled route."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("kind, quadrature", [("x_squared", "x"), ("p_squared", "p")])
    def test_gaussian_pdf_matches_fock_density(self, eta, kind, quadrature):
        mean, sigma = quadrature_distribution(eta, kind)
        assert mean == 0.0
        q = np.linspace(-6.0 * sigma, 6.0 * sigma, 801)
        gaussian = np.exp(-0.5 * (q / sigma) ** 2) / (np.sqrt(2.0 * np.pi) * sigma)
        # a cutoff well past adaptive_n_max, so the Fock expansion is converged
        fock = quadrature_density(fock_probe(eta, n_max=96).amplitudes, q, quadrature)
        np.testing.assert_allclose(gaussian, fock, rtol=0, atol=1e-12 * gaussian.max())

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 0.99, 0.995, 0.9999])
    def test_variance_matches_closed_form(self, eta):
        # the Fock oracle on the squeezed vacuum's support, up to level 849
        # at eta = 0.9999
        state = fock_probe(eta, n_max=analytic.squeezed_vacuum_n_max(eta))
        p = analytic.evaluate(eta)
        for kind, exact in (("x_squared", p.mean_x2), ("p_squared", p.mean_p2)):
            _, sigma = quadrature_distribution(eta, kind)
            _, fock_sigma = fock_outcome_law(state, kind)
            assert sigma**2 == pytest.approx(exact, rel=1e-15, abs=0.0), kind
            assert sigma**2 == pytest.approx(fock_sigma**2, rel=1e-7, abs=0.0), kind

    def test_rejects_photon_number_kind(self):
        with pytest.raises(ValueError, match="no quadrature distribution"):
            quadrature_distribution(0.5, "photon_number")

    @pytest.mark.parametrize("kind", ["x_squared", "p_squared"])
    def test_sample_outcomes_are_squared_normal_draws(self, kind):
        _, sigma = quadrature_distribution(0.8, kind)
        got = sample_outcomes(0.8, MeasurementScheme(kind, 1000), seed=17)
        want = np.random.default_rng(17).normal(0.0, sigma, 1000) ** 2
        np.testing.assert_array_equal(got, want)

    def test_photon_counts_are_negative_binomial_draws(self):
        # counts are 2m, m ~ NegBin(1/2, sech^2 r), whose law is the Fock
        # populations of the probe at the even levels
        eta, shots = 0.8, 1000
        state = fock_probe(eta)
        values, populations = fock_outcome_law(state, "photon_number")
        sech2 = np.cosh(analytic.squeezing_parameter(eta)) ** -2
        np.testing.assert_allclose(
            populations[::2], stats.nbinom(0.5, sech2).pmf(values[::2] / 2),
            rtol=1e-10, atol=1e-16,
        )
        got = sample_outcomes(eta, MeasurementScheme("photon_number", shots), seed=17)
        want = 2.0 * np.random.default_rng(17).negative_binomial(0.5, sech2, shots)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == float


class TestPhotonCountLaw:
    """The closed-form photon-count law against the Fock populations."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.8, 0.995, 0.9999])
    def test_pmf_matches_fock_populations(self, eta):
        values, p = photon_count_distribution(eta)
        levels = analytic.squeezed_vacuum_n_max(eta) + 1
        np.testing.assert_array_equal(values, np.arange(levels))
        c = squeezed_vacuum_coefficients(levels, 0.25 * np.log(1 - eta**2))
        np.testing.assert_allclose(p, c**2 / (c**2).sum(), rtol=1e-10, atol=1e-16)

    @pytest.mark.parametrize("eta", [0.9999, 0.999999])
    def test_moments_match_closed_forms_past_the_clamp(self, eta):
        # the law spans the squeezed vacuum's whole support (up to level 849
        # and 8,486), and the Fock cutoff covers it: neither is clamped
        values, p = photon_count_distribution(eta)
        support = analytic.squeezed_vacuum_n_max(eta)
        assert values[-1] == support and values.size == support + 1
        assert fockspace.adaptive_n_max(eta) >= support
        mean = p @ values
        var = p @ (values - mean) ** 2
        point = analytic.evaluate(eta)
        assert mean == pytest.approx(point.mean_n, rel=1e-8, abs=0.0)
        assert var == pytest.approx(point.var_n, rel=1e-8, abs=0.0)


class TestChiSquaredLaw:
    """A replica's quadrature sample mean is sigma^2 chi^2_nu / nu, exactly:
    its total is Gamma(nu/2, scale 2 sigma^2)."""

    @pytest.mark.parametrize("kind", ["x_squared", "p_squared"])
    def test_sample_mean_moments_over_a_fan(self, kind):
        eta, shots, replicas = 0.9, 50, 4000
        p = analytic.evaluate(eta)
        sigma2 = p.mean_x2 if kind == "x_squared" else p.mean_p2
        sink = []
        with warnings.catch_warnings():
            # the test reads the draws: an x_squared mean may fall below 1/4,
            # and its estimate clips to 0
            warnings.simplefilter("ignore", EstimateClippedWarning)
            replica_estimates(
                eta, MeasurementScheme(kind, shots), replicas, seed=8, outcome_sink=sink
            )
        means = np.array(sink) / shots
        # moments of m = sigma^2 chi^2_nu / nu: variance 2 sigma^4 / nu and
        # fourth central moment 12 (nu + 4) sigma^8 / nu^3
        var = 2.0 * sigma2**2 / shots
        mu4 = 12.0 * (shots + 4) * sigma2**4 / shots**3
        se_mean = np.sqrt(var / replicas)
        se_var = np.sqrt((mu4 - var**2 * (replicas - 3) / (replicas - 1)) / replicas)
        assert abs(means.mean() - sigma2) <= 4.0 * se_mean
        assert abs(means.var(ddof=1) - var) <= 4.0 * se_var


class TestSampleOutcomes:
    def test_vacuum_photon_outcomes_all_zero(self):
        out = sample_outcomes(0.0, MeasurementScheme("photon_number", 500), seed=1)
        assert (out == 0).all()

    def test_squeezed_vacuum_outcomes_even(self):
        out = sample_outcomes(0.7, MeasurementScheme("photon_number", 2000), seed=2)
        assert (out % 2 == 0).all()

    def test_deterministic_per_seed(self):
        scheme = MeasurementScheme("x_squared", 100)
        a = sample_outcomes(0.6, scheme, seed=42)
        b = sample_outcomes(0.6, scheme, seed=42)
        c = sample_outcomes(0.6, scheme, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_photon_sample_mean_within_three_sigma(self):
        eta, shots = 0.8, 100_000
        out = sample_outcomes(eta, MeasurementScheme("photon_number", shots), seed=7)
        p = analytic.evaluate(eta)
        sigma = np.sqrt(p.var_n / shots)
        assert abs(out.mean() - p.mean_n) <= 3 * sigma

    def test_quadrature_sample_mean_within_three_sigma(self):
        eta, shots = 0.8, 100_000
        out = sample_outcomes(eta, MeasurementScheme("x_squared", shots), seed=8)
        p = analytic.evaluate(eta)
        sigma = np.sqrt(p.var_x2 / shots)
        assert abs(out.mean() - p.mean_x2) <= 3 * sigma


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

    # the warnings state the estimate as a Python float, not np.float64(...)
    def test_clipping_below_vacuum_value(self):
        scheme = MeasurementScheme("x_squared", 1)
        with pytest.warns(
            EstimateClippedWarning, match=r"sample mean 0\.2 of x_squared .* clipped to 0\.0$"
        ):
            got = estimate_eta(np.array([0.2]), scheme)  # below <X^2>(0) = 1/4
        assert got == 0.0

    def test_clipping_above_vacuum_for_p(self):
        scheme = MeasurementScheme("p_squared", 1)
        with pytest.warns(
            EstimateClippedWarning, match=r"sample mean 0\.3 of p_squared .* clipped to 0\.0$"
        ):
            got = estimate_eta(np.array([0.3]), scheme)  # above <P^2>(0) = 1/4
        assert got == 0.0

    @pytest.mark.parametrize("kind, mean", [("x_squared", 1e9), ("p_squared", 0.0)])
    def test_quadrature_clip_at_upper_boundary(self, kind, mean):
        scheme = MeasurementScheme(kind, 1)
        with pytest.warns(
            EstimateClippedWarning, match=rf"of {kind} .* clipped to 0\.999999999$"
        ):
            got = estimate_eta(np.array([mean]), scheme)
        assert got == ETA_CLIP

    @pytest.mark.parametrize(
        "kind, outcomes, got",
        [
            pytest.param("photon_number", [2.0, np.nan], "nan", id="nan-photon"),
            pytest.param("x_squared", [0.3, np.nan], "nan", id="nan-quadrature"),
            pytest.param("photon_number", [np.inf], "inf", id="inf-photon"),
            # at a P^2 mean of -0.1 the mean map once gave 0.9165, at -0.3 a
            # bare math domain error
            pytest.param("p_squared", [-0.1], "-0.1", id="p-mean-minus-0.1"),
            pytest.param("p_squared", [-0.3], "-0.3", id="p-mean-minus-0.3"),
        ],
    )
    def test_rejects_outcomes_no_measurement_gives(self, kind, outcomes, got):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {got}$"):
            estimate_eta(np.array(outcomes), MeasurementScheme(kind, len(outcomes)))

    def test_all_zero_photon_outcomes(self):
        scheme = MeasurementScheme("photon_number", 4)
        assert estimate_eta(np.zeros(4), scheme) == 0.0

    def test_clip_at_upper_boundary(self):
        scheme = MeasurementScheme("photon_number", 1)
        with pytest.warns(EstimateClippedWarning, match=r"clipped to 0\.999999999$"):
            got = estimate_eta(np.array([1e9]), scheme)
        assert got == ETA_CLIP


def scalar_estimate(m: float, kind: str) -> tuple[float, bool]:
    """The scalar inversion of one sample mean m >= 0, one branch per
    scheme's range check, that the array inversion replaced: the oracle it
    must match bit for bit."""
    if kind == "photon_number":
        b = 1.0 + 2.0 * m
        u = 1.0 / (b + math.sqrt(b * b - 1.0))
        eta_hat = math.sqrt(max(0.0, 1.0 - u * u))
    elif kind == "x_squared":
        if m <= 0.25:
            return 0.0, m < 0.25
        u = 1.0 / (4.0 * m)
        eta_hat = math.sqrt(1.0 - u * u)
    else:
        if m >= 0.25:
            return 0.0, m > 0.25
        u = 4.0 * m
        eta_hat = math.sqrt(1.0 - u * u)
    if eta_hat > ETA_CLIP:
        return ETA_CLIP, True
    return eta_hat, False


def unclipped_estimate(m: float, kind: str) -> float:
    """The same inversion without range check or clip, for the bisection."""
    if kind == "photon_number":
        b = 1.0 + 2.0 * m
        u = 1.0 / (b + math.sqrt(b * b - 1.0))
    else:
        u = 1.0 / (4.0 * m) if kind == "x_squared" else 4.0 * m
    return math.sqrt(max(0.0, 1.0 - u * u))


def means_straddling(kind: str, target: float) -> tuple[float, float]:
    """The two adjacent means, ordered as doubles >= 0 by their bit patterns,
    whose unclipped estimates fall short of ``target`` and reach it."""
    def bits(x):
        return int(np.float64(x).view(np.int64))

    def mean(b):
        return float(np.int64(b).view(np.float64))

    # from the mean of eta = 0 towards eta = 1; the P^2 map decreases in m
    miss = bits(0.0 if kind == "photon_number" else 0.25)
    hit = bits(0.0 if kind == "p_squared" else 1e300)
    while abs(hit - miss) > 1:
        mid = (hit + miss) // 2
        if unclipped_estimate(mean(mid), kind) >= target:
            hit = mid
        else:
            miss = mid
    return mean(miss), mean(hit)


class TestEstimates:
    """``metrology._estimates`` gives the scalar branches' results bit for bit."""

    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_matches_the_scalar_branches(self, kind):
        # the range edges 0 and 1/4 with their neighbours, the extremes
        # (where b^2, 1/(4m) or u^2 overflow), and the means whose estimates
        # land one ulp each side of ETA_CLIP
        below, above = np.nextafter(ETA_CLIP, 0.0), np.nextafter(ETA_CLIP, 1.0)
        means = [0.0, np.nextafter(0.0, 1.0), np.nextafter(0.25, 0.0), 0.25,
                 np.nextafter(0.25, 1.0), 1e-300, 1e300]
        means += [m for t in (below, ETA_CLIP, above) for m in means_straddling(kind, t)]
        want = [scalar_estimate(float(m), kind) for m in means]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_eta, got_clipped = metrology._estimates(np.array(means), kind)
        np.testing.assert_array_equal(
            got_eta.view(np.int64), np.array([eta for eta, _ in want]).view(np.int64)
        )
        np.testing.assert_array_equal(got_clipped, [clip for _, clip in want])
        # the edges do land on both sides of the bound, and on it
        assert {below, (ETA_CLIP, False), (ETA_CLIP, True)} <= {
            eta if eta < ETA_CLIP else (eta, clip) for eta, clip in want
        }


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


def total_law(eta: float, scheme: MeasurementScheme):
    """The exact law of a replica's nu-shot total, as a scipy distribution,
    and the factor from its variate to the total: 2 NegBin(nu/2, sech^2 r)
    for photon counts, Gamma(nu/2, scale 2 sigma^2) for a squared quadrature."""
    nu = scheme.shots
    if scheme.kind == "photon_number":
        return stats.nbinom(nu / 2, np.cosh(analytic.squeezing_parameter(eta)) ** -2), 2.0
    _, sigma = quadrature_distribution(eta, scheme.kind)
    return stats.gamma(nu / 2, scale=2.0 * sigma**2), 1.0


def chi2_pvalue(draws: np.ndarray, law, cells: int = 20) -> float:
    """Pearson chi^2 p-value of the draws against a scipy law, on cells
    between the law's quantiles (about equal expected counts)."""
    edges = np.unique(law.ppf(np.linspace(0.0, 1.0, cells + 1)[1:-1]))
    # cell k holds edges[k-1] < x <= edges[k], for a discrete law too
    observed = np.bincount(np.searchsorted(edges, draws, side="left"), minlength=edges.size + 1)
    probs = np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]]))
    return float(stats.chisquare(observed, probs * draws.size).pvalue)


class TestReplicaFan:
    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_each_total_is_one_draw_of_its_childs_generator(self, kind):
        eta, replicas, seed, nu = 0.8, 5, 21, 64
        scheme = MeasurementScheme(kind, nu)
        sink = []
        replica_estimates(eta, scheme, replicas, seed=seed, outcome_sink=sink)
        children = np.random.SeedSequence(seed).spawn(replicas)
        assert len(sink) == replicas
        assert all(type(total) is float for total in sink)
        for total, child in zip(sink, children):
            rng = np.random.default_rng(child)
            if kind == "photon_number":
                sech2 = np.cosh(analytic.squeezing_parameter(eta)) ** -2
                assert total == 2 * rng.negative_binomial(nu / 2, sech2)
            else:
                _, sigma = quadrature_distribution(eta, kind)
                assert total == rng.gamma(nu / 2, 2.0 * sigma * sigma)

    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_replicas_draw_what_sample_outcomes_draws(self, kind):
        # in law: a replica's total is the sum of a record of nu outcomes
        eta, nu, replicas = 0.8, 64, 2000
        scheme = MeasurementScheme(kind, nu)
        totals = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimateClippedWarning)
            replica_estimates(eta, scheme, replicas, seed=21, outcome_sink=totals)
        records = sample_outcomes(eta, MeasurementScheme(kind, nu * replicas), seed=22)
        sums = records.reshape(replicas, nu).sum(axis=1)
        assert stats.ks_2samp(totals, sums).pvalue > 1e-3

    @pytest.mark.parametrize(
        "eta, shots, replicas",
        [
            pytest.param(0.995, 100, 2000, id="0.995"),
            pytest.param(ETA_CLIP, 100, 2000, id=repr(ETA_CLIP)),
            pytest.param(0.995, 10_000, 400, id="0.995-10000-shots"),
        ],
    )
    def test_photon_fan_draws_what_choice_draws(self, eta, shots, replicas):
        # in law: a replica's total is the sum of nu draws of rng.choice on
        # the probe's populations, the table the per-shot sampler once searched
        scheme = MeasurementScheme("photon_number", shots)
        totals = []
        with warnings.catch_warnings():
            # at the clip about half of the estimates sit at ETA_CLIP
            warnings.simplefilter("ignore", EstimateClippedWarning)
            replica_estimates(eta, scheme, replicas, seed=13, outcome_sink=totals)
        values, p = photon_count_distribution(eta)
        choice = np.random.default_rng(14).choice(values, size=(replicas, shots), p=p)
        assert stats.ks_2samp(totals, choice.sum(axis=1)).pvalue > 1e-3

    @pytest.mark.parametrize(
        "eta, shots",
        [
            pytest.param(0.995, 100, id="0.995"),
            pytest.param(ETA_CLIP, 100, id=repr(ETA_CLIP)),
            pytest.param(0.995, 10_000, id="0.995-10000-shots"),
        ],
    )
    def test_photon_totals_fit_the_negative_binomial_law(self, eta, shots):
        scheme = MeasurementScheme("photon_number", shots)
        sink = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimateClippedWarning)
            replica_estimates(eta, scheme, 2000, seed=13, outcome_sink=sink)
        totals = np.array(sink)
        assert (totals % 2 == 0).all()
        law, factor = total_law(eta, scheme)
        assert chi2_pvalue(totals / factor, law) > 1e-3

    @pytest.mark.parametrize("kind", ["x_squared", "p_squared"])
    def test_quadrature_totals_fit_the_gamma_law(self, kind):
        # a gamma draw is scale * standard_gamma, so one eta checks the scale
        scheme, sink = MeasurementScheme(kind, 100), []
        replica_estimates(0.995, scheme, 2000, seed=13, outcome_sink=sink)
        law, _ = total_law(0.995, scheme)
        assert stats.kstest(sink, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("eta", [0.8, ETA_CLIP])
    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_estimates_are_estimate_eta_of_each_replica(self, kind, eta, keep):
        # each estimate is estimate_eta of a record whose mean is the
        # replica's total / nu; at the clip about half sit at ETA_CLIP
        replicas, seed = 8, 31
        scheme = MeasurementScheme(kind, 100)
        totals = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimateClippedWarning)
            got = replica_estimates(
                eta, scheme, replicas, seed=seed, outcome_sink=totals if keep else None
            )
            if not keep:
                replica_estimates(eta, scheme, replicas, seed=seed, outcome_sink=totals)
            want = [estimate_eta(np.array([total / 100]), scheme) for total in totals]
        np.testing.assert_array_equal(got, want)
        assert (got == ETA_CLIP).any() == (eta == ETA_CLIP)

    @pytest.mark.parametrize(
        "kind, builds", [("photon_number", 0), ("x_squared", 1), ("p_squared", 1)]
    )
    def test_one_distribution_build_per_fan(self, monkeypatch, kind, builds):
        calls = []
        original = metrology.quadrature_distribution

        def counting(eta, quadrature):
            calls.append(quadrature)
            return original(eta, quadrature)

        monkeypatch.setattr(metrology, "quadrature_distribution", counting)
        replica_estimates(0.8, MeasurementScheme(kind, 64), 5, seed=3)
        assert len(calls) == builds

    def test_quadrature_draws_use_the_exact_variance_past_the_clamp(self):
        eta, replicas, seed = 0.9999, 4, 5
        scheme = MeasurementScheme("x_squared", 100)
        sink = []
        replica_estimates(eta, scheme, replicas, seed=seed, outcome_sink=sink)
        sigma2 = analytic.evaluate(eta).mean_x2
        for total, child in zip(sink, np.random.SeedSequence(seed).spawn(replicas)):
            want = np.random.default_rng(child).gamma(scheme.shots / 2, 2.0 * sigma2)
            assert total == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_builds_no_fock_space(self, monkeypatch, kind):
        def forbidden(*args, **kwargs):
            raise AssertionError("replica_estimates built a Fock-space object")

        monkeypatch.setattr(fockspace, "squeezed_vacuum", forbidden)
        monkeypatch.setattr(fockspace, "field_observables", forbidden)
        estimates = replica_estimates(0.995, MeasurementScheme(kind, 100), 3, seed=1)
        assert np.isfinite(estimates).all()

    @pytest.mark.parametrize("eta", [-0.1, np.nextafter(ETA_CLIP, 1.0), 1.0, np.nan])
    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_rejects_eta_no_estimate_reaches(self, eta, kind):
        with pytest.raises(ValueError, match="ETA_CLIP"):
            replica_estimates(eta, MeasurementScheme(kind, 10), 2)

    def test_photon_support_at_the_clip(self):
        # the law is not truncated: at the bound, where a table of the
        # populations would need about 2.7e5 levels, the counts are even and
        # their mean is <N> to within four standard errors
        shots = 100_000
        out = sample_outcomes(ETA_CLIP, MeasurementScheme("photon_number", shots), seed=4)
        point = analytic.evaluate(ETA_CLIP)
        assert (out % 2 == 0).all()
        assert abs(out.mean() - point.mean_n) <= 4.0 * np.sqrt(point.var_n / shots)


def binomial_window(count: int, trials: int, prob: float) -> bool:
    """Whether count lies within four standard deviations of Binomial(trials, prob)'s mean."""
    return abs(count - trials * prob) <= 4.0 * np.sqrt(trials * prob * (1.0 - prob))


class TestClippedFans:
    """A replica fan flags its clipped estimates with one warning."""

    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_no_clip_at_0_995(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates = replica_estimates(0.995, MeasurementScheme(kind, 100), 500, seed=2026)
        assert ((0.0 < estimates) & (estimates < ETA_CLIP)).all()

    @pytest.mark.parametrize("kind", metrology.SCHEME_KINDS)
    def test_counts_at_the_clip_fit_the_exact_law(self, kind):
        # about half of the estimates at eta = ETA_CLIP sit at the bound, and
        # their replica variance understates the estimator's.  An estimate
        # clips when its mean passes the mean at the bound (falls below it,
        # for P^2), whose probability the total's law gives
        scheme, replicas = MeasurementScheme(kind, 1000), 500
        with pytest.warns(EstimateClippedWarning) as caught:
            estimates = replica_estimates(ETA_CLIP, scheme, replicas, seed=2026)
        at_clip = int((estimates == ETA_CLIP).sum())
        assert len(caught) == 1
        assert (
            f"0 of {replicas} {kind} estimates at eta={ETA_CLIP} with 1000 shots "
            f"clipped to 0 and {at_clip} to ETA_CLIP"
        ) in str(caught[0].message)
        law, factor = total_law(ETA_CLIP, scheme)
        point = analytic.evaluate(ETA_CLIP)
        mean_at_bound = {
            "photon_number": point.mean_n, "x_squared": point.mean_x2, "p_squared": point.mean_p2
        }[kind]
        edge = scheme.shots * mean_at_bound / factor
        prob = law.cdf(edge) if kind == "p_squared" else law.sf(edge)
        assert 0.4 < prob < 0.6
        assert binomial_window(at_clip, replicas, prob), (at_clip, replicas * prob)

    def test_all_zero_photon_records_are_not_clips(self):
        # criterion 8's nu = 100 fan: a record of zeros, total 0 with
        # probability (sech^2 r)^{nu/2}, estimates exactly 0 with no warning
        eta, scheme, replicas = 0.8, MeasurementScheme("photon_number", 100), 500
        totals = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates = replica_estimates(eta, scheme, replicas, seed=2026, outcome_sink=totals)
        zeros = estimates == 0.0
        np.testing.assert_array_equal(zeros, np.array(totals) == 0.0)
        law, _ = total_law(eta, scheme)
        assert binomial_window(int(zeros.sum()), replicas, law.pmf(0))
        assert metrology.clip_counts(totals, scheme) == (0, 0)

    @pytest.mark.parametrize(
        "kind, eta",
        [
            ("photon_number", ETA_CLIP),
            ("x_squared", 0.5),
            ("x_squared", ETA_CLIP),
            ("p_squared", 0.5),
            ("p_squared", ETA_CLIP),
        ],
    )
    def test_clip_counts_match_the_fans_warning(self, kind, eta):
        # single shots clip often: to 0 at eta = 0.5, mostly to ETA_CLIP at the bound
        scheme, totals = MeasurementScheme(kind, 1), []
        with pytest.warns(EstimateClippedWarning) as caught:
            replica_estimates(eta, scheme, 1000, seed=5, outcome_sink=totals)
        lower, upper = metrology.clip_counts(totals, scheme)
        assert len(caught) == 1 and lower + upper > 0
        assert f"{lower} of 1000 {kind} estimates" in str(caught[0].message)
        assert f"clipped to 0 and {upper} to ETA_CLIP" in str(caught[0].message)

    @pytest.mark.parametrize("kind, total", [("photon_number", -2.0), ("x_squared", np.nan)])
    def test_clip_counts_reject_totals_no_fan_draws(self, kind, total):
        # a negative photon total once counted as a clip to 0, a NaN as no clip
        with pytest.raises(ValueError, match=f"finite and >= 0, got {total}$"):
            metrology.clip_counts([4.0, total], MeasurementScheme(kind, 1))


class TestPhotonEstimatorOracle:
    """Exact nu Var[eta_hat] QFI of the estimators at finite nu.

    A replica's photon counts are 2 m_i with m_i ~ NegBin(1/2, sech^2 r), so
    the pair sum S = sum_i m_i is NegBin(nu/2, sech^2 r) and
    eta_hat = g(2S/nu), with g the inverse of <N>(eta) = (1 - u)^2/(4u).
    A squared quadrature is sigma^2 Z^2, so the sum over nu shots is
    Gamma(nu/2, scale 2 sigma^2) and eta_hat inverts <X^2> = 1/(4u) or
    <P^2> = u/4 at its mean.  The moments of eta_hat are finite sums over
    the law of S, or quadratures over it.
    """

    ETA, REPLICAS, SEED = 0.8, 500, 2026

    @staticmethod
    def exact_moments(eta: float, nu: int) -> tuple[float, float]:
        """Var[eta_hat] and its fourth central moment."""
        u = np.sqrt(1.0 - eta**2)
        law = stats.nbinom(nu / 2, 4.0 * u / (1.0 + u) ** 2)  # sech^2 r
        s = np.arange(int(law.mean() + 40.0 * law.std()) + 50)
        pmf = law.pmf(s)
        assert 1.0 - pmf.sum() < 1e-12
        b = 1.0 + 4.0 * s / nu
        g = np.minimum(np.sqrt(1.0 - (1.0 / (b + np.sqrt(b * b - 1.0))) ** 2), ETA_CLIP)
        mean = pmf @ g
        return pmf @ (g - mean) ** 2, pmf @ (g - mean) ** 4

    @staticmethod
    def quadrature_moments(kind: str, eta: float, nu: int) -> tuple[float, float]:
        """Var[eta_hat] and its fourth central moment from the Gamma law of
        the sample mean S/nu; a mean past 1/4 estimates exactly 0, and g
        has a square-root edge there, so the integral stops at it."""
        p = analytic.evaluate(eta)
        sigma2 = p.mean_x2 if kind == "x_squared" else p.mean_p2
        law = stats.gamma(nu / 2, scale=2.0 * sigma2 / nu)
        lo, hi = law.ppf(1e-17), law.isf(1e-17)
        if kind == "x_squared":
            at_zero, lo = law.cdf(0.25), max(lo, 0.25)
            u = lambda m: 1.0 / (4.0 * m)
        else:
            at_zero, hi = law.sf(0.25), min(hi, 0.25)
            u = lambda m: 4.0 * m

        def expect(f):
            inner = integrate.quad(
                lambda m: f(min(np.sqrt(1.0 - u(m) ** 2), ETA_CLIP)) * law.pdf(m),
                lo, hi, epsabs=0.0, epsrel=1e-12, limit=200,
            )[0]
            return at_zero * f(0.0) + inner

        mean = expect(lambda g: g)
        return expect(lambda g: (g - mean) ** 2), expect(lambda g: (g - mean) ** 4)

    def check(self, kind, eta, nu, moments, expected):
        var, mu4 = moments
        r = self.REPLICAS
        scale = nu * analytic.evaluate(eta).qfi
        exact = scale * var
        se = scale * np.sqrt((mu4 - var**2 * (r - 3) / (r - 1)) / r)
        assert exact == pytest.approx(expected, rel=5e-4, abs=0.0)
        got, _ = cramer_rao_ratio(eta, MeasurementScheme(kind, nu), replicas=r, seed=self.SEED)
        assert abs(got - exact) <= 4.0 * se, (got, exact, se)

    @pytest.mark.parametrize(
        "nu, expected", [(100, 6.807), (1000, 1.061), (10_000, 1.0057)]
    )
    def test_monte_carlo_within_four_standard_errors(self, nu, expected):
        self.check("photon_number", self.ETA, nu, self.exact_moments(self.ETA, nu), expected)

    @pytest.mark.parametrize(
        "nu, expected", [(100, 1.2487), (1000, 1.0218), (10_000, 1.0022)]
    )
    def test_photon_counts_near_the_critical_point(self, nu, expected):
        self.check("photon_number", 0.995, nu, self.exact_moments(0.995, nu), expected)

    @pytest.mark.parametrize(
        "kind, eta, nu, expected",
        [
            ("x_squared", 0.8, 100, 1.5637),
            ("x_squared", 0.8, 1000, 1.0356),
            ("x_squared", 0.8, 10_000, 1.0035),
            ("x_squared", 0.995, 100, 1.2441),
            ("x_squared", 0.995, 1000, 1.0215),
            ("x_squared", 0.995, 10_000, 1.0021),
            ("p_squared", 0.8, 100, 1.1787),
            ("p_squared", 0.8, 1000, 1.0142),
            ("p_squared", 0.8, 10_000, 1.0014),
            ("p_squared", 0.995, 100, 1.0519),
            ("p_squared", 0.995, 1000, 1.0051),
            ("p_squared", 0.995, 10_000, 1.0005),
        ],
    )
    def test_squared_quadratures(self, kind, eta, nu, expected):
        self.check(kind, eta, nu, self.quadrature_moments(kind, eta, nu), expected)


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
        points = metrology.paper_ramp_points(sched, kts)
        for i, kt in enumerate(kts):
            t = kt / sched.k
            assert points.epsilon[i] == pytest.approx(ramp.epsilon_at(sched, t), rel=1e-14, abs=0.0)
            assert points.eta[i] == pytest.approx(ramp.eta_at(sched, t), rel=1e-14, abs=0.0)

    def test_default_scaling_points_against_decimal_reference(self):
        # each closed form from epsilon = 1/(w + 1) and eta^2 = w/(w + 1)
        # with w = kt^xi, against 60 digits from the same float kt and xi;
        # through the rounded eta, qfi was 5.6e-11 off at kt = 1e4
        resolved = cli.resolve_config({"experiment": "scaling"})
        sched = experiments._schedule(resolved)
        kts = np.logspace(
            np.log10(experiments.SCALING_KT_RANGE[0]),
            np.log10(experiments.SCALING_KT_RANGE[1]),
            experiments.SCALING_KT_POINTS,
        )
        points = metrology.paper_ramp_points(sched, kts)
        _, rows, _ = experiments.scaling(resolved)
        with localcontext() as ctx:
            ctx.prec = 60
            for i, kt in enumerate(kts):
                w = Decimal(kt) ** Decimal(sched.xi)
                eps = 1 / (w + 1)
                eta2 = w / (w + 1)
                u = eps.sqrt()
                expected = {
                    "epsilon": eps,
                    "qfi": eta2 / (2 * eps * eps),
                    "mean_n": eta2 * eta2 / (4 * u * (1 + u) ** 2),
                }
                for name, value in expected.items():
                    got = getattr(points, name)[i]
                    assert got == pytest.approx(float(value), rel=1e-13, abs=0.0), (name, kt)
                assert rows[i][2:5] == [points.epsilon[i], points.qfi[i], points.mean_n[i]]

    def test_onset_schedule_follows_its_own_clock(self, monkeypatch):
        sched = ramp.RampSchedule(k=0.5, onset=1.0)
        kts = np.logspace(2, 4)
        points = metrology.paper_ramp_points(sched, kts)
        for i, kt in enumerate(kts):
            t = kt / sched.k
            assert points.epsilon[i] == pytest.approx(ramp.epsilon_at(sched, t), rel=1e-14, abs=0.0)
            assert points.eta[i] == pytest.approx(ramp.eta_at(sched, t), rel=1e-14, abs=0.0)
        # kt >= 100 >> tau: the clock kt - tau keeps the paper's exponents
        fits = {f.quantity: f for f in scaling_experiment(sched, kts)}
        assert fits["epsilon"].fitted_exponent == pytest.approx(-4 / 3, abs=0.02)
        ratio = heisenberg_ratio(sched, kts)
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
        monkeypatch.setattr(experiments, "_schedule", lambda resolved: sched)
        _, rows, _ = experiments.scaling(cli.resolve_config({"experiment": "scaling"}))
        assert len(rows) == experiments.SCALING_KT_POINTS

    def test_heisenberg_ratio_constant_in_power_law_regime(self):
        sched = ramp.RampSchedule(k=1.0, xi=4.0 / 3.0, eta_target=0.995)
        kts = np.logspace(3, 4, 10)
        ratio = heisenberg_ratio(sched, kts)
        assert ratio.max() / ratio.min() - 1.0 <= 0.10
