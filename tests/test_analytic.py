from __future__ import annotations

import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from jcsense import analytic, experiments, metrology

FIELDS = [f.name for f in dataclasses.fields(analytic.AnalyticPoint)]


class TestEvaluate:
    def test_vacuum_limit(self):
        p = analytic.evaluate(0.0)
        assert p.qfi == 0.0
        assert p.mean_n == 0.0
        assert p.mean_x2 == pytest.approx(0.25)
        assert p.mean_p2 == pytest.approx(0.25)
        assert p.r == 0.0
        assert p.C == pytest.approx(1.0)

    def test_qfi_at_one_over_sqrt2(self):
        # eta^2 = 1/2: qfi = (1/2) / (2 * (1/2)^2) = 1
        assert analytic.evaluate(2**-0.5).qfi == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_qfi_near_critical_endpoint(self):
        p = analytic.evaluate(0.995)
        assert np.isfinite(p.qfi)
        assert p.qfi > 2.4e3

    def test_rejects_out_of_range(self):
        for eta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                analytic.evaluate(eta)

    def test_all_fields_finite_close_to_critical(self):
        p = analytic.evaluate(1.0 - 1e-12)
        for name in (
            "r", "C", "qfi", "mean_n", "var_n", "chi", "inv_var_n",
            "inv_var_x2", "inv_var_p2", "mean_x2", "var_x2", "mean_p2",
            "var_p2", "epsilon",
        ):
            assert np.isfinite(getattr(p, name)), name

    @pytest.mark.parametrize("eta", np.round(np.arange(0.01, 1.0, 0.01), 2))
    def test_inverted_variances_equal_qfi(self, eta):
        p = analytic.evaluate(float(eta))
        assert p.inv_var_n == pytest.approx(p.qfi, rel=1e-12, abs=0.0)
        assert p.inv_var_x2 == pytest.approx(p.qfi, rel=1e-12, abs=0.0)
        assert p.inv_var_p2 == pytest.approx(p.qfi, rel=1e-12, abs=0.0)

    def test_monotonicity(self):
        etas = np.linspace(0.01, 0.99, 99)
        points = [analytic.evaluate(float(e)) for e in etas]
        for attr, increasing in (
            ("qfi", True), ("mean_n", True), ("mean_x2", True), ("mean_p2", False),
        ):
            values = np.array([getattr(p, attr) for p in points])
            diffs = np.diff(values)
            assert (diffs > 0).all() if increasing else (diffs < 0).all(), attr

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.5, 0.8, 0.99])
    def test_minimum_uncertainty_product(self, eta):
        p = analytic.evaluate(eta)
        assert p.mean_x2 * p.mean_p2 == pytest.approx(1.0 / 16.0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 0.99])
    def test_gaussian_fourth_moment_identity(self, eta):
        p = analytic.evaluate(eta)
        assert p.var_x2 == pytest.approx(2 * p.mean_x2**2, rel=1e-12, abs=0.0)
        assert p.var_p2 == pytest.approx(2 * p.mean_p2**2, rel=1e-12, abs=0.0)

    def test_squeezing_parameter_negative(self):
        assert analytic.evaluate(0.5).r < 0
        assert analytic.evaluate(0.5).r == pytest.approx(0.25 * np.log(0.75))


def _photon_number_moments_60_digits(eta: float) -> tuple[float, float]:
    """<N> and Var[N] from their textbook forms in 60-digit arithmetic.

    (2-eta^2)/(4u) - 1/2 and ((1-eta^2)^2 + 1)/(8(1-eta^2)) - 1/4 cancel at
    small eta; 60 digits leave more than 30 of them after the cancellation
    (down to eta = 1e-6).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        e2 = Decimal(eta) ** 2
        eps = 1 - e2
        u = eps.sqrt()
        mean_n = (2 - e2) / (4 * u) - Decimal("0.5")
        var_n = (eps * eps + 1) / (8 * eps) - Decimal("0.25")
        return float(mean_n), float(var_n)


class TestPhotonNumberPrecision:
    @pytest.mark.parametrize("eta", [1e-6, 1e-3, 5e-3, 1e-2, 0.1, 0.5, 0.9, 0.995])
    def test_matches_60_digit_reference(self, eta):
        mean_n, var_n = _photon_number_moments_60_digits(eta)
        p = analytic.evaluate(eta)
        assert p.mean_n == pytest.approx(mean_n, rel=1e-12, abs=0)
        assert p.var_n == pytest.approx(var_n, rel=1e-12, abs=0)
        assert p.inv_var_n == pytest.approx(p.qfi, rel=1e-12, abs=0)


def _near_critical_forms_60_digits(eta: float) -> dict[str, float]:
    """The epsilon-based closed forms in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(eta)
        eps = 1 - e * e
        u = eps.sqrt()
        forms = dict(
            epsilon=eps, qfi=e * e / (2 * eps * eps),
            mean_n=(1 - u) ** 2 / (4 * u), var_n=e**4 / (8 * eps),
            chi=e**3 / (4 * eps * u), mean_x2=1 / (4 * u), var_x2=1 / (8 * eps),
            mean_p2=u / 4, var_p2=eps / 8,
        )
        return {name: float(value) for name, value in forms.items()}


class TestNearCriticalPrecision:
    # epsilon = 1 - eta^2 formed from the rounded eta^2 was off by 2.5e-13
    # (relative) at eta = 0.9999 and 5e-10 at the estimator's clip
    @pytest.mark.parametrize("eta", [0.9999, metrology.ETA_CLIP])
    def test_matches_60_digit_reference(self, eta):
        p = analytic.evaluate(eta)
        for name, value in _near_critical_forms_60_digits(eta).items():
            assert getattr(p, name) == pytest.approx(value, rel=2e-15, abs=0), name
        assert p.inv_var_n == pytest.approx(p.qfi, rel=2e-15, abs=0)


def _squeezed_vacuum_forms_60_digits(eta: float) -> tuple[float, float, float]:
    """r = ln(1 - eta^2)/4, C = sqrt((1 + u)/2) and s = sqrt(1 - C^2) in
    60-digit arithmetic (s keeps over 40 digits down to eta = 1e-8)."""
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(eta)
        eps = 1 - e * e
        c = ((1 + eps.sqrt()) / 2).sqrt()
        return float(eps.ln() / 4), float(c), float((1 - c * c).sqrt())


class TestSqueezedVacuumForms:
    # ln(1 - eta*eta)/4 was 11% off at eta = 1e-8, 2.1e-12 at 0.005 and
    # 2.5e-11 at the clip; sqrt(1 - C^2) was 100% off at 1e-8
    @pytest.mark.parametrize(
        "eta", [1e-8, 1e-3, 0.005, 0.3, 0.995, 0.9999, metrology.ETA_CLIP]
    )
    def test_matches_60_digit_reference(self, eta):
        r, c, s = _squeezed_vacuum_forms_60_digits(eta)
        p = analytic.evaluate(eta)
        assert p.r == pytest.approx(r, rel=1e-14, abs=0.0)
        assert p.C == pytest.approx(c, rel=1e-14, abs=0.0)
        got_c, got_s = analytic.qubit_coefficients(eta)
        assert got_c == p.C
        assert got_s == pytest.approx(s, rel=1e-14, abs=0.0)
        assert analytic.squeezing_parameter(eta) == p.r

    def test_vacuum_is_unsqueezed_with_positive_zero(self):
        for r in (
            analytic.squeezing_parameter(0.0),
            analytic.evaluate(0.0).r,
            analytic.evaluate(np.array([0.0, 0.5])).r[0],
        ):
            assert r == 0.0 and math.copysign(1.0, r) == 1.0
        assert analytic.qubit_coefficients(0.0) == (1.0, 0.0)


class TestEvaluateOnArrays:
    def test_qfi_curve_grid_equals_scalar_calls(self):
        # the qfi_curve grid includes eta = 0, where Var[N] = 0 is masked
        etas = np.linspace(0.0, 0.995, experiments.QFI_GRID_POINTS)
        grid = analytic.evaluate(etas)
        points = [analytic.evaluate(float(e)) for e in etas]
        for name in FIELDS:
            scalar = np.array([getattr(p, name) for p in points])
            assert np.array_equal(getattr(grid, name), scalar), name

    def test_fields_take_the_shape_of_eta(self):
        etas = np.array([[0.0, 0.3], [0.6, 0.9]])
        p = analytic.evaluate(etas)
        for name in FIELDS:
            assert np.shape(getattr(p, name)) == etas.shape, name
        assert p.inv_var_n[0, 0] == 0.0
        assert p.inv_var_n[1, 1] == pytest.approx(p.qfi[1, 1], rel=1e-12, abs=0.0)

    def test_rejects_an_array_with_one_eta_at_or_above_one(self):
        for bad in (1.0, 1.5):
            with pytest.raises(ValueError, match=rf"eta must be in \[0, 1\), got {bad}"):
                analytic.evaluate(np.array([0.1, 0.5, bad, 0.2]))

    @pytest.mark.parametrize("eta", [0.0, 0.5, np.float64(0.5), np.array(0.5)])
    def test_scalar_eta_gives_float_fields(self, eta):
        p = analytic.evaluate(eta)
        for name in FIELDS:
            assert type(getattr(p, name)) is float, name


class TestEigenvalue:
    def test_undriven(self):
        for n in (1, 2, 5):
            assert analytic.eigenvalue(1.0, 0.0, n, "+") == pytest.approx(np.sqrt(n))
            assert analytic.eigenvalue(1.0, 0.0, n, "-") == pytest.approx(-np.sqrt(n))

    def test_driven_scaling(self):
        assert analytic.eigenvalue(1.0, 0.6, 1, "+") == pytest.approx(0.64**0.75)
        assert analytic.eigenvalue(2.0, 0.6, 1, "+") == pytest.approx(2 * 0.64**0.75)

    def test_gap_is_first_doublet(self):
        # the gap to the dark state, Omega (1 - eta^2)^{3/4}, is the n = 1 "+" level
        assert analytic.eigenvalue(1.0, 0.8, 1, "+") == pytest.approx(0.36**0.75)

    @pytest.mark.parametrize("eta", [0.995, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_near_critical_against_decimal_reference(self, eta):
        # 1 - eta*eta would carry the rounding of eta*eta (3.7e-10 relative
        # in the gap at 1 - 1e-9)
        with localcontext() as ctx:
            ctx.prec = 60
            e = Decimal(eta)
            gap = float((1 - e * e) ** Decimal("0.75"))
        assert analytic.eigenvalue(1.0, eta, 1, "+") == pytest.approx(gap, rel=1e-14, abs=0.0)
        doublet = analytic.eigenvalue(1.0, eta, 4, "-")
        assert doublet == pytest.approx(-2.0 * gap, rel=1e-14, abs=0.0)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            analytic.eigenvalue(1.0, 1.0, 1, "+")
        with pytest.raises(ValueError):
            analytic.eigenvalue(1.0, 0.5, 0, "+")
        with pytest.raises(ValueError):
            analytic.eigenvalue(1.0, 0.5, 1, "dark")

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2"])
    def test_rejects_an_index_that_is_not_an_integer(self, n):
        # 1.5 once gave 0.987 for a doublet that does not exist
        with pytest.raises(ValueError, match="doublet index n must be an integer >= 1, got "):
            analytic.eigenvalue(1.0, 0.5, n, "+")

    def test_numpy_integer_index_is_its_int(self):
        assert analytic.eigenvalue(1.0, 0.5, np.int64(3), "-") == analytic.eigenvalue(
            1.0, 0.5, 3, "-")


class TestQfiFromStateDerivative:
    @pytest.mark.parametrize("eta", [0.3, 0.9])
    def test_matches_closed_form(self, eta):
        got = analytic.qfi_from_state_derivative(eta)
        expected = analytic.evaluate(eta).qfi
        assert got == pytest.approx(expected, rel=1e-4, abs=0.0)

    def test_near_critical_stencil_is_not_truncated(self):
        # the stencil's shared cutoff, the squeezed vacuum's support at
        # eta + h rounded up to even, is 602 at 0.9997 and holds every
        # stencil state; the 9.2e-4 left is the finite-difference step's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analytic.qfi_from_state_derivative(0.9997)
        assert got == pytest.approx(analytic.evaluate(0.9997).qfi, rel=1e-3, abs=0.0)

    def test_near_zero_edge(self):
        # qfi(0) = 0; just inside the domain the value stays tiny
        assert abs(analytic.qfi_from_state_derivative(2e-4)) <= 1e-6

    def test_rejects_stencil_outside_domain(self):
        with pytest.raises(ValueError):
            analytic.qfi_from_state_derivative(1e-5)
        with pytest.raises(ValueError):
            analytic.qfi_from_state_derivative(0.99999)
