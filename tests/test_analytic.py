from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from jcsense import analytic, experiments

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
        assert analytic.evaluate(2**-0.5).qfi == pytest.approx(1.0, rel=1e-13)

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
        assert p.inv_var_n == pytest.approx(p.qfi, rel=1e-12)
        assert p.inv_var_x2 == pytest.approx(p.qfi, rel=1e-12)
        assert p.inv_var_p2 == pytest.approx(p.qfi, rel=1e-12)

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
        assert p.mean_x2 * p.mean_p2 == pytest.approx(1.0 / 16.0, rel=1e-13)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 0.99])
    def test_gaussian_fourth_moment_identity(self, eta):
        p = analytic.evaluate(eta)
        assert p.var_x2 == pytest.approx(2 * p.mean_x2**2, rel=1e-12)
        assert p.var_p2 == pytest.approx(2 * p.mean_p2**2, rel=1e-12)

    def test_squeezing_parameter_negative(self):
        assert analytic.evaluate(0.5).r < 0
        assert analytic.evaluate(0.5).r == pytest.approx(0.25 * np.log(0.75))


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
        assert p.inv_var_n[1, 1] == pytest.approx(p.qfi[1, 1], rel=1e-12)

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
        assert analytic.energy_gap(1.0, 0.8) == pytest.approx(
            analytic.eigenvalue(1.0, 0.8, 1, "+")
        )

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            analytic.eigenvalue(1.0, 1.0, 1, "+")
        with pytest.raises(ValueError):
            analytic.eigenvalue(1.0, 0.5, 0, "+")
        with pytest.raises(ValueError):
            analytic.eigenvalue(1.0, 0.5, 1, "dark")


class TestQfiFromStateDerivative:
    @pytest.mark.parametrize("eta", [0.3, 0.9])
    def test_matches_closed_form(self, eta):
        got = analytic.qfi_from_state_derivative(eta)
        expected = analytic.evaluate(eta).qfi
        assert got == pytest.approx(expected, rel=1e-4)

    def test_near_zero_edge(self):
        # qfi(0) = 0; just inside the domain the value stays tiny
        assert abs(analytic.qfi_from_state_derivative(2e-4)) <= 1e-6

    def test_rejects_stencil_outside_domain(self):
        with pytest.raises(ValueError):
            analytic.qfi_from_state_derivative(1e-5, h=1e-4)
        with pytest.raises(ValueError):
            analytic.qfi_from_state_derivative(0.99999, h=1e-4)
