from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest

from jcsense import cli, experiments, metrology
from jcsense.ramp import (
    RampSchedule,
    _onset_clock,
    epsilon_at,
    eta_at,
    eta_dot_asymptotic,
    eta_dot_at,
    transition_bound,
    transition_probability,
)


def make_schedule(k=0.005, xi=4.0 / 3.0, eta_target=0.995) -> RampSchedule:
    return RampSchedule(k=k, xi=xi, eta_target=eta_target)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            RampSchedule(k=-1.0)
        with pytest.raises(ValueError):
            RampSchedule(k=1.0, xi=0.0)
        with pytest.raises(ValueError):
            RampSchedule(k=1.0, eta_target=1.0)

    def test_starts_at_zero(self):
        assert eta_at(make_schedule(), 0.0) == 0.0

    def test_value_at_unit_kt(self):
        # (kt)^xi = 1 at kt = 1, any xi: eta = sqrt(1 - 1/2) = 1/sqrt2
        s = make_schedule(k=2.0)
        assert eta_at(s, 0.5) == pytest.approx(2**-0.5, rel=1e-14)

    def test_duration_closed_form(self):
        # eta_target = 0.995 with xi = 4/3: kt_end = (1/0.009975 - 1)^{3/4}
        s = make_schedule()
        assert s.kt_end == pytest.approx(31.44488008, rel=1e-9)
        assert s.duration == pytest.approx(31.44488008 / 0.005, rel=1e-9)

    def test_inverse_round_trip(self):
        s = make_schedule(eta_target=0.9)
        assert eta_at(s, s.duration) == pytest.approx(0.9, abs=1e-12)
        for eta in (0.1, 0.5, 0.99):
            assert eta_at(s, s.time_to_reach(eta)) == pytest.approx(eta, abs=1e-12)

    def test_strictly_increasing(self):
        s = make_schedule()
        ts = np.linspace(0.0, 2 * s.duration, 400)
        values = [eta_at(s, t) for t in ts]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_frozen_schedule(self):
        s = RampSchedule(k=0.0)
        assert eta_at(s, 123.0) == 0.0
        assert eta_dot_at(s, 123.0) == 0.0
        with pytest.raises(ValueError):
            _ = s.duration


class TestEpsilon:
    @pytest.mark.parametrize("xi", [0.5, 1.0, 4.0 / 3.0, 2.0])
    @pytest.mark.parametrize("kt", [0.0, 0.3, 1.0, 7.7, 123.0])
    def test_exactly_one_minus_eta_squared(self, xi, kt):
        s = make_schedule(k=1.0, xi=xi)
        eta = eta_at(s, kt)
        assert epsilon_at(s, kt) == pytest.approx(1.0 - eta * eta, abs=1e-14)

    def test_power_law_regime(self):
        # for xi = 4/3 and kt >= 10, eps is within 5% of (kt)^{-4/3}
        s = make_schedule(k=1.0)
        for kt in (10.0, 20.0, 100.0, 1e4):
            ratio = epsilon_at(s, kt) / kt ** (-4.0 / 3.0)
            assert abs(ratio - 1.0) <= 0.05


class TestEtaDot:
    def test_finite_difference_check(self):
        s = make_schedule(k=1.0)
        t, dt = 5.0, 1e-6
        fd = (eta_at(s, t + dt) - eta_at(s, t - dt)) / (2 * dt)
        assert eta_dot_at(s, t) == pytest.approx(fd, rel=1e-6)

    def test_zero_at_start_by_contract(self):
        assert eta_dot_at(make_schedule(), 0.0) == 0.0

    def test_asymptotic_agreement(self):
        # exact/asymptotic = (1 - eta^2)^{-3/4}: about 1.4% at kt = 20,
        # under 1% from kt ~ 27 onward
        s = make_schedule(k=1.0)
        for kt, tol in ((20.0, 0.02), (30.0, 0.01), (100.0, 0.002)):
            exact = eta_dot_at(s, kt)
            approx = eta_dot_asymptotic(s, eta_at(s, kt))
            assert abs(exact / approx - 1.0) <= tol

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            eta_dot_at(make_schedule(), -1.0)


class TestOnset:
    """The opt-in onset clock phi(kt) = kt - tau tanh(kt / tau)."""

    @pytest.mark.parametrize("xi", [0.5, 4.0 / 3.0, 2.0])
    def test_zero_onset_is_the_paper_schedule(self, xi):
        k, eta_target = 0.005, 0.99
        s = RampSchedule(k=k, xi=xi, eta_target=eta_target, onset=0.0)
        assert s == RampSchedule(k=k, xi=xi, eta_target=eta_target)
        assert s.kt_end == float((eta_target**2 / (1.0 - eta_target**2)) ** (1.0 / xi))
        for t in (1e-3, 0.7, 200.0, 3456.7, 1e5):
            w = (k * t) ** xi
            eta = float(np.sqrt(w / (w + 1.0)))
            assert epsilon_at(s, t) == 1.0 / (w + 1.0)
            assert eta_at(s, t) == eta
            assert eta_dot_at(s, t) == float(xi * w / (t * 2.0 * eta * (w + 1.0) ** 2))
            if 0.0 < eta < eta_target:
                expected = float((eta * eta / (1.0 - eta * eta)) ** (1.0 / xi) / k)
                assert s.time_to_reach(eta) == expected

    @pytest.mark.parametrize(
        "schedule,t",
        [
            # paper clock at (kt)^xi = 1e-20, where sqrt(1 - epsilon) rounds to 0
            (RampSchedule(k=1.0, xi=4.0 / 3.0), 1e-15),
            (RampSchedule(k=0.005, onset=2.0), 1e-3),  # eta = 4.77e-12
        ],
    )
    def test_tiny_eta_against_decimal_reference(self, schedule, t):
        with localcontext() as ctx:
            ctx.prec = 60
            kt = Decimal(schedule.k * t)
            if schedule.onset:
                tau = Decimal(schedule.onset)
                e2u = (2 * kt / tau).exp()
                kt = kt - tau * (e2u - 1) / (e2u + 1)  # phi(kt) = kt - tau tanh(kt/tau)
            w = kt ** Decimal(schedule.xi)
            reference = float((w / (w + 1)).sqrt())
        assert 1e-12 < reference < 1e-9
        eta = eta_at(schedule, t)
        assert eta == pytest.approx(reference, rel=1e-13)
        assert schedule.time_to_reach(eta) == pytest.approx(t, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("kt", [0.05, 0.3, 1.0, 2.0, 5.0, 30.0])
    def test_eta_dot_finite_difference(self, tau, kt):
        s = RampSchedule(k=0.01, onset=tau)
        t = kt / s.k
        dt = 1e-5 * t
        fd = (eta_at(s, t + dt) - eta_at(s, t - dt)) / (2 * dt)
        assert eta_dot_at(s, t) == pytest.approx(fd, rel=1e-7)

    def test_starts_from_rest(self):
        # phi ~ (kt)^3 / (3 tau^2), so eta ~ phi^{xi/2} grows as t^2 for
        # xi = 4/3 and its velocity vanishes at t = 0 (no cusp)
        s = RampSchedule(k=0.01, onset=2.0)
        assert eta_at(s, 0.0) == 0.0
        assert eta_dot_at(s, 0.0) == 0.0
        for t in (1e-6, 1e-3, 1e-1):
            assert eta_at(s, 2 * t) / eta_at(s, t) == pytest.approx(4.0, rel=1e-6)
            assert eta_dot_at(s, t) == pytest.approx(2.0 * eta_at(s, t) / t, rel=1e-6)
        velocities = [eta_dot_at(s, t) for t in (1e-1, 1e-3, 1e-6, 1e-9)]
        assert all(b < a for a, b in zip(velocities, velocities[1:]))
        assert velocities[-1] < 1e-7 * velocities[0]  # linear in t

    def test_round_trip(self):
        s = RampSchedule(k=0.005, eta_target=0.99, onset=2.0)
        assert eta_at(s, s.duration) == pytest.approx(0.99, abs=1e-14)
        for t in (1e-3, 1.0, 50.0, 400.0, 2000.0, s.duration):
            assert s.time_to_reach(eta_at(s, t)) == pytest.approx(t, rel=1e-12)
        assert s.time_to_reach(0.0) == 0.0

    def test_joins_the_paper_clock_after_the_onset(self):
        # for kt >> tau, phi(kt) = kt - tau: the paper's schedule delayed by tau/k
        tau, k = 2.0, 0.005
        onset, paper = RampSchedule(k=k, onset=tau), RampSchedule(k=k)
        for kt in (40.0, 200.0):
            assert epsilon_at(onset, kt / k) == pytest.approx(
                epsilon_at(paper, (kt - tau) / k), rel=1e-12
            )
        # the onset lengthens the ramp to a target by less than tau in kt
        assert paper.kt_end < onset.kt_end < paper.kt_end + tau

    @pytest.mark.parametrize("u", [1e-3, 0.05, 0.0999999, 0.1, 0.1000001, 0.2])
    def test_clock_series_matches_closed_form(self, u):
        # small-u series and kt - tau tanh(kt/tau) agree across the switch
        tau = 3.0
        direct = tau * (u - np.tanh(u))
        tol = 1e-13 if u >= 0.05 else 1e-9  # the closed form cancels at small u
        assert _onset_clock(u * tau, tau) == pytest.approx(direct, rel=tol)

    @pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
    def test_rejects_invalid_onset(self, tau):
        with pytest.raises(ValueError):
            RampSchedule(k=1.0, onset=tau)

    def test_paper_clock_consumers_reject_onset(self, monkeypatch):
        s = RampSchedule(k=1.0, onset=2.0)
        kts = np.logspace(2, 4, 10)
        with pytest.raises(ValueError, match="onset"):
            metrology.scaling_experiment(s, kts)
        with pytest.raises(ValueError, match="onset"):
            metrology.heisenberg_ratio(s, kts)
        monkeypatch.setattr(experiments, "_schedule", lambda resolved: s)
        with pytest.raises(ValueError, match="onset"):
            experiments.scaling(cli.resolve_config({"experiment": "scaling"}))


class TestTransitionProbability:
    def test_first_channel_near_critical_limit(self):
        # P_1 -> (k e^{-1/2} / (3 sqrt2 Omega))^2 as eta -> 1
        s = make_schedule()
        limit = (s.k * np.exp(-0.5) / (3 * np.sqrt(2))) ** 2
        got = transition_probability(s, 1.0, 1.0 - 1e-8, 1)
        assert got == pytest.approx(limit, rel=1e-6)

    def test_flat_along_ramp_near_criticality(self):
        # the xi = 4/3 choice cancels the (1-eta^2) power: P_1 varies by
        # only a few percent over eta in [0.9, 0.999]
        s = make_schedule()
        values = [
            transition_probability(s, 1.0, eta, 1)
            for eta in np.linspace(0.9, 0.999, 40)
        ]
        assert max(values) / min(values) - 1.0 < 0.20

    @pytest.mark.parametrize("eta", [0.9, 0.99, 0.999])
    def test_uniform_bound_over_channels(self, eta):
        s = make_schedule()
        bound = transition_bound(s, 1.0)
        for n in range(1, 31):
            assert transition_probability(s, 1.0, eta, n) < bound

    def test_channel_decay(self):
        # near criticality the channel weight decays monotonically with n
        s = make_schedule()
        values = [transition_probability(s, 1.0, 0.9999, n) for n in range(1, 31)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_scales_with_rate_squared(self):
        slow = make_schedule(k=0.001)
        fast = make_schedule(k=0.002)
        p_slow = transition_probability(slow, 1.0, 0.95, 1)
        p_fast = transition_probability(fast, 1.0, 0.95, 1)
        assert p_fast / p_slow == pytest.approx(4.0, rel=1e-12)

    def test_rejects_invalid(self):
        s = make_schedule()
        with pytest.raises(ValueError):
            transition_probability(s, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            transition_probability(s, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            transition_probability(s, 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            transition_probability(s, 0.0, 0.5, 1)

    def test_high_channels_stay_finite(self):
        # log-space factorial keeps n = 100 representable
        s = make_schedule()
        p = transition_probability(s, 1.0, 0.99, 100)
        assert np.isfinite(p)
        assert p >= 0.0
