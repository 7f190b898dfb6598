from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from jcsense import dynamics, fockspace, ramp
from jcsense.dynamics import EvolutionConfig, evolve, fidelity_against_dark
from jcsense.fockspace import HilbertSpec, StateVector, eigenstate


class TestFidelityAgainstDark:
    def test_dark_state_gives_unity(self):
        spec = HilbertSpec(n_max=48)
        dark = eigenstate(spec, 1.0, 0.6, 0, "dark")
        assert fidelity_against_dark(dark, 1.0, 0.6) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_doublet_gives_zero(self):
        spec = HilbertSpec(n_max=64)
        excited = eigenstate(spec, 1.0, 0.6, 1, "+")
        assert fidelity_against_dark(excited, 1.0, 0.6) <= 1e-10

    def test_equal_superposition_gives_half(self):
        spec = HilbertSpec(n_max=64)
        dark = eigenstate(spec, 1.0, 0.6, 0, "dark")
        excited = eigenstate(spec, 1.0, 0.6, 1, "+")
        mixed = StateVector(
            spec, (dark.amplitudes + excited.amplitudes) / np.sqrt(2)
        )
        assert fidelity_against_dark(mixed, 1.0, 0.6) == pytest.approx(0.5, abs=1e-10)

    def test_small_cutoff_matches_zero_padded_state_on_large_cutoff(self):
        # the dark amplitudes are exact on the state's own levels, so a
        # state on n_max 8 gives the overlap it has, zero-padded, with the
        # dark state on n_max 64; no cutoff is too small to be compared
        small, big = HilbertSpec(n_max=8), HilbertSpec(n_max=64)
        rng = np.random.default_rng(8)
        amps = rng.normal(size=small.dim) + 1j * rng.normal(size=small.dim)
        state = StateVector(small, amps / np.linalg.norm(amps))
        fd = small.field_dim
        padded = np.zeros(big.dim, dtype=complex)
        padded[:fd] = state.amplitudes[:fd]  # qubit |g>
        padded[big.field_dim : big.field_dim + fd] = state.amplitudes[fd:]  # qubit |e>
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fidelity_against_dark(state, 1.0, 0.6)
            dark = eigenstate(big, 1.0, 0.6, 0, "dark")
        expected = abs(np.vdot(dark.amplitudes, padded)) ** 2
        assert got == pytest.approx(expected, rel=0.0, abs=1e-14)
        assert got > 0.01

    def test_rejects_field_only_state(self):
        state = fockspace.squeezed_vacuum(HilbertSpec(n_max=32, with_qubit=False), -0.1)
        with pytest.raises(ValueError):
            fidelity_against_dark(state, 1.0, 0.3)


class TestEvolve:
    def test_short_ramp_structure(self):
        sched = ramp.RampSchedule(k=1.0 / 20.0, eta_target=0.5)
        cfg = EvolutionConfig(omega=1.0, schedule=sched, spec=HilbertSpec(n_max=32))
        records = evolve(cfg)
        assert len(records) == 201
        assert records[0].t == 0.0
        assert records[-1].eta == pytest.approx(0.5, abs=1e-12)
        for rec in records:
            assert 0.0 <= rec.fidelity <= 1.0 + 1e-12
            assert rec.norm_defect <= 10 * cfg.atol

    def test_faster_ramp_loses_fidelity(self):
        def final_fidelity(k):
            sched = ramp.RampSchedule(k=k, eta_target=0.9)
            cfg = EvolutionConfig(
                omega=1.0, schedule=sched, spec=HilbertSpec(n_max=48)
            )
            return evolve(cfg)[-1].fidelity

        slow = final_fidelity(1.0 / 20.0)
        # the fast ramp's excited doublets outgrow n_max = 48, and evolve says so
        with pytest.warns(fockspace.TruncationWarning):
            fast = final_fidelity(1.0 / 5.0)
        assert fast < slow

    def test_tolerance_convergence(self):
        # halving the tolerances must not move the final fidelity
        sched = ramp.RampSchedule(k=1.0 / 50.0, eta_target=0.9)
        fids = []
        for scale in (1.0, 0.5):
            cfg = EvolutionConfig(
                omega=1.0,
                schedule=sched,
                spec=HilbertSpec(n_max=48),
                rtol=1e-9 * scale,
                atol=1e-11 * scale,
            )
            fids.append(evolve(cfg)[-1].fidelity)
        assert abs(fids[0] - fids[1]) < 1e-6

    def test_truncation_warning_on_tiny_cutoff(self):
        # the message says when the worst tail mass occurred; the benchmark
        # reads the tail mass from it with the pattern "tail mass ([0-9.eE+-]+)"
        sched = ramp.RampSchedule(k=0.1, eta_target=0.9)
        cfg = EvolutionConfig(omega=1.0, schedule=sched, spec=HilbertSpec(n_max=6))
        pattern = r"tail mass ([0-9.eE+-]+) > 1e-08 at t = ([0-9.eE+-]+), kt = ([0-9.eE+-]+)\)"
        with pytest.warns(fockspace.TruncationWarning, match=pattern) as caught:
            records = evolve(cfg)
        (message,) = [str(w.message) for w in caught if re.search(pattern, str(w.message))]
        tail, t, kt = (float(v) for v in re.search(pattern, message).groups())
        assert tail > dynamics.EVOLVE_TAIL_TOL
        assert min(abs(r.t - t) for r in records) <= 1e-5 * max(t, 1.0)  # printed to 6 digits
        assert kt == pytest.approx(sched.k * t, rel=1e-5, abs=0.0)

    def _capture_rhs(self, monkeypatch):
        # a k = 0.05 ramp to eta 0.9 at n_max 48 raises no truncation warning
        calls = []

        def spy(fun, t_span, y0, **kwargs):
            sol = solve_ivp(fun, t_span, y0, **kwargs)
            calls.append((fun, sol))
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        sched = ramp.RampSchedule(k=0.05, eta_target=0.9)
        spec = HilbertSpec(n_max=48)
        records = evolve(EvolutionConfig(omega=1.0, schedule=sched, spec=spec))
        (fun, sol), = calls
        return fun, sol, records, sched, spec

    def test_rhs_contract(self, monkeypatch):
        rhs, _, _, sched, spec = self._capture_rhs(monkeypatch)
        h_jc, h_drive = fockspace.jc_hamiltonian_parts(spec, 1.0)
        rng = np.random.default_rng(11)
        y = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        t = 0.37 * sched.duration
        expected = -1j * (h_jc.matrix @ y + ramp.eta_at(sched, t) * (h_drive.matrix @ y))
        first = rhs(t, y)
        np.testing.assert_array_equal(first, expected)
        # the integrator keeps each returned derivative as the next step's
        # first stage, so a later call must not write into an earlier result
        kept = first.copy()
        second = rhs(2.0 * t, y)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_rhs_output_stays_fresh_while_its_buffer_is_reused(self, monkeypatch):
        # the RHS zeroes and refills one product buffer per call, but what it
        # returns must be owned by the caller: the stepper keeps stages
        # across calls and overwrites the y it passed in
        rhs, _, _, sched, spec = self._capture_rhs(monkeypatch)
        h_jc, h_drive = fockspace.jc_hamiltonian_parts(spec, 1.0)

        def textbook(t, y):
            return -1j * (h_jc.matrix @ y + ramp.eta_at(sched, t) * (h_drive.matrix @ y))

        rng = np.random.default_rng(12)
        y1, y2 = (rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim) for _ in range(2))
        t1, t2 = 0.41 * sched.duration, 0.83 * sched.duration
        expected1, expected2 = textbook(t1, y1), textbook(t2, y2)
        first = rhs(t1, y1)
        second = rhs(t2, y2)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, expected1)
        np.testing.assert_array_equal(second, expected2)
        y1[:] = 0.0
        y2[:] = 0.0
        np.testing.assert_array_equal(first, expected1)
        np.testing.assert_array_equal(second, expected2)

    def test_eta_at_called_once_per_rhs_and_record(self, monkeypatch):
        # the benchmark's counters wrap dynamics.solve_ivp and ramp.eta_at;
        # both must stay module-attribute lookups made once per evaluation
        counts = {"eta_at": 0}
        eta_at = ramp.eta_at

        def counting(*args, **kwargs):
            counts["eta_at"] += 1
            return eta_at(*args, **kwargs)

        monkeypatch.setattr(ramp, "eta_at", counting)
        _, sol, records, _, _ = self._capture_rhs(monkeypatch)
        assert sol.nfev > 0
        assert counts["eta_at"] == sol.nfev + len(records)

    def test_fidelity_looked_up_on_the_module_once_per_record(self, monkeypatch):
        # the benchmark's tracer wraps dynamics.fidelity_against_dark and
        # counts one call per record
        calls = []
        fidelity = dynamics.fidelity_against_dark

        def counting(*args, **kwargs):
            calls.append(args)
            return fidelity(*args, **kwargs)

        monkeypatch.setattr(dynamics, "fidelity_against_dark", counting)
        sched = ramp.RampSchedule(k=1.0 / 20.0, eta_target=0.5)
        records = evolve(EvolutionConfig(omega=1.0, schedule=sched, spec=HilbertSpec(n_max=32)))
        assert len(calls) == len(records) == dynamics.DEFAULT_RECORDS + 1
        assert [r.fidelity for r in records] == [fidelity(*args) for args in calls]

    def test_rhs_matches_textbook_form_bit_for_bit(self, monkeypatch):
        # the stacked -1j operator must reproduce -1j (H_jc y + eta H_drive y)
        # and the in-place stepper scipy's DOP853 exactly, so every step,
        # record and artifact stays the same
        calls = []

        def spy(fun, t_span, y0, **kwargs):
            sol = solve_ivp(fun, t_span, y0, **kwargs)
            calls.append((t_span, y0.copy(), kwargs, sol))
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        spec = HilbertSpec(n_max=48)  # n_max 24, 32 and 40 warn of truncation here
        h_jc, h_drive = fockspace.jc_hamiltonian_parts(spec, 1.0)
        m_jc, m_dr = h_jc.matrix, h_drive.matrix
        sched = ramp.RampSchedule(k=0.05, eta_target=0.9)
        evolve(EvolutionConfig(omega=1.0, schedule=sched, spec=spec))
        (t_span, y0, kwargs, sol), = calls
        assert issubclass(kwargs["method"], DOP853)

        def textbook(t, y):
            return -1j * (m_jc @ y + ramp.eta_at(sched, t) * (m_dr @ y))

        ref = solve_ivp(textbook, t_span, y0, **dict(kwargs, method="DOP853"))
        assert sol.nfev == ref.nfev
        np.testing.assert_array_equal(sol.t, ref.t)
        np.testing.assert_array_equal(sol.y, ref.y)

    def test_nan_drive_fails_loudly(self, monkeypatch):
        # a drive that turns NaN mid-ramp makes every step through it fail
        # the error test; the stepper shrinks h until it underflows
        eta_at = ramp.eta_at

        def nan_after(s, t):
            return float("nan") if t > 0.5 * s.duration else eta_at(s, t)

        calls = []

        def spy(fun, t_span, y0, **kwargs):
            sol = solve_ivp(fun, t_span, y0, **kwargs)
            calls.append(sol)
            return sol

        monkeypatch.setattr(ramp, "eta_at", nan_after)
        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        sched = ramp.RampSchedule(k=0.05, eta_target=0.9)
        cfg = EvolutionConfig(omega=1.0, schedule=sched, spec=HilbertSpec(n_max=16))
        with pytest.raises(RuntimeError, match="time integration failed"):
            with pytest.warns(RuntimeWarning, match="invalid value"):
                evolve(cfg)
        (sol,) = calls
        assert sol.status == -1
        assert sol.message == DOP853.TOO_SMALL_STEP
        # with t_eval, sol.t holds the records reached before the failure
        assert 0.0 < sol.t[-1] <= 0.5 * sched.duration

    def test_validation(self):
        sched = ramp.RampSchedule(k=0.1)
        with pytest.raises(ValueError):
            EvolutionConfig(omega=1.0, schedule=sched, spec=HilbertSpec(n_max=8), rtol=0)
        with pytest.raises(ValueError):
            EvolutionConfig(
                omega=1.0, schedule=sched, spec=HilbertSpec(n_max=8, with_qubit=False)
            )
        with pytest.raises(ValueError):
            EvolutionConfig(omega=0.0, schedule=sched, spec=HilbertSpec(n_max=8))


class TestHeadlineTrajectory:
    """Structural checks on the shared headline run; the fidelity floor
    itself is an acceptance criterion."""

    def test_norm_conserved_along_trajectory(self, headline_ramp_run):
        cfg, records = headline_ramp_run
        assert max(r.norm_defect for r in records) <= 10 * cfg.atol

    def test_final_record_at_target(self, headline_ramp_run):
        _, records = headline_ramp_run
        assert records[-1].eta == pytest.approx(0.995, abs=1e-12)

    def test_ten_times_faster_ramp_ends_below_headline_fidelity(self, headline_ramp_run):
        cfg, records = headline_ramp_run
        fast = EvolutionConfig(
            omega=cfg.omega,
            schedule=ramp.RampSchedule(k=10 * cfg.schedule.k, eta_target=0.995),
            spec=cfg.spec,
        )
        with pytest.warns(fockspace.TruncationWarning):
            fast_records = evolve(fast)
        assert fast_records[-1].fidelity < records[-1].fidelity

    def test_moments_track_instantaneous_dark_state(self, headline_ramp_run):
        # measured <N> follows the closed form at the instantaneous eta up to
        # the coherent cross-terms left by the start-up jolt (doublet
        # amplitude ~0.013 against O(1) matrix elements): within 10% over the
        # critical window and 25% everywhere the photon number is appreciable
        from jcsense import analytic

        _, records = headline_ramp_run
        for rec in records[1:]:
            if rec.eta > 0.99:
                continue
            expected = analytic.evaluate(rec.eta).mean_n
            if 0.9 <= rec.eta:
                assert abs(rec.mean_n - expected) <= 0.10 * expected
            elif expected >= 0.01:
                assert abs(rec.mean_n - expected) <= 0.25 * expected


class TestErrorNorm:
    """The stepper's in-place error estimate against scipy's, compared with
    ``==``: a last-bit difference would move the step sizes."""

    @staticmethod
    def _solver(n):
        def fun(t, y):
            return np.zeros_like(y)

        y0 = np.zeros(n, dtype=complex)
        return dynamics._InPlaceDOP853(fun, 0.0, y0, 1.0, rtol=1e-9, atol=1e-11)

    @staticmethod
    def _scipy(solver, y, y_new, h):
        scale = solver.atol + np.maximum(np.abs(y), np.abs(y_new)) * solver.rtol
        return DOP853._estimate_error_norm(solver, solver.K, h, scale)

    @staticmethod
    def _draw(rng, shape, spread):
        mag = np.exp(rng.uniform(-spread, spread, size=shape))
        return mag * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    @pytest.mark.parametrize("n", [1, 7, 244])
    def test_matches_scipy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        solver = self._solver(n)
        for _ in range(40):
            solver.K[:] = self._draw(rng, solver.K.shape, 20.0)
            y, y_new = self._draw(rng, n, 25.0), self._draw(rng, n, 25.0)
            h = float(np.exp(rng.uniform(-12.0, 2.0)))
            expected = self._scipy(solver, y, y_new, h)
            assert solver._error_norm(y, y_new, h) == expected
            assert solver._error_norm(y, y_new, -h) == expected

    def test_zero_stages_give_zero(self):
        solver = self._solver(9)
        solver.K[:] = 0.0
        rng = np.random.default_rng(5)
        y, y_new = self._draw(rng, 9, 3.0), self._draw(rng, 9, 3.0)
        assert self._scipy(solver, y, y_new, 0.3) == 0.0
        assert solver._error_norm(y, y_new, 0.3) == 0.0

    def test_zero_rhs_steps_like_scipy(self):
        # f = 0 makes every error estimate exactly 0, so each step grows by
        # MAX_FACTOR: the zero-error branch of the step control
        def fun(t, y):
            return np.zeros_like(y)

        rng = np.random.default_rng(7)
        y0 = rng.normal(size=9) + 1j * rng.normal(size=9)
        t_eval = np.linspace(0.0, 50.0, 11)
        got, ref = (
            solve_ivp(fun, (0.0, 50.0), y0, method=method, rtol=1e-9, atol=1e-11, t_eval=t_eval)
            for method in (dynamics._InPlaceDOP853, "DOP853")
        )
        assert got.status == ref.status == 0
        assert got.nfev == ref.nfev
        np.testing.assert_array_equal(got.t, ref.t)
        np.testing.assert_array_equal(got.y, ref.y)

    def test_nan_entry_gives_nan(self):
        solver = self._solver(9)
        rng = np.random.default_rng(6)
        solver.K[:] = self._draw(rng, solver.K.shape, 3.0)
        solver.K[4, 2] = complex(np.nan, 0.0)
        y, y_new = self._draw(rng, 9, 3.0), self._draw(rng, 9, 3.0)
        with np.errstate(invalid="ignore"):
            assert np.isnan(self._scipy(solver, y, y_new, 0.3))
            assert np.isnan(solver._error_norm(y, y_new, 0.3))
