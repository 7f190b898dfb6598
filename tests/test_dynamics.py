from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from conftest import (
    HEADLINE,
    LAB_N_MAX,
    ONSET,
    dense_displace,
    dense_ladder,
    dense_squeeze,
    dop853_frame,
    frame_amplitudes,
    frame_run,
)

from jcsense import analytic, dynamics, fockspace, ramp
from jcsense.dynamics import evolve, fidelity_against_dark
from jcsense.fockspace import HilbertSpec, StateVector, eigenstate


class TestFidelityAgainstDark:
    def test_dark_state_gives_unity(self):
        spec = HilbertSpec(n_max=48)
        dark = eigenstate(spec, 1.0, 0.6, 0, "dark")
        assert fidelity_against_dark(dark, 0.6) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_doublet_gives_zero(self):
        spec = HilbertSpec(n_max=64)
        excited = eigenstate(spec, 1.0, 0.6, 1, "+")
        assert fidelity_against_dark(excited, 0.6) <= 1e-10

    def test_equal_superposition_gives_half(self):
        spec = HilbertSpec(n_max=64)
        dark = eigenstate(spec, 1.0, 0.6, 0, "dark")
        excited = eigenstate(spec, 1.0, 0.6, 1, "+")
        mixed = StateVector(
            spec, (dark.amplitudes + excited.amplitudes) / np.sqrt(2)
        )
        assert fidelity_against_dark(mixed, 0.6) == pytest.approx(0.5, abs=1e-10)

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
            got = fidelity_against_dark(state, 0.6)
            dark = eigenstate(big, 1.0, 0.6, 0, "dark")
        expected = abs(np.vdot(dark.amplitudes, padded)) ** 2
        assert got == pytest.approx(expected, rel=0.0, abs=1e-14)
        assert got > 0.01

    def test_rejects_field_only_state(self):
        state = fockspace.squeezed_vacuum(HilbertSpec(n_max=32, with_qubit=False), -0.1)
        with pytest.raises(ValueError):
            fidelity_against_dark(state, 0.3)


class TestEvolve:
    def test_short_ramp_structure(self):
        sched = ramp.RampSchedule(k=1.0 / 20.0, eta_target=0.5)
        traj = evolve(sched, 1.0)
        assert len(traj) == 201
        columns = {name: value for name, value in vars(traj).items() if name not in ("nfev", "steps")}
        assert len(columns) == 9
        for column in columns.values():
            assert column.shape == (201,)
        # three generator evaluations per attempted step
        assert 0 < 3 * traj.steps <= traj.nfev and traj.nfev % 3 == 0
        assert traj.t[0] == 0.0
        assert traj.fidelity[0] == 1.0 and traj.mean_n[0] == 0.0
        assert traj.eta[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.all((0.0 <= traj.fidelity) & (traj.fidelity <= 1.0 + 1e-12))
        assert traj.norm_defect.max() <= 10 * dynamics.DEFAULT_ATOL

    def test_faster_ramp_loses_fidelity(self):
        def final_fidelity(k):
            sched = ramp.RampSchedule(k=k, eta_target=0.9)
            return evolve(sched, 1.0).fidelity[-1]

        slow = final_fidelity(1.0 / 50.0)
        # the fast ramp excites the frame's top doublet pair, and evolve says so
        with pytest.warns(fockspace.TruncationWarning):
            fast = final_fidelity(1.0 / 5.0)
        assert fast < slow

    def test_tolerance_convergence(self):
        # halving the tolerances must not move the final fidelity
        sched = ramp.RampSchedule(k=1.0 / 50.0, eta_target=0.9)
        fids = []
        for scale in (1.0, 0.5):
            fids.append(evolve(sched, 1.0, rtol=1e-9 * scale, atol=1e-11 * scale).fidelity[-1])
        assert abs(fids[0] - fids[1]) < 1e-6

    def test_truncation_warning_on_tiny_cutoff(self, monkeypatch):
        # two doublet pairs cannot hold a fast ramp; the message says when the
        # top pair's population peaked, and the benchmark reads it with the
        # pattern "tail mass ([0-9.eE+-]+)"
        monkeypatch.setattr(dynamics, "N_DOUBLETS", 2)
        sched = ramp.RampSchedule(k=0.1, eta_target=0.9)
        pattern = r"tail mass ([0-9.eE+-]+) > 1e-08 at t = ([0-9.eE+-]+), kt = ([0-9.eE+-]+)\)"
        with pytest.warns(fockspace.TruncationWarning, match=pattern) as caught:
            traj = evolve(sched, 1.0)
        (message,) = [str(w.message) for w in caught if re.search(pattern, str(w.message))]
        assert "n = 2" in message
        top, t, kt = (float(v) for v in re.search(pattern, message).groups())
        assert top > dynamics.TOP_PAIR_TOL
        assert top == pytest.approx(traj.top_pair_population.max(), rel=1e-2)
        assert np.abs(traj.t - t).min() <= 1e-5 * max(t, 1.0)  # printed to 6 digits
        assert kt == pytest.approx(sched.k * t, rel=1e-5, abs=0.0)

    def _capture_rhs(self, monkeypatch):
        # a k = 0.05 ramp to eta 0.9
        calls = []
        solve_ivp = dynamics.solve_ivp

        def spy(fun, y0, t_eval, **kwargs):
            sol = solve_ivp(fun, y0, t_eval, **kwargs)
            calls.append((fun, sol))
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        sched = ramp.RampSchedule(k=0.05, eta_target=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fockspace.TruncationWarning)
            traj = evolve(sched, 1.0)
        (fun, sol), = calls
        return fun, sol, traj, sched

    def test_rhs_contract(self, monkeypatch):
        # dz/dt = G z in the real coordinates, c = W z: G is real and
        # antisymmetric, and W G W^dag is the frame's generator
        # A = -i diag(E) - eta' D built from _frame's complex tables, so the
        # norm is conserved and the diagonal holds the doublet energies; one
        # call evaluates G at several times, into a fresh array, as a chunk
        # of Magnus steps keeps its generators at once
        rhs, _, _, sched = self._capture_rhs(monkeypatch)
        times = np.array([0.05, 0.37, 0.81]) * sched.duration
        size = 2 * dynamics.N_DOUBLETS + 1
        eye = np.eye(size)
        gens = rhs(times, eye)
        assert gens.shape == (len(times), size, size)
        assert not np.shares_memory(gens, rhs(times, eye))
        assert gens.dtype == np.float64
        frame = dynamics._frame(dynamics.N_DOUBLETS)
        w = frame.unitary
        np.testing.assert_allclose(w.conj().T @ w, np.eye(size), rtol=0.0, atol=1e-15)
        for t, gen in zip(times, gens):
            np.testing.assert_allclose(gen + gen.T, 0.0, rtol=0.0, atol=1e-13 * np.abs(gen).max())
            eta = ramp.eta_at(sched, t)
            eps = (1.0 - eta) * (1.0 + eta)
            expected = -1j * eps**0.75 * np.diag(frame.energies) - ramp.eta_dot_at(sched, t) * _coupling(frame, eta)
            mapped = w @ gen @ w.conj().T
            np.testing.assert_allclose(mapped, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())
            energies = [0.0] + [
                analytic.eigenvalue(1.0, eta, n, branch)
                for n in range(1, dynamics.N_DOUBLETS + 1) for branch in ("+", "-")
            ]
            np.testing.assert_allclose(np.diag(mapped).imag, -np.array(energies), rtol=1e-14, atol=1e-15)
            assert np.abs(np.diag(mapped).real).max() <= 1e-15 * np.abs(gen).max()

    def test_rhs_batch_matches_single_times(self, monkeypatch):
        # a batched call is the stack of one-time calls, and applies G to a
        # vector as well as to the identity
        rhs, _, _, sched = self._capture_rhs(monkeypatch)
        times = np.linspace(0.0, sched.duration, 7)[1:]
        size = 2 * dynamics.N_DOUBLETS + 1
        gens = rhs(times, np.eye(size))
        single = np.array([rhs(np.array([t]), np.eye(size))[0] for t in times])
        assert np.abs(gens - single).max() <= 1e-15 * np.abs(single).max()
        z = np.random.default_rng(7).normal(size=size)
        np.testing.assert_allclose(rhs(times, z), gens @ z, rtol=0.0, atol=1e-15 * np.abs(gens).max())

    def test_eta_at_called_once_per_rhs_and_record(self, monkeypatch):
        # the benchmark's counters wrap dynamics.solve_ivp and ramp.eta_at;
        # both must stay module-attribute lookups made once per evaluation
        counts = {"eta_at": 0}
        eta_at = ramp.eta_at

        def counting(*args, **kwargs):
            counts["eta_at"] += 1
            return eta_at(*args, **kwargs)

        monkeypatch.setattr(ramp, "eta_at", counting)
        _, sol, traj, _ = self._capture_rhs(monkeypatch)
        assert sol.nfev > 0
        assert counts["eta_at"] == sol.nfev + len(traj)

    def test_nan_drive_fails_loudly(self, monkeypatch):
        # a drive that turns NaN mid-ramp ends the solve at the first step
        # whose generator is not finite
        eta_at = ramp.eta_at

        def nan_after(s, t):
            return float("nan") if t > 0.5 * s.duration else eta_at(s, t)

        monkeypatch.setattr(ramp, "eta_at", nan_after)
        sched = ramp.RampSchedule(k=0.05, eta_target=0.9)
        expected = "time integration failed: non-finite generator near t = "
        with pytest.raises(RuntimeError, match=expected) as caught:
            evolve(sched, 1.0)
        # a step's nodes lie inside it, so the last record reached is the
        # one at half the duration
        assert str(caught.value).endswith(f", after the record at t = {0.5 * sched.duration:g}")

    def test_validation(self, monkeypatch):
        # every check runs before the integrator is reached
        monkeypatch.setattr(dynamics, "solve_ivp", None)
        sched = ramp.RampSchedule(k=0.1)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, rtol=0)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, atol=-1e-12)
        with pytest.raises(ValueError):
            evolve(sched, 0.0)

    @pytest.mark.parametrize("key", ["rtol", "atol", "omega"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, monkeypatch, key, value):
        # a NaN or infinite tolerance used to reach the integrator, which then
        # stalled on it; a NaN omega reached it too
        monkeypatch.setattr(dynamics, "solve_ivp", None)
        sched = ramp.RampSchedule(k=0.1)
        kwargs = {"omega": 1.0, key: value}
        with pytest.raises(ValueError, match=key):
            evolve(sched, **kwargs)

    @pytest.mark.parametrize(
        "sched",
        [ramp.RampSchedule(k=0.005, eta_target=1e-300), ramp.RampSchedule(k=1e-320)],
        ids=["zero", "infinite"],
    )
    def test_rejects_a_degenerate_duration(self, monkeypatch, sched):
        # kt_end underflows to 0, or kt_end / k overflows; evolve used to die
        # on the zero duration with an AttributeError
        monkeypatch.setattr(dynamics, "solve_ivp", None)
        with pytest.raises(ValueError, match="schedule duration"):
            evolve(sched, 1.0)

    def test_depends_on_k_over_omega(self):
        # doubling Omega and k together halves t and keeps every other record;
        # Omega is not the time unit of an absolute rate k
        fast, slow = (
            evolve(ramp.RampSchedule(k=k, eta_target=0.9), omega)
            for omega, k in ((2.0, 0.02), (1.0, 0.01))
        )
        np.testing.assert_array_equal(2.0 * fast.t, slow.t)
        for name in ("eta", "fidelity", "mean_n", "var_n", "mean_x2", "mean_p2"):
            assert getattr(fast, name) == pytest.approx(getattr(slow, name), rel=0.0, abs=1e-9), name


class TestSolveIvp:
    """The Magnus integrator on a qubit in a rotating field, whose state is
    closed-form: H(t) = (delta/2) Z + (g/2)(cos(w t) X + sin(w t) Y) gives
    psi(t) = exp(-i w t Z/2) exp(-i H_rot t) psi(0), with the static
    H_rot = ((delta - w)/2) Z + (g/2) X.  The solve is real, so the qubit
    runs in its real form: (Re psi, Im psi) under
    [[Re A, -Im A], [Im A, Re A]] with A = -i H."""

    DELTA, G, W = 1.0, 0.7, 1.3
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1.0 + 0j, -1.0])
    PSI0 = np.array([1.0, 0.0], dtype=complex)

    def generator(self, times):
        # the real form of A(t) at each of the times, stacked
        c, s = np.cos(self.W * times)[:, None, None], np.sin(self.W * times)[:, None, None]
        a = -0.5j * (self.DELTA * self.Z + self.G * (c * self.X + s * self.Y))
        return np.block([[a.real, -a.imag], [a.imag, a.real]])

    def fun(self, times, y):
        return self.generator(times) @ y

    def exact(self, t):
        w, v = np.linalg.eigh(0.5 * ((self.DELTA - self.W) * self.Z + self.G * self.X))
        psi = v @ (np.exp(-1j * w * t) * (v.conj().T @ self.PSI0))
        psi *= np.exp(-0.5j * self.W * t * np.diag(self.Z))
        return np.concatenate([psi.real, psi.imag])

    def test_records_land_on_the_closed_form(self):
        # the graded clock starts at t_eval[0], which need not be 0
        for start in (0.0, 3.0):
            times = np.linspace(start, start + 20.0, 41)
            sol = dynamics.solve_ivp(self.fun, self.exact(start), times, rtol=1e-10, atol=1e-12)
            assert sol.nfev % 3 == 0
            expected = np.array([self.exact(t) for t in times]).T
            assert sol.y.shape == expected.shape
            assert np.abs(sol.y - expected).max() <= 1e-9, start
            assert np.abs(np.linalg.norm(sol.y, axis=0) - 1.0).max() <= 1e-14, start

    def test_a_frequency_jump_cuts_a_chunk_short(self):
        # every frequency of the qubit jumps 4x within 0.02 of t = 10.3,
        # inside the record interval [10, 10.5]: H(t) = f(t) H_0(F(t)) with
        # F' = f, so psi(t) = psi_0(F(t)).  The steps that reach the jump
        # fail the error test partway through a chunk; the ones before it
        # are kept and the records stay on the closed form
        jump, width, ratio = 10.3, 0.02, 4.0

        def rate(t):
            return 1.0 + 0.5 * (ratio - 1.0) * (1.0 + np.tanh((t - jump) / width))

        def clock(t):
            # F(t) = int_0^t f, with width * ln(2 cosh x) as logaddexp
            def rise(t):
                return t - jump + width * np.logaddexp((t - jump) / width, (jump - t) / width)

            return t + 0.5 * (ratio - 1.0) * (rise(t) - rise(0.0))

        chunks = []

        def fun(times, y):
            chunks.append(times)
            return rate(times)[:, None, None] * self.generator(clock(times)) @ y

        times = np.linspace(0.0, 20.0, 41)
        sol = dynamics.solve_ivp(fun, self.exact(0.0), times, rtol=1e-10, atol=1e-12)
        expected = np.array([self.exact(clock(t)) for t in times]).T
        assert np.abs(sol.y - expected).max() <= 1e-9
        assert np.abs(np.linalg.norm(sol.y, axis=0) - 1.0).max() <= 1e-14
        # a chunk whose nodes straddle the jump is followed by one that
        # starts inside it: its first steps were kept, the rest thrown away
        assert any(
            a.min() < jump < a.max() and a.min() < b.min() < a.max()
            for a, b in zip(chunks, chunks[1:])
        )
        assert sol.nfev > 3 * sol.steps

    def test_step_size_underflow_fails(self):
        # no step meets a tolerance of 1e-200: h shrinks until it underflows
        times = np.linspace(0.0, 20.0, 41)
        expected = r"^time integration failed: step size below .* after the record at t = 0$"
        with pytest.raises(RuntimeError, match=expected):
            dynamics.solve_ivp(self.fun, self.exact(0.0), times, rtol=1e-200, atol=1e-200)


class TestPadeExponential:
    """The Magnus step's exponential against an ``eigh`` reference, on both
    sides of the 1-norm theta_13 above which it scales and squares."""

    NORMS = (0.5, 5.0, 6.0, 40.0)

    @staticmethod
    def _antihermitian(rng, size, dtype, norm):
        m = rng.normal(size=(size, size))
        if dtype is complex:
            m = m + 1j * rng.normal(size=(size, size))
        a = m - m.conj().T
        return a * (norm / np.abs(a).sum(axis=0).max())

    @staticmethod
    def _check(a, r, y):
        # exp(a) = v exp(-i w) v^dag with i a = v diag(w) v^dag
        w, v = np.linalg.eigh(1j * a)
        expected = v @ (np.exp(-1j * w) * (v.conj().T @ y))
        got = r @ y
        assert got.dtype == y.dtype
        assert np.abs(got - expected).max() <= 1e-14
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-14

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("size", [2, 21])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_eigh(self, norm, size, dtype):
        rng = np.random.default_rng(size)
        a = self._antihermitian(rng, size, dtype, norm)
        y = rng.normal(size=size).astype(dtype)
        if dtype is complex:
            y += 1j * rng.normal(size=size)
        self._check(a, dynamics._expm(a[None])[0], y / np.linalg.norm(y))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_stack_squares_each_matrix_on_its_own(self, dtype):
        # 1-norms below and above theta_13 in one call: some matrices are
        # scaled and squared, the others not
        rng = np.random.default_rng(13)
        size = 21
        stack = np.array([self._antihermitian(rng, size, dtype, norm) for norm in self.NORMS])
        y = rng.normal(size=size).astype(dtype)
        y /= np.linalg.norm(y)
        rotations = dynamics._expm(stack)
        assert rotations.shape == stack.shape
        for a, r in zip(stack, rotations):
            self._check(a, r, y)


class TestHeadlineTrajectory:
    """Structural checks on the shared headline run; the fidelity floor
    itself is an acceptance criterion."""

    def test_norm_conserved_along_trajectory(self, headline_ramp_run):
        assert headline_ramp_run.norm_defect.max() <= 10 * dynamics.DEFAULT_ATOL

    def test_final_record_at_target(self, headline_ramp_run):
        assert headline_ramp_run.eta[-1] == pytest.approx(0.995, abs=1e-12)

    def test_ten_times_faster_ramp_ends_below_headline_fidelity(self, headline_ramp_run):
        fast = ramp.RampSchedule(k=10 * HEADLINE.k, eta_target=0.995)
        with pytest.warns(fockspace.TruncationWarning):
            fast_traj = evolve(fast, 1.0)
        assert fast_traj.fidelity[-1] < headline_ramp_run.fidelity[-1]

    def test_moments_track_instantaneous_dark_state(self, headline_ramp_run):
        # measured <N> follows the closed form at the instantaneous eta up to
        # the coherent cross-terms left by the start-up jolt (doublet
        # amplitude ~0.013 against O(1) matrix elements): within 10% over the
        # critical window and 25% everywhere the photon number is appreciable
        traj = headline_ramp_run
        for eta, mean_n in zip(traj.eta[1:], traj.mean_n[1:]):
            if eta > 0.99:
                continue
            expected = analytic.evaluate(eta).mean_n
            if 0.9 <= eta:
                assert abs(mean_n - expected) <= 0.10 * expected
            elif expected >= 0.01:
                assert abs(mean_n - expected) <= 0.25 * expected


# ---------------------------------------------------------------------------
# the frame's closed forms
# ---------------------------------------------------------------------------

DENSE_LEVELS = 400
# the closed forms are checked on a frame of this many doublet pairs; the
# production frame's leading block is checked against it
CHECKED_DOUBLETS = 4


def _frame_elements(frame, terms, eta):
    """Element matrix of a tabulated operator at eta."""
    u = np.sqrt((1.0 - eta) * (1.0 + eta))
    size = len(frame.energies)
    total = sum(u**power * (table @ eta ** np.arange(table.shape[1])) for power, table in terms)
    return (total * np.exp(frame.gauss * eta * eta)).reshape(size, size)


def _coupling(frame, eta):
    """D_kj = <k|d_eta j> at eta."""
    size = len(frame.energies)
    raw = (frame.coupling @ eta ** np.arange(frame.coupling.shape[1])) * np.exp(frame.gauss * eta * eta)
    return raw.reshape(size, size) / ((1.0 - eta) * (1.0 + eta))


@pytest.fixture(scope="module", params=[0.3, 0.8, 0.95])
def dense_frame(request):
    """The frame's states at eta as columns on 400 Fock levels x qubit,
    built from dense matrix exponentials (field-fast, qubit (g, e))."""
    eta = request.param
    r = analytic.squeezing_parameter(eta)
    c, s = analytic.qubit_coefficients(eta)
    phi0, phi1 = np.array([c, -s]), np.array([-s, c])
    squeeze = dense_squeeze(DENSE_LEVELS, r).real
    fock = np.eye(DENSE_LEVELS)
    states = [np.kron(phi0, squeeze @ fock[0])]
    for n in range(1, CHECKED_DOUBLETS + 1):
        # D(alpha) is real orthogonal for real alpha, so D(-alpha) = D(alpha)^T
        plus = dense_displace(DENSE_LEVELS, -np.sqrt(n) * eta).real
        for sign, disp in ((1.0, plus), (-1.0, plus.T)):
            field = squeeze @ disp
            states.append((np.kron(phi1, field[:, n - 1]) + sign * np.kron(phi0, field[:, n])) / np.sqrt(2))
    return eta, np.array(states).T


class TestClosedForms:
    def test_dense_states_are_the_frame(self, dense_frame):
        # orthonormal eigenstates of H(eta) with the energies the frame uses
        eta, basis = dense_frame
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        frame = dynamics._frame(CHECKED_DOUBLETS)
        h = fockspace.build_hamiltonian(HilbertSpec(n_max=DENSE_LEVELS - 1), 1.0, eta).matrix
        energies = frame.energies * ((1.0 - eta) * (1.0 + eta)) ** 0.75
        np.testing.assert_allclose(h @ basis, basis * energies, atol=1e-11)

    def test_elements_match_dense_eigenstates(self, dense_frame):
        eta, basis = dense_frame
        frame = dynamics._frame(CHECKED_DOUBLETS)
        a, ad = (m.real for m in dense_ladder(DENSE_LEVELS))
        x, p = (a + ad) / 2, (a - ad) / 2  # P = i(a^dag - a)/2; P^2 = -p^2
        num = ad @ a

        def dense(field_op):
            return basis.T @ np.kron(np.eye(2), field_op) @ basis

        # <k|H_d|j> = (Omega/2) <k|a + a^dag|j> and D_kj = <k|H_d|j> / (E_j - E_k)
        h_d = dense(x)
        energies = frame.energies * ((1.0 - eta) * (1.0 + eta)) ** 0.75
        gap = energies[None, :] - energies[:, None]
        np.fill_diagonal(gap, 1.0)
        expected = np.where(np.eye(len(gap)) == 1.0, 0.0, h_d / gap)
        np.testing.assert_allclose(_coupling(frame, eta), expected, rtol=0.0, atol=2e-14 * np.abs(expected).max())
        x2 = _frame_elements(frame, frame.moments["x2"], eta)
        p2 = _frame_elements(frame, frame.moments["p2"], eta)
        n2 = _frame_elements(frame, frame.moments["n2"], eta)
        for got, field_op in ((x2, x @ x), (p2, -p @ p), (x2 + p2 - 0.5 * np.eye(len(x2)), num), (n2, num @ num)):
            ref = dense(field_op)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize(
        "eta, doublets, tol",
        [(0.3, 10, 1e-11), (0.6, 10, 1e-11), (0.9, 10, 1e-11), (0.995, 3, 5e-14), (0.999, 3, 5e-14)],
    )
    def test_full_frame_matches_fock_eigenstates(self, eta, doublets, tol):
        # the production frame's tables against its states built in Fock space
        # by fockspace.eigenstate on 8x the adaptive cutoff: all 21 states up
        # to eta = 0.9 (measured within 1.3e-12 of the largest element), and
        # the leading n <= 3 block nearer the critical point, where the ladder
        # recurrence is accurate for n <= 3 only (within 5.5e-15)
        frame = dynamics._frame(dynamics.N_DOUBLETS)
        spec = HilbertSpec(n_max=8 * fockspace.adaptive_n_max(eta))
        states = [eigenstate(spec, 1.0, eta, 0, "dark")] + [
            eigenstate(spec, 1.0, eta, n, branch) for n in range(1, doublets + 1) for branch in ("+", "-")
        ]
        basis = np.array([state.amplitudes.real for state in states]).T
        size = basis.shape[1]
        block = np.ix_(range(size), range(size))
        observables = fockspace.field_observables(spec)

        def fock(op):
            return basis.T @ (op @ basis).real

        # D_kj = <k|H_d|j> / (E_j - E_k), H_d = Omega X
        energies = frame.energies[:size] * ((1.0 - eta) * (1.0 + eta)) ** 0.75
        gap = energies[None, :] - energies[:, None]
        np.fill_diagonal(gap, np.inf)
        num = observables["photon_number"]
        for got, ref in (
            (_coupling(frame, eta)[block], fock(fockspace.quadrature_x(spec).matrix) / gap),
            (_frame_elements(frame, frame.moments["x2"], eta)[block], fock(observables["x_squared"])),
            (_frame_elements(frame, frame.moments["p2"], eta)[block], fock(observables["p_squared"])),
            (_frame_elements(frame, frame.moments["n2"], eta)[block], fock(num @ num)),
        ):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=tol * np.abs(ref).max())

    def test_tables_do_not_depend_on_the_doublet_count(self):
        small, full = dynamics._frame(CHECKED_DOUBLETS), dynamics._frame(dynamics.N_DOUBLETS)
        size = len(small.energies)
        block = np.ix_(range(size), range(size))
        for eta in (0.3, 0.95, 0.995):
            np.testing.assert_allclose(_coupling(full, eta)[block], _coupling(small, eta), rtol=1e-13, atol=1e-15)
            for name in ("x2", "p2", "n2"):
                np.testing.assert_allclose(
                    _frame_elements(full, full.moments[name], eta)[block],
                    _frame_elements(small, small.moments[name], eta),
                    rtol=1e-13, atol=1e-13,
                )

    def test_dark_row_matches_transition_amplitude(self):
        # ramp.transition_probability is |eta' D_{n,dark} / E_n|^2 with the
        # closed-form dark row and the asymptotic eta'
        frame = dynamics._frame(dynamics.N_DOUBLETS)
        sched = HEADLINE
        worst = 0.0
        for eta in (0.05, 0.3, 0.6, 0.9, 0.99, 0.995):
            column = np.abs(_coupling(frame, eta)[1:, 0])
            for n in range(1, dynamics.N_DOUBLETS + 1):
                amplitude = np.sqrt(ramp.transition_probability(sched, 1.0, eta, n)) * (
                    analytic.eigenvalue(1.0, eta, n, "+") / ramp.eta_dot_asymptotic(sched, eta)
                )
                for got in column[2 * n - 2 : 2 * n]:
                    worst = max(worst, abs(got - amplitude) / amplitude)
        assert worst <= 1e-13

    @pytest.mark.parametrize("doublets", [dynamics.N_DOUBLETS, 2 * dynamics.N_DOUBLETS])
    def test_chiral_symmetry(self, doublets):
        # Q|dark> = |dark> and Q|n+/-> = s_n |n-/+>, s_n = (-1)^{n-1}, give
        # Q D Q = D and Q E Q = -E: the generator commutes with Q after complex
        # conjugation, so the amplitudes keep Q conj(c) = c and evolve's real
        # coordinates, c = W z, hold every trajectory from the dark state.
        # Checked at 2 N_DOUBLETS too, for the doubling test, to the tables'
        # own round-off: their antisymmetry defect, 6.8e-10 of max |D| at
        # eta = 0.5 on 20 pairs
        frame = dynamics._frame(doublets)
        size = 2 * doublets + 1
        q = np.zeros((size, size))
        q[0, 0] = 1.0
        for n in range(1, doublets + 1):
            q[2 * n - 1, 2 * n] = q[2 * n, 2 * n - 1] = (-1.0) ** (n - 1)
        np.testing.assert_array_equal(q @ frame.unitary.conj(), frame.unitary)
        energies = np.diag(frame.energies)
        np.testing.assert_array_equal(q @ energies @ q, -energies)
        for eta in (0.1, 0.5, 0.9, 0.995):
            d = _coupling(frame, eta)
            defect = max(np.abs(d + d.T).max(), 1e-15 * np.abs(d).max())
            np.testing.assert_allclose(q @ d @ q, d, rtol=0.0, atol=defect)

    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.9, 0.995])
    def test_coupling_is_antisymmetric(self, eta):
        d = _coupling(dynamics._frame(dynamics.N_DOUBLETS), eta)
        assert np.abs(d + d.T).max() <= 1e-14 * np.abs(d).max()
        assert np.all(np.diag(d) == 0.0)


# ---------------------------------------------------------------------------
# the frame against the lab-frame oracle
# ---------------------------------------------------------------------------

COLUMNS = ("fidelity", "mean_n", "var_n", "mean_x2", "mean_p2")


def _within_oracle_bounds(traj, reference) -> dict:
    """Worst deviation per column over the records, as a multiple of its
    bound: 1e-8 in F, 1e-6 absolute in <N>, <X^2>, <P^2>, 1e-5 relative in
    Var N.  ``reference`` has the same columns as attributes."""
    worst = {}
    for name in COLUMNS:
        got, ref = getattr(traj, name), getattr(reference, name)
        if name == "var_n":
            ratio = np.abs(got - ref)[1:] / np.abs(ref[1:]) / 1e-5
        else:
            ratio = np.abs(got - ref) / (1e-8 if name == "fidelity" else 1e-6)
        worst[name] = float(ratio.max())
    return worst


@pytest.mark.parametrize("which", ["headline", "onset"])
def test_records_match_lab_oracle(request, headline_ramp_run, which):
    traj = headline_ramp_run if which == "headline" else frame_run(ONSET)
    lab = request.getfixturevalue(f"{which}_lab_oracle")
    assert lab.spec.n_max == LAB_N_MAX
    np.testing.assert_array_equal(traj.t, lab.t)
    np.testing.assert_array_equal(traj.eta, lab.eta)
    worst = _within_oracle_bounds(traj, lab)
    assert max(worst.values()) <= 1.0, worst


@pytest.mark.parametrize("schedule", [HEADLINE, ONSET], ids=["headline", "onset"])
def test_doubling_the_doublets_moves_no_column(monkeypatch, headline_ramp_run, schedule):
    traj = headline_ramp_run if schedule is HEADLINE else frame_run(schedule)
    monkeypatch.setattr(dynamics, "N_DOUBLETS", 2 * dynamics.N_DOUBLETS)
    worst = _within_oracle_bounds(traj, frame_run(schedule))
    assert max(worst.values()) <= 1.0, worst


# the largest amplitude error over the records of scipy's DOP853 at rtol
# 1e-9 and atol 1e-11 (evolve's integrator and defaults before the Magnus
# steps) against DOP853 at rtol 1e-12 and atol 1e-14
FORMER_DEFAULT_ERROR = {
    "headline": (HEADLINE, 2.4e-9),
    "onset": (ONSET, 2.3e-9),
    "k = 1/50": (ramp.RampSchedule(k=1.0 / 50.0), 6.1e-10),
    "k = 1/800": (ramp.RampSchedule(k=1.0 / 800.0), 8.5e-9),
}


@pytest.fixture(scope="module", params=list(FORMER_DEFAULT_ERROR))
def frame_against_dop853(request):
    schedule, former = FORMER_DEFAULT_ERROR[request.param]
    return frame_amplitudes(schedule), frame_amplitudes(schedule, dop853_frame), former


def test_default_tolerances_match_the_former_dop853_error(frame_against_dop853):
    # rtol and atol now bound the Magnus step's local error; at the defaults
    # every amplitude is as close to the DOP853 oracle as DOP853 at its
    # former defaults was
    got, reference, former = frame_against_dop853
    assert got.shape == reference.shape
    assert np.abs(got - reference).max() <= former


def test_lab_oracle_keeps_the_chiral_symmetry_exactly(headline_lab_oracle):
    # P = (-1)^{a^dag a} anticommutes with the real H, so psi(t) =
    # conj(P psi(t)) from |0>|g>: even-field amplitudes real, odd-field ones
    # imaginary, with the other parts exactly 0.0 in floating point
    lab = headline_lab_oracle
    odd = np.arange(lab.spec.dim) % lab.spec.field_dim % 2 == 1
    for i in (50, 120, 200):
        psi = lab.amplitudes[:, i]
        assert np.all(psi[~odd].imag == 0.0)
        assert np.all(psi[odd].real == 0.0)
        assert np.abs(psi[odd]).max() > 1e-3
