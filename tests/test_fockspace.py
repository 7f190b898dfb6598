from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from jcsense import analytic, fockspace
from jcsense.fockspace import (
    HilbertSpec,
    StateVector,
    TruncationWarning,
    adaptive_n_max,
    build_hamiltonian,
    doublet_spectrum,
    eigenstate,
    number_op,
    quadrature_p,
    quadrature_x,
    squeezed_vacuum,
)

from conftest import dense_displace, dense_ladder, dense_squeeze, squeezed_vacuum_coefficients


def fock(spec: HilbertSpec, n: int) -> np.ndarray:
    v = np.zeros(spec.dim, dtype=complex)
    v[n] = 1.0
    return v


class TestHilbertSpec:
    def test_dimensions(self):
        assert HilbertSpec(n_max=7, with_qubit=False).dim == 8
        assert HilbertSpec(n_max=7, with_qubit=True).dim == 16

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            HilbertSpec(n_max=0)

    def test_adaptive_n_max_clamps(self):
        assert adaptive_n_max(0.0) == 32
        assert adaptive_n_max(0.995) == 122  # the support, 121, rounded up to even
        # no upper clamp: deep critical values get the whole even support
        assert analytic.squeezed_vacuum_n_max(1 - 1e-7) == 26_833
        assert adaptive_n_max(1 - 1e-7) == 26_834


class TestLadderOps:
    """The package's truncated ladder, read through the operators it builds."""

    def test_matrix_elements(self):
        # a|1> = |0> and a^dag|4> = sqrt5 |5>, read from N, X = (a + a^dag)/2
        # and P = i(a^dag - a)/2
        spec = HilbertSpec(n_max=10, with_qubit=False)
        x = quadrature_x(spec).matrix
        p = quadrature_p(spec).matrix
        num = number_op(spec).matrix
        assert fock(spec, 0) @ (2 * x @ fock(spec, 1)) == pytest.approx(1.0)
        assert fock(spec, 0) @ (2 * p @ fock(spec, 1)) == pytest.approx(-1j)
        assert fock(spec, 5) @ (2 * x @ fock(spec, 4)) == pytest.approx(np.sqrt(5))
        assert fock(spec, 5) @ (2 * p @ fock(spec, 4)) == pytest.approx(1j * np.sqrt(5))
        np.testing.assert_allclose(num.diagonal(), np.arange(spec.dim), rtol=1e-15, atol=0)

    def test_hard_truncation(self):
        # X|n_max> = sqrt(n_max)|n_max - 1>/2 only: a^dag|n_max> = 0
        spec = HilbertSpec(n_max=6, with_qubit=False)
        x = quadrature_x(spec).matrix
        expected = np.sqrt(6) / 2 * fock(spec, 5)
        np.testing.assert_array_equal(x @ fock(spec, 6), expected)

    def test_truncated_commutator_is_identity_below_cutoff(self):
        # [X, P] = i/2 from the package's quadratures
        spec = HilbertSpec(n_max=24, with_qubit=False)
        x = quadrature_x(spec).matrix
        p = quadrature_p(spec).matrix
        comm = (x @ p - p @ x).toarray()
        expected = 0.5j * np.eye(spec.dim)
        # the top level carries the truncation defect; exclude it
        np.testing.assert_allclose(
            comm[:-1, :-1], expected[:-1, :-1], atol=1e-14
        )

    def test_composite_ops_act_as_identity_on_qubit(self):
        spec = HilbertSpec(n_max=5, with_qubit=True)
        fd = spec.field_dim
        for op in (number_op(spec), quadrature_x(spec), quadrature_p(spec)):
            dense = op.matrix.toarray()
            np.testing.assert_allclose(dense[:fd, :fd], dense[fd:, fd:], atol=0)
            assert np.abs(dense[:fd, fd:]).max() == 0.0


class TestFieldObservables:
    @pytest.mark.parametrize("with_qubit", [False, True])
    def test_n_x2_p2_from_the_ladder_operators(self, with_qubit):
        spec = HilbertSpec(n_max=12, with_qubit=with_qubit)
        a, _ = dense_ladder(spec.field_dim)
        if with_qubit:
            a = np.kron(np.eye(2), a)  # identity on the qubit
        ad = a.conj().T
        x, p = (a + ad) / 2, 1j * (ad - a) / 2
        obs = fockspace.field_observables(spec)
        assert list(obs) == ["photon_number", "x_squared", "p_squared"]
        for kind, expected in (("photon_number", ad @ a), ("x_squared", x @ x),
                               ("p_squared", p @ p)):
            np.testing.assert_allclose(obs[kind].toarray(), expected, atol=1e-15)


class TestHamiltonian:
    def test_hermitian(self):
        h = build_hamiltonian(HilbertSpec(n_max=30), omega=1.0, eta=0.7).matrix
        assert np.abs((h - h.conj().T).toarray()).max() <= 1e-12

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            build_hamiltonian(HilbertSpec(n_max=8), omega=1.0, eta=-0.1)

    def test_rejects_field_only_space(self):
        with pytest.raises(ValueError):
            build_hamiltonian(HilbertSpec(n_max=8, with_qubit=False), 1.0, 0.1)

    def test_undriven_first_doublet(self):
        # eta = 0: the n = 1 doublet sits at +/- Omega
        spec = HilbertSpec(n_max=20)
        h = build_hamiltonian(spec, omega=1.0, eta=0.0).matrix.toarray()
        vals = np.linalg.eigvalsh(h)
        assert np.min(np.abs(vals - 1.0)) < 1e-12
        assert np.min(np.abs(vals + 1.0)) < 1e-12

    def test_driven_lowest_positive_eigenvalue(self):
        # eta = 0.6: lowest positive level at Omega (1 - 0.36)^{3/4}
        vals = doublet_spectrum(HilbertSpec(n_max=48), 1.0, 0.6, n_doublets=1)
        assert vals[-1] == pytest.approx(0.64**0.75, rel=1e-9, abs=0.0)

    def test_annihilates_dark_state(self):
        spec = HilbertSpec(n_max=adaptive_n_max(0.5))
        h = build_hamiltonian(spec, omega=1.0, eta=0.5)
        dark = eigenstate(spec, 1.0, 0.5, 0, "dark")
        assert np.linalg.norm(h.matrix @ dark.amplitudes) <= 1e-8


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        spec = HilbertSpec(n_max=16, with_qubit=False)
        state = squeezed_vacuum(spec, 0.0)
        np.testing.assert_allclose(state.amplitudes, fock(spec, 0), atol=1e-15)

    def test_matches_dense_expm_oracle(self):
        spec = HilbertSpec(n_max=60, with_qubit=False)
        state = squeezed_vacuum(spec, -0.5)
        vac = np.zeros(spec.dim, dtype=complex)
        vac[0] = 1.0
        oracle = dense_squeeze(spec.dim, -0.5) @ vac
        np.testing.assert_allclose(state.amplitudes, oracle, atol=1e-10)

    def test_matches_closed_form_coefficients(self):
        spec = HilbertSpec(n_max=60, with_qubit=False)
        for r in (-0.2, -0.8):
            state = squeezed_vacuum(spec, r)
            oracle = squeezed_vacuum_coefficients(spec.dim, r)
            np.testing.assert_allclose(state.amplitudes.real, oracle, atol=1e-12)
            np.testing.assert_allclose(state.amplitudes.imag, 0.0, atol=1e-14)

    @pytest.mark.parametrize("eta,n_max", [(0.995, 121), (0.9999, 850)])
    def test_near_critical_matches_closed_form(self, eta, n_max):
        # the probe and the dark state's field factor carry the exact
        # amplitudes up to the cutoff, renormalised on the truncated space;
        # at the support and at the adaptive cutoff no tail is flagged
        r = 0.25 * np.log(1 - eta**2)
        oracle = squeezed_vacuum_coefficients(n_max + 1, r)
        oracle /= np.linalg.norm(oracle)
        c = np.sqrt((1 + np.sqrt(1 - eta**2)) / 2)
        phi0 = np.array([c, -np.sqrt(1 - c**2)])
        probe = squeezed_vacuum(HilbertSpec(n_max=n_max, with_qubit=False), r)
        dark = eigenstate(HilbertSpec(n_max=n_max), 1.0, eta, 0, "dark")
        np.testing.assert_allclose(probe.amplitudes, oracle, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dark.amplitudes, np.kron(phi0, oracle), rtol=0, atol=1e-13)

    def test_built_without_matrix_exponential(self, monkeypatch):
        # the probe and the dark state are closed forms and the doublets a
        # ladder recurrence: no route calls any of scipy's matrix exponentials
        def refuse(*args, **kwargs):
            raise AssertionError("matrix exponential called")

        for module, name in (
            (scipy.linalg, "expm"), (scipy.sparse.linalg, "expm"), (scipy.sparse.linalg, "expm_multiply")
        ):
            monkeypatch.setattr(module, name, refuse)
        assert not {"expm", "expm_multiply"} & set(vars(fockspace))
        spec = HilbertSpec(n_max=64)
        squeezed_vacuum(HilbertSpec(n_max=64, with_qubit=False), -0.5)
        eigenstate(spec, 1.0, 0.8, 0, "dark")
        for n in (1, 2, 3):
            for branch in ("+", "-"):
                eigenstate(spec, 1.0, 0.8, n, branch)

    def test_odd_levels_exactly_empty(self):
        state = squeezed_vacuum(HilbertSpec(n_max=40, with_qubit=False), -0.6)
        assert np.abs(state.amplitudes[1::2]).max() == 0.0

    def test_normalized_and_reports_tail(self):
        state = squeezed_vacuum(HilbertSpec(n_max=64, with_qubit=False), -0.4)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert state.tail_mass() <= 1e-10

    def test_warns_when_truncation_insufficient(self):
        # r = -1.2 needs ~132 levels by the adaptive rule; 16 is far too few
        with pytest.warns(TruncationWarning):
            squeezed_vacuum(HilbertSpec(n_max=16, with_qubit=False), -1.2)

    def test_quadrature_moments(self):
        # <X^2> = e^{-2r}/4 and <P^2> = e^{2r}/4
        for eta in (0.3, 0.6, 0.9):
            r = 0.25 * np.log(1 - eta**2)
            spec = HilbertSpec(n_max=adaptive_n_max(eta), with_qubit=False)
            state = squeezed_vacuum(spec, r)
            x = quadrature_x(spec).matrix
            p = quadrature_p(spec).matrix
            x2 = np.real(np.vdot(state.amplitudes, x @ (x @ state.amplitudes)))
            p2 = np.real(np.vdot(state.amplitudes, p @ (p @ state.amplitudes)))
            assert x2 == pytest.approx(np.exp(-2 * r) / 4, rel=1e-8, abs=0.0)
            assert p2 == pytest.approx(np.exp(2 * r) / 4, rel=1e-8, abs=0.0)

    def test_rejects_composite_space(self):
        with pytest.raises(ValueError):
            squeezed_vacuum(HilbertSpec(n_max=16, with_qubit=True), -0.1)


class TestEigenstate:
    def test_undriven_plus_doublet(self):
        # eta = 0, n = 1, branch "+": (|0>|e> + |1>|g>)/sqrt2
        spec = HilbertSpec(n_max=12)
        state = eigenstate(spec, 1.0, 0.0, 1, "+")
        fd = spec.field_dim
        expected = np.zeros(spec.dim, dtype=complex)
        expected[fd + 0] = 1 / np.sqrt(2)  # |0>|e>
        expected[1] = 1 / np.sqrt(2)       # |1>|g>
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_dark_state_zero_energy(self):
        spec = HilbertSpec(n_max=adaptive_n_max(0.6))
        dark = eigenstate(spec, 1.0, 0.6, 0, "dark")
        h = build_hamiltonian(spec, 1.0, 0.6)
        assert np.linalg.norm(h.matrix @ dark.amplitudes) <= 1e-8

    @pytest.mark.parametrize("eta,n_max", [(0.5, 32), (0.9, 256), (0.995, 512), (0.9999, 850)])
    def test_dark_state_annihilated_to_round_off(self, eta, n_max):
        # at an even cutoff the truncated H annihilates the truncated closed
        # form level by level, here up to the adaptive cutoff at 0.9999
        spec = HilbertSpec(n_max=n_max)
        dark = eigenstate(spec, 1.0, eta, 0, "dark")
        h = build_hamiltonian(spec, 1.0, eta)
        assert np.linalg.norm(h.matrix @ dark.amplitudes) <= 1e-14

    @pytest.mark.parametrize("eta", [0.995, 0.999])
    def test_dark_state_annihilated_at_the_adaptive_cutoff(self, eta):
        # the support 121 (269) is odd; the adaptive cutoff rounds it up to
        # 122 (270), where nothing cut away couples back below the cutoff
        n_max = adaptive_n_max(eta)
        assert n_max % 2 == 0
        spec = HilbertSpec(n_max=n_max)
        dark = eigenstate(spec, 1.0, eta, 0, "dark")
        h = build_hamiltonian(spec, 1.0, eta)
        assert np.linalg.norm(h.matrix @ dark.amplitudes) <= 1e-14

    def test_eigen_residual_against_closed_form_energy(self):
        spec = HilbertSpec(n_max=96)
        state = eigenstate(spec, 1.0, 0.6, 2, "-")
        h = build_hamiltonian(spec, 1.0, 0.6)
        energy = analytic.eigenvalue(1.0, 0.6, 2, "-")
        residual = np.linalg.norm(h.matrix @ state.amplitudes - energy * state.amplitudes)
        assert residual <= 1e-6

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    @pytest.mark.parametrize("n,branch", [(1, "+"), (1, "-"), (2, "+"), (2, "-"), (3, "+"), (3, "-")])
    def test_eigen_residual_grid(self, eta, n, branch):
        spec = HilbertSpec(n_max=128)
        state = eigenstate(spec, 1.0, eta, n, branch)
        h = build_hamiltonian(spec, 1.0, eta)
        energy = analytic.eigenvalue(1.0, eta, n, branch)
        residual = np.linalg.norm(h.matrix @ state.amplitudes - energy * state.amplitudes)
        assert residual <= 1e-6

    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.8])
    def test_orthonormal_family(self, eta):
        spec = HilbertSpec(n_max=128)
        family = [eigenstate(spec, 1.0, eta, 0, "dark")]
        for n in (1, 2):
            for branch in ("+", "-"):
                family.append(eigenstate(spec, 1.0, eta, n, branch))
        gram = np.array(
            [[np.vdot(si.amplitudes, sj.amplitudes) for sj in family] for si in family]
        )
        assert np.abs(gram - np.eye(len(family))).max() <= 1e-8

    def test_truncation_doubling_stable(self):
        # doubling the cutoff must not move reported quantities
        values = []
        for n_max in (64, 128):
            spec = HilbertSpec(n_max=n_max)
            state = eigenstate(spec, 1.0, 0.7, 1, "+")
            num = number_op(spec).matrix
            values.append(np.vdot(state.amplitudes, num @ state.amplitudes).real)
        assert values[0] == pytest.approx(values[1], rel=1e-10, abs=0.0)

    def test_invalid_inputs(self):
        spec = HilbertSpec(n_max=16)
        with pytest.raises(ValueError):
            eigenstate(spec, 1.0, 1.0, 1, "+")  # squeezing diverges
        with pytest.raises(ValueError):
            eigenstate(spec, 1.0, 0.5, 0, "+")  # n = 0 only for dark
        with pytest.raises(ValueError):
            eigenstate(spec, 1.0, 0.5, 2, "dark")
        with pytest.raises(ValueError):
            eigenstate(spec, 1.0, 0.5, 1, "x")
        with pytest.raises(ValueError):
            eigenstate(HilbertSpec(n_max=16, with_qubit=False), 1.0, 0.5, 1, "+")


class TestDoubletSpectrum:
    @pytest.mark.parametrize("eta", [0.3, 0.6])
    def test_matches_closed_form(self, eta):
        vals = doublet_spectrum(HilbertSpec(n_max=96), 1.0, eta, n_doublets=3)
        expected = np.sort(
            [analytic.eigenvalue(1.0, eta, n, b) for n in (1, 2, 3) for b in ("+", "-")]
        )
        np.testing.assert_allclose(vals, expected, rtol=1e-8)


def closed_form_doublets(eta: float, n_doublets: int) -> np.ndarray:
    return np.sort([
        analytic.eigenvalue(1.0, eta, n, b) for n in range(1, n_doublets + 1) for b in ("+", "-")
    ])


class TestParityBlockSpectrum:
    def test_pairs_near_the_critical_point(self):
        # the gap Omega (1 - eta^2)^{3/4} is 1.7e-3 here: a shift-invert
        # window of the same size, not centred on zero, loses -E3 for E4
        vals = doublet_spectrum(HilbertSpec(n_max=1700), 1.0, 0.9999, 3)
        assert np.array_equal(vals, -vals[::-1])
        np.testing.assert_allclose(vals, closed_form_doublets(0.9999, 3), rtol=1e-5)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 0.9])
    def test_is_the_dense_spectrum_without_its_two_zeros(self, eta):
        # H = [[0, B], [B^T, 0]] by parity: its eigenvalues are +/- the
        # singular values of B and two zeros (the dark state and |n_max>|e>)
        spec = HilbertSpec(n_max=64)
        dense = np.linalg.eigvalsh(build_hamiltonian(spec, 1.0, eta).matrix.toarray())
        by_size = dense[np.argsort(np.abs(dense))]
        assert np.abs(by_size[:2]).max() < 1e-12
        vals = doublet_spectrum(spec, 1.0, eta, 4)
        assert np.array_equal(vals, -vals[::-1])
        np.testing.assert_allclose(vals, np.sort(by_size[2:10]), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("n_max, n_doublets", [(41, 3), (40, 0), (40, 41)])
    def test_rejects_odd_cutoff_and_empty_request(self, n_max, n_doublets):
        with pytest.raises(ValueError):
            doublet_spectrum(HilbertSpec(n_max=n_max), 1.0, 0.5, n_doublets)

    @pytest.mark.parametrize(
        "eta, n_max", [(0.99, 100), (0.995, 122), (0.999, 300), (0.9999, 850)]
    )
    def test_edge_heavy_doublet_raises(self, eta, n_max):
        with pytest.raises(RuntimeError, match=r"doublet n=\d"):
            doublet_spectrum(HilbertSpec(n_max=n_max), 1.0, eta, 3)


class TestStateVector:
    def test_norm_and_normalize(self):
        spec = HilbertSpec(n_max=4, with_qubit=False)
        s = StateVector(spec, np.array([3.0, 4.0, 0, 0, 0], dtype=complex))
        assert s.norm() == pytest.approx(5.0)
        assert s.normalized().norm() == pytest.approx(1.0)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            StateVector(HilbertSpec(n_max=4, with_qubit=False), np.zeros(3))


@pytest.fixture(scope="module")
def dense_doublet_fields():
    """S(r) D(alpha) columns n - 1 and n by dense expm on 1,000 levels at
    eta = 0.995, keyed by (n, branch)."""
    eta, levels = 0.995, 1000
    squeeze = dense_squeeze(levels, 0.25 * np.log(1 - eta**2))
    fields = {}
    for n in (1, 2, 3):
        displace = dense_displace(levels, -np.sqrt(n) * eta)
        # D(-alpha) = D(alpha)^T: the truncated generator is real antisymmetric
        for branch, d in (("+", displace), ("-", displace.T)):
            fields[n, branch] = squeeze @ d[:, n - 1 : n + 1]
    return eta, fields


class TestDisplacedConstruction:
    def test_displacement_matches_dense_oracle(self):
        # the +/- eigenstates exercise S(r) D(alpha); check the field factor
        # against an independent dense product for one representative case
        spec = HilbertSpec(n_max=80)
        eta, n = 0.5, 2
        state = eigenstate(spec, 1.0, eta, n, "+")
        fd = spec.field_dim
        r = 0.25 * np.log(1 - eta**2)
        alpha = -np.sqrt(n) * eta
        big = fd + 48
        sd = dense_squeeze(big, r) @ dense_displace(big, alpha)
        lower = np.zeros(big, dtype=complex)
        lower[n - 1] = 1.0
        upper = np.zeros(big, dtype=complex)
        upper[n] = 1.0
        c = np.sqrt((1 + np.sqrt(1 - eta**2)) / 2)
        s = np.sqrt(1 - c**2)
        expected = np.concatenate([
            (-s * (sd @ lower) + c * (sd @ upper))[:fd],   # |g> block
            (c * (sd @ lower) - s * (sd @ upper))[:fd],    # |e> block
        ]) / np.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_near_critical_doublets_match_dense_oracle(self, dense_doublet_fields, n, branch):
        # at the adaptive cutoff (n_max 122) every level is exact: the oracle
        # is projected onto the cutoff and renormalised like the state.  The
        # doublet's own tail is real and flagged
        eta, fields = dense_doublet_fields
        spec = HilbertSpec(n_max=adaptive_n_max(eta))
        with pytest.warns(TruncationWarning):
            state = eigenstate(spec, 1.0, eta, n, branch)
        lower, upper = fields[n, branch][: spec.field_dim].T
        expected = _doublet_amplitudes(eta, branch, lower, upper)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)

    def test_lost_precision_raises(self):
        # at eta = 0.999 the forward sweep for n = 10 has lost every digit
        # (0.28 off a 50-digit run at n_max 2160); the lowering relation
        # reads a residual of 27 and the state is refused, not returned
        with pytest.raises(RuntimeError, match="lost precision"):
            eigenstate(HilbertSpec(n_max=2160), 1.0, 0.999, 10, "+")

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_accepted_near_critical_doublet_matches_50_digit_recurrence(self, branch):
        # n = 3 at eta = 1 - 1e-4 (n_max 850) passes the guard; the same
        # recurrence in 50 digits is the reference
        mpmath = pytest.importorskip("mpmath")
        eta, n = 1.0 - 1e-4, 3
        spec = HilbertSpec(n_max=adaptive_n_max(eta))
        with pytest.warns(TruncationWarning):
            state = eigenstate(spec, 1.0, eta, n, branch)
        r, alpha = analytic.squeezing_parameter(eta), -(1.0 if branch == "+" else -1.0) * np.sqrt(n) * eta
        with mpmath.workdps(50):
            lower, upper = _ladder_in_mpmath(mpmath, spec.field_dim, r, alpha, n)
        expected = _doublet_amplitudes(eta, branch, lower, upper)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-10)


def _doublet_amplitudes(eta, branch, lower, upper) -> np.ndarray:
    """The normalised doublet (|n-1>|Phi_1> +/- |n>|Phi_0>) from the field
    columns U|n-1> and U|n>, in the package's (|g>, |e>) block order."""
    sign = 1.0 if branch == "+" else -1.0
    c = np.sqrt((1 + np.sqrt(1 - eta**2)) / 2)
    s = np.sqrt(1 - c**2)
    amps = np.concatenate([-s * lower + sign * c * upper, c * lower - sign * s * upper])
    return amps / np.linalg.norm(amps)


def _ladder_in_mpmath(mpmath, levels, r, alpha, n):
    """U|n-1> and U|n> for U = S(r) D(alpha) on levels 0..levels-1, by the
    ladder recurrence at mpmath's working precision, rounded to floats."""
    r, alpha = mpmath.mpf(r), mpmath.mpf(alpha)
    ch, sh = mpmath.cosh(r), mpmath.sinh(r)
    size = levels + n
    root = [mpmath.sqrt(k) for k in range(size)]
    vec = [mpmath.mpf(1), alpha / ch]
    for k in range(1, size - 1):
        vec.append((alpha * vec[k] - sh * root[k] * vec[k - 1]) / (ch * root[k + 1]))
    for m in range(1, n + 1):
        lower = vec
        vec = [
            ((ch * root[k] * lower[k - 1] if k else 0) - alpha * lower[k]
             + (sh * root[k + 1] * lower[k + 1] if k + 1 < size else 0)) / mpmath.sqrt(m)
            for k in range(size)
        ]
    return (np.array([float(v) for v in lower[:levels]]),
            np.array([float(v) for v in vec[:levels]]))
