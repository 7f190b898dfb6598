from __future__ import annotations

import warnings

import numpy as np
import pytest

from jcsense import analytic, fockspace
from jcsense.fockspace import (
    HilbertSpec,
    StateVector,
    TruncationWarning,
    adaptive_n_max,
    build_hamiltonian,
    build_ladder_ops,
    doublet_spectrum,
    dump_operator,
    dump_state,
    eigenstate,
    load_operator,
    load_state,
    number_op,
    quadrature_p,
    quadrature_x,
    squeezed_vacuum,
)

from conftest import dense_displace, dense_squeeze, squeezed_vacuum_coefficients


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
        assert adaptive_n_max(0.995) == 121
        # deep critical values hit the upper clamp
        assert adaptive_n_max(1 - 1e-7) == 512


class TestLadderOps:
    def test_matrix_elements(self):
        spec = HilbertSpec(n_max=10, with_qubit=False)
        a, ad = build_ladder_ops(spec)
        assert fock(spec, 0) @ (a.matrix @ fock(spec, 1)) == pytest.approx(1.0)
        assert fock(spec, 5) @ (ad.matrix @ fock(spec, 4)) == pytest.approx(np.sqrt(5))

    def test_hard_truncation(self):
        spec = HilbertSpec(n_max=6, with_qubit=False)
        _, ad = build_ladder_ops(spec)
        assert np.linalg.norm(ad.matrix @ fock(spec, 6)) == 0.0

    def test_truncated_commutator_is_identity_below_cutoff(self):
        spec = HilbertSpec(n_max=24, with_qubit=False)
        a, ad = build_ladder_ops(spec)
        comm = (a.matrix @ ad.matrix - ad.matrix @ a.matrix).toarray()
        expected = np.eye(spec.dim)
        # the top level carries the truncation defect; exclude it
        np.testing.assert_allclose(
            comm[:-1, :-1], expected[:-1, :-1], atol=1e-14
        )

    def test_composite_ops_act_as_identity_on_qubit(self):
        spec = HilbertSpec(n_max=5, with_qubit=True)
        a, _ = build_ladder_ops(spec)
        fd = spec.field_dim
        dense = a.matrix.toarray()
        np.testing.assert_allclose(dense[:fd, :fd], dense[fd:, fd:], atol=0)
        assert np.abs(dense[:fd, fd:]).max() == 0.0


class TestFieldObservables:
    @pytest.mark.parametrize("with_qubit", [False, True])
    def test_n_x2_p2_from_the_ladder_operators(self, with_qubit):
        spec = HilbertSpec(n_max=12, with_qubit=with_qubit)
        a, ad = (op.matrix.toarray() for op in build_ladder_ops(spec))
        x, p = (a + ad) / 2, 1j * (ad - a) / 2
        obs = fockspace.field_observables(spec)
        assert list(obs) == ["photon_number", "x_squared", "p_squared"]
        for kind, expected in (("photon_number", ad @ a), ("x_squared", x @ x),
                               ("p_squared", p @ p)):
            np.testing.assert_allclose(obs[kind].toarray(), expected, atol=1e-15)


class TestHamiltonian:
    def test_hermitian(self):
        h = build_hamiltonian(HilbertSpec(n_max=30), omega=1.0, eta=0.7)
        assert h.is_hermitian()

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
        assert vals[-1] == pytest.approx(0.64**0.75, rel=1e-9)

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

    @pytest.mark.parametrize("eta,n_max", [(0.995, 121), (0.9999, 512)])
    def test_near_critical_matches_closed_form(self, eta, n_max):
        # the probe and the dark state's field factor carry the exact
        # amplitudes up to the cutoff, renormalised on the truncated space;
        # at the clamp (eta = 0.9999) the tail itself is flagged
        r = 0.25 * np.log(1 - eta**2)
        oracle = squeezed_vacuum_coefficients(n_max + 1, r)
        oracle /= np.linalg.norm(oracle)
        c = np.sqrt((1 + np.sqrt(1 - eta**2)) / 2)
        phi0 = np.array([c, -np.sqrt(1 - c**2)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            probe = squeezed_vacuum(HilbertSpec(n_max=n_max, with_qubit=False), r)
            dark = eigenstate(HilbertSpec(n_max=n_max), 1.0, eta, 0, "dark")
        np.testing.assert_allclose(probe.amplitudes, oracle, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dark.amplitudes, np.kron(phi0, oracle), rtol=0, atol=1e-13)

    def test_built_without_matrix_exponential(self, monkeypatch):
        # the probe and the dark state are closed-form; only the displaced
        # doublets still apply generators through expm_multiply
        def refuse(*args, **kwargs):
            raise AssertionError("expm_multiply called")

        monkeypatch.setattr(fockspace, "expm_multiply", refuse)
        spec = HilbertSpec(n_max=64)
        squeezed_vacuum(HilbertSpec(n_max=64, with_qubit=False), -0.5)
        eigenstate(spec, 1.0, 0.8, 0, "dark")
        for branch in ("+", "-"):
            with pytest.raises(AssertionError, match="expm_multiply"):
                eigenstate(spec, 1.0, 0.8, 1, branch)

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
            assert x2 == pytest.approx(np.exp(-2 * r) / 4, rel=1e-8)
            assert p2 == pytest.approx(np.exp(2 * r) / 4, rel=1e-8)

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

    @pytest.mark.parametrize("eta,n_max", [(0.5, 32), (0.9, 256), (0.995, 512), (0.9999, 512)])
    def test_dark_state_annihilated_to_round_off(self, eta, n_max):
        # at an even cutoff the truncated H annihilates the truncated closed
        # form level by level, even at the clamp where the tail is flagged
        spec = HilbertSpec(n_max=n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
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
            [[si.overlap(sj) for sj in family] for si in family]
        )
        assert np.abs(gram - np.eye(len(family))).max() <= 1e-8

    def test_truncation_doubling_stable(self):
        # doubling the cutoff must not move reported quantities
        values = []
        for n_max in (64, 128):
            spec = HilbertSpec(n_max=n_max)
            state = eigenstate(spec, 1.0, 0.7, 1, "+")
            num = number_op(spec)
            values.append(np.real(state.expectation(num)))
        assert values[0] == pytest.approx(values[1], rel=1e-10)

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


class TestStateVector:
    def test_norm_and_normalize(self):
        spec = HilbertSpec(n_max=4, with_qubit=False)
        s = StateVector(spec, np.array([3.0, 4.0, 0, 0, 0], dtype=complex))
        assert s.norm() == pytest.approx(5.0)
        assert s.normalized().norm() == pytest.approx(1.0)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            StateVector(HilbertSpec(n_max=4, with_qubit=False), np.zeros(3))

    def test_expectation_requires_same_space(self):
        s = squeezed_vacuum(HilbertSpec(n_max=16, with_qubit=False), -0.1)
        op = number_op(HilbertSpec(n_max=8, with_qubit=False))
        with pytest.raises(ValueError):
            s.expectation(op)


class TestSparseOperatorChecks:
    def test_hermiticity_flag(self):
        spec = HilbertSpec(n_max=8, with_qubit=False)
        a, ad = build_ladder_ops(spec)
        assert not a.is_hermitian()
        x = quadrature_x(spec)
        assert x.is_hermitian()

    def test_dagger(self):
        spec = HilbertSpec(n_max=8, with_qubit=False)
        a, ad = build_ladder_ops(spec)
        assert (a.dagger().matrix - ad.matrix).nnz == 0


class TestSerialization:
    def test_state_round_trip(self):
        spec = HilbertSpec(n_max=24, with_qubit=False)
        state = squeezed_vacuum(spec, -0.3)
        text = dump_state(state)
        back = load_state(text)
        assert back.spec == spec
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=0)

    def test_state_header_fields(self):
        import json

        state = eigenstate(HilbertSpec(n_max=32), 1.0, 0.4, 1, "+")
        doc = json.loads(dump_state(state))
        assert doc["n_max"] == 32
        assert doc["with_qubit"] is True
        assert doc["basis_order"] == "field-fast"

    def test_operator_round_trip(self):
        spec = HilbertSpec(n_max=12)
        h = build_hamiltonian(spec, 1.0, 0.5)
        back = load_operator(dump_operator(h))
        assert back.spec == spec
        assert np.abs((back.matrix - h.matrix).toarray()).max() == 0.0

    def test_rejects_foreign_basis_order(self):
        import json

        state = squeezed_vacuum(HilbertSpec(n_max=16, with_qubit=False), -0.1)
        doc = json.loads(dump_state(state))
        doc["basis_order"] = "qubit-fast"
        with pytest.raises(ValueError):
            load_state(json.dumps(doc))


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
