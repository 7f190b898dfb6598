"""Truncated Hilbert space for a driven qubit-photon system.

The photonic mode is truncated at a finite Fock level ``n_max`` (levels
``0..n_max`` inclusive).  Composite states live on qubit (x) field with a
fixed basis ordering: the field index runs fast, the qubit index slow, so
the flat index of |q>|n> is ``q*(n_max+1) + n`` with q = 0 for |g> and
q = 1 for |e>.  All serialization headers state this convention.

The squeezed vacuum -- the measurement probe and the field factor of the
dark state -- is built from its closed-form Fock amplitudes, exact on every
level up to ``n_max``.  The displaced doublets (n >= 1) are built by applying
squeezing/displacement generators with a matrix-exponential action on a
padded Fock space (a few extra levels beyond ``n_max``) and projecting back
down; the padding removes the edge artifacts that the hard cutoff would
otherwise imprint on the top levels.  Every state is normalised on the
truncated space.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, expm_multiply

# Extra Fock levels used internally when applying squeeze/displace
# generators to the doublets; projected away before returning states.
_CONSTRUCTION_PAD = 32

HERMITICITY_TOL = 1e-12
TAIL_MASS_TOL = 1e-10


class TruncationWarning(UserWarning):
    """Emitted when the Fock cutoff is too small for the requested state."""


def _tail_cut(field_dim: int) -> int:
    """First index of the top-10% Fock window (never empty)."""
    return min(int(np.ceil(0.9 * field_dim)), field_dim - 1)


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated Hilbert space: Fock levels 0..n_max, optional qubit factor."""

    n_max: int
    with_qubit: bool = True

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def field_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.field_dim if self.with_qubit else self.field_dim


def adaptive_n_max(eta: float, margin: float = 12.0) -> int:
    """Fock cutoff adequate for the squeezed vacuum at drive amplitude eta.

    The photon-number mean and variance of the squeezed vacuum grow like
    e^{-2r} = (1 - eta^2)^{-1/2}; a ``margin`` multiple of that scale keeps
    the tail mass of Gaussian states below ``TAIL_MASS_TOL``.  Clamped to
    [32, 512].
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    scale = (1.0 - eta * eta) ** -0.5
    return int(np.clip(np.ceil(margin * scale), 32, 512))


@dataclass
class StateVector:
    """Normalized complex amplitude vector over a declared basis."""

    spec: HilbertSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.spec.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.spec.dim},)"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.spec, self.amplitudes / n)

    def field_populations(self) -> np.ndarray:
        """Probability of each Fock level, traced over the qubit if present."""
        p = np.abs(self.amplitudes) ** 2
        if self.spec.with_qubit:
            fd = self.spec.field_dim
            return p[:fd] + p[fd:]
        return p

    def tail_mass(self) -> float:
        """Population in the top 10% of Fock levels (truncation diagnostic)."""
        pop = self.field_populations()
        return float(pop[_tail_cut(self.spec.field_dim):].sum())

    def overlap(self, other: "StateVector") -> complex:
        if self.spec != other.spec:
            raise ValueError("states live on different Hilbert spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def expectation(self, op: "SparseOperator") -> complex:
        if op.spec != self.spec:
            raise ValueError("operator and state live on different Hilbert spaces")
        return complex(np.vdot(self.amplitudes, op.matrix @ self.amplitudes))


@dataclass
class SparseOperator:
    """Sparse complex matrix over a declared basis."""

    spec: HilbertSpec
    matrix: sp.spmatrix = field(repr=False)

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix, dtype=complex)
        if m.shape != (self.spec.dim, self.spec.dim):
            raise ValueError(
                f"matrix has shape {m.shape}, expected square of dim {self.spec.dim}"
            )
        self.matrix = m

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self.spec, self.matrix.conj().T.tocsr())

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        d = self.matrix - self.matrix.conj().T
        if d.nnz == 0:
            return True
        return bool(np.max(np.abs(d.data)) <= tol)

    def apply(self, state: StateVector) -> StateVector:
        if state.spec != self.spec:
            raise ValueError("operator and state live on different Hilbert spaces")
        return StateVector(self.spec, self.matrix @ state.amplitudes)


def _field_ladder(field_dim: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    a = sp.diags(
        np.sqrt(np.arange(1, field_dim)), offsets=1, format="csr", dtype=complex
    )
    return a, a.conj().T.tocsr()


def _lift(spec: HilbertSpec, field_op: sp.spmatrix) -> sp.csr_matrix:
    """Embed a field-only operator into the composite space (identity on qubit)."""
    if not spec.with_qubit:
        return sp.csr_matrix(field_op, dtype=complex)
    return sp.kron(sp.identity(2, dtype=complex), field_op, format="csr")


def build_ladder_ops(spec: HilbertSpec) -> tuple[SparseOperator, SparseOperator]:
    """Annihilation and creation operators with hard truncation.

    a|n> = sqrt(n)|n-1> and a^dag|n> = sqrt(n+1)|n+1>, with a^dag|n_max> = 0.
    On a composite space both act as identity on the qubit factor.
    """
    a, ad = _field_ladder(spec.field_dim)
    return (
        SparseOperator(spec, _lift(spec, a)),
        SparseOperator(spec, _lift(spec, ad)),
    )


def number_op(spec: HilbertSpec) -> SparseOperator:
    a, ad = _field_ladder(spec.field_dim)
    return SparseOperator(spec, _lift(spec, (ad @ a).tocsr()))


def quadrature_x(spec: HilbertSpec) -> SparseOperator:
    """Position-like quadrature X = (a^dag + a)/2."""
    a, ad = _field_ladder(spec.field_dim)
    return SparseOperator(spec, _lift(spec, ((a + ad) / 2).tocsr()))


def quadrature_p(spec: HilbertSpec) -> SparseOperator:
    """Momentum-like quadrature P = i(a^dag - a)/2."""
    a, ad = _field_ladder(spec.field_dim)
    return SparseOperator(spec, _lift(spec, (1j * (ad - a) / 2).tocsr()))


def field_observables(spec: HilbertSpec) -> dict[str, sp.csr_matrix]:
    """The measured observables N, X^2 and P^2, keyed by measurement scheme."""
    x = quadrature_x(spec).matrix
    p = quadrature_p(spec).matrix
    return {"photon_number": number_op(spec).matrix, "x_squared": x @ x, "p_squared": p @ p}


def build_hamiltonian(spec: HilbertSpec, omega: float, eta: float) -> SparseOperator:
    """Interaction Hamiltonian of the resonantly driven qubit-photon system.

    H = Omega * [a^dag|g><e| + a|e><g| + eta*(a^dag + a)/2]

    Parameters
    ----------
    spec : HilbertSpec
        Composite space (``with_qubit`` must be True).
    omega : float
        Qubit-photon coupling strength; sets the energy unit.
    eta : float
        Rescaled drive amplitude, >= 0.  No upper cap is enforced here;
        the closed-form layer requires eta < 1.
    """
    if not spec.with_qubit:
        raise ValueError("the interaction Hamiltonian needs the qubit factor")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    h_jc, h_drive = jc_hamiltonian_parts(spec, omega)
    return SparseOperator(spec, h_jc.matrix + eta * h_drive.matrix)


def jc_hamiltonian_parts(
    spec: HilbertSpec, omega: float
) -> tuple[SparseOperator, SparseOperator]:
    """Split H(eta) = H_jc + eta*H_drive for cheap time-dependent assembly."""
    if not spec.with_qubit:
        raise ValueError("the interaction Hamiltonian needs the qubit factor")
    a, ad = _field_ladder(spec.field_dim)
    sigma_ge = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex))  # |g><e|
    sigma_eg = sigma_ge.conj().T.tocsr()
    h_jc = omega * (sp.kron(sigma_ge, ad) + sp.kron(sigma_eg, a))
    h_drive = (omega / 2) * sp.kron(sp.identity(2, dtype=complex), a + ad)
    return (
        SparseOperator(spec, h_jc.tocsr()),
        SparseOperator(spec, h_drive.tocsr()),
    )


def _apply_generators(field_dim: int, r: float, alpha: complex, seed: np.ndarray) -> np.ndarray:
    """Apply S(r) D(alpha) to a field vector on a padded space, project down.

    S(r) = exp[r(a^2 - a^dag^2)/2], D(alpha) = exp(alpha a^dag - alpha* a).
    Both generators are anti-Hermitian, so each expm action preserves norm.
    """
    fdb = field_dim + _CONSTRUCTION_PAD
    a, ad = _field_ladder(fdb)
    vec = np.zeros(fdb, dtype=complex)
    vec[: len(seed)] = seed
    if alpha != 0:
        gen_d = (alpha * ad - np.conj(alpha) * a).tocsc()
        vec = expm_multiply(gen_d, vec)
    if r != 0:
        gen_s = ((r / 2) * (a @ a - ad @ ad)).tocsc()
        vec = expm_multiply(gen_s, vec)
    return vec[:field_dim]


def squeezing_parameter(eta):
    """Squeezing r = ln(1 - eta^2)/4 <= 0 of the probe and the dark state."""
    return 0.25 * np.log(1.0 - eta * eta)


def _qubit_coefficient(eta: float) -> float:
    return np.sqrt((1.0 + np.sqrt(1.0 - eta * eta)) / 2.0)


def _squeezed_vacuum_field(field_dim: int, r: float) -> np.ndarray:
    """Exact Fock amplitudes of S(r)|0> on levels 0..field_dim-1.

    c_{2m} = (-tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r)), accumulated
    from the ratio c_{2m}/c_{2m-2} = -tanh(r) sqrt((2m-1)/(2m)); odd levels
    are exactly zero.
    """
    m = np.arange(1, (field_dim + 1) // 2)
    ratios = -np.tanh(r) * np.sqrt((2 * m - 1) / (2 * m))
    amps = np.zeros(field_dim)
    amps[0] = 1.0
    amps[2::2] = np.cumprod(ratios)
    return amps / np.sqrt(np.cosh(r))


def squeezed_vacuum(spec: HilbertSpec, r: float) -> StateVector:
    """Squeezed vacuum S(r)|0> on a field-only space.

    Built from the closed-form Fock amplitudes (only even levels are
    populated) and normalised on the truncated space; no matrix exponential
    is involved.  Emits a :class:`TruncationWarning` when the tail mass of
    the result exceeds ``TAIL_MASS_TOL``.
    """
    if spec.with_qubit:
        raise ValueError("squeezed vacuum is a field-only state")
    amps = _squeezed_vacuum_field(spec.field_dim, r)
    state = StateVector(spec, amps).normalized()
    tail = state.tail_mass()
    if tail > TAIL_MASS_TOL:
        warnings.warn(
            f"squeezed vacuum at r={r:.4f} has tail mass {tail:.2e} > {TAIL_MASS_TOL}"
            f" at n_max={spec.n_max}; increase the cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    return state


def eigenstate(
    spec: HilbertSpec, omega: float, eta: float, n: int, branch: str
) -> StateVector:
    """Closed-form eigenstate of the driven system.

    branch "+"/"-" (n >= 1): (1/sqrt2) S(r) D(alpha) (|n-1>|Phi_1> +/- |n>|Phi_0>)
    with r = ln(1-eta^2)/4, alpha = -(+/-) sqrt(n) eta, and qubit superpositions
    |Phi_0> = C|g> - sqrt(1-C^2)|e>, |Phi_1> = C|e> - sqrt(1-C^2)|g>,
    C = sqrt((1 + sqrt(1-eta^2))/2).

    branch "dark" (n = 0): the zero-energy state S(r)|0> (x) |Phi_0>.

    The dark state's field factor comes from the closed-form squeezed-vacuum
    amplitudes; the doublets apply S(r) D(alpha) on a padded Fock space.
    """
    if not spec.with_qubit:
        raise ValueError("eigenstates live on the composite space")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta} (squeezing diverges at 1)")
    if branch not in ("+", "-", "dark"):
        raise ValueError(f"branch must be '+', '-' or 'dark', got {branch!r}")
    if branch == "dark" and n != 0:
        raise ValueError("the dark branch has n = 0")
    if branch != "dark" and n < 1:
        raise ValueError("branches '+'/'-' need n >= 1")

    fd = spec.field_dim
    r = squeezing_parameter(eta)
    c = _qubit_coefficient(eta)
    s = np.sqrt(1.0 - c * c)
    phi0 = np.array([c, -s], dtype=complex)  # in (|g>, |e>) order

    if branch == "dark":
        amps = np.kron(phi0, _squeezed_vacuum_field(fd, r))
    else:
        sign = 1.0 if branch == "+" else -1.0
        alpha = -sign * np.sqrt(n) * eta
        phi1 = np.array([-s, c], dtype=complex)
        lower = np.zeros(n, dtype=complex)
        lower[n - 1] = 1.0
        upper = np.zeros(n + 1, dtype=complex)
        upper[n] = 1.0
        f_lower = _apply_generators(fd, r, alpha, lower)
        f_upper = _apply_generators(fd, r, alpha, upper)
        amps = (np.kron(phi1, f_lower) + sign * np.kron(phi0, f_upper)) / np.sqrt(2.0)

    state = StateVector(spec, amps).normalized()
    tail = state.tail_mass()
    if tail > TAIL_MASS_TOL:
        warnings.warn(
            f"eigenstate (eta={eta}, n={n}, branch={branch}) has tail mass"
            f" {tail:.2e} > {TAIL_MASS_TOL} at n_max={spec.n_max}",
            TruncationWarning,
            stacklevel=2,
        )
    return state


def doublet_spectrum(
    spec: HilbertSpec, omega: float, eta: float, n_doublets: int
) -> np.ndarray:
    """Sparse-eigensolve the lowest +/- doublet energies around zero.

    Returns a sorted array of 2*n_doublets eigenvalues (the -/+ pairs for
    n = 1..n_doublets).  Hard truncation leaves the top-of-ladder state
    |n_max>|e> unpaired, producing a spurious near-zero mode that hybridizes
    with the dark state; both are identified by their population in the top
    Fock levels and dropped.
    """
    if not spec.with_qubit:
        raise ValueError("doublets live on the composite space")
    h = build_hamiltonian(spec, omega, eta)
    k = 2 * n_doublets + 4
    vals, vecs = eigsh(h.matrix, k=k, sigma=1e-3 * omega, which="LM")
    fd = spec.field_dim
    cut = _tail_cut(fd)
    keep = []
    for i in range(len(vals)):
        pop = np.abs(vecs[:fd, i]) ** 2 + np.abs(vecs[fd:, i]) ** 2
        edge_heavy = pop[cut:].sum() > 1e-3
        near_zero = abs(vals[i]) < 1e-9 * omega
        if not edge_heavy and not near_zero:
            keep.append(vals[i])
    keep = np.sort(np.asarray(keep))
    if len(keep) < 2 * n_doublets:
        raise RuntimeError(
            f"eigensolver returned only {len(keep)} clean doublet values; "
            "increase n_max or the requested subspace"
        )
    # keep the n_doublets pairs closest to zero
    order = np.argsort(np.abs(keep))[: 2 * n_doublets]
    return np.sort(keep[order])


# ---------------------------------------------------------------------------
# serialization: plain JSON with an explicit basis header
# ---------------------------------------------------------------------------


def _header(spec: HilbertSpec) -> dict:
    return {
        "n_max": spec.n_max,
        "with_qubit": spec.with_qubit,
        "basis_order": "field-fast",
    }


def dump_state(state: StateVector) -> str:
    doc = _header(state.spec)
    doc["amplitudes"] = [[float(z.real), float(z.imag)] for z in state.amplitudes]
    return json.dumps(doc)


def load_state(text: str) -> StateVector:
    doc = json.loads(text)
    if doc.get("basis_order") != "field-fast":
        raise ValueError(f"unsupported basis order {doc.get('basis_order')!r}")
    spec = HilbertSpec(n_max=int(doc["n_max"]), with_qubit=bool(doc["with_qubit"]))
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return StateVector(spec, amps)


def dump_operator(op: SparseOperator) -> str:
    doc = _header(op.spec)
    coo = op.matrix.tocoo()
    doc["entries"] = [
        [int(i), int(j), float(v.real), float(v.imag)]
        for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    return json.dumps(doc)


def load_operator(text: str) -> SparseOperator:
    doc = json.loads(text)
    if doc.get("basis_order") != "field-fast":
        raise ValueError(f"unsupported basis order {doc.get('basis_order')!r}")
    spec = HilbertSpec(n_max=int(doc["n_max"]), with_qubit=bool(doc["with_qubit"]))
    entries = doc["entries"]
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = [complex(e[2], e[3]) for e in entries]
    m = sp.coo_matrix((vals, (rows, cols)), shape=(spec.dim, spec.dim))
    return SparseOperator(spec, m.tocsr())
