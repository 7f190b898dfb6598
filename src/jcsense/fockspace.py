"""Truncated Hilbert space for a driven qubit-photon system.

The photonic mode is truncated at a finite Fock level ``n_max`` (levels
``0..n_max`` inclusive).  Composite states live on qubit (x) field with a
fixed basis ordering: the field index runs fast, the qubit index slow, so
the flat index of |q>|n> is ``q*(n_max+1) + n`` with q = 0 for |g> and
q = 1 for |e>.  The CLI's artifact headers state this convention.

The squeezed vacuum -- the measurement probe and the field factor of the
dark state -- is built from its closed-form Fock amplitudes in
:mod:`analytic`, and the displaced doublets (n >= 1) from the ladder
recurrence of S(r) D(alpha); no route applies a matrix exponential.  The
squeezed vacuum is exact on every level up to ``n_max``.  The recurrence
loses digits as n and the squeezing grow, so each doublet is checked
against the lowering relation and rejected with RuntimeError where it has
lost precision (see :func:`eigenstate`).  Every state is normalised on the
truncated space.

Operators are assembled once, as complex CSR, from the ladder operators:
N, X and P reach the composite space by one Kronecker product with the
qubit identity, and H = H_jc + eta H_drive with H_drive = Omega X and H_jc
the block matrix [[0, Omega a^dag], [Omega a, 0]] over (|g>, |e>).  Each
term of H moves the Fock level by one, so H anticommutes with the field
parity and :func:`doublet_spectrum` reads the doublets off one parity block.

Importing this module loads numpy only.  ``scipy.sparse`` is imported by
the functions that build a sparse matrix, so a run loads it with its first
operator; it is the only scipy module the package uses.  The ramp
(:mod:`dynamics`, numpy only) and the closed-form experiments never load
scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import cosh, sinh, sqrt

import numpy as np

from . import analytic

TAIL_MASS_TOL = 1e-10
# relative residual of the lowering relation above which a doublet's ladder
# recurrence is rejected as having lost precision
LADDER_RESIDUAL_TOL = 1e-6


class TruncationWarning(UserWarning):
    """Emitted when the Fock cutoff is too small for the requested state."""


def _is_integer(value) -> bool:
    """Whether a level count or index is a Python or numpy integer; a bool
    is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _tail_cut(field_dim: int) -> int:
    """First index of the top-10% Fock window (never empty)."""
    return min(int(np.ceil(0.9 * field_dim)), field_dim - 1)


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated Hilbert space: Fock levels 0..n_max, optional qubit factor."""

    n_max: int
    with_qubit: bool = True

    def __post_init__(self):
        if not _is_integer(self.n_max) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def field_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.field_dim if self.with_qubit else self.field_dim


def adaptive_n_max(eta: float) -> int:
    """The Fock-space routes' cutoff: the squeezed vacuum's support, rounded
    up to even, with no upper clamp.  The dark state populates even levels
    only and H moves a level by one, so at an even n_max nothing cut away
    couples back: ||H dark|| is 4e-16 at eta = 0.995 (n_max 122), 6.1e-6 at
    the odd support 121."""
    n_max = analytic.squeezed_vacuum_n_max(eta)
    return n_max + n_max % 2


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


@dataclass
class SparseOperator:
    """Sparse complex matrix over a declared basis.

    ``matrix`` is kept as given, with no copy or conversion; only its shape
    is checked.  Every constructor in this module passes complex CSR."""

    spec: HilbertSpec
    matrix: object = field(repr=False)

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if shape != (self.spec.dim, self.spec.dim):
            raise ValueError(
                f"matrix has shape {shape}, expected square of dim {self.spec.dim}"
            )


def _field_ladder(field_dim: int):
    """The annihilation operator a and its adjoint on Fock levels
    0..field_dim-1, as complex CSR matrices."""
    import scipy.sparse as sp

    a = sp.diags(
        np.sqrt(np.arange(1, field_dim)), offsets=1, format="csr", dtype=complex
    )
    return a, a.conj().T.tocsr()


def _lift(spec: HilbertSpec, field_op):
    """Lift a complex CSR field-only operator to the composite space
    (identity on the qubit); on a field-only space it is returned as is."""
    if not spec.with_qubit:
        return field_op
    import scipy.sparse as sp

    return sp.kron(sp.identity(2, dtype=complex), field_op, format="csr")


def number_op(spec: HilbertSpec) -> SparseOperator:
    a, ad = _field_ladder(spec.field_dim)
    return SparseOperator(spec, _lift(spec, ad @ a))


def quadrature_x(spec: HilbertSpec) -> SparseOperator:
    """Position-like quadrature X = (a^dag + a)/2."""
    a, ad = _field_ladder(spec.field_dim)
    return SparseOperator(spec, _lift(spec, (a + ad) / 2))


def quadrature_p(spec: HilbertSpec) -> SparseOperator:
    """Momentum-like quadrature P = i(a^dag - a)/2."""
    a, ad = _field_ladder(spec.field_dim)
    return SparseOperator(spec, _lift(spec, 1j * (ad - a) / 2))


def field_observables(spec: HilbertSpec) -> dict:
    """The measured observables N, X^2 and P^2 as CSR matrices, keyed by
    measurement scheme."""
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
    import scipy.sparse as sp

    a, ad = _field_ladder(spec.field_dim)
    # a^dag|g><e| is the (g, e) block in the field-fast order
    h_jc = sp.bmat([[None, omega * ad], [omega * a, None]], format="csr")
    h_drive = omega * _lift(spec, (a + ad) / 2)  # omega X
    return SparseOperator(spec, h_jc), SparseOperator(spec, h_drive)


def _displaced_ladder(levels: int, r: float, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """U|n-1> and U|n> on Fock levels 0..levels-1, up to one common factor,
    for U = S(r) D(alpha) with real alpha: U|0> is annihilated by
    U a U^dag = a cosh r + a^dag sinh r - alpha, whose row k fixes level
    k + 1, and U|m> = (a^dag cosh r + a sinh r - alpha) U|m-1> / sqrt(m).
    Each raising step reads one level above the one it writes, so U|0> runs
    n levels past the cutoff and no returned level is truncated.

    The forward recurrence for U|0> cancels ever more digits as n and the
    squeezing grow, so the result is checked against the lowering relation
    (a cosh r + a^dag sinh r - alpha) U|n> = sqrt(n) U|n-1> on the levels
    both hold; RuntimeError when its relative residual exceeds
    ``LADDER_RESIDUAL_TOL``."""
    root = np.sqrt(np.arange(levels + n))
    ch, sh = cosh(r), sinh(r)
    amps, sqrt_k = [1.0, alpha / ch], root.tolist()
    for k in range(1, len(sqrt_k) - 1):
        amps.append((alpha * amps[k] - sh * sqrt_k[k] * amps[k - 1]) / (ch * sqrt_k[k + 1]))
    vec = np.array(amps)
    for m in range(1, n + 1):
        lower = vec
        vec = -alpha * lower
        vec[1:] += ch * root[1:] * lower[:-1]
        vec[:-1] += sh * root[1:] * lower[1:]
        vec /= sqrt(m)
    lower, vec = lower[:levels], vec[:levels]
    # rows 0..levels-2 of the lowering relation read levels 0..levels-1 only
    residual = ch * root[1:levels] * vec[1:] - alpha * vec[:-1] - sqrt(n) * lower[:-1]
    residual[1:] += sh * root[1 : levels - 1] * vec[:-2]
    defect = float(np.linalg.norm(residual) / np.linalg.norm(vec))
    if defect > LADDER_RESIDUAL_TOL:
        raise RuntimeError(
            f"the ladder recurrence lost precision at n={n}, r={r:.4f}, alpha={alpha:.4f}: "
            f"lowering-relation residual {defect:.2e} > {LADDER_RESIDUAL_TOL}"
        )
    return lower, vec


def _truncated_state(spec: HilbertSpec, amps: np.ndarray, what: str) -> StateVector:
    """Normalise on the truncated space; warn the caller if the tail mass
    exceeds ``TAIL_MASS_TOL``."""
    state = StateVector(spec, amps).normalized()
    tail = state.tail_mass()
    if tail > TAIL_MASS_TOL:
        warnings.warn(
            f"{what} has tail mass {tail:.2e} > {TAIL_MASS_TOL}"
            f" at n_max={spec.n_max}; increase the cutoff",
            TruncationWarning,
            stacklevel=3,
        )
    return state


def squeezed_vacuum(spec: HilbertSpec, r: float) -> StateVector:
    """Squeezed vacuum S(r)|0> on a field-only space.

    Built from the closed-form Fock amplitudes (only even levels are
    populated) and normalised on the truncated space; no matrix exponential
    is involved.  Emits a :class:`TruncationWarning` when the tail mass of
    the result exceeds ``TAIL_MASS_TOL``.
    """
    if spec.with_qubit:
        raise ValueError("squeezed vacuum is a field-only state")
    amps = analytic.squeezed_vacuum_amplitudes(spec.field_dim, r)
    return _truncated_state(spec, amps, f"squeezed vacuum at r={r:.4f}")


def dark_amplitudes(spec: HilbertSpec, eta: float) -> np.ndarray:
    """Exact amplitudes of the dark state S(r)|0> (x) (C|g> - s|e>) on the
    levels of a composite space, not renormalised, so an overlap with a
    state on ``spec`` is its overlap with the untruncated dark state."""
    if not spec.with_qubit:
        raise ValueError("the dark state lives on the composite space")
    c, s = analytic.qubit_coefficients(eta)
    r = analytic.squeezing_parameter(eta)
    field_amps = analytic.squeezed_vacuum_amplitudes(spec.field_dim, r)
    return np.kron(np.array([c, -s], dtype=complex), field_amps)  # (|g>, |e>) order


def eigenstate(
    spec: HilbertSpec, omega: float, eta: float, n: int, branch: str
) -> StateVector:
    """Closed-form eigenstate of the driven system.  The states depend on
    eta only: ``omega`` scales their energies and does not enter the result.

    branch "+"/"-" (n >= 1): (1/sqrt2) S(r) D(alpha) (|n-1>|Phi_1> +/- |n>|Phi_0>)
    with r = ln(1-eta^2)/4, alpha = -(+/-) sqrt(n) eta, and qubit superpositions
    |Phi_0> = C|g> - s|e>, |Phi_1> = C|e> - s|g>, s = sqrt(1 - C^2), and
    C = sqrt((1 + sqrt(1-eta^2))/2), all from :mod:`analytic`.

    branch "dark" (n = 0): the zero-energy state S(r)|0> (x) |Phi_0>.

    The dark branch is exact on every level up to n_max.  The doublets come
    from the ladder recurrence of S(r) D(alpha), whose forward sweep loses
    digits as n and eta grow; each is checked against the lowering relation
    and raises RuntimeError when the relative residual exceeds
    ``LADDER_RESIDUAL_TOL``.  Against the same recurrence run in 50 digits,
    every doublet it accepts for eta <= 0.9999 and n <= 10 is within 1.1e-8
    (n <= 3: 4.5e-11); at the adaptive cutoff it rejects n >= 8 at
    eta = 0.995 and n >= 4 at eta = 0.9999.  Every branch is renormalised on the truncated
    space.  The doublets reach higher levels, so the adaptive cutoff flags
    their tails: at eta = 0.995 the top 10% of levels holds 2.1e-5, 4.9e-3
    and 8.9e-2 of the population for n = 1, 2 and 3.
    """
    if not spec.with_qubit:
        raise ValueError("eigenstates live on the composite space")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta} (squeezing diverges at 1)")
    if branch not in ("+", "-", "dark"):
        raise ValueError(f"branch must be '+', '-' or 'dark', got {branch!r}")
    if not _is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if branch == "dark" and n != 0:
        raise ValueError("the dark branch has n = 0")
    if branch != "dark" and n < 1:
        raise ValueError("branches '+'/'-' need n >= 1")

    if branch == "dark":
        amps = dark_amplitudes(spec, eta)
    else:
        r = analytic.squeezing_parameter(eta)
        c, s = analytic.qubit_coefficients(eta)
        phi0 = np.array([c, -s], dtype=complex)  # in (|g>, |e>) order
        sign = 1.0 if branch == "+" else -1.0
        phi1 = np.array([-s, c], dtype=complex)
        f_lower, f_upper = _displaced_ladder(spec.field_dim, r, -sign * sqrt(n) * eta, n)
        # the common factor and the 1/sqrt2 go with the normalisation
        amps = np.kron(phi1, f_lower) + sign * np.kron(phi0, f_upper)

    return _truncated_state(spec, amps, f"eigenstate (eta={eta}, n={n}, branch={branch})")


def doublet_spectrum(
    spec: HilbertSpec, omega: float, eta: float, n_doublets: int
) -> np.ndarray:
    """The doublet energies -E_n..-E_1, E_1..E_n, sorted, with n = n_doublets.

    Ordered by field parity, H is [[0, B], [B^T, 0]].  On an even n_max the
    even block holds two more states (the dark state and the unpaired
    |n_max>|e>), so the n_doublets smallest eigenvalues of the n_max x n_max
    matrix B^T B are the E_n^2; B^T B is diagonalised densely, in
    O(n_max^3).  Raises ValueError for an odd n_max or unless
    1 <= n_doublets <= n_max, and RuntimeError when a doublet holds over
    1e-3 of its population in the top 10% of Fock levels.
    """
    if not spec.with_qubit:
        raise ValueError("doublets live on the composite space")
    if spec.n_max % 2:
        raise ValueError(f"the parity blocks need an even n_max, got {spec.n_max}")
    if not (_is_integer(n_doublets) and 1 <= n_doublets <= spec.n_max):
        raise ValueError(f"n_doublets must be an integer in [1, {spec.n_max}], got {n_doublets!r}")
    levels = np.tile(np.arange(spec.field_dim), 2)
    even = levels % 2 == 0
    b = build_hamiltonian(spec, omega, eta).matrix.real[even][:, ~even]
    vals, vecs = np.linalg.eigh((b.T @ b).toarray())  # ascending
    energies, vecs = np.sqrt(vals[:n_doublets]), vecs[:, :n_doublets]
    # doublet n is (B v_n / E_n, +/- v_n) / sqrt2 on the (even, odd) blocks
    top = levels >= _tail_cut(spec.field_dim)
    edge = ((b @ vecs / energies)[top[even]] ** 2).sum(0) + (vecs[top[~even]] ** 2).sum(0)
    for n, pop in enumerate(edge / 2, start=1):
        if pop > 1e-3:
            raise RuntimeError(
                f"doublet n={n} holds {pop:.2e} of its population in the top 10% of "
                f"Fock levels at n_max={spec.n_max}; increase n_max"
            )
    return np.concatenate([-energies[::-1], energies])
