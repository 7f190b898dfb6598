"""Schrodinger integration of the driven qubit-photon system along a ramp, in
its adiabatic frame.

A trajectory is the schedule's ramp from the dark state |0>|g> at t = 0 to
the schedule's duration.  :func:`evolve` returns it as one
:class:`Trajectory` of record columns, arrays over 201 uniform times: the
dark-state fidelity, the field moments, the norm defect and the top-pair
population.

The state is written over the closed-form instantaneous eigenstates of
:func:`fockspace.eigenstate`, Psi = sum_j c_j |j(eta)>, with j the dark
state and the doublets n+/- for n <= ``N_DOUBLETS``:

    |n+/-> = S(r) D(alpha) (|n-1>|Phi_1> +/- |n>|Phi_0>) / sqrt2,
    alpha = -/+ sqrt(n) eta,   E_n+/- = +/- sqrt(n) Omega (1 - eta^2)^{3/4}.

The amplitudes obey i dc_k/dt = E_k c_k - i eta' sum_j D_kj c_j, with
D_kj = <k|d_eta j> = <k|H_d|j> / (E_j - E_k) and H_d = dH/d eta =
(Omega/2)(a + a^dag).  D is real and antisymmetric, so the generator is
Hermitian.  Every matrix element is a closed form, from
S^dag (a + a^dag) S = e^{-r}(a + a^dag) (likewise S^dag X S = e^{-r} X and
S^dag P S = e^{r} P), D(-alpha_k) O(a, a^dag) D(alpha_j) =
D(alpha_j - alpha_k) O(a + alpha_j, a^dag + alpha_j) for real alphas,
<Phi_0|Phi_1> = -eta, and the displaced-number overlaps

    <m|D(beta)|p> = e^{-beta^2/2} sqrt(m! p!)
                    sum_i (-1)^{p-i} beta^{m+p-2i} / (i! (m-i)! (p-i)!)

(a Laguerre polynomial; Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).
With beta = (a_j - a_k) eta, each element is e^{-beta^2/2} times a power of
u = sqrt(1 - eta^2) times a polynomial in eta.  The polynomials'
coefficients do not depend on eta: they are tabulated once per process, on
the first trajectory, and nothing else is kept between trajectories.

The generator keeps a chiral symmetry.  Q, the real involution with
Q|dark> = |dark> and Q|n+/-> = s_n |n-/+>, s_n = (-1)^{n-1}, gives
Q D Q = D and Q E Q = -E, so the generator commutes with Q followed by
complex conjugation, and so does the t = 0 dark state.  The amplitudes
therefore keep c_dark real and c_n- = s_n conj(c_n+), and the solve runs on
the 21 real coordinates z = (c_dark, sqrt2 Re c_n+, sqrt2 Im c_n+),
c = W z with W unitary.  In them the generator is real and antisymmetric:
P^T D P, with P = Re W + Im W real orthogonal, plus a fixed energy block.

A generator evaluation is a few array operations on the tabulated
coupling and two real 21 x 21 products.  :func:`solve_ivp` steps z with an
adaptive sixth-order Magnus integrator in numpy: each step needs three
generator evaluations and one exponential (a degree-18 Taylor polynomial in
five products, taken back onto the orthogonal group by one Newton-Schulz
step; no linear solve), and the steps are taken in chunks that may run
across records, whose generators, exponents and exponentials are computed
as stacks in a few numpy calls.  It runs on the graded clock
t = t_end sigma^3, which smooths the paper clock's start-up cusp
(eta ~ t^{2/3}).  rtol and atol bound the local error of the embedded
fourth-order step in each component of z; the sixth-order result is kept.
After the solve z is mapped back to c once, and the records are read all
at once: F = |c_dark|^2, the norm defect |1 - ||c||^2|, and <X^2>, <P^2>,
<N> = <X^2> + <P^2> - 1/2 and Var N from the tabulated elements.  No Fock
space is built.

The frame's own cutoff is the doublet count: after the solve the peak
population of the top pair (n = N_DOUBLETS) is compared with
``TOP_PAIR_TOL`` and a :class:`TruncationWarning` names it when above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, factorial, isfinite, sqrt

import numpy as np

from . import fockspace, ramp
from .fockspace import StateVector, TruncationWarning

# the local-error tolerances of the Magnus step (see solve_ivp); against
# DOP853 at rtol 1e-12, atol 1e-14 they keep every amplitude within 1.5e-9
# on ramps from k = Omega/50 to Omega/800
DEFAULT_RTOL = 1e-7
DEFAULT_ATOL = 5e-10
DEFAULT_RECORDS = 200

# doublet pairs n = 1..N_DOUBLETS kept in the frame, and the population of
# the top pair above which a trajectory is flagged as truncation-limited
N_DOUBLETS = 10
TOP_PAIR_TOL = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """The record columns of one ramp trajectory, one entry per record, and
    the integrator's work: generator evaluations ``nfev`` and accepted
    ``steps``."""

    t: np.ndarray
    eta: np.ndarray
    fidelity: np.ndarray
    mean_n: np.ndarray
    var_n: np.ndarray
    mean_x2: np.ndarray
    mean_p2: np.ndarray
    norm_defect: np.ndarray
    top_pair_population: np.ndarray
    nfev: int
    steps: int

    def __len__(self) -> int:
        return len(self.t)


def fidelity_against_dark(state: StateVector, eta: float) -> float:
    """Overlap |<psi_dark(eta)|Psi>|^2 of a Fock-space state with the
    instantaneous dark state, exact at any cutoff:
    :func:`fockspace.dark_amplitudes` on the state's own levels.  (In the
    adiabatic frame the fidelity is |c_dark|^2.)"""
    dark = fockspace.dark_amplitudes(state.spec, eta)
    return float(abs(np.vdot(dark, state.amplitudes)) ** 2)


# ---------------------------------------------------------------------------
# closed-form tables of the frame
# ---------------------------------------------------------------------------


def _basis(n_doublets: int):
    """The frame's states, dark first, then n+ and n- for n = 1..n_doublets.

    Returns the energies e_k in units of Omega u^{3/2}, the displacements
    a_k (alpha_k = a_k eta), and each state's two terms c |m>|Phi_q> as
    arrays (coefficient, level m, qubit q) of shape (states, 2); the dark
    state's second term has coefficient 0.
    """
    energy, shift, terms = [0.0], [0.0], [((1.0, 0, 0), (0.0, 0, 0))]
    for n in range(1, n_doublets + 1):
        for sign in (1.0, -1.0):
            energy.append(sign * sqrt(n))
            shift.append(-sign * sqrt(n))
            terms.append(((sqrt(0.5), n - 1, 1), (sign * sqrt(0.5), n, 0)))
    coef, level, qubit = np.moveaxis(np.array(terms), 2, 0)
    return np.array(energy), np.array(shift), coef, level.astype(int), qubit.astype(int)


def _displacement_coefficients(rows: int, cols: int) -> np.ndarray:
    """C[m, p, d] with <m|D(beta)|p> = e^{-beta^2/2} sum_d C[m, p, d] beta^d."""
    c = np.zeros((rows, cols, rows + cols - 1))
    for m in range(rows):
        for p in range(cols):
            for i in range(min(m, p) + 1):
                c[m, p, m + p - 2 * i] = (-1) ** (p - i) * sqrt(factorial(m) * factorial(p)) / (
                    factorial(i) * factorial(m - i) * factorial(p - i)
                )
    return c


def _poly_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two matrices whose entries are polynomials in eta, stored
    as coefficient stacks (degree, rows, cols)."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:])
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai @ bj
    return out


def _displaced_operators(shift: float, x: np.ndarray, p2: np.ndarray) -> dict:
    """D(alpha)^dag S^dag O S D(alpha) for O in (a + a^dag, X^2, P^2, N^2) at
    alpha = shift * eta, as {power of u: polynomial matrix in eta}.  The
    factor e^{-r} = u^{-1/2} of a + a^dag is left to the caller."""
    one = np.eye(len(x))
    xs = np.stack([x, shift * one])  # X + alpha
    xs2, ps2 = _poly_matmul(xs, xs), p2[None]
    # N = u^{-1} (X + alpha)^2 + u P^2 - 1/2, squared
    cross = _poly_matmul(xs2, ps2) + _poly_matmul(ps2, xs2)
    cross[0] += 0.25 * one
    return {
        "h_d": {0: 2.0 * xs},
        "x2": {-1: xs2},
        "p2": {1: ps2},
        "n2": {-2: _poly_matmul(xs2, xs2), -1: -xs2, 0: cross, 1: -ps2, 2: _poly_matmul(ps2, ps2)},
    }


@dataclass(frozen=True)
class _Frame:
    """The eta-independent tables of a frame.

    Element (k, j) of a tabulated operator is e^{gauss[kj] eta^2} times
    sum over its terms (s, table) of u^s sum_d table[kj, d] eta^d, with kj
    the flat index k * states + j.
    """

    energies: np.ndarray  # e_k, in units of Omega u^{3/2}
    gauss: np.ndarray  # -(a_j - a_k)^2 / 2, by kj
    coupling: np.ndarray  # D_kj (1 - eta^2) e^{-gauss eta^2}, by (kj, degree)
    moments: dict  # "x2", "p2", "n2": tuple of (power s, table)
    unitary: np.ndarray  # W, with c = W z for the real coordinates z
    real_energies: np.ndarray  # W^dag (-i diag e) W, real antisymmetric


def _elements(rows: list, op: np.ndarray, coef, level, qubit, j: int) -> np.ndarray:
    """<k|O|j> for every k, as polynomials in eta (k, degree), without the
    Gaussian and u factors.  ``rows[tau][k]`` holds <m|D(beta)|p> e^{beta^2/2}
    at m = level[k, tau] over p, and ``op`` the polynomial matrix of O."""
    size, _, width = rows[0].shape
    out = np.zeros((size, width + len(op)))
    for tau in range(2):
        for c_j, m_j, q_j in zip(coef[j], level[j], qubit[j]):
            if c_j == 0.0:
                continue
            # <m_k| D(beta) O |m_j>
            prod = np.einsum("kpd,ep->kde", rows[tau], op[:, :, m_j])
            poly = np.zeros((size, width + len(op) - 1))
            for e in range(len(op)):
                poly[:, e : e + width] += prod[:, :, e]
            # <Phi_q|Phi_q'> is 1, or -eta between Phi_0 and Phi_1
            weight = coef[:, tau] * c_j
            same = qubit[:, tau] == q_j
            out[:, :-1] += np.where(same, weight, 0.0)[:, None] * poly
            out[:, 1:] -= np.where(same, 0.0, weight)[:, None] * poly
    return out


@lru_cache(maxsize=None)
def _frame(n_doublets: int) -> _Frame:
    """The tables of the frame with ``n_doublets`` pairs, built on first use."""
    energy, shift, coef, level, qubit = _basis(n_doublets)
    size = len(energy)
    fock = n_doublets + 6  # X^4 raises |n_doublets> by 4, exactly inside
    lad = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
    x = (lad + lad.T) / 2.0
    p2 = -((lad.T - lad) @ (lad.T - lad)) / 4.0
    overlap = _displacement_coefficients(n_doublets + 1, fock)
    degrees = np.arange(overlap.shape[2])
    tables = {}
    for j in range(size):
        # beta = (a_j - a_k) eta for every k
        scale = (shift[j] - shift)[:, None, None] ** degrees
        rows = [overlap[level[:, tau]] * scale for tau in range(2)]
        for name, by_power in _displaced_operators(shift[j], x, p2).items():
            for power, op in by_power.items():
                table = tables.setdefault((name, power), np.zeros((size, size, overlap.shape[2] + len(op))))
                table[:, j] = _elements(rows, op, coef, level, qubit, j)
    gap = energy[None, :] - energy[:, None]
    np.fill_diagonal(gap, np.inf)
    # D = <k|H_d|j> / (Omega (e_j - e_k) u^{3/2}), <k|H_d|j> = (Omega/2) u^{-1/2} table
    coupling = tables.pop(("h_d", 0)) / (2.0 * gap[:, :, None])
    flat = size * size
    # the real coordinates: z_0 = c_dark and z_{2n-1} + i z_{2n} = sqrt2 c_n+,
    # with c_n- = s_n conj(c_n+); n+ is state 2n - 1 and n- state 2n
    plus = np.arange(1, size, 2)
    sign = (-1.0) ** np.arange(n_doublets)
    unitary = np.zeros((size, size), dtype=complex)
    unitary[0, 0] = 1.0
    unitary[plus, plus], unitary[plus + 1, plus] = sqrt(0.5), sign * sqrt(0.5)
    unitary[plus, plus + 1], unitary[plus + 1, plus + 1] = 1j * sqrt(0.5), -1j * sign * sqrt(0.5)
    real_energies = np.zeros((size, size))
    real_energies[plus, plus + 1], real_energies[plus + 1, plus] = energy[plus], -energy[plus]
    return _Frame(
        energies=_read_only(energy),
        gauss=_read_only((-0.5 * (shift[None, :] - shift[:, None]) ** 2).reshape(flat)),
        coupling=_trim(coupling.reshape(flat, -1)),
        moments={
            name: tuple((power, _trim(t.reshape(flat, -1))) for (n, power), t in tables.items() if n == name)
            for name in ("x2", "p2", "n2")
        },
        unitary=_read_only(unitary),
        real_energies=_read_only(real_energies),
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    # the tables are cached and shared by every trajectory
    array.setflags(write=False)
    return array


def _trim(table: np.ndarray) -> np.ndarray:
    """A copy of a coefficient table without its all-zero top degrees."""
    return _read_only(np.array(table[:, : np.flatnonzero(table.any(axis=0))[-1] + 1]))


# ---------------------------------------------------------------------------
# the trajectory
# ---------------------------------------------------------------------------


def _moment(terms: tuple, pairs: np.ndarray, u: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """sum_kj Re(c_k^* c_j) O_kj at every record, from O's tabulated terms;
    ``pairs`` holds Re(c_k^* c_j) e^{gauss eta^2} by (record, kj)."""
    total = np.zeros(len(eta))
    for power, table in terms:
        poly = (pairs @ table) * eta[:, None] ** np.arange(table.shape[1])
        total += u**power * poly.sum(axis=1)
    return total


@dataclass(frozen=True)
class Solution:
    """What :func:`solve_ivp` returns: the states ``y`` (states, records) at
    the record times, the generator evaluations ``nfev`` and the accepted
    ``steps``."""

    y: np.ndarray
    nfev: int
    steps: int


# the Gauss-Legendre nodes of a Magnus step, the step-size control, and the
# most steps taken at once on the way to a record
_NODES = np.array((0.5 - sqrt(15.0) / 10.0, 0.5, 0.5 + sqrt(15.0) / 10.0))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0
_MIN_STEP = 10.0 * np.finfo(float).eps
_CHUNK = 8


# the degree-18 Taylor polynomial of exp in five products (Bader, Blanes &
# Casas, Mathematics 7, 1174 (2019)): a9 = B_1 B_5 + B_4 and
# T_18 = B_2 + (B_3 + a9) a9, with B_1..B_5 these combinations of
# (I, a, a^2, a^3, a^6); and the 1-norm up to which its backward error is at
# most 2^-53 (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009))
_TAYLOR_18 = np.array([
    [0.0, -0.10036558103014462, -0.00802924648241157, -0.00089213849804573, 0.0],
    [0.0, 0.3978497494996451, 1.3678377846041172, 0.49828962252538267, -0.0006378981945947233],
    [-10.967639605296206, 1.680158138789062, 0.05717798464788655, -0.0069821012248805206, 3.349750170860705e-05],
    [-0.09043168323908106, -0.06764045190713819, 0.06759613017704597, 0.029555257042931552, -1.391802575160607e-05],
    [0.0, 0.0, -0.09233646193671186, -0.016936493900208172, -1.400867981820361e-05],
])
_THETA_18 = 1.0908637192900362
# the same scheme for T_18 - I: with B_3 = b_3 I + B_3' and B_4 = b_4 I + B_4',
# (B_3 + a9) a9 = (b_3 + b_4) b_4 I + (B_3' + (b_3 + 2 b_4) I + a9') a9'
# + b_4 B_3', a9' = B_1 B_5 + B_4', and (b_3 + b_4) b_4 = 1
_TAYLOR_18_MINUS_I = _TAYLOR_18.copy()
_TAYLOR_18_MINUS_I[1, 1:] += _TAYLOR_18[3, 0] * _TAYLOR_18[2, 1:]
_TAYLOR_18_MINUS_I[2, 0] += 2.0 * _TAYLOR_18[3, 0]
_TAYLOR_18_MINUS_I[3, 0] = 0.0


def _step_factor(err: float) -> float:
    # the step size's change after a step with error ratio err
    if err == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**-0.2))


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # [a, b] = ab - (ab)^T for stacks of antisymmetric a and b
    ab = a @ b
    return ab - ab.swapaxes(-1, -2)


def _expm1(a: np.ndarray) -> np.ndarray:
    """exp(a) - I for each anti-Hermitian matrix of the stack a (count, n, n),
    real or complex, by the degree-18 Taylor polynomial in five products
    (``_TAYLOR_18_MINUS_I``).  A matrix whose 1-norm is above ``_THETA_18``
    is scaled by 2^-s and squared back s times, q <- 2 q + q^2, s chosen per
    matrix.  The polynomial is unitary only to its truncation and rounding,
    so one Newton-Schulz step, r <- r - r (r^dag r - I) / 2, takes
    r = I + q back onto the unitary group to second order in its defect.

    Forming q = r - I, never r, keeps the defect exact to rounding relative
    to |q|, not to 1: the steps of a solve then leave the norm of y within
    a few 1e-15 over thousands of steps, where rounding r's diagonal drifts
    it by 1e-13."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA_18) / _THETA_18)).astype(int)
    powers = np.empty((5,) + a.shape, dtype=a.dtype)
    powers[0] = np.eye(a.shape[-1])
    np.multiply(a, np.ldexp(1.0, -squarings)[:, None, None], out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[3], powers[3], out=powers[4])
    b1, b2, b3, b4, b5 = (_TAYLOR_18_MINUS_I @ powers.reshape(5, -1)).reshape(powers.shape)
    a9 = b1 @ b5 + b4
    q = b2 + (b3 + a9) @ a9
    for i in range(squarings.max(initial=0)):
        more = squarings > i
        q[more] = 2.0 * q[more] + q[more] @ q[more]
    # r^dag r - I = q + q^dag + q^dag q
    qh = q.conj().swapaxes(-1, -2)
    defect = qh @ q
    defect += q
    defect += qh
    q -= 0.5 * (defect + q @ defect)
    return q


def solve_ivp(fun, y0, t_eval, *, rtol: float, atol: float) -> Solution:
    """Integrate dy/dt = A(t) y, A real antisymmetric, from the real y0 at
    t0 = t_eval[0] to t1 = t_eval[-1], recording y at the increasing times
    ``t_eval``.  ``fun(times, y)`` returns the stack A(t) y over the array
    ``times``, so ``fun(times, I)`` is the stack of generators.

    The solve runs on the graded clock sigma in [0, 1],
    t = t0 + (t1 - t0) sigma^3, with the generator scaled by dt/dsigma: a
    generator that grows like t^{-1/3} at the start (the paper clock's
    cusp) is smooth in sigma.  Each step evaluates the generator at the
    three Gauss-Legendre nodes and advances y by exp(Omega_6), the
    sixth-order Magnus exponent (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)).  The exponential is the degree-18 Taylor polynomial with
    scaling and squaring and one Newton-Schulz step back onto the
    orthogonal group (see :func:`_expm1`), applied as y + (exp - I) y.  The
    step size is controlled by the embedded fourth-order exponent:
    max_k |((Omega_6 - Omega_4) y)_k| / (atol + rtol |y_k|) must be <= 1,
    over the components of y.  So rtol and atol bound the local error of
    the fourth-order step, while the sixth-order result is kept.

    The steps are taken in chunks of at most ``_CHUNK``, planned from the
    current step size h: the equal steps to the next record, then, while
    room is left, the equal steps of at most h to each record after it, so
    every record ends a step exactly and a chunk may land several.  One
    call of ``fun`` evaluates every node of a chunk, and its exponents and
    exponentials are computed as stacks.  The steps before the first one
    that fails the error test are accepted, with the records they reach,
    and the rest thrown away.  The next h is the error factor times the
    failing step, or, when all pass, the chunk's largest error factor
    times its last step; a chunk that ends on a record keeps at least the
    h it was planned with.  ``steps`` counts the accepted steps and
    ``nfev`` the generator evaluations, three per step evaluated, thrown
    away or not.

    Raises RuntimeError when a step falls below ``_MIN_STEP`` in sigma or
    Omega_6 is not finite; the message names the cause, the time near
    which the solve stopped and the last record reached.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    t0, span = t_eval[0], t_eval[-1] - t_eval[0]
    sigma_eval = np.cbrt((t_eval - t0) / span)
    y = np.array(y0, dtype=float)
    size = len(y)
    eye = np.eye(size)
    records = [y]
    nfev = steps = 0
    sigma = 0.0
    h = sigma_eval[1] if len(sigma_eval) > 1 else 1.0
    while len(records) < len(sigma_eval):
        # the chunk's plan: each step's start and size, the start after its
        # last step, and the step counts after which records are reached
        starts, widths, landings = [], [], []
        start, record = sigma, len(records)
        while len(widths) < _CHUNK and record < len(sigma_eval):
            target = sigma_eval[record]
            left = ceil((target - start) / h)
            step = (target - start) / left
            if step < _MIN_STEP:
                break
            take = min(left, _CHUNK - len(widths))
            starts += [start + step * k for k in range(take)]
            widths += [step] * take
            if take < left:
                start += step * take
                break
            landings.append(len(widths))
            start, record = target, record + 1
        if not widths:
            cause = f"step size below {_MIN_STEP:.1e} in sigma"
            break
        starts.append(start)
        count = len(widths)
        width = np.array(widths)
        # the generator at the nodes, node by node over the chunk's steps,
        # scaled by dt/dsigma and the step
        s = np.array(starts[:-1]) + width * _NODES[:, None]
        gen = fun(t0 + span * s.ravel() ** 3, eye) * (3.0 * span * s * s * width).reshape(-1, 1, 1)
        nfev += 3 * count
        a1, a2, a3 = gen.reshape(3, count, size, size)
        # the generator's moments about each step's midpoint: a2, m2, m3 are
        # the review's alpha_1, alpha_2, alpha_3
        m2 = (a3 - a1) * (sqrt(15.0) / 3.0)
        m3 = (a3 + a1 - 2.0 * a2) * (10.0 / 3.0)
        c1 = _commutator(a2, m2)
        c2 = _commutator(a2, 2.0 * m3 + c1) / -60.0
        # Omega_4 = a2 + m3 / 12 - c1 / 12, and Omega_6 - Omega_4 = corr + c1 / 12
        corr = _commutator(c1 - 20.0 * a2 - m3, m2 + c2) / 240.0
        omega6 = a2 + m3 / 12.0 + corr
        finite = np.isfinite(omega6).all(axis=(1, 2))
        good = count if finite.all() else int(np.argmin(finite))
        # the states at the steps' starts, and the error test on each step
        # up to the first non-finite exponent
        q = _expm1(omega6[:good])
        ys = np.empty((good + 1, size))
        ys[0] = y
        for k in range(good):
            ys[k + 1] = ys[k] + q[k] @ ys[k]
        delta = ((corr[:good] + c1[:good] / 12.0) @ ys[:good, :, None])[:, :, 0]
        err = (np.abs(delta) / (atol + rtol * np.abs(ys[:good]))).max(axis=1)
        failed = np.flatnonzero(err > 1.0)
        passed = int(failed[0]) if len(failed) else good
        # the records that the accepted steps reached are kept
        records += [ys[k] for k in landings if k <= passed]
        y, sigma = ys[passed], starts[passed]
        steps += passed
        if passed == good < count:  # every finite step passed; the next is not finite
            cause = "non-finite generator"
            break
        if passed < good:  # the next step size comes from the failing step
            factor = _step_factor(err[passed])
        else:
            factor = _step_factor(err.max())
            if landings[-1:] == [count]:
                # a step shortened to land keeps the longer proposal
                factor = max(factor, h / widths[-1])
        h = widths[min(passed, count - 1)] * factor
    else:  # every record reached
        return Solution(np.array(records).T, nfev, steps)
    raise RuntimeError(
        f"time integration failed: {cause} near t = {t0 + span * sigma**3:g}, "
        f"after the record at t = {t_eval[len(records) - 1]:g}"
    )


def evolve(
    schedule: ramp.RampSchedule, omega: float, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
) -> Trajectory:
    """Integrate the ramp from the t = 0 dark state in the adiabatic frame.

    The schedule starts at eta(0) = 0, where the dark state is exactly
    |0>|g>, and the trajectory runs to the schedule's duration.  Returns
    the record columns at 201 uniform times: the instantaneous dark-state
    fidelity, field moments, norm defect and top-pair population; the
    final record sits at eta = eta_target.

    The solve runs on the real coordinates z of the module docstring and
    maps them back to the amplitudes c once, after the last step; the
    right-hand side evaluates the generators at a chunk's nodes in one
    call, with one ``ramp.eta_at`` and one ``ramp.eta_dot_at`` per time.
    rtol and atol bound the local error of each step in each component of
    z (see :func:`solve_ivp`); the trajectory also carries the solve's
    generator evaluations ``nfev``, thrown-away steps included, and
    accepted ``steps``, both Python ints.  Raises ValueError, before
    integrating, unless rtol, atol, omega and the schedule's duration are
    finite and > 0.  :func:`solve_ivp` raises RuntimeError when the
    integrator fails (a non-finite generator, or a step-size underflow),
    naming the last record reached.  Warns with
    :class:`TruncationWarning` when the population of the top doublet pair
    (n = ``N_DOUBLETS``) exceeds ``TOP_PAIR_TOL`` at any record; the
    message names the worst population and the record's t and kt.
    """
    checked = {"rtol": rtol, "atol": atol, "omega": omega, "schedule duration": schedule.duration}
    for name, value in checked.items():
        if not (value > 0 and isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    n_doublets = N_DOUBLETS
    frame = _frame(n_doublets)
    size = len(frame.energies)
    coupling, gauss, real_energies = frame.coupling, frame.gauss, frame.real_energies
    degrees = np.arange(coupling.shape[1])
    # P = Re W + Im W, real orthogonal: W^dag D W = P^T D P for the real D
    basis = frame.unitary.real + frame.unitary.imag

    def rhs(times: np.ndarray, z: np.ndarray) -> np.ndarray:
        # the generators at the times, stacked (times, size, size), times z:
        # P^T D P z plus the energy block
        eta = np.array([ramp.eta_at(schedule, t) for t in times.tolist()])
        rate = np.array([ramp.eta_dot_at(schedule, t) for t in times.tolist()])
        eps = (1.0 - eta) * (1.0 + eta)
        gen = (eta[:, None] ** degrees @ coupling.T) * np.exp(np.multiply.outer(eta * eta, gauss))
        gen *= (-rate / eps)[:, None]
        out = basis.T @ gen.reshape(-1, size, size) @ (basis @ z)
        out += np.multiply.outer(omega * eps**0.75, real_energies @ z)
        return out

    z0 = np.zeros(size)
    z0[0] = 1.0  # the dark state, |0>|g> at eta = 0
    times = np.linspace(0.0, schedule.duration, DEFAULT_RECORDS + 1)
    sol = solve_ivp(rhs, z0, times, rtol=rtol, atol=atol)

    c = sol.y.T @ frame.unitary.T  # (records, states)
    eta = np.array([ramp.eta_at(schedule, t) for t in times])
    u = np.sqrt((1.0 - eta) * (1.0 + eta))
    # Re(c_k^* c_j) e^{gauss eta^2}, by (record, kj)
    re, im = c.real, c.imag
    pairs = (re[:, :, None] * re[:, None, :]).reshape(len(times), -1)
    pairs += (im[:, :, None] * im[:, None, :]).reshape(len(times), -1)
    gaussian = np.multiply.outer(eta * eta, gauss)
    pairs *= np.exp(gaussian, out=gaussian)
    x2, p2, n2 = (_moment(frame.moments[name], pairs, u, eta) for name in ("x2", "p2", "n2"))
    pop = np.abs(c) ** 2
    norm = pop.sum(axis=1)
    mean_n = x2 + p2 - 0.5 * norm
    top = pop[:, -2:].sum(axis=1)
    worst = int(np.argmax(top))
    if top[worst] > TOP_PAIR_TOL:
        warnings.warn(
            f"population reached the top doublet pair n = {n_doublets} (the "
            f"frame's tail mass {top[worst]:.2e} > {TOP_PAIR_TOL} at "
            f"t = {times[worst]:.6g}, kt = {schedule.k * times[worst]:.6g}); "
            f"results are truncation-limited",
            TruncationWarning,
            stacklevel=2,
        )
    return Trajectory(
        t=times, eta=eta, fidelity=pop[:, 0], mean_n=mean_n, var_n=n2 - mean_n * mean_n,
        mean_x2=x2, mean_p2=p2, norm_defect=np.abs(1.0 - norm), top_pair_population=top,
        nfev=sol.nfev, steps=sol.steps,
    )
