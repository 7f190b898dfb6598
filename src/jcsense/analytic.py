"""Closed-form layer: every observable of the critical sensor as a pure
function of the drive amplitude eta, with no Hilbert space involved.

All quantities are exact for 0 <= eta < 1 in double precision; the numeric
Fock-space routes elsewhere in the package are cross-checks of these
formulas, never the other way round.

It is also the one home of the squeezed vacuum S(r)|0> (the probe, and the
dark state's field factor): r, the qubit coefficients, the Fock amplitudes
and the support, none of which cancels at either end of the eta range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# step h of richardson_derivative's stencil
FD_STEP = 1e-4


@dataclass(frozen=True)
class AnalyticPoint:
    """Every closed-form quantity of the sensor evaluated at eta.

    Each field is a float for a scalar eta and an array of eta's shape for
    an array of etas.  The three inverted variances (photon number, X^2,
    P^2) coincide with the quantum Fisher information identically; they are
    computed through their defining susceptibility/variance ratios so the
    identity stays a check, not an assumption.
    """

    eta: float
    r: float            # squeezing parameter, ln(1 - eta^2)/4 <= 0
    C: float            # qubit superposition coefficient in (1/sqrt2, 1]
    qfi: float
    mean_n: float
    var_n: float
    chi: float          # d<N>/d eta
    inv_var_n: float
    inv_var_x2: float
    inv_var_p2: float
    mean_x2: float
    var_x2: float
    mean_p2: float
    var_p2: float
    epsilon: float      # 1 - eta^2, distance from criticality


def _check_eta(eta) -> None:
    eta = np.asarray(eta)
    inside = (0.0 <= eta) & (eta < 1.0)
    if not inside.all():
        raise ValueError(f"eta must be in [0, 1), got {eta[~inside].flat[0]}")


def _is_integer(value) -> bool:
    """Whether a doublet index is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _squeezing(eta2, eps):
    # 0.0 - eta2, not -eta2: log1p(-0.0) would make r(0) = -0.0
    return 0.25 * np.where(eta2 < 0.5, np.log1p(0.0 - eta2), np.log(eps))


def squeezing_parameter(eta):
    """Squeezing r = ln(1 - eta^2)/4 <= 0: log1p(-eta^2) for eta^2 < 1/2,
    log((1 - eta)(1 + eta)) above; r(0) = +0.0."""
    eta = np.asarray(eta, dtype=float)
    r = _squeezing(eta * eta, (1.0 - eta) * (1.0 + eta))
    return float(r) if r.ndim == 0 else r


def _qubit_coefficients(eta, u):
    return np.sqrt((1.0 + u) / 2.0), eta / np.sqrt(2.0 * (1.0 + u))


def qubit_coefficients(eta):
    """(C, s) of the dark state's |Phi_0> = C|g> - s|e>, u = sqrt((1 - eta)(1 + eta)):
    C = sqrt((1 + u)/2) and s = sqrt(1 - C^2) = eta / sqrt(2(1 + u))."""
    return _qubit_coefficients(eta, np.sqrt((1.0 - eta) * (1.0 + eta)))


def squeezed_vacuum_amplitudes(levels: int, r: float) -> np.ndarray:
    """Exact Fock amplitudes of S(r)|0> on levels 0..levels-1: c_0 =
    1/sqrt(cosh r), c_{2m}/c_{2m-2} = -tanh(r) sqrt((2m-1)/(2m)), odd levels 0."""
    m = np.arange(1, (levels + 1) // 2)
    ratios = -np.tanh(r) * np.sqrt((2 * m - 1) / (2 * m))
    amps = np.zeros(levels)
    amps[0] = 1.0
    amps[2::2] = np.cumprod(ratios)
    return amps / np.sqrt(np.cosh(r))


def squeezed_vacuum_n_max(eta: float) -> int:
    """Fock cutoff that holds the squeezed vacuum at drive amplitude eta:
    its photon-number scale e^{-2r} = 1/u grows without bound, and 12/u
    levels, at least 32, keep the tail mass below 1e-10.  Not clamped."""
    _check_eta(eta)
    return max(int(np.ceil(12.0 / np.sqrt((1.0 - eta) * (1.0 + eta)))), 32)


def evaluate(eta) -> AnalyticPoint:
    """All closed-form quantities at drive amplitude eta (a float or an array).

    Formulas (u = sqrt(1 - eta^2)):
        qfi      = eta^2 / (2 (1-eta^2)^2)
        <N>      = eta^4 / (4u (1+u)^2)
        Var[N]   = eta^4 / (8(1-eta^2))
        chi      = eta^3 / (4 (1-eta^2)^{3/2})
        <X^2>    = 1/(4u),    Var[X^2] = 1/(8(1-eta^2))
        <P^2>    = u/4,       Var[P^2] = (1-eta^2)/8
    and the inverted variances (d_eta <O>)^2 / Var[O] for O in {N, X^2, P^2},
    which are 0 at eta = 0, where every susceptibility vanishes.
    """
    _check_eta(eta)
    eta = np.asarray(eta, dtype=float)
    # exact to rounding; 1 - eta*eta amplifies the rounding of eta*eta near 1
    return _evaluate(eta, eta * eta, (1.0 - eta) * (1.0 + eta))


def _evaluate(eta: np.ndarray, eta2: np.ndarray, eps: np.ndarray) -> AnalyticPoint:
    """:func:`evaluate`'s closed forms from eta, eta^2 and eps = 1 - eta^2,
    for a caller that knows eta^2 and eps more exactly than eta's rounding
    gives them; floats for a 0-d eta."""
    scalar = eta.ndim == 0
    u = np.sqrt(eps)

    r = _squeezing(eta2, eps)
    c, _ = _qubit_coefficients(eta, u)

    qfi = eta2 / (2.0 * eps * eps)
    # (2-eta^2)/(4u) - 1/2 and ((1-eta^2)^2 + 1)/(8(1-eta^2)) - 1/4, and
    # (1-u)^2/(4u), cancel at small eta; these forms do not
    eta4 = eta2 * eta2
    mean_n = eta4 / (4.0 * u * (1.0 + u) ** 2)
    var_n = eta4 / (8.0 * eps)
    chi = eta2 * eta / (4.0 * eps * u)

    mean_x2 = 1.0 / (4.0 * u)
    var_x2 = 1.0 / (8.0 * eps)
    mean_p2 = u / 4.0
    var_p2 = eps / 8.0

    # susceptibilities of the quadrature second moments
    d_mean_x2 = eta / (4.0 * eps * u)
    d_mean_p2 = -eta / (4.0 * u)

    # Var[N] vanishes at eta = 0, where chi^2 / Var[N] is 0/0; the ratio is 0
    with np.errstate(invalid="ignore"):
        inv_var_n = np.where(eta == 0.0, 0.0, chi * chi / var_n)
    inv_var_x2 = d_mean_x2 * d_mean_x2 / var_x2
    inv_var_p2 = d_mean_p2 * d_mean_p2 / var_p2

    fields = dict(
        eta=eta, r=r, C=c, qfi=qfi,
        mean_n=mean_n, var_n=var_n, chi=chi, inv_var_n=inv_var_n,
        inv_var_x2=inv_var_x2, inv_var_p2=inv_var_p2, mean_x2=mean_x2,
        var_x2=var_x2, mean_p2=mean_p2, var_p2=var_p2, epsilon=eps,
    )
    if scalar:
        fields = {name: float(value) for name, value in fields.items()}
    return AnalyticPoint(**fields)


def eigenvalue(omega: float, eta: float, n: int, branch: str) -> float:
    """Doublet energy +/- sqrt(n) * Omega * (1 - eta^2)^{3/4}, with 1 - eta^2
    formed as (1 - eta)(1 + eta), as in :func:`evaluate`."""
    _check_eta(eta)
    if not _is_integer(n) or n < 1:
        raise ValueError(f"doublet index n must be an integer >= 1, got {n!r}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sign = 1.0 if branch == "+" else -1.0
    return float(sign * np.sqrt(n) * omega * ((1.0 - eta) * (1.0 + eta)) ** 0.75)


def richardson_derivative(f, x: float):
    """df/dx at x from central differences of steps ``FD_STEP`` and
    ``FD_STEP``/2, Richardson-extrapolated once: f is called at x + h, x - h,
    x + h/2 and x - h/2, in that order, and may return an array."""
    h = FD_STEP
    d_full = (f(x + h) - f(x - h)) / (2.0 * h)
    d_half = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * d_half - d_full) / 3.0


def qfi_from_state_derivative(eta: float) -> float:
    """Quantum Fisher information from the parametric state derivative.

    Evaluates 4 * [<d_eta phi | d_eta phi> + (<d_eta phi | phi>)^2] with the
    derivative of the squeezed vacuum from :func:`richardson_derivative`.
    Each stencil point is :func:`squeezed_vacuum_amplitudes` normalised on
    one shared cutoff: the support :func:`squeezed_vacuum_n_max` gives at
    eta + h, rounded up to even like ``fockspace.adaptive_n_max``.  For this
    real-amplitude family the overlap term vanishes by normalization; it is
    computed anyway as a consistency term.  Agrees with ``evaluate(eta).qfi``
    to better than relative 1e-4 for eta <= 0.9.
    """
    h = FD_STEP
    if not (eta - h > 0.0 and eta + h < 1.0):
        raise ValueError(f"need 0 < eta-h and eta+h < 1 (h = {h}); got eta={eta}")
    # sized for the most demanding point of the stencil
    n_max = squeezed_vacuum_n_max(eta + h)
    levels = n_max + n_max % 2 + 1

    def state(e: float) -> np.ndarray:
        amps = squeezed_vacuum_amplitudes(levels, squeezing_parameter(e))
        return amps / np.linalg.norm(amps)

    deriv = richardson_derivative(state, eta)

    phi = state(eta)
    overlap_term = float(deriv @ phi)
    return float(4.0 * (deriv @ deriv + overlap_term**2))
