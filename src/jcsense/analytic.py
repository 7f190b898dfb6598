"""Closed-form layer: every observable of the critical sensor as a pure
function of the drive amplitude eta, with no Hilbert space involved.

All quantities are exact for 0 <= eta < 1 in double precision; the numeric
Fock-space routes elsewhere in the package are cross-checks of these
formulas, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockspace
from .fockspace import HilbertSpec, adaptive_n_max


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


def evaluate(eta) -> AnalyticPoint:
    """All closed-form quantities at drive amplitude eta (a float or an array).

    Formulas (u = sqrt(1 - eta^2)):
        qfi      = eta^2 / (2 (1-eta^2)^2)
        <N>      = (2-eta^2)/(4u) - 1/2
        Var[N]   = ((1-eta^2)^2 + 1)/(8(1-eta^2)) - 1/4
        chi      = eta^3 / (4 (1-eta^2)^{3/2})
        <X^2>    = 1/(4u),    Var[X^2] = 1/(8(1-eta^2))
        <P^2>    = u/4,       Var[P^2] = (1-eta^2)/8
    and the inverted variances (d_eta <O>)^2 / Var[O] for O in {N, X^2, P^2},
    which are 0 at eta = 0, where every susceptibility vanishes.
    """
    _check_eta(eta)
    scalar = np.ndim(eta) == 0
    eta = np.asarray(eta, dtype=float)
    eta2 = eta * eta
    eps = 1.0 - eta2
    u = np.sqrt(eps)

    r = fockspace.squeezing_parameter(eta)
    c = np.sqrt((1.0 + u) / 2.0)

    qfi = eta2 / (2.0 * eps * eps)
    mean_n = (2.0 - eta2) / (4.0 * u) - 0.5
    var_n = (eps * eps + 1.0) / (8.0 * eps) - 0.25
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
    """Doublet energy +/- sqrt(n) * Omega * (1 - eta^2)^{3/4}."""
    _check_eta(eta)
    if n < 1:
        raise ValueError(f"doublet index n must be >= 1, got {n}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    sign = 1.0 if branch == "+" else -1.0
    return float(sign * np.sqrt(n) * omega * (1.0 - eta * eta) ** 0.75)


def energy_gap(omega: float, eta: float) -> float:
    """Gap between the dark state and the nearest doublet: Omega (1-eta^2)^{3/4}."""
    _check_eta(eta)
    return float(omega * (1.0 - eta * eta) ** 0.75)


def qfi_from_state_derivative(eta: float, h: float = 1e-4) -> float:
    """Quantum Fisher information from the parametric state derivative.

    Evaluates 4 * [<d_eta phi | d_eta phi> + (<d_eta phi | phi>)^2] with the
    derivative of the squeezed vacuum formed by central finite differences,
    Richardson-extrapolated once.  For this real-amplitude family the overlap
    term vanishes by normalization; it is computed anyway as a consistency
    term.  Agrees with ``evaluate(eta).qfi`` to better than relative 1e-4 for
    eta <= 0.9.
    """
    if not (eta - h > 0.0 and eta + h < 1.0):
        raise ValueError(f"need 0 < eta-h and eta+h < 1; got eta={eta}, h={h}")
    # one shared cutoff, sized for the most demanding point of the stencil
    spec = HilbertSpec(n_max=adaptive_n_max(eta + h), with_qubit=False)

    def state(e: float) -> np.ndarray:
        return fockspace.squeezed_vacuum(spec, fockspace.squeezing_parameter(e)).amplitudes.real

    d_full = (state(eta + h) - state(eta - h)) / (2.0 * h)
    d_half = (state(eta + h / 2) - state(eta - h / 2)) / h
    deriv = (4.0 * d_half - d_full) / 3.0

    phi = state(eta)
    overlap_term = float(deriv @ phi)
    return float(4.0 * (deriv @ deriv + overlap_term**2))
