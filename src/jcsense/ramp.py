"""Adiabatic drive schedule eta(t) and its non-adiabaticity diagnostics.

The schedule eta_t = sqrt(1 - [(k t)^xi + 1]^{-1}) runs from the undriven
regime eta = 0 at t = 0 to the critical point eta -> 1.  The exponent xi
defaults to 4/3, the value for which the perturbative leakage into the
first excited doublet becomes flat in eta near criticality.  For xi < 2 the
schedule is not smooth at t = 0: it starts with a cusp eta ~ (k t)^{xi/2},
whose start-up jolt leaks into the excited doublets at order k^xi.

An opt-in onset tau > 0 (in kt units) removes that cusp: the same formula
is driven through the clock phi(kt) = kt - tau tanh(kt / tau) in place of
kt, so eta ~ t^{3 xi / 2} starts from rest and the clock joins kt - tau
after a few tau.  tau = 0 (the default) is the paper's schedule.

The transition-probability estimate is a first-order perturbative scaling
relation, not an equality: use it for trends and bounds only.  Its
denominator carries the squared doublet energy, as opposed to the more
common gap-squared adiabatic estimate; we keep that form deliberately and
treat the result as an order-of-magnitude diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, lgamma, log, sqrt, tanh

import numpy as np
from scipy.optimize import brentq

DEFAULT_XI = 4.0 / 3.0

# Taylor coefficients of u - tanh(u) in powers u^3, u^5, ..., u^15; below
# _SERIES_U the series is exact to double precision where the difference
# itself would cancel
_U_MINUS_TANH = (
    1.0 / 3.0, -2.0 / 15.0, 17.0 / 315.0, -62.0 / 2835.0,
    1382.0 / 155925.0, -21844.0 / 6081075.0, 929569.0 / 638512875.0,
)
_SERIES_U = 0.1


def _onset_clock(kt: float, tau: float) -> float:
    """phi(kt) = kt - tau tanh(kt / tau), for tau > 0 and kt >= 0."""
    u = kt / tau
    if u >= _SERIES_U:
        return kt - tau * tanh(u)
    u2 = u * u
    acc = 0.0
    for c in reversed(_U_MINUS_TANH):
        acc = acc * u2 + c
    return tau * u * u2 * acc


@dataclass(frozen=True)
class RampSchedule:
    """Drive trajectory eta(t) = sqrt(1 - [(k t)^xi + 1]^{-1}).

    k sets the ramp rate (same units as the coupling Omega), xi > 0 the
    approach exponent, and eta_target < 1 fixes the total duration through
    the inverse of the schedule.  k = 0 is allowed as a frozen schedule
    (eta identically 0); its duration is undefined.

    onset = tau >= 0 (kt units) replaces kt by the clock
    phi(kt) = kt - tau tanh(kt / tau) in the formula above, which removes
    the t = 0 cusp; the duration then comes from a bracketed root solve.
    onset = 0 is the paper's schedule, evaluated in closed form.
    """

    k: float
    xi: float = DEFAULT_XI
    eta_target: float = 0.995
    onset: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"ramp rate k must be >= 0, got {self.k}")
        if self.xi <= 0:
            raise ValueError(f"exponent xi must be > 0, got {self.xi}")
        if not 0.0 < self.eta_target < 1.0:
            raise ValueError(f"eta_target must be in (0, 1), got {self.eta_target}")
        if not (self.onset >= 0.0 and isfinite(self.onset)):
            raise ValueError(f"onset must be finite and >= 0, got {self.onset}")

    def _kt_at(self, eta: float) -> float:
        """kt at which the schedule reaches eta in [0, 1)."""
        if eta == 0.0:
            return 0.0
        # the clock value phi with phi^xi = w = eta^2 / (1 - eta^2); phi = kt
        # for the paper's schedule
        phi = float((eta * eta / (1.0 - eta * eta)) ** (1.0 / self.xi))
        if not self.onset:
            return phi
        # kt - tau <= phi(kt) <= kt brackets the root of the monotone clock;
        # the tiny xtol leaves brentq's relative tolerance in charge
        return float(
            brentq(
                lambda kt: _onset_clock(kt, self.onset) - phi,
                phi, phi + self.onset, xtol=1e-300,
            )
        )

    @property
    def kt_end(self) -> float:
        """Dimensionless duration; (eta_target^2/(1 - eta_target^2))^{1/xi} for onset 0."""
        return self._kt_at(self.eta_target)

    @property
    def duration(self) -> float:
        """Time at which eta(t) = eta_target."""
        if self.k == 0:
            raise ValueError("a frozen schedule (k = 0) never reaches its target")
        return self.kt_end / self.k

    def time_to_reach(self, eta: float) -> float:
        """Inverse t(eta) of the schedule (closed form for onset 0)."""
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {eta}")
        if self.k == 0:
            raise ValueError("a frozen schedule (k = 0) stays at eta = 0")
        return self._kt_at(eta) / self.k


def epsilon_at(s: RampSchedule, t: float) -> float:
    """Distance from criticality epsilon(t) = [phi(k t)^xi + 1]^{-1} = 1 - eta^2.

    phi(kt) = kt for the paper's schedule (onset 0).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if s.onset:
        return float(1.0 / (_onset_clock(s.k * t, s.onset) ** s.xi + 1.0))
    return float(1.0 / ((s.k * t) ** s.xi + 1.0))


def eta_at(s: RampSchedule, t: float) -> float:
    """Drive amplitude at time t; exactly 0 at t = 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0 or s.k == 0:
        return 0.0
    kt = s.k * t
    w = (_onset_clock(kt, s.onset) if s.onset else kt) ** s.xi
    # sqrt(w / (w + 1)) keeps full precision where eta^2 << 1, unlike
    # sqrt(1 - epsilon)
    return sqrt(w / (w + 1.0))


def eta_dot_at(s: RampSchedule, t: float) -> float:
    """Exact time derivative of eta(t).

    With w = (k t)^xi:  d eta/dt = xi w / (t * 2 eta (w+1)^2).  At t = 0 the
    schedule starts from rest in w, and 0.0 is returned by contract; note the
    one-sided limit of d eta/dt itself is divergent for xi < 2 (eta grows as
    (k t)^{xi/2} at early times).

    With an onset tau > 0 and phi = phi(k t), w = phi^xi:
    d eta/dt = (xi/2) phi^{xi/2 - 1} (w+1)^{-3/2} * k tanh^2(k t / tau),
    which vanishes as t -> 0 for xi > 2/3 (eta grows as t^{3 xi / 2}).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0 or s.k == 0:
        return 0.0
    if s.onset:
        kt = s.k * t
        phi = _onset_clock(kt, s.onset)
        if phi == 0.0:  # clock underflow deep inside the onset
            return 0.0
        w = phi**s.xi
        phi_dot = s.k * tanh(kt / s.onset) ** 2
        return float(0.5 * s.xi * phi ** (0.5 * s.xi - 1.0) * (w + 1.0) ** -1.5 * phi_dot)
    w = (s.k * t) ** s.xi
    eta = np.sqrt(w / (w + 1.0))
    return float(s.xi * w / (t * 2.0 * eta * (w + 1.0) ** 2))


def eta_dot_asymptotic(s: RampSchedule, eta: float) -> float:
    """Near-critical form of the ramp velocity.

    d eta/dt ~ (eta xi k / 2) (1 - eta^2)^{(xi+1)/xi}, valid for k t >> 1;
    agrees with :func:`eta_dot_at` up to a factor (1 - eta^2)^{-3/4} -> 1.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    eps = 1.0 - eta * eta
    return float(0.5 * eta * s.xi * s.k * eps ** ((s.xi + 1.0) / s.xi))


def transition_probability(s: RampSchedule, omega: float, eta: float, n: int) -> float:
    """Perturbative leakage estimate into the n-th excited doublet.

    P_n ~ | eta_dot * eta * e^{-n eta^2/2} (sqrt(n) eta)^{n-2}
            / (2 sqrt2 n Omega (1-eta^2)^{7/4} sqrt((n-1)!)) |^2

    computed in modulus with a log-space factorial (finite for n up to a few
    hundred), using the near-critical ramp velocity of
    :func:`eta_dot_asymptotic`.  This is the form in which the xi = 4/3
    exponent choice cancels the (1-eta^2) power exactly, making P_1 flat
    along the ramp near criticality and bounding every channel by
    (k / (3 sqrt2 Omega))^2.  Order-of-magnitude diagnostic only.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if n < 1:
        raise ValueError(f"doublet index n must be >= 1, got {n}")
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if s.k == 0:
        return 0.0
    eta_dot = eta_dot_asymptotic(s, eta)
    log_amp = (
        log(eta_dot)
        + log(eta)
        - n * eta * eta / 2.0
        + (n - 2) * (0.5 * log(n) + log(eta))
        - log(2.0 * sqrt(2.0) * n * omega)
        - 1.75 * log(1.0 - eta * eta)
        - 0.5 * lgamma(n)
    )
    return exp(2.0 * log_amp)


def transition_bound(s: RampSchedule, omega: float) -> float:
    """Uniform near-critical bound (k / (3 sqrt2 Omega))^2 on every channel."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return (s.k / (3.0 * sqrt(2.0) * omega)) ** 2
