"""Adiabatic drive schedule eta(t) and its non-adiabaticity diagnostics.

The schedule eta_t = sqrt(1 - [(k t)^xi + 1]^{-1}) runs from the undriven
regime eta = 0 at t = 0 to the critical point eta -> 1.  Every schedule
ramps: the rate k is finite and > 0, so the target is reached at a finite
duration; there is no frozen (k = 0) schedule.  The exponent xi
defaults to 4/3, the value for which the perturbative leakage into the
first excited doublet becomes flat in eta near criticality.  For xi < 2 the
schedule is not smooth at t = 0: it starts with a cusp eta ~ (k t)^{xi/2},
whose start-up jolt leaks into the excited doublets at order k^xi.

An opt-in onset tau > 0 (in kt units) removes that cusp: the same formula
is driven through the clock phi(kt) = kt - tau tanh(kt / tau) in place of
kt, so eta ~ t^{3 xi / 2} starts from rest and the clock joins kt - tau
after a few tau.  tau = 0 (the default) is the paper's schedule.  One helper
gives either clock and its rate to every consumer.

The transition-probability estimate is a first-order perturbative scaling
relation, not an equality: use it for trends and bounds only.  Its
denominator carries the squared doublet energy, as opposed to the more
common gap-squared adiabatic estimate; we keep that form deliberately and
treat the result as an order-of-magnitude diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, lgamma, log, sqrt, tanh

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
    the inverse of the schedule.  k and xi must be finite and > 0: every
    schedule ramps, so its duration is always defined.

    onset = tau >= 0 (kt units) replaces kt by the clock
    phi(kt) = kt - tau tanh(kt / tau) in the formula above, which removes
    the t = 0 cusp; the duration then comes from a safeguarded Newton solve.
    onset = 0 is the paper's schedule, evaluated in closed form.
    """

    k: float
    xi: float = DEFAULT_XI
    eta_target: float = 0.995
    onset: float = 0.0

    def __post_init__(self):
        if not (self.k > 0.0 and isfinite(self.k)):
            raise ValueError(f"ramp rate k must be finite and > 0, got {self.k}")
        if not (self.xi > 0.0 and isfinite(self.xi)):
            raise ValueError(f"exponent xi must be finite and > 0, got {self.xi}")
        if not 0.0 < self.eta_target < 1.0:
            raise ValueError(f"eta_target must be in (0, 1), got {self.eta_target}")
        if not (self.onset >= 0.0 and isfinite(self.onset)):
            raise ValueError(f"onset must be finite and >= 0, got {self.onset}")

    @property
    def kt_end(self) -> float:
        """Dimensionless duration; (eta_target^2/(1 - eta_target^2))^{1/xi} for onset 0."""
        eta = self.eta_target
        # the clock value phi with phi^xi = w = eta^2 / (1 - eta^2); phi = kt
        # for the paper's schedule
        phi = float((eta * eta / (1.0 - eta * eta)) ** (1.0 / self.xi))
        if not self.onset:
            return phi
        # phi(kt) is increasing and convex (d phi/d kt = tanh^2(kt / tau)) and
        # kt - tau <= phi(kt) <= kt puts the root in [phi, phi + tau], so Newton
        # from phi + tau descends to it without overshooting; the floor keeps a
        # rounded step in the bracket, and the loop ends where rounding stalls
        tau, kt = self.onset, phi + self.onset
        while True:
            excess = _onset_clock(kt, tau) - phi
            step = max(kt - excess / tanh(kt / tau) ** 2, phi) if excess > 0.0 else kt
            if step >= kt:
                return kt
            kt = step

    @property
    def duration(self) -> float:
        """Time at which eta(t) = eta_target."""
        return self.kt_end / self.k


def _clock(s: RampSchedule, kt: float) -> tuple[float, float]:
    """The clock phi at kt >= 0 and its rate d phi/dt: (kt, k) on the paper's
    schedule, (phi(kt), k tanh^2(kt / tau)) with an onset tau > 0."""
    if s.onset:
        return _onset_clock(kt, s.onset), s.k * tanh(kt / s.onset) ** 2
    return kt, s.k


def epsilon_at(s: RampSchedule, t: float) -> float:
    """Distance from criticality epsilon(t) = [phi(k t)^xi + 1]^{-1} = 1 - eta^2."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    phi, _ = _clock(s, s.k * t)
    return float(1.0 / (phi**s.xi + 1.0))


def eta_at(s: RampSchedule, t: float) -> float:
    """Drive amplitude at time t; exactly 0 at t = 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    w = _clock(s, s.k * t)[0] ** s.xi
    # sqrt(w / (w + 1)) keeps full precision where eta^2 << 1, unlike
    # sqrt(1 - epsilon)
    return sqrt(w / (w + 1.0))


def eta_dot_at(s: RampSchedule, t: float) -> float:
    """Exact time derivative of eta(t).

    With the clock phi = phi(k t) and w = phi^xi:
    d eta/dt = (xi/2) phi^{xi/2 - 1} (w+1)^{-3/2} d phi/dt, where
    d phi/dt = k on the paper's schedule and k tanh^2(k t / tau) with an
    onset.  At t = 0, and where the onset clock underflows to 0, 0.0 is
    returned by contract: on the paper's schedule the one-sided limit is
    divergent for xi < 2 (eta grows as (k t)^{xi/2} at early times), while
    with an onset it vanishes for xi > 2/3 (eta grows as t^{3 xi / 2}).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    phi, phi_dot = _clock(s, s.k * t)
    if phi == 0.0:  # clock underflow deep inside the onset
        return 0.0
    w = phi**s.xi
    return float(0.5 * s.xi * phi ** (0.5 * s.xi - 1.0) * (w + 1.0) ** -1.5 * phi_dot)


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
    """The bound (k / (3 sqrt2 Omega))^2 on :func:`transition_probability`,
    the first-order near-critical estimate, for every channel.

    It does not bound the simulated leakage.  On the paper's schedule the
    start-up cusp at t = 0 puts the first doublet's population at 2.41e-4
    (173x this bound) at kt 0.31.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return (s.k / (3.0 * sqrt(2.0) * omega)) ** 2
