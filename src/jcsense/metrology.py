"""Fisher-information pipeline: measurement sampling, estimator
construction and the Cramer-Rao comparison.

The probe is the squeezed vacuum S(r)|0> at eta, a Gaussian state, so every
outcome law is closed form in eta and sampling builds no Fock space: photon
counts are 2m with m ~ NegBin(1/2, sech^2 r) (the populations
p(2m) = binom(2m, m) 4^{-m} tanh^{2m}(r) / cosh(r), untruncated), and
quadratures are normal with variances <X^2> = 1/(4u) and <P^2> = u/4
(u = sqrt(1 - eta^2); r and the moments from :mod:`analytic`).  An
estimate inverts its sample mean for u by one rule for every scheme: it
clips to 0 where u > 1 and at ``ETA_CLIP`` = 1 - 1e-9, so sampling accepts
eta in [0, ETA_CLIP].  Every clipped estimate is flagged with
:class:`EstimateClippedWarning`: one per call of :func:`estimate_eta`, one
per replica fan with the count at each bound.
Sampling is deterministic per (seed, scheme, eta).  A replica fan
estimates from sample means only, so each replica draws its nu-shot total
from the sum's own closed-form law, NegBin(nu/2, sech^2 r) pairs or
Gamma(nu/2, scale 2 sigma^2), in one draw from its own generator: replica
seeds are spawned seed sequences, so accumulation order never matters.
:func:`replica_fan` returns a :class:`ReplicaFan`, the totals, their
estimates and the clip count at each bound, from which its warning,
:func:`cramer_rao_ratio` and the ``cramer_rao`` experiment all read.
Detector imperfections are not modeled.

:func:`inverted_variance_numeric` cross-checks the Fisher figures of merit
in Fock space, with N, X^2 and P^2 from :func:`fockspace.field_observables`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, fockspace
from .fockspace import StateVector

SCHEME_KINDS = ("photon_number", "x_squared", "p_squared")

DEFAULT_REPLICAS = 500

ETA_CLIP = 1.0 - 1e-9


class EstimateClippedWarning(UserWarning):
    """Emitted when an estimate is clipped to 0 or ``ETA_CLIP``."""


def _is_integer(value) -> bool:
    """Whether a count (shots, seed, replicas) is a Python or numpy integer;
    a bool is not.  A float would reach numpy as a shape parameter or a
    spawn count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MeasurementScheme:
    """Observable choice and number of independent repetitions."""

    kind: str
    shots: int

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        if not _is_integer(self.shots):
            raise ValueError(f"shots must be an integer, got {self.shots!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class ReplicaFan:
    """One replica fan: each replica's nu-shot outcome total and its
    estimate, and how many estimates clipped to 0 and to ``ETA_CLIP``."""

    totals: np.ndarray
    estimates: np.ndarray
    clipped_to_zero: int
    clipped_to_eta_clip: int


def mean_and_variance(state: StateVector, op) -> tuple[float, float]:
    """Expectation value and variance of a sparse observable in a pure state."""
    psi = state.amplitudes
    op_psi = op @ psi
    mean = float(np.real(np.vdot(psi, op_psi)))
    sq = float(np.real(np.vdot(psi, op @ op_psi)))
    return mean, sq - mean * mean


def inverted_variance_numeric(state: StateVector, scheme: MeasurementScheme, eta: float) -> float:
    """Classical Fisher figure of merit (d_eta <O>)^2 / Var[O] from Fock space.

    ``state`` is the squeezed-vacuum probe at eta; the states at the stencil
    points of :func:`analytic.richardson_derivative` (eta +/- h and
    eta +/- h/2, h = ``analytic.FD_STEP``) are rebuilt on the same cutoff.
    Matches the closed-form quantum Fisher information to relative 1e-3 for
    eta <= 0.9.

    Raises ValueError when Var[O] vanishes (eta = 0 for the photon-number
    and x/p-squared observables), where the ratio is undefined.
    """
    if state.spec.with_qubit:
        raise ValueError("metrology operates on field-only states")
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    h = analytic.FD_STEP
    if not (0.0 < eta - h and eta + h < 1.0):
        raise ValueError(f"need 0 < eta-h and eta+h < 1 (h = {h}), got eta={eta}")
    spec = state.spec
    op = fockspace.field_observables(spec)[scheme.kind]
    mean, var = mean_and_variance(state, op)
    if var <= 0.0:
        raise ValueError(f"Var[{scheme.kind}] vanishes at eta={eta}; ratio undefined")

    def mean_at(e: float) -> float:
        probe = fockspace.squeezed_vacuum(spec, analytic.squeezing_parameter(e))
        return float(np.real(np.vdot(probe.amplitudes, op @ probe.amplitudes)))

    deriv = analytic.richardson_derivative(mean_at, eta)
    return deriv * deriv / var


def _require_estimable(eta: float) -> None:
    if not 0.0 <= eta <= ETA_CLIP:
        raise ValueError(
            f"eta must be in [0, ETA_CLIP = 1 - 1e-9], where estimates lie, got {eta}"
        )


def _require_seed(seed) -> None:
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def quadrature_distribution(eta: float, kind: str) -> tuple[float, float]:
    """Gaussian law (mean 0, standard deviation sigma) of the X (or P) quadrature.

    The probe at eta is a squeezed vacuum, whose quadratures are exactly
    normal with zero mean and sigma^2 = <X^2> = 1/(4u) or <P^2> = u/4
    (u = sqrt(1 - eta^2)), taken from :func:`analytic.evaluate`.
    """
    if kind not in ("x_squared", "p_squared"):
        raise ValueError(f"no quadrature distribution for kind {kind!r}")
    _require_estimable(eta)
    point = analytic.evaluate(eta)
    second_moment = point.mean_x2 if kind == "x_squared" else point.mean_p2
    return 0.0, float(np.sqrt(second_moment))


def _outcome_law(eta: float, kind: str) -> float:
    """The one parameter of the outcome law at eta: sech^2 r of the photon
    pairs' NegBin(1/2, sech^2 r), or the standard deviation sigma of a
    quadrature."""
    if kind == "photon_number":
        _require_estimable(eta)
        return float(np.cosh(analytic.squeezing_parameter(eta)) ** -2)
    return quadrature_distribution(eta, kind)[1]


def sample_outcomes(eta: float, scheme: MeasurementScheme, seed) -> np.ndarray:
    """Draw ``scheme.shots`` measurement outcomes from the probe at eta.

    photon_number: counts 2m with m ~ NegBin(1/2, sech^2 r), the exact law
    of the squeezed vacuum's populations, drawn as
    ``2 * rng.negative_binomial(0.5, sech^2 r, shots)``.
    x_squared / p_squared: the values of ``rng.normal(0, sigma, shots) ** 2``
    with sigma from :func:`quadrature_distribution`.

    Deterministic for a fixed (seed, scheme, eta); ``seed`` is a numpy
    SeedSequence or a non-negative integer, as for :func:`replica_fan`.
    Raises ValueError for any other seed and for eta outside [0, ETA_CLIP].
    """
    if not isinstance(seed, np.random.SeedSequence):
        _require_seed(seed)
    law = _outcome_law(eta, scheme.kind)
    rng = np.random.default_rng(seed)
    if scheme.kind == "photon_number":
        return 2.0 * rng.negative_binomial(0.5, law, scheme.shots)
    return rng.normal(0.0, law, scheme.shots) ** 2


def _estimates(means, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """eta_hat for sample means m >= 0 of one scheme, clipped to [0, ETA_CLIP],
    and whether each was clipped.  Each mean map is inverted for
    u = sqrt(1 - eta^2): <N> = (1-u)^2/(4u) by its cancellation-free root
    u = 1/(b + sqrt(b^2 - 1)), b = 1 + 2m; <X^2> = 1/(4u); <P^2> = u/4.
    A mean with u > 1 clips to 0 and an estimate past ETA_CLIP to ETA_CLIP;
    u = 1 (an all-zero photon record) maps exactly to 0 and is not a clip.
    An overflow makes u or u^2 0 or inf, which clips the same way."""
    m = np.asarray(means, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        if kind == "photon_number":
            b = 1.0 + 2.0 * m
            u = 1.0 / (b + np.sqrt(b * b - 1.0))
        elif kind == "x_squared":
            u = 1.0 / (4.0 * m)
        else:
            u = 4.0 * m
        eta_hat = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return np.minimum(eta_hat, ETA_CLIP), (u > 1.0) | (eta_hat > ETA_CLIP)


def _require_counts_or_squares(values: np.ndarray, kind: str) -> None:
    """Raise ValueError unless every value is finite and >= 0, as each
    scheme's outcomes (counts or squares) and their totals are."""
    bad = values[~(np.isfinite(values) & (values >= 0.0))]
    if bad.size:
        raise ValueError(f"{kind} outcomes are counts or squares, finite and >= 0, "
                         f"got {float(bad[0])!r}")


def estimate_eta(outcomes: np.ndarray, scheme: MeasurementScheme) -> float:
    """Method-of-moments estimate of the drive amplitude.

    Solves <O>(eta_hat) = sample mean through the closed-form mean maps,
    each strictly monotone in eta, so the inverse is unique.  The estimate
    is clipped to [0, ETA_CLIP]: a sample mean outside the physical range
    (possible at small shot counts) clips to 0 and an estimate past the
    bound to ETA_CLIP, each flagged with :class:`EstimateClippedWarning`.
    Every outcome is a count or a square, so a non-finite or negative one
    raises ValueError.  A record of finite outcomes whose sum overflows is
    averaged as the sum of outcome / size.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.size == 0:
        raise ValueError("cannot estimate from an empty outcome array")
    _require_counts_or_squares(outcomes, scheme.kind)
    with np.errstate(over="ignore"):
        m = float(outcomes.mean())
    if m == np.inf:  # the outcomes are finite, so only their sum overflowed
        m = float((outcomes / outcomes.size).sum())
    eta_hat, clipped = _estimates(m, scheme.kind)
    eta_hat = float(eta_hat)
    if clipped:
        warnings.warn(
            f"sample mean {m:.6g} of {scheme.kind} maps outside [0, ETA_CLIP]; "
            f"estimate clipped to {eta_hat!r}",
            EstimateClippedWarning,
            stacklevel=2,
        )
    return eta_hat


def replica_fan(eta: float, scheme: MeasurementScheme, replicas: int, seed=0) -> ReplicaFan:
    """``replicas`` independent experiments of one scheme at eta.

    An estimate inverts the sample mean, which depends on the nu =
    ``scheme.shots`` outcomes only through their total, and the total has a
    closed-form law: 2 NegBin(nu/2, sech^2 r) for photon counts and
    Gamma(nu/2, scale 2 sigma^2) for a squared quadrature.  So each replica
    makes one draw of its total from its own generator, and one call of
    ``_estimates(totals / nu)``, the inversion :func:`estimate_eta` applies
    to a sample mean, gives the fan's estimates and its clip counts.  The
    law is built once per fan, with no Fock space.  ``replicas`` is an
    integer >= 2 and ``seed`` a non-negative integer (each a Python or
    numpy int, not a bool; anything else raises ValueError), and the
    replica seeds are spawned from ``np.random.SeedSequence(seed)``, so
    results are reproducible and independent of execution order.  When estimates clip, one
    :class:`EstimateClippedWarning` states the fan's two clip counts.
    Raises ValueError for eta outside [0, ETA_CLIP], where every estimate
    clips.
    """
    if not _is_integer(replicas) or replicas < 2:
        raise ValueError(f"replicas must be an integer >= 2, got {replicas!r}")
    _require_seed(seed)
    kind, nu = scheme.kind, scheme.shots
    law = _outcome_law(eta, kind)
    photons = kind == "photon_number"
    scale = 2.0 * law * law  # of a quadrature total's Gamma law
    totals = np.empty(replicas)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(replicas)):
        # the generator np.random.default_rng(child) builds, without its
        # dispatch on the seed's type
        rng = np.random.Generator(np.random.PCG64(child))
        totals[i] = (2.0 * rng.negative_binomial(0.5 * nu, law) if photons
                     else rng.gamma(0.5 * nu, scale))
    estimates, clipped = _estimates(totals / nu, kind)
    upper = int((estimates[clipped] == ETA_CLIP).sum())
    fan = ReplicaFan(totals, estimates, int(clipped.sum()) - upper, upper)
    if clipped.any():
        warnings.warn(
            f"{fan.clipped_to_zero} of {replicas} {kind} estimates at eta={eta} "
            f"with {nu} shots clipped to 0 and {upper} to ETA_CLIP",
            EstimateClippedWarning,
            stacklevel=2,
        )
    return fan


def cramer_rao_ratio(eta: float, scheme: MeasurementScheme, replicas: int = DEFAULT_REPLICAS,
                     seed=0) -> tuple[float, float]:
    """Monte-Carlo check of the Cramer-Rao bound at one (eta, scheme) point.

    Runs the :func:`replica_fan` of ``replicas`` independent estimation
    experiments of ``scheme.shots`` outcomes each (``seed`` as there) and
    returns (nu * Var[eta_hat] * QFI, mean eta_hat), with the fan's sample
    variance (ddof=1).  The first value approaches 1 from the saturation
    side as the shot count grows.
    """
    estimates = replica_fan(eta, scheme, replicas, seed=seed).estimates
    var = float(estimates.var(ddof=1))
    qfi = analytic.evaluate(eta).qfi
    return scheme.shots * var * qfi, float(estimates.mean())
