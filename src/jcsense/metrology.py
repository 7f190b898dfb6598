"""Fisher-information pipeline: measurement sampling, estimator
construction, Cramer-Rao comparison, and the near-critical scaling fits.

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
Detector imperfections are not modeled.

:func:`inverted_variance_numeric` cross-checks the Fisher figures of merit
in Fock space, with N, X^2 and P^2 from :func:`fockspace.field_observables`.
The scaling fits map kt onto the closed forms through one helper,
:func:`paper_ramp_points`, which reads the schedule's clock from
:mod:`ramp` (the paper's kt, or the onset clock) and calls
:func:`analytic.evaluate` once on the whole kt array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, fockspace, ramp
from .fockspace import StateVector

SCHEME_KINDS = ("photon_number", "x_squared", "p_squared")

DEFAULT_REPLICAS = 500

ETA_CLIP = 1.0 - 1e-9


class EstimateClippedWarning(UserWarning):
    """Emitted when an estimate is clipped to 0 or ``ETA_CLIP``."""


@dataclass(frozen=True)
class MeasurementScheme:
    """Observable choice and number of independent repetitions."""

    kind: str
    shots: int

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        # a non-integer count would pass the samplers' shape parameter nu/2
        if not isinstance(self.shots, (int, np.integer)) or isinstance(self.shots, bool):
            raise ValueError(f"shots must be an integer, got {self.shots!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope of one quantity along the ramp versus kt."""

    quantity: str
    fitted_exponent: float
    expected_exponent: float
    r_squared: float


def mean_and_variance(state: StateVector, op) -> tuple[float, float]:
    """Expectation value and variance of a sparse observable in a pure state."""
    psi = state.amplitudes
    mean = float(np.real(np.vdot(psi, op @ psi)))
    sq = float(np.real(np.vdot(psi, op @ (op @ psi))))
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

    Deterministic for a fixed (seed, scheme, eta); ``seed`` may be an
    integer or a numpy SeedSequence.  Raises ValueError for eta outside
    [0, ETA_CLIP].
    """
    law = _outcome_law(eta, scheme.kind)
    rng = np.random.default_rng(seed)
    if scheme.kind == "photon_number":
        return 2.0 * rng.negative_binomial(0.5, law, scheme.shots)
    # normal returns 0.0 + sigma * standard_normal, which differs from
    # sigma * standard_normal only in the sign of a zero, and squaring drops it
    z = rng.standard_normal(scheme.shots)
    z *= law
    return np.square(z, out=z)


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
    raises ValueError.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.size == 0:
        raise ValueError("cannot estimate from an empty outcome array")
    _require_counts_or_squares(outcomes, scheme.kind)
    m = float(outcomes.mean())
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


def replica_estimates(
    eta: float,
    scheme: MeasurementScheme,
    replicas: int,
    seed=0,
    outcome_sink: list | None = None,
) -> np.ndarray:
    """Estimates from ``replicas`` independent experiments of one scheme at eta.

    An estimate inverts the sample mean, which depends on the nu =
    ``scheme.shots`` outcomes only through their total, and the total has a
    closed-form law: 2 NegBin(nu/2, sech^2 r) for photon counts and
    Gamma(nu/2, scale 2 sigma^2) for a squared quadrature.  So each replica
    makes one draw of its total from its own generator, and one call of
    ``_estimates(totals / nu)``, the inversion :func:`estimate_eta` applies
    to a sample mean, gives the fan's estimates.  The law is built once per
    fan, with no Fock space.  Replica seeds are spawned from ``seed``
    (splittable SeedSequence), so results are reproducible and independent
    of execution order.  When ``outcome_sink`` is a list, every replica's
    nu-shot total is appended to it, as a float.  When estimates clip, one
    :class:`EstimateClippedWarning` gives the count at each bound.  Raises
    ValueError for eta outside [0, ETA_CLIP], where every estimate clips.
    """
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {replicas}")
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
    if outcome_sink is not None:
        outcome_sink.extend(totals.tolist())
    estimates, clipped = _estimates(totals / nu, kind)
    if clipped.any():
        upper = int((estimates[clipped] == ETA_CLIP).sum())
        warnings.warn(
            f"{clipped.sum() - upper} of {replicas} {kind} estimates at eta={eta} "
            f"with {nu} shots clipped to 0 and {upper} to ETA_CLIP",
            EstimateClippedWarning,
            stacklevel=2,
        )
    return estimates


def clip_counts(totals, scheme: MeasurementScheme) -> tuple[int, int]:
    """How many of the replica totals that :func:`replica_estimates` appends
    to its sink give an estimate clipped to 0, and how many to ETA_CLIP.
    Raises ValueError for a non-finite or negative total."""
    totals = np.asarray(totals, dtype=float)
    _require_counts_or_squares(totals, scheme.kind)
    eta_hat, clipped = _estimates(totals / scheme.shots, scheme.kind)
    upper = int((eta_hat[clipped] == ETA_CLIP).sum())
    return int(clipped.sum()) - upper, upper


def cramer_rao_ratio(
    eta: float,
    scheme: MeasurementScheme,
    replicas: int = DEFAULT_REPLICAS,
    seed=0,
    outcome_sink: list | None = None,
) -> tuple[float, float]:
    """Monte-Carlo check of the Cramer-Rao bound at one (eta, scheme) point.

    Runs ``replicas`` independent estimation experiments of ``scheme.shots``
    outcomes each and returns (nu * Var[eta_hat] * QFI, mean eta_hat).  The
    first value approaches 1 from the saturation side as the shot count
    grows.
    """
    estimates = replica_estimates(eta, scheme, replicas, seed=seed, outcome_sink=outcome_sink)
    var = float(estimates.var(ddof=1))
    qfi = analytic.evaluate(eta).qfi
    return scheme.shots * var * qfi, float(estimates.mean())


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    lx, ly = np.log(x), np.log(y)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ np.array([slope, intercept])
    total = ((ly - ly.mean()) ** 2).sum()
    r2 = 1.0 - float((resid**2).sum() / total) if total > 0 else 1.0
    return float(slope), r2


def paper_ramp_points(schedule, kt_points) -> analytic.AnalyticPoint:
    """The closed forms at each kt of the ramp.

    With w = phi(kt)^xi on the schedule's own clock, every closed form is
    evaluated from epsilon = 1/(w + 1) and eta^2 = w/(w + 1) themselves, so
    ``.epsilon`` is exact: re-deriving it from the rounded eta would lose
    the digits that cancel in 1 - eta^2 (2.8e-11 relative at kt = 1e4).
    """
    phi = np.array([ramp._clock(schedule, kt)[0] for kt in kt_points], dtype=float)
    w = phi**schedule.xi
    eta2 = w / (w + 1.0)
    return analytic._evaluate(np.sqrt(eta2), eta2, 1.0 / (w + 1.0))


def scaling_experiment(
    schedule, kt_points: np.ndarray
) -> list[ScalingFit]:
    """Near-critical scaling fits along the ramp (closed-form route).

    At each kt the drive amplitude eta(kt) follows the schedule and the
    inverted variance, mean photon number and distance from criticality are
    evaluated in closed form; their log-log slopes against kt approach
    8/3, 2/3 and -4/3 for the xi = 4/3 schedule.

    Requires at least 8 points, all with kt >= 10 (below that the power-law
    regime has not set in), and the paper's xi = 4/3 exponent; the clock
    may carry an onset.
    """
    kt_points = np.asarray(kt_points, dtype=float)
    if kt_points.size < 8:
        raise ValueError(f"need at least 8 kt points, got {kt_points.size}")
    if kt_points.min() < 10.0:
        raise ValueError("scaling fits need kt >= 10 everywhere")
    if abs(schedule.xi - 4.0 / 3.0) > 1e-12:
        raise ValueError("the scaling exponents assume the xi = 4/3 schedule")

    points = paper_ramp_points(schedule, kt_points)
    series = {
        "inverted_variance": (points.qfi, 8.0 / 3.0),
        "mean_n": (points.mean_n, 2.0 / 3.0),
        "epsilon": (points.epsilon, -4.0 / 3.0),
    }
    fits = []
    for name, (values, expected) in series.items():
        slope, r2 = _loglog_fit(kt_points, values)
        fits.append(
            ScalingFit(
                quantity=name,
                fitted_exponent=slope,
                expected_exponent=expected,
                r_squared=r2,
            )
        )
    return fits


def heisenberg_ratio(schedule, kt_points: np.ndarray) -> np.ndarray:
    """F / (<N> (kt)^2) along the ramp; constant where the scaling law holds.

    Evaluated in closed form on the schedule's own clock.
    """
    kt_points = np.asarray(kt_points, dtype=float)
    points = paper_ramp_points(schedule, kt_points)
    return points.qfi / (points.mean_n * kt_points**2)
