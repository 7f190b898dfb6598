"""Fisher-information pipeline: measurement sampling, estimator
construction, Cramer-Rao comparison, and the near-critical scaling fits.

Measurement outcomes are drawn from exact probe-state distributions:
photon-number statistics directly from the Fock amplitudes, quadrature
statistics from the wavefunction expanded in Hermite functions on a uniform
grid.  Sampling is deterministic per (seed, scheme, state); replica fans
use spawned seed sequences so accumulation order never matters, and build
the probe's outcome distribution once, drawing every replica from it.
Detector imperfections are not modeled.

The observables N, X^2 and P^2 come from :func:`fockspace.field_observables`.
The scaling fits map kt onto the closed forms through one helper,
:func:`paper_ramp_points`, which evaluates the paper's schedule (onset 0)
and calls :func:`analytic.evaluate` once on the whole kt array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, fockspace
from .fockspace import HilbertSpec, StateVector

SCHEME_KINDS = ("photon_number", "x_squared", "p_squared")

# quadrature grid policy: half-width in units of sqrt(<Q^2>), minimum points
QUAD_GRID_SIGMAS = 6.0
QUAD_GRID_POINTS = 4096
QUAD_MASS_TOL = 1e-8

DEFAULT_D_ETA = 1e-4
DEFAULT_REPLICAS = 500

ETA_CLIP = 1.0 - 1e-9


class EstimateClippedWarning(UserWarning):
    """Emitted when a sample mean falls outside the invertible range."""


@dataclass(frozen=True)
class MeasurementScheme:
    """Observable choice and number of independent repetitions."""

    kind: str
    shots: int

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope of one quantity along the ramp versus kt."""

    quantity: str
    fitted_exponent: float
    expected_exponent: float
    r_squared: float


def _require_field_state(state: StateVector) -> None:
    if state.spec.with_qubit:
        raise ValueError("metrology operates on field-only states")
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("state must be normalized")


def mean_and_variance(state: StateVector, op) -> tuple[float, float]:
    """Expectation value and variance of a sparse observable in a pure state."""
    psi = state.amplitudes
    mean = float(np.real(np.vdot(psi, op @ psi)))
    sq = float(np.real(np.vdot(psi, op @ (op @ psi))))
    return mean, sq - mean * mean


def inverted_variance_numeric(
    state: StateVector,
    scheme: MeasurementScheme,
    eta: float,
    d_eta: float = DEFAULT_D_ETA,
) -> float:
    """Classical Fisher figure of merit (d_eta <O>)^2 / Var[O] from Fock space.

    ``state`` is the squeezed-vacuum probe at eta; the states at the stencil
    points eta +/- d_eta (and half steps, for one Richardson pass) are
    rebuilt internally on the same cutoff.  Matches the closed-form quantum
    Fisher information to relative 1e-3 for eta <= 0.9.

    Raises ValueError when Var[O] vanishes (eta = 0 for the photon-number
    and x/p-squared observables), where the ratio is undefined.
    """
    _require_field_state(state)
    if not (0.0 < eta - d_eta and eta + d_eta < 1.0):
        raise ValueError(f"need 0 < eta-d_eta and eta+d_eta < 1, got eta={eta}")
    spec = state.spec
    op = fockspace.field_observables(spec)[scheme.kind]
    mean, var = mean_and_variance(state, op)
    if var <= 0.0:
        raise ValueError(f"Var[{scheme.kind}] vanishes at eta={eta}; ratio undefined")

    def mean_at(e: float) -> float:
        probe = fockspace.squeezed_vacuum(spec, fockspace.squeezing_parameter(e))
        return float(np.real(np.vdot(probe.amplitudes, op @ probe.amplitudes)))

    d_full = (mean_at(eta + d_eta) - mean_at(eta - d_eta)) / (2.0 * d_eta)
    d_half = (mean_at(eta + d_eta / 2) - mean_at(eta - d_eta / 2)) / d_eta
    deriv = (4.0 * d_half - d_full) / 3.0
    return deriv * deriv / var


def _hermite_functions(levels: int, v: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_{levels-1} on the grid v.

    Stable two-term recurrence: h_{n+1} = v sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}.
    """
    h = np.zeros((levels, len(v)))
    h[0] = np.pi**-0.25 * np.exp(-0.5 * v * v)
    if levels > 1:
        h[1] = np.sqrt(2.0) * v * h[0]
    for n in range(1, levels - 1):
        h[n + 1] = np.sqrt(2.0 / (n + 1)) * v * h[n] - np.sqrt(n / (n + 1)) * h[n - 1]
    return h


def quadrature_distribution(
    state: StateVector, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Grid and probability weights of the X (or P) quadrature distribution.

    The wavefunction in the quadrature eigenbasis is the Hermite-function
    expansion of the Fock amplitudes; for P the amplitudes are first rotated
    by (-i)^n.  The grid spans +/- 6 standard deviations of the respective
    quadrature with 4096 points; a warning is emitted when the captured
    probability mass is not within 1e-8 of unity.
    """
    _require_field_state(state)
    if kind == "x_squared":
        coeff = state.amplitudes
        op = fockspace.quadrature_x(state.spec).matrix
    elif kind == "p_squared":
        coeff = state.amplitudes * np.power(-1j, np.arange(state.spec.dim))
        op = fockspace.quadrature_p(state.spec).matrix
    else:
        raise ValueError(f"no quadrature distribution for kind {kind!r}")
    second_moment = float(np.real(np.vdot(state.amplitudes, op @ (op @ state.amplitudes))))
    half_width = QUAD_GRID_SIGMAS * np.sqrt(max(second_moment, 0.25))
    grid = np.linspace(-half_width, half_width, QUAD_GRID_POINTS)
    # X = (a + a^dag)/2 eigenfunctions at value u: 2^{1/4} h_n(sqrt2 u)
    h = _hermite_functions(state.spec.dim, np.sqrt(2.0) * grid)
    psi = 2**0.25 * (coeff[:, None] * h).sum(axis=0)
    pdf = np.abs(psi) ** 2
    weights = pdf * (grid[1] - grid[0])
    mass = weights.sum()
    if not (1.0 - QUAD_MASS_TOL <= mass <= 1.0 + QUAD_MASS_TOL):
        warnings.warn(
            f"quadrature grid captures probability mass {mass:.12f}; "
            "distribution is under-resolved",
            stacklevel=2,
        )
    return grid, weights / mass


def _outcome_distribution(
    state: StateVector, kind: str
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Outcome values, their probabilities, and whether draws are squared.

    photon_number: the values 0..dim-1 with p(n) = |<n|phi>|^2.
    x_squared / p_squared: the quadrature grid and weights of
    :func:`quadrature_distribution`; draws are squared.
    """
    _require_field_state(state)
    if kind == "photon_number":
        p = np.abs(state.amplitudes) ** 2
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        return np.arange(state.spec.dim, dtype=float), p, False
    grid, weights = quadrature_distribution(state, kind)
    return grid, weights, True


def _draw(
    distribution: tuple[np.ndarray, np.ndarray, bool], shots: int, seed
) -> np.ndarray:
    values, weights, square = distribution
    draws = np.random.default_rng(seed).choice(values, size=shots, p=weights)
    return draws**2 if square else draws


def sample_outcomes(
    state: StateVector, scheme: MeasurementScheme, seed
) -> np.ndarray:
    """Draw ``scheme.shots`` measurement outcomes from the probe state.

    photon_number: integer draws from p(n) = |<n|phi>|^2.
    x_squared / p_squared: draws of the quadrature value from its
    distribution, returned already squared.

    Deterministic for a fixed (seed, scheme, state); ``seed`` may be an
    integer or a numpy SeedSequence.
    """
    return _draw(_outcome_distribution(state, scheme.kind), scheme.shots, seed)


def _invert_mean_n(m: float) -> float:
    # <N> = (1-u)^2/(4u) with u = sqrt(1-eta^2); quadratic in u, written in
    # the cancellation-free form of the root in (0, 1]
    b = 1.0 + 2.0 * m
    u = 1.0 / (b + np.sqrt(b * b - 1.0))
    return float(np.sqrt(max(0.0, 1.0 - u * u)))


def estimate_eta(outcomes: np.ndarray, scheme: MeasurementScheme) -> float:
    """Method-of-moments estimate of the drive amplitude.

    Solves <O>(eta_hat) = sample mean through the closed-form mean maps,
    each strictly monotone in eta, so the inverse is unique.  The estimate
    is clipped to [0, 1 - 1e-9]; a sample mean outside the physical range
    (possible at small shot counts) is clipped to the boundary and flagged
    with :class:`EstimateClippedWarning`.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.size == 0:
        raise ValueError("cannot estimate from an empty outcome array")
    m = float(outcomes.mean())
    if scheme.kind == "photon_number":
        if m <= 0.0:
            if m < 0.0:
                _warn_clip(m, scheme)
            return 0.0
        eta_hat = _invert_mean_n(m)
    elif scheme.kind == "x_squared":
        # <X^2> = 1/(4u), increasing in eta from 1/4
        if m <= 0.25:
            if m < 0.25:
                _warn_clip(m, scheme)
            return 0.0
        u = 1.0 / (4.0 * m)
        eta_hat = float(np.sqrt(1.0 - u * u))
    else:
        # <P^2> = u/4, decreasing in eta from 1/4
        if m >= 0.25:
            if m > 0.25:
                _warn_clip(m, scheme)
            return 0.0
        u = 4.0 * m
        eta_hat = float(np.sqrt(1.0 - u * u))
    return min(eta_hat, ETA_CLIP)


def _warn_clip(m: float, scheme: MeasurementScheme) -> None:
    warnings.warn(
        f"sample mean {m:.6g} of {scheme.kind} lies outside the physical "
        "range; estimate clipped to the boundary",
        EstimateClippedWarning,
        stacklevel=3,
    )


def replica_estimates(
    eta: float,
    scheme: MeasurementScheme,
    replicas: int,
    seed=0,
    n_max: int | None = None,
    outcome_sink: list | None = None,
) -> np.ndarray:
    """Estimates from ``replicas`` independent experiments of one scheme.

    Replica seeds are spawned from ``seed`` (splittable SeedSequence), so
    results are reproducible and independent of execution order.  The
    probe's outcome distribution is built once and every replica draws from
    it, exactly as :func:`sample_outcomes` would with the replica's seed.
    When ``outcome_sink`` is a list, the raw outcome array of every replica
    is appended to it (outcomes are not retained otherwise).
    """
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {replicas}")
    spec = HilbertSpec(
        n_max=n_max if n_max is not None else fockspace.adaptive_n_max(eta),
        with_qubit=False,
    )
    probe = fockspace.squeezed_vacuum(spec, fockspace.squeezing_parameter(eta))
    distribution = _outcome_distribution(probe, scheme.kind)
    children = np.random.SeedSequence(seed).spawn(replicas)
    estimates = np.empty(replicas)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EstimateClippedWarning)
        for i, child in enumerate(children):
            outcomes = _draw(distribution, scheme.shots, child)
            if outcome_sink is not None:
                outcome_sink.append(outcomes)
            estimates[i] = estimate_eta(outcomes, scheme)
    return estimates


def cramer_rao_ratio(
    eta: float,
    scheme: MeasurementScheme,
    replicas: int = DEFAULT_REPLICAS,
    seed=0,
    n_max: int | None = None,
    outcome_sink: list | None = None,
) -> tuple[float, float]:
    """Monte-Carlo check of the Cramer-Rao bound at one (eta, scheme) point.

    Runs ``replicas`` independent estimation experiments of ``scheme.shots``
    outcomes each and returns (nu * Var[eta_hat] * QFI, mean eta_hat).  The
    first value approaches 1 from the saturation side as the shot count
    grows.
    """
    estimates = replica_estimates(
        eta, scheme, replicas, seed=seed, n_max=n_max, outcome_sink=outcome_sink
    )
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


def paper_ramp_points(schedule, kt_points) -> tuple[np.ndarray, analytic.AnalyticPoint]:
    """Distance from criticality and the closed forms at each kt of the ramp.

    epsilon = 1/((kt)^xi + 1) is the paper's schedule (onset 0); an onset
    schedule is rejected, because its clock is not kt.
    """
    if schedule.onset:
        raise ValueError(
            f"the closed-form ramp points assume the paper's schedule (onset 0), "
            f"got onset {schedule.onset}"
        )
    kt_points = np.asarray(kt_points, dtype=float)
    eps = 1.0 / (kt_points**schedule.xi + 1.0)
    return eps, analytic.evaluate(np.sqrt(1.0 - eps))


def scaling_experiment(
    schedule, kt_points: np.ndarray
) -> list[ScalingFit]:
    """Near-critical scaling fits along the ramp (closed-form route).

    At each kt the drive amplitude eta(kt) follows the schedule and the
    inverted variance, mean photon number and distance from criticality are
    evaluated in closed form; their log-log slopes against kt approach
    8/3, 2/3 and -4/3 for the xi = 4/3 schedule.

    Requires at least 8 points, all with kt >= 10 (below that the power-law
    regime has not set in), and the paper's xi = 4/3 schedule (onset 0).
    """
    kt_points = np.asarray(kt_points, dtype=float)
    if kt_points.size < 8:
        raise ValueError(f"need at least 8 kt points, got {kt_points.size}")
    if kt_points.min() < 10.0:
        raise ValueError("scaling fits need kt >= 10 everywhere")
    if abs(schedule.xi - 4.0 / 3.0) > 1e-12:
        raise ValueError("the scaling exponents assume the xi = 4/3 schedule")

    eps, points = paper_ramp_points(schedule, kt_points)
    series = {
        "inverted_variance": (points.qfi, 8.0 / 3.0),
        "mean_n": (points.mean_n, 2.0 / 3.0),
        "epsilon": (eps, -4.0 / 3.0),
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

    Evaluates the paper's schedule (onset 0) in closed form.
    """
    kt_points = np.asarray(kt_points, dtype=float)
    _, points = paper_ramp_points(schedule, kt_points)
    return points.qfi / (points.mean_n * kt_points**2)
