"""Shared oracles and expensive shared runs for the test suite.

The oracles here are deliberately independent of the package's construction
path: dense matrix exponentials built from scratch, the closed-form Fock
coefficients of the squeezed vacuum, quadrature densities expanded in
Hermite functions, outcome laws read off a truncated Fock-space probe, and
the ramp integrated in the lab frame on a truncated Fock space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import lgamma, log

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from jcsense import analytic, dynamics, fockspace, ramp


def dense_ladder(field_dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.diag(np.sqrt(np.arange(1, field_dim)), k=1).astype(complex)
    return a, a.conj().T


def dense_squeeze(field_dim: int, r: float) -> np.ndarray:
    """Dense matrix exponential of r(a^2 - a^dag^2)/2 on the truncated space."""
    a, ad = dense_ladder(field_dim)
    return expm(r * (a @ a - ad @ ad) / 2)


def dense_displace(field_dim: int, alpha: complex) -> np.ndarray:
    a, ad = dense_ladder(field_dim)
    return expm(alpha * ad - np.conj(alpha) * a)


def squeezed_vacuum_coefficients(field_dim: int, r: float) -> np.ndarray:
    """Closed-form Fock coefficients of S(r)|0>: only even levels populated.

    c_{2m} = (-tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh|r|))
    """
    c = np.zeros(field_dim)
    base = -np.tanh(r)
    for m in range(0, (field_dim - 1) // 2 + 1):
        log_comb = 0.5 * lgamma(2 * m + 1) - m * log(2.0) - lgamma(m + 1)
        c[2 * m] = (base**m) * np.exp(log_comb)
    return c / np.sqrt(np.cosh(r))


def hermite_functions(levels: int, v: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_{levels-1} on the points v.

    Stable two-term recurrence: h_{n+1} = v sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}.
    """
    h = np.zeros((levels, len(v)))
    h[0] = np.pi**-0.25 * np.exp(-0.5 * v * v)
    if levels > 1:
        h[1] = np.sqrt(2.0) * v * h[0]
    for n in range(1, levels - 1):
        h[n + 1] = np.sqrt(2.0 / (n + 1)) * v * h[n] - np.sqrt(n / (n + 1)) * h[n - 1]
    return h


def quadrature_density(amplitudes: np.ndarray, q: np.ndarray, quadrature: str) -> np.ndarray:
    """|psi(q)|^2 of X = (a + a^dag)/2 or P = i(a^dag - a)/2 from Fock amplitudes.

    The X eigenfunction at value q is 2^{1/4} h_n(sqrt2 q); for P the
    amplitudes are first rotated by (-i)^n.
    """
    coeff = np.asarray(amplitudes, dtype=complex)
    if quadrature == "p":
        coeff = coeff * np.power(-1j, np.arange(len(coeff)))
    h = hermite_functions(len(coeff), np.sqrt(2.0) * q)
    return np.abs(2**0.25 * (coeff[:, None] * h).sum(axis=0)) ** 2


def fock_probe(eta: float, n_max: int | None = None) -> fockspace.StateVector:
    """The squeezed-vacuum probe at eta on a truncated Fock space
    (``adaptive_n_max`` by default)."""
    spec = fockspace.HilbertSpec(
        n_max=n_max if n_max is not None else fockspace.adaptive_n_max(eta),
        with_qubit=False,
    )
    return fockspace.squeezed_vacuum(spec, 0.25 * np.log(1 - eta**2))


def photon_count_distribution(eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Photon-count values 0..L and their closed-form law at eta: the
    populations p(n) of S(r)|0> (zero for odd n) on the support
    L = ``analytic.squeezed_vacuum_n_max(eta)``, renormalised there."""
    levels = analytic.squeezed_vacuum_n_max(eta) + 1
    p = analytic.squeezed_vacuum_amplitudes(levels, analytic.squeezing_parameter(eta)) ** 2
    return np.arange(levels, dtype=float), p / p.sum()


def fock_outcome_law(state: fockspace.StateVector, kind: str) -> tuple:
    """An outcome law read off a Fock-space probe.

    photon_number: the levels 0..n_max and the populations |c_n|^2.
    x_squared / p_squared: mean 0 and sigma = sqrt(<psi|Q^2|psi>) of the
    normal law of the quadrature Q.
    """
    psi = state.amplitudes
    if kind == "photon_number":
        p = np.abs(psi) ** 2
        return np.arange(state.spec.dim, dtype=float), p / p.sum()
    op = fockspace.field_observables(state.spec)[kind]
    return 0.0, float(np.sqrt(np.real(np.vdot(psi, op @ psi))))


# the lab-frame oracle's Fock cutoff: twice the headline's adaptive n_max 122
LAB_N_MAX = 244
HEADLINE = ramp.RampSchedule(k=1.0 / 200.0, xi=4.0 / 3.0, eta_target=0.995)
# the same ramp driven through the cusp-free onset clock
ONSET = ramp.RampSchedule(k=1.0 / 200.0, xi=4.0 / 3.0, eta_target=0.995, onset=2.0)


@dataclass
class LabRun:
    """A lab-frame trajectory: the record columns of ``dynamics.evolve`` as
    arrays, and the Fock amplitudes at each record (dim, records)."""

    spec: fockspace.HilbertSpec
    t: np.ndarray
    eta: np.ndarray
    fidelity: np.ndarray
    mean_n: np.ndarray
    var_n: np.ndarray
    mean_x2: np.ndarray
    mean_p2: np.ndarray
    amplitudes: np.ndarray


def lab_trajectory(schedule: ramp.RampSchedule, n_max: int = LAB_N_MAX, omega: float = 1.0) -> LabRun:
    """The ramp integrated in the lab frame, i dPsi/dt = (H_jc + eta H_drive) Psi
    from |0>|g> on Fock levels 0..n_max: scipy's DOP853 on the stacked
    product of -i H_jc and -i H_drive, at rtol 1e-9 and atol 1e-11, and
    201 record times."""
    spec = fockspace.HilbertSpec(n_max=n_max, with_qubit=True)
    h_jc, h_drive = fockspace.jc_hamiltonian_parts(spec, omega)
    stacked = sp.vstack([-1j * h_jc.matrix, -1j * h_drive.matrix], format="csr")
    dim = spec.dim

    def rhs(t, y):
        z = stacked @ y
        return z[:dim] + ramp.eta_at(schedule, t) * z[dim:]

    y0 = np.zeros(dim, dtype=complex)
    y0[0] = 1.0
    times = np.linspace(0.0, schedule.duration, dynamics.DEFAULT_RECORDS + 1)
    sol = solve_ivp(
        rhs, (0.0, times[-1]), y0, method="DOP853",
        rtol=1e-9, atol=1e-11, t_eval=times,
    )
    assert sol.status == 0, sol.message
    obs = fockspace.field_observables(spec)
    num, x2, p2 = obs["photon_number"], obs["x_squared"], obs["p_squared"]
    columns = []
    for psi, t in zip(sol.y.T, times):
        eta = ramp.eta_at(schedule, t)
        mean_n = np.vdot(psi, num @ psi).real
        columns.append((
            t, eta,
            dynamics.fidelity_against_dark(fockspace.StateVector(spec, psi), eta),
            mean_n,
            np.vdot(num @ psi, num @ psi).real - mean_n * mean_n,
            np.vdot(psi, x2 @ psi).real,
            np.vdot(psi, p2 @ psi).real,
        ))
    return LabRun(spec, *map(np.array, zip(*columns)), amplitudes=sol.y)


def dop853_frame(fun, y0, t_eval, *, rtol, atol):
    """``dynamics.solve_ivp``'s signature over scipy's DOP853 at rtol 1e-12
    and atol 1e-14 (the tolerances passed are ignored): the frame's
    equations, ``fun`` called at one time at a time, under an integrator
    independent of the Magnus steps.  The dense output's step boundaries
    give the accepted steps."""
    sol = solve_ivp(
        lambda t, y: fun(np.array([t]), y)[0], (t_eval[0], t_eval[-1]), y0, method="DOP853",
        rtol=1e-12, atol=1e-14, t_eval=t_eval, dense_output=True,
    )
    assert sol.status == 0, sol.message
    return dynamics.Solution(sol.y, sol.nfev, len(sol.sol.ts) - 1)


def frame_amplitudes(schedule: ramp.RampSchedule, solve=None) -> np.ndarray:
    """The frame's amplitudes (states, records) of ``dynamics.evolve`` at
    Omega = 1 and its default tolerances, stepped by ``solve`` (by default
    ``dynamics.solve_ivp``); a warning fails the run."""
    solve = solve or dynamics.solve_ivp
    solutions = []

    def spy(fun, y0, t_eval, **kwargs):
        solutions.append(solve(fun, y0, t_eval, **kwargs))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "solve_ivp", spy)
        frame_run(schedule)
    (sol,) = solutions
    return sol.y


def frame_run(schedule: ramp.RampSchedule) -> dynamics.Trajectory:
    """``dynamics.evolve`` on the schedule at Omega = 1; a warning fails the run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return dynamics.evolve(schedule, 1.0)


@pytest.fixture(scope="session")
def headline_ramp_run():
    """The headline trajectory: k = Omega/200, xi = 4/3, target eta = 0.995.
    The frame's top doublet pair stays below its tolerance, so no warning."""
    return frame_run(HEADLINE)


@pytest.fixture(scope="session")
def headline_lab_oracle():
    """The headline trajectory in the lab frame at n_max 244."""
    return lab_trajectory(HEADLINE)


@pytest.fixture(scope="session")
def onset_lab_oracle():
    """The onset (tau = 2) trajectory in the lab frame at n_max 244."""
    return lab_trajectory(ONSET)
