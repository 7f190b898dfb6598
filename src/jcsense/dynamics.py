"""Schrodinger integration of the driven qubit-photon system along a ramp.

The time dependence enters only through the drive amplitude, so the
Hamiltonian is assembled once as H(t) = H_jc + eta(t) * H_drive.  Both
parts, times -i, are stacked into one (2 dim, dim) CSR operator, and each
right-hand-side evaluation is one direct call of scipy's ``csr_matvec``
kernel on its arrays: the same kernel ``stacked @ y`` reaches, without the
Python dispatch in front of it, so the trajectory is bit-identical.  Every
evaluation returns a new array, because the integrator keeps the returned
derivative as the next step's first stage; a reused output buffer would be
overwritten under it.  The integrator is an adaptive embedded Runge-Kutta
pair of order 8 (DOP853) with PI step control; norm conservation is tracked
as a per-record diagnostic rather than enforced.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse._sparsetools import csr_matvec

from . import fockspace, ramp
from .fockspace import HilbertSpec, StateVector, TruncationWarning

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
DEFAULT_RECORDS = 200

# field tail mass above which a trajectory is flagged as truncation-limited
EVOLVE_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class EvolutionConfig:
    """Inputs for one ramp trajectory.

    ``record_every`` is the sampling stride in kt units; None means 200
    uniform samples over the whole ramp.  ``t_final`` overrides the schedule
    duration and is required for a frozen schedule (k = 0).  Both must be
    finite and > 0 when given.
    """

    omega: float
    schedule: ramp.RampSchedule
    spec: HilbertSpec
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    record_every: float | None = None
    t_final: float | None = None

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be > 0")
        if not self.spec.with_qubit:
            raise ValueError("trajectories live on the composite space")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.schedule.k == 0 and self.t_final is None:
            raise ValueError("a frozen schedule (k = 0) needs an explicit t_final")
        for name in ("record_every", "t_final"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sampled point of a trajectory."""

    t: float
    eta: float
    fidelity: float
    mean_n: float
    var_n: float
    mean_x2: float
    mean_p2: float
    norm_defect: float


def _record_times(cfg: EvolutionConfig) -> np.ndarray:
    t_end = cfg.t_final if cfg.t_final is not None else cfg.schedule.duration
    if cfg.record_every is None:
        return np.linspace(0.0, t_end, DEFAULT_RECORDS + 1)
    if cfg.schedule.k == 0:
        stride_t = cfg.record_every  # kt is degenerate; treat stride as time
    else:
        stride_t = cfg.record_every / cfg.schedule.k
    times = np.arange(0.0, t_end, stride_t)
    if times[-1] < t_end:
        times = np.append(times, t_end)
    return times


def embed(state: StateVector, spec: HilbertSpec) -> StateVector:
    """Zero-pad a state into a larger Fock cutoff (same qubit structure)."""
    if spec.with_qubit != state.spec.with_qubit:
        raise ValueError("cannot change the qubit structure while embedding")
    if spec.n_max < state.spec.n_max:
        raise ValueError("embedding target must have the larger n_max")
    if spec.n_max == state.spec.n_max:
        return state
    old_fd, new_fd = state.spec.field_dim, spec.field_dim
    amps = np.zeros(spec.dim, dtype=complex)
    if state.spec.with_qubit:
        amps[:old_fd] = state.amplitudes[:old_fd]
        amps[new_fd : new_fd + old_fd] = state.amplitudes[old_fd:]
    else:
        amps[:old_fd] = state.amplitudes
    return StateVector(spec, amps)


def fidelity_against_dark(state: StateVector, omega: float, eta: float) -> float:
    """Overlap |<psi_dark(eta)|Psi>|^2 with the instantaneous dark state.

    The dark state is rebuilt at the larger of the state's cutoff and the
    adaptive cutoff for eta, and the state embedded if needed.
    """
    if not state.spec.with_qubit:
        raise ValueError("the dark state lives on the composite space")
    n_max = max(state.spec.n_max, fockspace.adaptive_n_max(eta))
    spec = HilbertSpec(n_max=n_max, with_qubit=True)
    dark = fockspace.eigenstate(spec, omega, eta, 0, "dark")
    psi = embed(state, spec)
    return float(abs(np.vdot(dark.amplitudes, psi.amplitudes)) ** 2)


def evolve(cfg: EvolutionConfig) -> list[TrajectoryRecord]:
    """Integrate i d|Psi>/dt = H(t)|Psi> from the t = 0 dark state.

    The schedule starts at eta(0) = 0, where the dark state is exactly
    |0>|g>.  Emits one record per sampling time with the instantaneous
    dark-state fidelity and field moments; the final record sits at
    eta = eta_target (or at t_final for a frozen schedule).

    Raises RuntimeError when the integrator fails (step-size underflow);
    warns with :class:`TruncationWarning` when the field population in the
    top 10% of Fock levels exceeds 1e-8 at any record; the message names the
    worst tail mass and the record's t and kt.
    """
    spec = cfg.spec
    dim = spec.dim
    h_jc, h_drive = fockspace.jc_hamiltonian_parts(spec, cfg.omega)
    # scaling by -1j only swaps and negates real and imaginary parts, so the
    # stacked product gives -1j * (H_jc y + eta H_drive y) bit for bit
    stacked = sp.vstack([-1j * h_jc.matrix, -1j * h_drive.matrix], format="csr")
    indptr, indices, data = stacked.indptr, stacked.indices, stacked.data
    sched = cfg.schedule

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # csr_matvec accumulates into z, so z starts zeroed as in stacked @ y
        z = np.zeros(2 * dim, dtype=complex)
        csr_matvec(2 * dim, dim, indptr, indices, data, y, z)
        return z[:dim] + ramp.eta_at(sched, t) * z[dim:]

    y0 = np.zeros(dim, dtype=complex)
    y0[0] = 1.0  # |0>|g> in field-fast order

    times = _record_times(cfg)
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        y0,
        method="DOP853",
        rtol=cfg.rtol,
        atol=cfg.atol,
        t_eval=times,
    )
    if sol.status != 0:
        raise RuntimeError(
            f"time integration failed at t={sol.t[-1] if len(sol.t) else 0.0:g}: "
            f"{sol.message}"
        )

    obs = fockspace.field_observables(spec)
    num, x2, p2 = obs["photon_number"], obs["x_squared"], obs["p_squared"]
    num2 = num @ num

    records = []
    worst_tail, worst_t = 0.0, 0.0
    for i, t in enumerate(times):
        psi = sol.y[:, i]
        eta = ramp.eta_at(sched, t)
        state = StateVector(spec, psi)
        tail = state.tail_mass()
        if tail > worst_tail:
            worst_tail, worst_t = tail, float(t)
        nn = float(np.real(np.vdot(psi, num @ psi)))
        nn2 = float(np.real(np.vdot(psi, num2 @ psi)))
        records.append(
            TrajectoryRecord(
                t=float(t),
                eta=float(eta),
                fidelity=fidelity_against_dark(state, cfg.omega, eta),
                mean_n=nn,
                var_n=nn2 - nn * nn,
                mean_x2=float(np.real(np.vdot(psi, x2 @ psi))),
                mean_p2=float(np.real(np.vdot(psi, p2 @ psi))),
                norm_defect=float(abs(1.0 - np.vdot(psi, psi).real)),
            )
        )
    if worst_tail > EVOLVE_TAIL_TOL:
        warnings.warn(
            f"field population reached the top Fock levels (tail mass "
            f"{worst_tail:.2e} > {EVOLVE_TAIL_TOL} at t = {worst_t:.6g}, "
            f"kt = {sched.k * worst_t:.6g}); results are truncation-limited",
            TruncationWarning,
            stacklevel=2,
        )
    return records
