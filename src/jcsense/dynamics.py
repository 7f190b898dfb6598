"""Schrodinger integration of the driven qubit-photon system along a ramp.

A trajectory is the schedule's ramp from the dark state |0>|g> at t = 0 to
the schedule's duration, on one Fock cutoff, with 201 uniform records of
the field moments and the fidelity |<dark(eta)|psi>|^2, which reads the
dark state's exact amplitudes on the trajectory's own levels.

The time dependence enters only through the drive amplitude, so the
Hamiltonian is assembled once as H(t) = H_jc + eta(t) * H_drive.  Both
parts, times -i, are stacked into one (2 dim, dim) CSR operator, and each
right-hand-side evaluation is one direct call of scipy's ``csr_matvec``
kernel on its arrays: the same kernel ``stacked @ y`` reaches, without the
Python dispatch in front of it, so the trajectory is bit-identical.  The
product goes into one preallocated buffer, zeroed before each call, but
every evaluation returns a new array, because the integrator keeps the
returned derivative as the next step's first stage; a reused output buffer
would be overwritten under it.  The right-hand side must not keep its ``y``
argument either: the stepper passes one stage buffer that the next stage
overwrites.

The integrator is the adaptive Runge-Kutta pair of orders 8, 5 and 3
(DOP853, Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II), stepped by
:class:`_InPlaceDOP853`, which owns each step: the stage sums and the error
estimate are formed in preallocated buffers and the step-size control runs
on Python floats, from the same IEEE operations on the same operands as
scipy's, so steps, evaluation count and trajectory are bit-identical to
``method="DOP853"``.  Norm conservation is tracked as a per-record
diagnostic rather than enforced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
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
    """Inputs for one ramp trajectory: the schedule's ramp from t = 0 to its
    duration, on one Fock cutoff, recorded at 201 uniform times."""

    omega: float
    schedule: ramp.RampSchedule
    spec: HilbertSpec
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be > 0")
        if not self.spec.with_qubit:
            raise ValueError("trajectories live on the composite space")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")


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


class _InPlaceDOP853(DOP853):
    """scipy's DOP853 whose steps, error estimate and step control are its own.

    Initial step and dense output are inherited; everything a step does is
    scipy's, operation for operation, so steps, evaluation count and
    trajectory are bit-identical to ``method="DOP853"``.

    - Stages: each is scipy's ``np.dot(K[:s].T, a[:s]) * h`` then ``y + dy``,
      written into one buffer, with the tableau rows cast to complex once
      (``np.dot`` would cast them on every call).  Taking the stage sums
      through a real view of K instead would change the rounding, and with
      it the steps.  The right-hand side is the ``fun`` solve_ivp passed in,
      called without the solver's wrapper frames; ``nfev`` grows by
      ``n_stages`` per attempt.
    - Error estimate: scipy's ``scale`` line and ``_estimate_error_norm``
      in preallocated buffers, with E5 and E3 cast to complex once.  Each
      squared norm is ``np.linalg.norm``'s complex branch,
      sqrt(re.re + im.im), squared afterwards as scipy does: dropping the
      sqrt-then-square changes the last bit, and with it the steps.
    - Step control: scipy's, on Python floats.
    """

    def __init__(self, fun, *args, **kwargs):
        super().__init__(fun, *args, **kwargs)
        dtype = self.y.dtype
        self._rhs = fun
        self._columns = self.K.T  # the stages as columns
        # per stage s: the earlier stages as columns, the row a[:s], the node
        self._stages = [
            (self.K[:s].T, a[:s].astype(dtype), float(c))
            for s, (a, c) in enumerate(zip(self.A[1:], self.C[1:]), start=1)
        ]
        self._b = self.B.astype(dtype)
        self._e5, self._e3 = self.E5.astype(dtype), self.E3.astype(dtype)
        self._dy = np.empty(self.n, dtype=dtype)
        self._err = np.empty(self.n, dtype=dtype)
        self._scale = np.empty(self.n)
        self._abs_new = np.empty(self.n)

    def _rk_step(self, t, y, h):
        # scipy's rk_step
        K, dy, fun = self.K, self._dy, self._rhs
        K[0] = self.f
        for s, (k_prev, a, c) in enumerate(self._stages, start=1):
            np.dot(k_prev, a, out=dy)
            np.multiply(dy, h, out=dy)
            np.add(dy, y, out=dy)
            K[s] = fun(t + c * h, dy)
        y_new = np.dot(K[:-1].T, self._b)
        np.multiply(y_new, h, out=y_new)
        np.add(y_new, y, out=y_new)
        f_new = fun(t + h, y_new)
        K[-1] = f_new
        self.nfev += self.n_stages
        return y_new, f_new

    def _error_norm(self, y, y_new, h):
        # scipy's atol + maximum(|y|, |y_new|) * rtol, then
        # DOP853._estimate_error_norm(K, h, scale)
        scale, err = self._scale, self._err
        np.abs(y, out=scale)
        np.abs(y_new, out=self._abs_new)
        np.maximum(scale, self._abs_new, out=scale)
        np.multiply(scale, self.rtol, out=scale)
        np.add(scale, self.atol, out=scale)
        norms_2 = []
        for e in (self._e5, self._e3):
            np.dot(self._columns, e, out=err)
            np.divide(err, scale, out=err)
            re, im = err.real, err.imag
            norms_2.append(math.sqrt(re.dot(re) + im.dot(im)) ** 2)
        err5_norm_2, err3_norm_2 = norms_2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return abs(h) * err5_norm_2 / math.sqrt(denom * self.n)

    def _step_impl(self):
        # scipy's RungeKutta._step_impl
        t = float(self.t)
        y = self.y
        direction = float(self.direction)
        t_bound = float(self.t_bound)

        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = float(self.max_step)
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = float(self.h_abs)

        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            y_new, f_new = self._rk_step(t, y, h)
            error_norm = self._error_norm(y, y_new, h)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm**self.error_exponent)
                step_rejected = True

        self.h_previous = h
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None


def fidelity_against_dark(state: StateVector, omega: float, eta: float) -> float:
    """Overlap |<psi_dark(eta)|Psi>|^2 with the instantaneous dark state,
    exact at any cutoff: :func:`fockspace.dark_amplitudes` on the state's
    own levels.  The dark state does not depend on omega."""
    dark = fockspace.dark_amplitudes(state.spec, eta)
    return float(abs(np.vdot(dark, state.amplitudes)) ** 2)


def evolve(cfg: EvolutionConfig) -> list[TrajectoryRecord]:
    """Integrate i d|Psi>/dt = H(t)|Psi> from the t = 0 dark state.

    The schedule starts at eta(0) = 0, where the dark state is exactly
    |0>|g>, and the trajectory runs to the schedule's duration on the
    cutoff of ``cfg.spec``.  Emits one record at each of 201 uniform times
    with the instantaneous dark-state fidelity and field moments; the final
    record sits at eta = eta_target.

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

    z = np.empty(2 * dim, dtype=complex)
    z_jc, z_drive = z[:dim], z[dim:]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # csr_matvec accumulates into z, so z starts zeroed as in stacked @ y
        z.fill(0)
        csr_matvec(2 * dim, dim, indptr, indices, data, y, z)
        # a fresh array each call; operand order does not change IEEE sums
        out = np.multiply(z_drive, ramp.eta_at(sched, t))
        np.add(out, z_jc, out=out)
        return out

    y0 = np.zeros(dim, dtype=complex)
    y0[0] = 1.0  # |0>|g> in field-fast order

    times = np.linspace(0.0, sched.duration, DEFAULT_RECORDS + 1)
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        y0,
        method=_InPlaceDOP853,
        rtol=cfg.rtol,
        atol=cfg.atol,
        t_eval=times,
    )
    if sol.status != 0:
        raise RuntimeError(
            f"time integration failed after the record at "
            f"t={sol.t[-1] if len(sol.t) else 0.0:g}: "
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
