"""Critical quantum sensing with a driven qubit-photon system.

Closed-form oracles, truncated-Fock numerical dynamics, adiabatic ramp
scheduling, and Fisher-information / Monte-Carlo estimation pipelines.
"""

__version__ = "0.1.0"

from .analytic import AnalyticPoint, eigenvalue, evaluate
from .dynamics import Trajectory, evolve, fidelity_against_dark
from .fockspace import (
    HilbertSpec,
    SparseOperator,
    StateVector,
    TruncationWarning,
    adaptive_n_max,
    build_hamiltonian,
    eigenstate,
    squeezed_vacuum,
)
from .metrology import (
    MeasurementScheme,
    estimate_eta,
    inverted_variance_numeric,
    sample_outcomes,
)
from .ramp import RampSchedule, eta_at, eta_dot_at, transition_probability

__all__ = [
    "AnalyticPoint",
    "HilbertSpec",
    "MeasurementScheme",
    "RampSchedule",
    "SparseOperator",
    "StateVector",
    "Trajectory",
    "TruncationWarning",
    "adaptive_n_max",
    "build_hamiltonian",
    "eigenstate",
    "eigenvalue",
    "estimate_eta",
    "eta_at",
    "eta_dot_at",
    "evaluate",
    "evolve",
    "fidelity_against_dark",
    "inverted_variance_numeric",
    "sample_outcomes",
    "squeezed_vacuum",
    "transition_probability",
    "__version__",
]
