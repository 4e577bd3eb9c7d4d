"""Certified analyticity machinery for exponential sums, applied to
approximate controllability and moment-method control of the 1D heat
equation.

The package splits into two layers:

* series machinery: :mod:`expseries.series` (exponential sums with certified
  tail bounds), :mod:`expseries.taylor` (re-expansion with explicit remainder
  certificates), :mod:`expseries.uniqueness` (vanishing tests and coefficient
  peeling), :mod:`expseries.exact` (exact rational-plus-irrational endpoint
  arithmetic);

* heat application: :mod:`expseries.heat` (spectrum, actuator overlaps,
  controllability verdicts), :mod:`expseries.control` (moment-method
  synthesis), :mod:`expseries.simulate` (independent modal simulator).

The library modules only compute. The command-line interface ``expseries``
(:mod:`expseries.cli`) is the one module that reads and writes files: every
JSON document and CSV table format is defined there.
"""

from .exact import ExactReal
from .series import DirichletSeries, SeriesValue, TailModel
from .taylor import RemainderCertificate, TaylorExpansion
from .uniqueness import PeelResult, SampledSignal, SeparationWarning
from .heat import Actuator, ControllabilityReport
from .control import (
    BlockedModeError,
    ConditioningError,
    ControlFunction,
    MomentProblem,
    SpectralState,
)
from .simulate import Trajectory

__version__ = "0.1.0"

__all__ = [
    "Actuator",
    "BlockedModeError",
    "ConditioningError",
    "ControlFunction",
    "ControllabilityReport",
    "DirichletSeries",
    "ExactReal",
    "MomentProblem",
    "PeelResult",
    "RemainderCertificate",
    "SampledSignal",
    "SeparationWarning",
    "SeriesValue",
    "SpectralState",
    "TailModel",
    "TaylorExpansion",
    "Trajectory",
    "__version__",
]
