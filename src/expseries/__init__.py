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

Exported names load on first use: ``import expseries`` imports no library
module and no numpy, and ``expseries.Actuator`` imports only what
:mod:`expseries.heat` needs.
"""

import importlib

__version__ = "0.1.0"


# expseries.control raises these. They are defined here, not in a library
# module, so that the CLI can map them to exit code 3 without importing one.
class BlockedModeError(Exception):
    """A requested mode has exactly zero actuator overlap."""


class ConditioningError(Exception):
    """A moment solve too ill conditioned to trust, or an unblocked overlap that underflows."""


# The names each module exports; __getattr__ imports the module on first use.
_MODULE_EXPORTS = {
    "control": ("ControlFunction", "SpectralState"),
    "exact": ("ExactReal",),
    "heat": ("Actuator", "ControllabilityReport"),
    "series": ("DirichletSeries", "SeriesValue", "TailModel"),
    "simulate": ("Trajectory",),
    "taylor": ("RemainderCertificate", "TaylorExpansion"),
    "uniqueness": ("PeelResult", "SampledSignal", "SeparationWarning"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, "BlockedModeError", "ConditioningError", "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
