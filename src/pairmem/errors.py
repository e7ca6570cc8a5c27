"""Exception types shared across the package, one per failure class.

``pairmem.cli`` maps each to its exit code: ScenarioError 2,
SimulationError 3, EstimationError 4, EventFormatError 5.  A
ParameterError, a model record that violates its constraints, has no
code of its own: a run wraps it as a SimulationError (3), and the CLI
reports any other at 4.
"""


class ParameterError(ValueError):
    """A model parameter violates its documented constraints."""


class SimulationError(RuntimeError):
    """Event generation failed."""


class EstimationError(RuntimeError):
    """An estimator has too little data or an ill-posed input."""


class EventFormatError(IOError):
    """An event file is corrupt, truncated, or of the wrong version."""


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""
