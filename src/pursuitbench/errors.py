"""Exception types shared across the package."""


class PursuitBenchError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(PursuitBenchError, ValueError):
    """A value violates a type invariant or an operation's contract."""


class ConfigError(PursuitBenchError, ValueError):
    """A configuration file failed to parse or validate."""


class SimulationDivergedError(PursuitBenchError, RuntimeError):
    """The simulated state stopped being finite."""
