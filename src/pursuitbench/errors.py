"""The one exception type the package raises."""


class ParameterError(ValueError):
    """A value outside a contract, a config that does not load, or a run whose state stopped being finite."""
