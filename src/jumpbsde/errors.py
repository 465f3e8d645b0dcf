"""Error types shared across the package.

Plain invalid arguments raise ValueError directly; the classes here mark
conditions a caller may want to branch on (resource caps, solver failures).
"""


class ResourceLimitError(RuntimeError):
    """A configured size cap would be exceeded (e.g. explicit tree node count);
    carries the name of the run setting that bounds the size."""

    def __init__(self, setting, message):
        self.setting = setting
        super().__init__(message)


class StepSizeError(ValueError):
    """kappa * dt >= 1: the implicit per-step fixed point is not a contraction."""


class NumericError(ArithmeticError):
    """An inner iteration failed to converge within its budget."""


class ConditioningError(RuntimeError):
    """Rank-deficient regression normal equations; carries the offending step."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"singular regression at step {step}")


class ConfigError(ValueError):
    """Invalid run configuration; carries a config-path reference."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
