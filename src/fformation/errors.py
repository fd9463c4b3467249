"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 and DataError to exit code 3.
"""


class ConfigError(Exception):
    """Bad configuration: unknown flags, inconsistent options, missing inputs."""


class DataError(Exception):
    """Malformed or invalid data (scene files, model files, annotations)."""

    def __init__(self, message, lineno=None):
        super().__init__(message)
        self.lineno = lineno


class VersionMismatchError(DataError):
    """A serialized model was built against a different feature catalog."""


class PlacementError(RuntimeError):
    """Synthetic camera placement collided with a body and retries ran out."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""
