"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates an operation's preconditions."""


class ProtocolContractError(RuntimeError):
    """A protocol broke its declared contract (message length, size mismatch)."""


class ResourceLimitError(RuntimeError):
    """An exact enumeration would exceed the fixed enumeration budget."""

    def __init__(self, message: str, required: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class UsageError(Exception):
    """Bad CLI arguments or config; maps to exit code 2."""
