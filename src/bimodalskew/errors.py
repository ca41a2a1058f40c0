"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or argument lies outside the supported domain."""


class ExistenceError(DomainError):
    """A requested moment does not exist for the given tail parameters."""


class CapabilityError(TypeError):
    """An operation was requested for a base distribution that does not support it."""


class NumericError(RuntimeError):
    """A numeric routine failed to reach its target tolerance, or a value lies past the float range.

    A tolerance failure's message reports the tolerance that was achieved so
    callers can decide whether the partial result is still usable.
    """
