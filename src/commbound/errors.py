"""Exception types shared across the package."""


class CommboundError(Exception):
    """Base class for package-specific failures."""


class ResourceLimitError(CommboundError):
    """A configured cap (memory, enumeration size) would be exceeded.

    The message names the required size so callers can decide whether to
    raise the cap or fall back to a cheaper bound.
    """
