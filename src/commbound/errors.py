"""Exception types shared across the package, and the byte budget they guard."""

# one dense table: a complex |G| x |G| character table (|G| <= 4096), an LP
# tableau, the int64 keys of one family of pair multisets, or the balanced
# rows search_strongly_balanced tries, counted as int64 entries
MAX_TABLE_BYTES = 2 ** 28


class CommboundError(Exception):
    """Base class for package-specific failures."""


class ResourceLimitError(CommboundError):
    """A configured cap (memory, enumeration size) would be exceeded.

    The message names the required size so callers can decide whether to
    raise the cap or fall back to a cheaper bound.
    """
