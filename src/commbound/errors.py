"""Exception types shared across the package, and the byte budget they guard."""

# the dense arrays one call may hold: a character table (|G| <= 4096),
# the character stacks over a group map, an LP tableau, the int64 keys of one
# family of pair multisets, the balanced rows of a search, or a composition
MAX_TABLE_BYTES = 2 ** 28


class CommboundError(Exception):
    """Base class for package-specific failures."""


class ResourceLimitError(CommboundError):
    """A fixed limit (the byte budget, an enumeration size) would be passed;
    the message names the size needed."""


def quantity(n: int) -> str:
    """n in decimal, or "at least 2^b" past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def check_bytes(need: int, subject: str) -> None:
    """Refuse need bytes past MAX_TABLE_BYTES; subject ends in its verb."""
    if need > MAX_TABLE_BYTES:
        raise ResourceLimitError(
            f"{subject} {quantity(need)} bytes (cap {MAX_TABLE_BYTES})")
