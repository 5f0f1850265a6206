"""Boolean functions on {-1,+1}^n and their Walsh-Hadamard spectra.

Index convention, shared across the package: tables have length 2^n and are
indexed by a bitmask where bit i set means coordinate x_{i+1} equals -1.
Characters are chi_T(x) = prod_{i in T} x_i, so chi_T(x) = (-1)^popcount(T&x).

A real point table is a read-only float64 array of length 2^n indexed by
point mask x; a spectrum is one indexed by subset mask T, with the 1/2^n
normalization coeffs[T] = 2^-n * sum_x f(x) chi_T(x).  Inner products of
point tables, by contrast, are plain sums sum_x u(x) v(x); both conventions
are used side by side and named explicitly where it matters.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

# largest arity accepted from a builtin spec or a truth table: 2^16 points.
# The degree-2 Chebyshev LP of a table with no swap symmetry, on all 2^16
# types, still fits MAX_TABLE_BYTES; symmetries shrink it to fewer types
MAX_ARITY = 16


class BoolFunction:
    """Truth table of f: {-1,+1}^n -> {-1,+1}."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table):
        arr = np.asarray(table)
        if n < 0 or arr.shape != (2 ** n,):
            raise ValueError(f"table must have length 2^{n}")
        # the given values, before a cast to int could truncate 1.9 to 1
        if not ((arr == 1) | (arr == -1)).all():
            raise ValueError("Boolean function values must be -1 or +1")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        self.n = n
        self.table = arr

    def __eq__(self, other):
        return (isinstance(other, BoolFunction) and self.n == other.n
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __repr__(self):
        return f"BoolFunction(n={self.n})"


def character_eval(T: int, x: int) -> int:
    """chi_T(x) = (-1)^popcount(T & x)."""
    return -1 if bin(T & x).count("1") % 2 else 1


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard butterfly, O(n 2^n).

    Level h pairs a[i] with a[i + h] in every block of 2h entries; the
    reshape to (blocks, 2, h) makes each level one array update.
    """
    h = 1
    size = a.shape[0]
    while h < size:
        v = a.reshape(-1, 2, h)
        x = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        v[:, 1] = x - v[:, 1]
        h *= 2
    return a


def _arity(table: np.ndarray) -> int:
    """n of a table of length 2^n; ValueError for any other shape."""
    n = table.size.bit_length() - 1
    if table.shape != (1 << max(n, 0),):
        raise ValueError(f"a spectrum has length 2^n, got shape {table.shape}")
    return n


def wht(table) -> np.ndarray:
    """Spectrum coeffs[T] = 2^-n sum_x table[x] chi_T(x) of a point table."""
    coeffs = iwht(table) / len(table)
    coeffs.setflags(write=False)
    return coeffs


def character_sums(f) -> np.ndarray:
    """Integer plain sums sum_x f(x) chi_T(x) for a +-1 table (exact)."""
    return _fwht_inplace(np.asarray(f.table, dtype=np.int64).copy())


def iwht(coeffs) -> np.ndarray:
    """Inverse transform, the point table f(x) = sum_T coeffs[T] chi_T(x)."""
    a = np.array(coeffs, dtype=float)
    _arity(a)
    _fwht_inplace(a)
    a.setflags(write=False)
    return a


def degree(f: BoolFunction) -> int:
    """Largest |T| with a nonzero Fourier coefficient.

    The character sums of a +-1 table are integers, so zero is tested
    exactly.
    """
    return _sums_degree(character_sums(f))


def _sums_degree(sums: np.ndarray) -> int:
    """Largest |T| with a nonzero character sum sums[T]."""
    return int(np.bitwise_count(np.flatnonzero(sums)).max(initial=0))


# ---------------------------------------------------------------------------
# built-in functions and text format

# each builtin is -1 exactly where its predicate holds of k, the number of
# -1 inputs (the popcount of the point mask)
BUILTIN_FUNCTIONS = {
    "PARITY": lambda k, n: k % 2 == 1,
    "AND": lambda k, n: k == n,
    "OR": lambda k, n: k > 0,
    "MAJ": lambda k, n: 2 * k > n,
}


def _check_arity(n: int) -> None:
    if n > MAX_ARITY:
        raise ResourceLimitError(
            f"arity {n} needs a 2^{n}-entry table (cap arity {MAX_ARITY})")


def builtin_function(name: str, arity: int) -> BoolFunction:
    key = name.upper()
    if key not in BUILTIN_FUNCTIONS:
        raise ValueError(f"unknown builtin function {name!r}; "
                         f"choose from {sorted(BUILTIN_FUNCTIONS)}")
    if arity < 1:
        raise ValueError("arity must be at least 1")
    _check_arity(arity)
    if key == "MAJ" and arity % 2 == 0:
        raise ValueError("MAJ needs odd arity")
    k = np.bitwise_count(np.arange(2 ** arity))
    return BoolFunction(arity, np.where(BUILTIN_FUNCTIONS[key](k, arity),
                                        -1, 1))


def parse_function_spec(spec: str) -> BoolFunction:
    """Parse "NAME:arity" into a builtin BoolFunction (e.g. PARITY:3)."""
    if ":" not in spec:
        raise ValueError(f"function spec must look like NAME:arity, got {spec!r}")
    name, _, arity = spec.partition(":")
    try:
        k = int(arity)
    except ValueError:
        raise ValueError(f"bad arity in function spec {spec!r}") from None
    return builtin_function(name, k)


def parse_truth_table(text: str) -> BoolFunction:
    """Truth-table format: "n=<arity>" then a 2^n string of 0/1, 1 meaning -1."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()] or [""]
    try:
        n = int(lines[0][2:]) if lines[0].startswith("n=") else -1
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError('truth table must start with an "n=<arity>" line, '
                         f"a non-negative integer arity; got {lines[0]!r}")
    _check_arity(n)
    bits = "".join(lines[1:])
    if len(bits) != 2 ** n:
        raise ValueError(f"truth table: expected {2 ** n} table bits, "
                         f"got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise ValueError("truth table bits must be 0 or 1")
    return BoolFunction(n, [(-1 if b == "1" else 1) for b in bits])


def format_truth_table(f: BoolFunction) -> str:
    bits = "".join("1" if v == -1 else "0" for v in f.table)
    return f"n={f.n}\n{bits}\n"


def load_function(path_or_spec: str) -> BoolFunction:
    """Load a function from a file path, or from a NAME:arity builtin spec."""
    import os

    if os.path.exists(path_or_spec):
        with open(path_or_spec, "r", encoding="utf-8") as fh:
            return parse_truth_table(fh.read())
    return parse_function_spec(path_or_spec)


def all_functions(n: int):
    """Yield every BoolFunction of arity n (2^2^n of them; keep n small)."""
    x = np.arange(2 ** n)
    for bits in range(2 ** 2 ** n):
        yield BoolFunction(n, 1 - 2 * ((bits >> x) & 1))
