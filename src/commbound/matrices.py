"""Dense sign-matrix primitives.

Sign matrices (entries in {-1,+1}) represent two-party Boolean functions.
This module provides exact rank over the rationals, singular spectra from
LAPACK's SVD, balance predicates, Kronecker products, pattern containment
up to row/column permutations, and a canonical enumerator for strongly
balanced matrices.  Containment encodes every submatrix as an integer and
looks chunks of them up in sorted targets; the enumerator's forbidden-pattern
check reads a node's new row sets off its packed rows against the same
targets.
Canonical forms keep the columns as bitmask cells, the enumerator its rows'
codes, column sums and a tie mask; both walk their trees on explicit stacks,
so any height runs, and the enumerator refuses widths past MAX_TABLE_BYTES of
balanced rows.

Conventions: for canonical forms and search order, +1 sorts before -1.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import check_bytes

DEFAULT_TOLERANCE = 1e-9

# Containment packs a submatrix of at most _KEY_BITS cells into one int64,
# and encodes about _CHUNK_CELLS cells per chunk of row subsets.
_KEY_BITS = 62
_CHUNK_CELLS = 1 << 16


class SignMatrix:
    """Immutable dense matrix with entries in {-1,+1}."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("sign matrix must be 2-dimensional and non-empty")
        # the given entries, before a cast to int could truncate 1.7 to 1
        if not ((arr == 1) | (arr == -1)).all():
            raise ValueError("sign matrix entries must be -1 or +1")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        self.entries = arr

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def size(self) -> int:
        """Number of entries (rows * cols)."""
        return self.entries.size

    def __getitem__(self, key):
        return self.entries[key]

    def __eq__(self, other):
        return (isinstance(other, SignMatrix)
                and self.entries.shape == other.entries.shape
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash((self.entries.shape, self.entries.tobytes()))

    def __repr__(self):
        return f"SignMatrix({self.rows}x{self.cols})"

    def to_text(self) -> str:
        return format_sign_matrix(self)


class DistributionMatrix:
    """Probability distribution on the entries of a matrix."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        arr = np.asarray(weights, dtype=float)
        if arr.ndim != 2:
            raise ValueError("probability distribution must be a 2-d array")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError("probability distribution entries must be "
                             "finite and nonnegative")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError("probability distribution must sum to 1, "
                             f"got {float(arr.sum())!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.weights = arr

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def uniform(cls, rows: int, cols: int) -> "DistributionMatrix":
        return cls(np.full((rows, cols), 1.0 / (rows * cols)))

    @classmethod
    def from_text(cls, text: str) -> "DistributionMatrix":
        """Parse the "m n" grid of a sign matrix with real entries."""
        return cls(_read_grid(text, "distribution", float))

    def check_balanced(self, g: SignMatrix) -> None:
        """ValueError unless mu has g's shape and sum(mu * g) vanishes (to
        1e-9): mu balanced with respect to g."""
        if self.weights.shape != g.entries.shape:
            raise ValueError("mu must have the same shape as the inner matrix")
        if abs(float((self.weights * g.entries).sum())) > 1e-9:
            raise ValueError("mu must be balanced with respect to g "
                             "(sum of mu*g must vanish)")


@dataclass(frozen=True)
class SpectrumReport:
    """Singular spectrum of a matrix with the derived norms."""

    singular_values: tuple
    spectral_norm: float
    trace_norm: float
    frobenius_norm: float
    numeric_rank: int
    tolerance: float


@dataclass(frozen=True)
class BalanceReport:
    row_sums: tuple
    col_sums: tuple
    balanced: bool
    strongly_balanced: bool


@dataclass(frozen=True)
class ContainmentResult:
    found: bool
    row_indices: tuple | None
    col_indices: tuple | None


# ---------------------------------------------------------------------------
# named matrices

#: 4x4 core of the pattern-matrix construction: the canonical strongly
#: balanced rank-2 inner matrix that the classic method relies on.
PATTERN_CORE_4 = SignMatrix([
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [-1, 1, 1, -1],
    [-1, 1, -1, 1],
])

#: 6x6 strongly balanced matrix of rank 5 that does not contain the 4x4
#: pattern core as a submatrix, even up to row/column permutations.
CORE_FREE_6 = SignMatrix([
    [1, 1, 1, -1, -1, -1],
    [1, 1, -1, 1, -1, -1],
    [1, -1, -1, -1, 1, 1],
    [-1, -1, 1, 1, 1, -1],
    [-1, 1, -1, -1, 1, 1],
    [-1, -1, 1, 1, -1, 1],
])

#: 2x2 XOR matrix: the unique strongly balanced 2x2 shape (rank 1).
XOR_2 = SignMatrix([[1, -1], [-1, 1]])

#: 2x2 Walsh/Hadamard matrix.
HADAMARD_2 = SignMatrix([[1, 1], [1, -1]])


def all_ones(rows: int, cols: int) -> SignMatrix:
    return SignMatrix(np.ones((rows, cols), dtype=np.int64))


BUILTIN_MATRICES = {
    "core4": PATTERN_CORE_4,
    "corefree6": CORE_FREE_6,
    "xor2": XOR_2,
    "h2": HADAMARD_2,
}


def builtin_matrix(name: str) -> SignMatrix:
    try:
        return BUILTIN_MATRICES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown builtin matrix {name!r}; "
                         f"choose from {sorted(BUILTIN_MATRICES)}") from None


# ---------------------------------------------------------------------------
# text format

_SIGN_TOKENS = {"+1": 1, "-1": -1, "+": 1, "-": -1}


def _read_grid(text: str, what: str, convert) -> np.ndarray:
    """The "m n" grid of sign matrices and distributions: a header of two
    positive integers, then exactly m non-blank lines of n tokens, each
    read by convert.  Each failure is one ValueError naming the format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()] or [[]]
    try:
        m, n = map(int, lines[0])
    except ValueError:
        m = n = 0
    if m < 1 or n < 1:
        raise ValueError(f'{what} header must be two positive integers "m n", '
                         f'got {" ".join(lines[0])!r}')
    if len(lines) - 1 != m:
        raise ValueError(f"{what}: expected {m} matrix rows, "
                         f"found {len(lines) - 1}")
    values = []
    for row in lines[1:]:
        if len(row) != n:
            raise ValueError(f"{what}: expected {n} tokens per row, "
                             f"got {len(row)}")
        for t in row:
            try:
                values.append(convert(t))
            except (KeyError, ValueError):
                raise ValueError(f"bad {what} token {t!r}") from None
    return np.reshape(values, (m, n))


def parse_sign_matrix(text: str) -> SignMatrix:
    """Parse the sign-matrix text format: the "m n" grid with tokens from
    {+1, -1, +, -}."""
    return SignMatrix(_read_grid(text, "sign-matrix",
                                 _SIGN_TOKENS.__getitem__))


def format_sign_matrix(M: SignMatrix) -> str:
    lines = [f"{M.rows} {M.cols}"]
    for row in M.entries:
        lines.append(" ".join("+1" if v == 1 else "-1" for v in row))
    return "\n".join(lines) + "\n"


def load_matrix(path_or_name: str) -> SignMatrix:
    """Load a sign matrix from a file path, or by builtin name."""
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            return parse_sign_matrix(fh.read())
    return builtin_matrix(path_or_name)


# ---------------------------------------------------------------------------
# exact rank

# exact_rank eliminates modulo primes below 2^21: a product of two residues
# is below 2^42, so int64 entries absorb up to 2^21 unreduced row updates.
_PRIME_LIMIT = 1 << 21
_PRIMES: list[int] = []  # those found so far, largest first
# Below this many entries _rank_mod eliminates on Python lists: per column,
# numpy's dozen calls cost more than the list updates.  On +-1 matrices
# (one BLAS thread, 2-core Xeon) lists took 30 us against numpy's 125 us at
# 6 x 8 and 240 against 340 us at 16 x 16, tied at 18 x 18 and lost at 20 x 20.
_LIST_RANK_CELLS = 256


def _prime(i: int) -> int:
    """The primes below 2^21 in decreasing order, _prime(0) the largest,
    found by trial division on first use."""
    while len(_PRIMES) <= i:
        p = (_PRIMES[-1] if _PRIMES else _PRIME_LIMIT) - 1
        while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            p -= 1
        if p < 2:
            raise ValueError("exact_rank: entries too large for the primes "
                             "below 2^21")
        _PRIMES.append(p)
    return _PRIMES[i]


def _integer_matrix(M) -> np.ndarray:
    """M as a 2-D int64 array, or as an object array of Python ints when
    some entry does not fit int64."""
    arr = M.entries if isinstance(M, SignMatrix) else np.asarray(M)
    if arr.ndim != 2:
        raise ValueError(
            f"exact_rank needs a 2-D matrix, got {arr.ndim} dimension(s)")
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    values = arr.ravel().tolist()
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise ValueError("exact_rank needs integer entries")
    try:
        return np.array(ints, dtype=np.int64).reshape(arr.shape)
    except OverflowError:
        return np.array(ints, dtype=object).reshape(arr.shape)


def _rank_mod(A: np.ndarray, p: int) -> int:
    """Rank over GF(p) of the int64 array A, whose entries lie in [0, p).

    Gaussian elimination with lazy reduction: only the pivot column and the
    pivot row are reduced mod p, and each update of the trailing block adds
    less than p^2 in magnitude, so A is overwritten but never overflows.
    Up to _LIST_RANK_CELLS entries the same elimination runs on A.tolist().
    """
    m, n = A.shape
    if A.size <= _LIST_RANK_CELLS:
        return _rank_mod_list(A.tolist(), p)
    rank = 0
    for c in range(n):
        col = A[rank:, c] % p
        nonzero = np.flatnonzero(col)
        if not nonzero.size:
            continue
        k = nonzero[0]
        if k:
            A[[rank, rank + k]] = A[[rank + k, rank]]
            col[[0, k]] = col[[k, 0]]
        if rank + 1 == m:
            return m
        factors = col[1:] * pow(int(col[0]), -1, p) % p
        A[rank + 1:, c + 1:] -= factors[:, None] * (A[rank, c + 1:] % p)
        rank += 1
    return rank


def _rank_mod_list(rows: list, p: int) -> int:
    """_rank_mod's elimination, pivot for pivot, on lists of Python ints."""
    m, n = len(rows), len(rows[0])
    rank = 0
    for c in range(n):
        k = next((k for k in range(rank, m) if rows[k][c] % p), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        pivot = rows[rank]
        rank += 1
        if rank == m:
            return m
        inv = pow(pivot[c], -1, p)
        tail = [y % p for y in pivot[c + 1:]]
        for row in rows[rank:]:
            f = row[c] * inv % p
            if f:
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], tail)]
    return rank


def exact_rank(M, at_most: int | None = None) -> int:
    """Rank over the rationals, by elimination modulo several primes.

    Accepts a SignMatrix or any 2-D array-like of integers, including
    object arrays of Python ints beyond int64; a 0 x n or m x 0 matrix has
    rank 0, and non-integer entries or input that is not 2-D raise
    ValueError.  The rank mod p never exceeds the rational rank, so the
    largest rank r found over the primes used is a lower bound.  If the
    rank were above r, some nonzero (r+1) x (r+1) minor D would be
    divisible by every prime used, so their product P would be at most
    |D| <= ((r+1) a^2)^((r+1)/2), Hadamard's bound with a the largest
    absolute entry.  Primes below 2^21 are taken, largest first, until
    r = min(m, n) or P^2 > ((r+1) a^2)^(r+1); the answer is exact, never a
    floating-point or probabilistic rank decision.  One prime settles every
    full-rank matrix and every +-1 matrix with at most 11 rows or columns.
    A caller that knows at_most >= the rank stops at the first prime whose
    rank reaches it, as that prime's rank is also at most the rank.
    """
    A = _integer_matrix(M)
    full = min(A.shape)
    if not full:
        return 0
    if full >= _PRIME_LIMIT:
        raise ValueError("exact_rank: 2^21 or more rows and columns "
                         "overflow int64 elimination")
    a = max(int(A.max()), -int(A.min()))
    top = full if at_most is None else min(full, at_most)
    rank, product = 0, 1
    for i in itertools.count():
        p = _prime(i)
        rank = max(rank, _rank_mod((A % p).astype(np.int64, copy=False), p))
        product *= p
        if rank == top or product ** 2 > ((rank + 1) * a * a) ** (rank + 1):
            return rank


# ---------------------------------------------------------------------------
# singular spectrum

def spectrum(M, tolerance: float = DEFAULT_TOLERANCE) -> SpectrumReport:
    """Singular spectrum from one LAPACK SVD.

    Accepts a SignMatrix or a real or complex array; real input takes the
    real SVD.  Singular values within LAPACK's backward-error bound
    sigma_1 * max(m, n) * eps are set to exactly zero.  The numeric rank
    counts singular values above tolerance * sigma_1, so the tolerance must
    lie in (0, 1).
    """
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    arr = np.asarray(M.entries if isinstance(M, SignMatrix) else M)
    sigma = np.linalg.svd(arr, compute_uv=False)
    s1 = float(sigma[0]) if sigma.size else 0.0
    sigma[sigma <= s1 * max(arr.shape) * np.finfo(float).eps] = 0.0
    numeric_rank = int(np.sum(sigma > tolerance * s1)) if s1 > 0 else 0
    return SpectrumReport(
        singular_values=tuple(float(v) for v in sigma),
        spectral_norm=s1,
        trace_norm=float(np.sum(sigma)),
        frobenius_norm=float(math.sqrt(np.sum(sigma ** 2))),
        numeric_rank=numeric_rank,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# balance

def balance_check(M: SignMatrix) -> BalanceReport:
    """Exact integer row/column sums with the balance flags."""
    row_sums = M.entries.sum(axis=1)
    col_sums = M.entries.sum(axis=0)
    strongly = bool((row_sums == 0).all() and (col_sums == 0).all())
    return BalanceReport(
        row_sums=tuple(int(v) for v in row_sums),
        col_sums=tuple(int(v) for v in col_sums),
        balanced=bool(M.entries.sum() == 0),
        strongly_balanced=strongly,
    )


# ---------------------------------------------------------------------------
# products

def tensor(A: SignMatrix, B: SignMatrix) -> SignMatrix:
    """Kronecker product; A is the most significant factor."""
    return SignMatrix(np.kron(A.entries, B.entries))


def block_mask(blocks) -> np.ndarray:
    """Integer matrix over the tensor arrangement of the sign-matrix blocks.

    Rows and columns index tuples (x^1, ..., x^t) and (y^1, ..., y^t) with
    block 1 the most significant factor.  Bit i-1 of each entry is set where
    block i is -1 at (x^i, y^i).
    """
    mask = np.zeros((1, 1), dtype=np.int64)
    for i, b in enumerate(blocks):
        bit = (b.entries == -1).astype(np.int64) << i
        mask = (mask[:, None, :, None] | bit[None, :, None, :]).reshape(
            mask.shape[0] * b.rows, mask.shape[1] * b.cols)
    return mask


# ---------------------------------------------------------------------------
# canonical forms under row/column permutations

def _depth_first(children, root, depth: int):
    """The nodes depth levels below root, depth first, on an explicit stack
    of children(node) iterators, so no depth meets the recursion limit.  A
    child is made only once its elder siblings' subtrees are walked."""
    stack = [iter([root])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(stack) <= depth:
            stack.append(children(node))
        else:
            yield node


def _signs(ints, width: int) -> np.ndarray:
    """One +-1 row per int, bit 1 for -1, the first of width bits the most
    significant: a canonical word's rows, or the enumerator's packed rows."""
    return np.array([[1 - 2 * (v >> width - 1 - j & 1) for j in range(width)]
                     for v in ints])


def _packed(arr) -> list[int]:
    """The rows of a +-1 array as ints, as _signs reads them."""
    return [int("".join("1" if v < 0 else "0" for v in row), 2)
            for row in np.asarray(arr).tolist()]


def _minimal_word(rows: list[int], width: int, stop_early: bool = False):
    """Lexicographically minimal row-major word over all row/column
    permutations of the matrix whose rows are the width-bit ints rows.

    Returns (word, smaller_than_identity), the word a tuple of per-row ints.
    The columns form an ordered list of cells, bitmasks of the columns that
    placed rows have not told apart (first row most significant): sorted
    columns are their best order.  Placing row r writes, for each cell c in
    order, 0^(|c| - k) 1^k with k = popcount(r & c), and splits c into
    c & ~r, then c & r.  Each level tries each distinct unused row in
    ascending order of its word, so the first descent is greedy, and cuts a
    branch and all later ones once its word exceeds the best complete
    word's.  With stop_early the search stops once any word beats the
    identity arrangement, which is all a canonicality test needs.
    """
    best = tuple(rows)  # identity
    found_smaller = False

    def children(node):
        word, left, cells = node
        options = []
        for r in set(left):
            w = 0
            for c in cells:
                w = w << c.bit_count() | (1 << (r & c).bit_count()) - 1
            options.append((w, r))
        options.sort()
        for w, r in options:
            if word + (w,) > best[:len(word) + 1]:
                return
            i = left.index(r)
            yield (word + (w,), left[:i] + left[i + 1:],
                   [part for c in cells for part in (c & ~r, c & r) if part])

    root = ((), tuple(rows), [(1 << width) - 1])
    for word, _, _ in _depth_first(children, root, len(rows)):
        if word < best:
            best, found_smaller = word, True
            if stop_early:
                break
    return best, found_smaller


def canonical_form(M: SignMatrix) -> SignMatrix:
    """Lexicographically minimal representative of M under row/column permutations."""
    return SignMatrix(_signs(_minimal_word(_packed(M.entries), M.cols)[0],
                             M.cols))


def is_canonical(M: SignMatrix) -> bool:
    """True iff M equals its own canonical form."""
    return not _minimal_word(_packed(M.entries), M.cols, stop_early=True)[1]


# ---------------------------------------------------------------------------
# pattern containment

def _line_codes(lines: np.ndarray, permute: bool) -> np.ndarray:
    """The codes of the columns of the +-1 array lines, bit i set where row
    i is -1: one row of codes per order of lines' rows, every permutation
    when permute (each row of codes then sorted), else the given order."""
    k = lines.shape[0]
    orders = np.array(list(itertools.permutations(range(k))) if permute
                      else [range(k)], dtype=np.intp)
    codes = (1 << np.arange(k)) @ (lines[orders] == -1)
    return np.sort(codes, axis=-1) if permute else codes


def _submatrix_matcher(P: SignMatrix, permute: bool, cols: int):
    """find(E, row_sets) for P in matrices E with `cols` columns: the first
    (rows, cols) pair, over row_sets in order and then the increasing column
    subsets, whose submatrix of E equals P (after some row and column
    permutation when permute is set), or None.

    A submatrix is packed into one int64, one code per line along P's longer
    side with bit i set where the line's i-th entry is -1.  Sorted codes undo
    permutations along that side, and the targets are P's keys under every
    permutation of the shorter one.  Keys are looked up in the sorted targets
    with np.searchsorted, a chunk of row subsets at a time; patterns of more
    than _KEY_BITS cells are compared by canonical words instead.
    """
    p, q = P.rows, P.cols
    col_sets = np.array(list(itertools.combinations(range(cols), q)),
                        dtype=np.intp).reshape(-1, q)
    tall = p > q
    if P.size > _KEY_BITS:
        # the canonical word branches over rows: take it along the short side
        def canonical_word(sub):
            sub = sub.T if tall else sub
            return _minimal_word(_packed(sub), sub.shape[1])[0]
        word = canonical_word(P.entries)

        def same(sub):
            return (canonical_word(sub) == word if permute
                    else np.array_equal(sub, P.entries))

        def find(E, row_sets):
            return next(((tuple(rows), tuple(int(c) for c in cs))
                         for rows in row_sets for cs in col_sets
                         if same(E[np.ix_(rows, cs)])), None)
        return find

    short, long = sorted((p, q))
    weights = 1 << np.arange(short)
    places = 1 << short * np.arange(long)

    def keys(codes):
        return (np.sort(codes, axis=-1) if permute else codes) @ places

    # not np.unique or np.isin: their hash table made peak memory vary by run
    targets = np.sort(_line_codes(P.entries.T if tall else P.entries,
                                  permute) @ places)

    def find(E, row_sets):
        bits = np.asarray(E) == -1
        row_codes = bits[:, col_sets] @ weights if tall else None
        per = max(1, _CHUNK_CELLS // (col_sets.shape[0] * long or 1))
        row_sets = iter(row_sets)
        while chunk := list(itertools.islice(row_sets, per)):
            R = np.array(chunk, dtype=np.intp).reshape(-1, p)
            codes = (row_codes[R].transpose(0, 2, 1) if tall
                     else (weights @ bits[R])[:, col_sets])
            k = keys(codes)
            hit = targets[np.searchsorted(targets, k) % targets.size] == k
            if hit.any():
                i, j = divmod(int(hit.argmax()), col_sets.shape[0])
                return (tuple(int(r) for r in R[i]),
                        tuple(int(c) for c in col_sets[j]))
        return None
    return find


def contains_pattern(M: SignMatrix, P: SignMatrix,
                     mode: str = "up_to_permutation") -> ContainmentResult:
    """Search for P inside M as an induced submatrix.

    mode="ordered": some increasing row subset and increasing column subset
    of M induce exactly P.  mode="up_to_permutation" (default): the induced
    submatrix matches P after some row and column permutation.  The search is
    exhaustive and deterministic; the first witness in lexicographic order of
    (row subset, column subset) is returned.  Submatrices are encoded as
    integers and matched in chunks (see _submatrix_matcher).
    """
    if mode not in ("ordered", "up_to_permutation"):
        raise ValueError(f"unknown containment mode {mode!r}")
    p, q = P.rows, P.cols
    if p > M.rows or q > M.cols:
        raise ValueError(
            f"pattern {p}x{q} larger than matrix {M.rows}x{M.cols}")
    find = _submatrix_matcher(P, mode == "up_to_permutation", M.cols)
    rows, cols = find(M.entries, itertools.combinations(range(M.rows), p)) \
        or (None, None)
    return ContainmentResult(rows is not None, rows, cols)


# ---------------------------------------------------------------------------
# strongly balanced search

def _balanced_rows(cols: int) -> list[int]:
    """Ascending codes, as _signs reads them, of the +-1 rows of even length
    cols summing to zero.  ResourceLimitError, before anything is built, when
    C(cols, cols/2) rows of cols int64 entries would pass MAX_TABLE_BYTES."""
    check_bytes(math.comb(cols, cols // 2) * cols * 8,
                f"{cols} columns need, as balanced rows,")
    v = np.arange(1 << cols)
    return v[np.bitwise_count(v) == cols // 2].tolist()


def _grid(placed: int, cols: int) -> np.ndarray:
    """The +-1 rows packed in placed: a 1 bit, then each row's cols-bit code."""
    return _signs([placed], placed.bit_length() - 1).reshape(-1, cols)


def _rows_of(placed: int, cols: int) -> list[int]:
    """The row codes packed in placed, first row first."""
    full = (1 << cols) - 1
    return [placed >> cols * k & full
            for k in range(placed.bit_length() // cols - 1, -1, -1)]


def _forbidden_check(P: SignMatrix, cols: int):
    """contains(placed): whether rows packed as in _grid hold P, after some
    row and column permutation, on a row set through the newest row, the
    only submatrices a node adds to its parent's.

    Each row set's column codes (bit i from its i-th row) come off the
    packed rows: a row spread to one p-bit field per column, shifted by i
    and summed over the set.  The codes found in some target, P's sorted
    column codes under one order of its rows (_line_codes, as the matcher's
    targets), are sorted, and their increasing q-subsets are walked only
    through prefixes of targets.  Rows repeated beyond P's most repeated
    row are left out, so a tall search walks a few row sets per node, not
    C(depth - 1, p - 1).  A P whose row orders are too many to list (taller
    than wide, or past _KEY_BITS cells) goes to the shared matcher.
    """
    p, q = P.rows, P.cols
    if p > q or P.size > _KEY_BITS:
        find = _submatrix_matcher(P, True, cols)

        def contains(placed) -> bool:
            depth = placed.bit_length() // cols
            heads = itertools.combinations(range(depth - 1), p - 1)
            return find(_grid(placed, cols),
                        (h + (depth - 1,) for h in heads)) is not None
        return contains
    lines = P.entries.tolist()
    most = max(map(lines.count, lines))
    targets = {tuple(t) for t in _line_codes(P.entries, True).tolist()}
    useful = {c for t in targets for c in t}
    prefixes = {t[:k] for t in targets for k in range(1, q + 1)}
    fields, mask = range(0, p * cols, p), (1 << p) - 1
    spread = {}

    def spread_of(r):
        if r not in spread:
            spread[r] = sum(1 << p * j for j in range(cols) if r >> j & 1)
        return spread[r]

    def holds(kept):
        stack = [((), 0)]
        while stack:
            prefix, i = stack.pop()
            if len(prefix) == q:
                return True
            for j in range(i, len(kept) + len(prefix) - q + 1):
                if j == i or kept[j] != kept[j - 1]:
                    t = prefix + (kept[j],)
                    if t in prefixes:
                        stack.append((t, j + 1))
        return False

    def contains(placed) -> bool:
        # a match holds each row value at most `most` times; with that many
        # earlier copies the newest row could swap for one the match leaves
        # out, giving a row set the node's ancestors already cleared
        *earlier, newest = _rows_of(placed, cols)
        seen, spreads = dict.fromkeys(earlier, 0), []
        for r in earlier:
            seen[r] += 1
            if seen[r] <= most:
                spreads.append(spread_of(r))
        if seen.get(newest, 0) >= most:
            return False
        last = spread_of(newest) << p - 1
        for h in itertools.combinations(spreads, p - 1):
            x = last
            for i, s in enumerate(h):
                x |= s << i
            kept = [c for f in fields if (c := x >> f & mask) in useful]
            if len(kept) >= q and holds(sorted(kept)):
                return True
        return False
    return contains


def search_strongly_balanced(rows: int, cols: int, min_rank: int | None = None,
                             forbidden: SignMatrix | None = None,
                             limit: int | None = None):
    """Yield canonical strongly balanced sign matrices of the given shape.

    Enumerates, up to simultaneous row and column permutations, every
    strongly balanced rows x cols sign matrix, filtered by an optional
    minimum exact rank and an optional forbidden pattern (checked up to
    permutation).  Output order is deterministic (lexicographic with +1
    before -1).  Stops after `limit` emissions when given.

    Odd dimensions are rejected: a row of odd length has odd sum, so no
    strongly balanced matrix exists.
    """
    if rows < 1 or cols < 1:
        raise ValueError("dimensions must be positive")
    if rows % 2 or cols % 2:
        raise ValueError(
            "strongly balanced sign matrices need even dimensions: "
            f"got {rows}x{cols}, and rows/columns of odd length have odd sums")
    if limit is not None and limit <= 0:
        return

    candidates = _balanced_rows(cols)
    bits = [1 << cols - 1 - j for j in range(cols)]
    contains_forbidden = (forbidden is not None and forbidden.rows <= rows
                          and forbidden.cols <= cols
                          and _forbidden_check(forbidden, cols))

    def children(node):
        # the first row is the smallest code and codes never decrease.  Columns
        # summing above the rows left after this one take -1, below minus them
        # +1, and tied neighbours (ties bit at the right one) never read -1 +1
        start, placed, sums, ties = node
        left = rows - placed.bit_length() // cols - 1
        must = never = 0
        for b, s in zip(bits, sums):
            if s > left:
                must |= b
            elif s < -left:
                never |= b
        for i in range(start, len(candidates) if placed > 1 else 1):
            c = candidates[i]
            if c & must == must and not c & never and \
                    not c >> 1 & ~c & ties and \
                    not (contains_forbidden and
                         contains_forbidden(placed << cols | c)):
                yield (i, placed << cols | c,
                       [s - 1 if c & b else s + 1 for b, s in zip(bits, sums)],
                       ties & ~(c >> 1 ^ c))

    # the rank floor first: canonicity, the dearer test, then runs only on
    # leaves that can be emitted
    leaves = (placed for _, placed, _, _ in
              _depth_first(children, (0, 1, [0] * cols, bits[0] - 1), rows))
    yield from itertools.islice(
        (SignMatrix(_grid(placed, cols)) for placed in leaves
         if (min_rank is None or exact_rank(_grid(placed, cols)) >= min_rank)
         and not _minimal_word(_rows_of(placed, cols), cols, True)[1]), limit)
