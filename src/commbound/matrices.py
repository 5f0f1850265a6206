"""Dense sign-matrix primitives.

Sign matrices (entries in {-1,+1}) represent two-party Boolean functions.
This module provides exact rank over the rationals, singular spectra from
LAPACK's SVD, balance predicates, tensor/entrywise products,
pattern containment up to row/column permutations, and a canonical
enumerator for strongly balanced matrices.

Conventions: for canonical forms and search order, +1 sorts before -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOLERANCE = 1e-9

# Largest pattern for which containment uses a precomputed permutation orbit;
# beyond this the slower canonical-form comparison kicks in.
_ORBIT_LIMIT = 40320  # 4! * 4! * ... keep p!*q! at most this


class SignMatrix:
    """Immutable dense matrix with entries in {-1,+1}."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("sign matrix must be 2-dimensional and non-empty")
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("sign matrix entries must be -1 or +1")
        arr = arr.copy()
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

    def transpose(self) -> "SignMatrix":
        return SignMatrix(self.entries.T)

    @classmethod
    def from_text(cls, text: str) -> "SignMatrix":
        return parse_sign_matrix(text)

    def to_text(self) -> str:
        return format_sign_matrix(self)


class ComplexMatrix:
    """Immutable dense complex matrix (used for character-valued matrices)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("complex matrix must be 2-dimensional and non-empty")
        arr = arr.copy()
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
        return self.entries.size

    def __getitem__(self, key):
        return self.entries[key]

    def __repr__(self):
        return f"ComplexMatrix({self.rows}x{self.cols})"


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
    mode: str

    def __bool__(self):
        return self.found


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

def parse_sign_matrix(text: str) -> SignMatrix:
    """Parse the sign-matrix text format.

    First line is "m n"; the next m lines hold n whitespace-separated tokens
    from {+1, -1, +, -}.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty sign-matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError('sign-matrix header must be "m n"')
    m, n = int(header[0]), int(header[1])
    if len(lines) - 1 < m:
        raise ValueError(f"expected {m} matrix rows, found {len(lines) - 1}")
    token_map = {"+1": 1, "-1": -1, "+": 1, "-": -1}
    rows = []
    for ln in lines[1:1 + m]:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} tokens per row, got {len(toks)}")
        try:
            rows.append([token_map[t] for t in toks])
        except KeyError as exc:
            raise ValueError(f"bad sign-matrix token {exc.args[0]!r}") from None
    return SignMatrix(rows)


def format_sign_matrix(M: SignMatrix) -> str:
    lines = [f"{M.rows} {M.cols}"]
    for row in M.entries:
        lines.append(" ".join("+1" if v == 1 else "-1" for v in row))
    return "\n".join(lines) + "\n"


def load_sign_matrix(path) -> SignMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sign_matrix(fh.read())


def save_sign_matrix(M: SignMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_sign_matrix(M))


# ---------------------------------------------------------------------------
# exact rank

def exact_rank(M) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination.

    Works on exact integers throughout, so the result is deterministic and
    never subject to floating-point rank decisions.  Accepts a SignMatrix or
    any integer array-like.
    """
    arr = M.entries if isinstance(M, SignMatrix) else np.asarray(M)
    A = [[int(v) for v in row] for row in arr]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    prev_pivot = 1
    for col in range(n):
        if rank == m:
            break
        pivot_row = None
        for r in range(rank, m):
            if A[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            A[rank], A[pivot_row] = A[pivot_row], A[rank]
        pivot = A[rank][col]
        for r in range(rank + 1, m):
            factor = A[r][col]
            row_r = A[r]
            row_p = A[rank]
            for c in range(col, n):
                row_r[c] = (row_r[c] * pivot - factor * row_p[c]) // prev_pivot
        prev_pivot = pivot
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# singular spectrum

def spectrum(M, tolerance: float = DEFAULT_TOLERANCE) -> SpectrumReport:
    """Singular spectrum from one LAPACK SVD.

    Accepts a SignMatrix, ComplexMatrix, or a real/complex array.  Singular
    values within LAPACK's backward-error bound sigma_1 * max(m, n) * eps are
    set to exactly zero.  The numeric rank counts singular values above
    tolerance * sigma_1.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    arr = M.entries if isinstance(M, (SignMatrix, ComplexMatrix)) else M
    arr = np.asarray(arr, dtype=complex)
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


def entrywise(A: SignMatrix, B: SignMatrix) -> SignMatrix:
    if A.entries.shape != B.entries.shape:
        raise ValueError(
            f"entrywise product needs equal dimensions, got "
            f"{A.rows}x{A.cols} and {B.rows}x{B.cols}")
    return SignMatrix(A.entries * B.entries)


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

def _word(arr: np.ndarray) -> list:
    # +1 maps to 0 and -1 to 1 so that +1 sorts first
    return [0 if v == 1 else 1 for v in arr.flat]


def _refine(partition, row_bits):
    """Minimal arrangement of one row given an ordered column partition.

    Within each block the columns are free to permute, so the smallest word
    puts the +1 (bit 0) columns first; the partition refines accordingly.
    """
    row_word = []
    new_partition = []
    for block in partition:
        zeros = [c for c in block if row_bits[c] == 0]
        ones = [c for c in block if row_bits[c] == 1]
        row_word.extend([0] * len(zeros))
        row_word.extend([1] * len(ones))
        if zeros:
            new_partition.append(zeros)
        if ones:
            new_partition.append(ones)
    return row_word, new_partition


def _minimal_word(arr: np.ndarray, stop_early: bool = False):
    """Lexicographically minimal row-major word over all row/column permutations.

    Returns (word, smaller_than_identity).  Branch-and-bound over row choices
    with an ordered column partition; a branch is cut as soon as its prefix
    exceeds the matching prefix of the best complete word so far.  With
    stop_early the search stops once any word beats the identity arrangement,
    which is all a canonicality test needs.
    """
    m, n = arr.shape
    bits = [[0 if v == 1 else 1 for v in row] for row in arr]
    best = [b for row in bits for b in row]  # identity arrangement
    found_smaller = False

    def rec(used: int, partition, prefix):
        nonlocal best, found_smaller
        if stop_early and found_smaller:
            return
        if len(prefix) == m * n:
            if prefix < best:
                best = list(prefix)
                found_smaller = True
            return
        for r in range(m):
            if used & (1 << r):
                continue
            row_word, refined = _refine(partition, bits[r])
            cand = prefix + row_word
            if cand > best[:len(cand)]:
                continue
            rec(used | (1 << r), refined, cand)
            if stop_early and found_smaller:
                return

    rec(0, [list(range(n))], [])
    return tuple(best), found_smaller


def canonical_form(M: SignMatrix) -> SignMatrix:
    """Lexicographically minimal representative of M under row/column permutations."""
    word, _ = _minimal_word(M.entries)
    flat = np.array([1 if b == 0 else -1 for b in word], dtype=np.int64)
    return SignMatrix(flat.reshape(M.rows, M.cols))


def is_canonical(M: SignMatrix) -> bool:
    """True iff M equals its own canonical form."""
    return not _minimal_word(M.entries, stop_early=True)[1]


# ---------------------------------------------------------------------------
# pattern containment

def _permutation_orbit(P: SignMatrix) -> set[bytes]:
    out = set()
    rows = range(P.rows)
    for rp in itertools.permutations(rows):
        Q = P.entries[list(rp), :]
        for cp in itertools.permutations(range(P.cols)):
            out.add(np.ascontiguousarray(Q[:, list(cp)]).tobytes())
    return out


def contains_pattern(M: SignMatrix, P: SignMatrix,
                     mode: str = "up_to_permutation") -> ContainmentResult:
    """Search for P inside M as an induced submatrix.

    mode="ordered": some increasing row subset and increasing column subset
    of M induce exactly P.  mode="up_to_permutation" (default): the induced
    submatrix matches P after some row and column permutation.  The search is
    exhaustive and deterministic; the first witness in lexicographic order of
    (row subset, column subset) is returned.
    """
    if mode not in ("ordered", "up_to_permutation"):
        raise ValueError(f"unknown containment mode {mode!r}")
    p, q = P.rows, P.cols
    if p > M.rows or q > M.cols:
        raise ValueError(
            f"pattern {p}x{q} larger than matrix {M.rows}x{M.cols}")

    if mode == "ordered":
        target = P.entries
        for rows in itertools.combinations(range(M.rows), p):
            sub_rows = M.entries[list(rows), :]
            for cols in itertools.combinations(range(M.cols), q):
                if np.array_equal(sub_rows[:, list(cols)], target):
                    return ContainmentResult(True, rows, cols, mode)
        return ContainmentResult(False, None, None, mode)

    use_orbit = math.factorial(p) * math.factorial(q) <= _ORBIT_LIMIT
    if use_orbit:
        orbit = _permutation_orbit(P)
        for rows in itertools.combinations(range(M.rows), p):
            sub_rows = M.entries[list(rows), :]
            for cols in itertools.combinations(range(M.cols), q):
                sub = np.ascontiguousarray(sub_rows[:, list(cols)])
                if sub.tobytes() in orbit:
                    return ContainmentResult(True, rows, cols, mode)
        return ContainmentResult(False, None, None, mode)

    target_word = _minimal_word(P.entries)[0]
    for rows in itertools.combinations(range(M.rows), p):
        sub_rows = M.entries[list(rows), :]
        for cols in itertools.combinations(range(M.cols), q):
            sub = sub_rows[:, list(cols)]
            if _minimal_word(sub)[0] == target_word:
                return ContainmentResult(True, rows, cols, mode)
    return ContainmentResult(False, None, None, mode)


# ---------------------------------------------------------------------------
# strongly balanced search

def _balanced_rows(cols: int) -> list[tuple[int, ...]]:
    """All +-1 rows of even length summing to zero, ordered with +1 first."""
    half = cols // 2
    rows = []
    for ones_positions in itertools.combinations(range(cols), half):
        row = [1] * cols
        for c in ones_positions:
            row[c] = -1
        rows.append(tuple(row))
    rows.sort(key=lambda r: [0 if v == 1 else 1 for v in r])
    return rows


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
    forbidden_orbit = None
    forbidden_word = None
    if forbidden is not None:
        if forbidden.rows > rows or forbidden.cols > cols:
            forbidden_orbit = set()  # cannot occur
        elif math.factorial(forbidden.rows) * math.factorial(forbidden.cols) \
                <= _ORBIT_LIMIT:
            forbidden_orbit = _permutation_orbit(forbidden)
        else:
            forbidden_word = _minimal_word(forbidden.entries)[0]

    picked: list[tuple[int, ...]] = []
    col_sums = np.zeros(cols, dtype=np.int64)

    def partial_contains_forbidden() -> bool:
        # checked whenever the newest row could complete a forbidden submatrix
        if forbidden is None or len(picked) < forbidden.rows:
            return False
        sub = np.array(picked, dtype=np.int64)
        p, q = forbidden.rows, forbidden.cols
        last = len(picked) - 1
        for head in itertools.combinations(range(last), p - 1):
            sel = sub[list(head) + [last], :]
            for cols_sel in itertools.combinations(range(cols), q):
                block = np.ascontiguousarray(sel[:, list(cols_sel)])
                if forbidden_orbit is not None:
                    if block.tobytes() in forbidden_orbit:
                        return True
                elif _minimal_word(block)[0] == forbidden_word:
                    return True
        return False

    def columns_sorted_ok() -> bool:
        # canonical matrices have non-decreasing column words; prune when a
        # decided column prefix already violates that
        sub = np.array(picked, dtype=np.int64)
        for c in range(cols - 1):
            left = [0 if v == 1 else 1 for v in sub[:, c]]
            right = [0 if v == 1 else 1 for v in sub[:, c + 1]]
            if left > right:
                return False
        return True

    def dfs():
        depth = len(picked)
        if depth == rows:
            M = SignMatrix(np.array(picked, dtype=np.int64))
            if min_rank is not None and exact_rank(M) < min_rank:
                return
            if not is_canonical(M):
                return
            yield M
            return
        remaining = rows - depth - 1
        row_choices = candidates
        if depth == 0:
            # the canonical first row is the sorted balanced row
            row_choices = candidates[:1]
        for row in row_choices:
            if depth > 0 and [0 if v == 1 else 1 for v in row] < \
                    [0 if v == 1 else 1 for v in picked[-1]]:
                continue  # canonical matrices have non-decreasing rows
            new_sums = col_sums + np.array(row)
            if (np.abs(new_sums) > remaining).any():
                continue
            if ((new_sums + remaining) % 2 != 0).any():
                continue
            picked.append(row)
            col_sums[:] = new_sums
            if columns_sorted_ok() and not partial_contains_forbidden():
                yield from dfs()
            picked.pop()
            col_sums[:] = col_sums - np.array(row)

    count = 0
    for M in dfs():
        yield M
        count += 1
        if limit is not None and count >= limit:
            return
