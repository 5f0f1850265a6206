"""Sign-matrix primitives: ranks, spectra, balance, containment, search."""

import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from commbound import matrices as mx
from commbound.errors import ResourceLimitError


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        mx.SignMatrix([[1, 0], [1, -1]])
    with pytest.raises(ValueError):
        mx.SignMatrix([1, -1])
    M = mx.SignMatrix([[1, -1], [-1, 1]])
    with pytest.raises(ValueError):
        M.entries[0, 0] = -1  # frozen


def test_named_matrices_shapes():
    assert (mx.PATTERN_CORE_4.rows, mx.PATTERN_CORE_4.cols) == (4, 4)
    assert (mx.CORE_FREE_6.rows, mx.CORE_FREE_6.cols) == (6, 6)
    assert mx.builtin_matrix("xor2") == mx.XOR_2


# --- exact rank -----------------------------------------------------------

def test_exact_rank_examples():
    assert mx.exact_rank(mx.all_ones(4, 4)) == 1
    # rows 3,4 are the negations of rows 2,1
    assert mx.exact_rank(mx.PATTERN_CORE_4) == 2
    # frozen from a fraction-free elimination oracle
    assert mx.exact_rank(mx.CORE_FREE_6) == 5


def test_exact_rank_vs_floating_rank():
    rng = np.random.default_rng(7)
    for _ in range(200):
        A = rng.choice((-1, 1), size=(rng.integers(1, 9), rng.integers(1, 9)))
        rank = mx.exact_rank(mx.SignMatrix(A))
        assert rank == np.linalg.matrix_rank(A)
        assert rank == mx.spectrum(A, 1e-9).numeric_rank


def test_orthogonal_pairs_add_ranks_and_trace_norms():
    # disjoint row and column supports make A B^T and A^T B vanish: ranks
    # and trace norms add, and the spectral norm is the larger one
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        r_split = int(rng.integers(1, m))
        c_split = int(rng.integers(1, n))
        A = np.zeros((m, n), dtype=np.int64)
        B = np.zeros((m, n), dtype=np.int64)
        A[:r_split, :c_split] = rng.choice((-1, 1), size=(r_split, c_split))
        B[r_split:, c_split:] = rng.choice((-1, 1),
                                           size=(m - r_split, n - c_split))
        assert not (A @ B.T).any() and not (A.T @ B).any()
        assert mx.exact_rank(A + B) == mx.exact_rank(A) + mx.exact_rank(B)
        sa, sb, sab = (mx.spectrum(x) for x in (A, B, A + B))
        assert abs(sab.trace_norm - sa.trace_norm - sb.trace_norm) <= 1e-8
        assert abs(sab.spectral_norm
                   - max(sa.spectral_norm, sb.spectral_norm)) <= 1e-8


def _bareiss_rank(arr) -> int:
    """Fraction-free (Bareiss) elimination on Python ints: the reference
    that exact_rank replaced."""
    A = [[int(v) for v in row] for row in arr]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    prev_pivot = 1
    for col in range(n):
        if rank == m:
            break
        pivot_row = next((r for r in range(rank, m) if A[r][col] != 0), None)
        if pivot_row is None:
            continue
        A[rank], A[pivot_row] = A[pivot_row], A[rank]
        pivot = A[rank][col]
        for r in range(rank + 1, m):
            factor = A[r][col]
            row_r, row_p = A[r], A[rank]
            for c in range(col, n):
                row_r[c] = (row_r[c] * pivot - factor * row_p[c]) // prev_pivot
        prev_pivot = pivot
        rank += 1
    return rank


def test_exact_rank_vs_bareiss():
    rng = np.random.default_rng(11)
    for shape in [(40, 40), (40, 13), (13, 40), (1, 40), (40, 1)]:
        for _ in range(3):
            A = rng.integers(-50, 51, size=shape)
            assert mx.exact_rank(A) == _bareiss_rank(A), shape
    for _ in range(100):
        m, n = rng.integers(1, 41, size=2)
        r = rng.integers(0, min(m, n) + 1)
        A = rng.integers(-3, 4, size=(m, r)) @ rng.integers(-3, 4, size=(r, n))
        assert mx.exact_rank(A) == _bareiss_rank(A), (m, n, r)


def test_rank_mod_on_lists_and_arrays_across_the_crossover(monkeypatch):
    # low-rank integer and +-1 matrices on both sides of _LIST_RANK_CELLS:
    # the list and the numpy elimination agree prime by prime, and
    # exact_rank agrees with Bareiss
    rng = np.random.default_rng(29)
    cut = mx._LIST_RANK_CELLS
    shapes = [(6, 8), (16, 16), (15, 17), (17, 15), (8, 32), (32, 8),
              (16, 17), (20, 20), (1, cut), (cut, 1), (1, cut + 1)]
    assert {m * n <= cut for m, n in shapes} == {True, False}
    p = mx._prime(0)
    for m, n in shapes:
        r = int(rng.integers(0, min(m, n) + 1))
        low = rng.integers(-3, 4, size=(m, r)) @ rng.integers(-3, 4, size=(r, n))
        # +-1 rows drawn from r kinds, each up to sign
        kinds = rng.choice((-1, 1), size=(max(r, 1), n))
        signs = kinds[rng.integers(0, len(kinds), size=m)] * \
            rng.choice((-1, 1), size=(m, 1))
        for A in (low, signs, rng.choice((-1, 1), size=(m, n))):
            want = _bareiss_rank(A)
            assert mx.exact_rank(A) == want, (m, n, r)
            ranks = []
            for cells in (cut, -1):     # as configured, then numpy only
                monkeypatch.setattr(mx, "_LIST_RANK_CELLS", cells)
                ranks.append(mx._rank_mod(A % p, p))
            monkeypatch.setattr(mx, "_LIST_RANK_CELLS", cut)
            assert ranks[0] == ranks[1] <= want, (m, n, r)


def test_exact_rank_vs_sympy():
    import sympy
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, n = rng.integers(1, 16, size=2)
        r = rng.integers(0, min(m, n) + 1)
        A = rng.integers(-9, 10, size=(m, r)) @ rng.integers(-9, 10, size=(r, n))
        assert mx.exact_rank(A) == sympy.Matrix(A.tolist()).rank(), (m, n, r)


def test_exact_rank_survives_bad_primes():
    # each matrix is singular modulo the first prime(s) eliminated over,
    # but not over the rationals
    p0, p1 = mx._prime(0), mx._prime(1)
    for A in ([[1, 0], [0, p0]], [[p0 * p1, 0], [0, 1]], [[p0 ** 2, 0], [0, 1]]):
        assert mx.exact_rank(np.array(A, dtype=object)) == 2, A


def test_exact_rank_entries_beyond_int64():
    assert mx.exact_rank(np.array([[2 ** 70, 1], [1, 0]], dtype=object)) == 2
    assert mx.exact_rank([[2 ** 70, 2 ** 71], [1, 2]]) == 1
    assert mx.exact_rank(np.array([[2 ** 64 - 1, 1]], dtype=np.uint64)) == 1


def _signed_hadamard_256(seed):
    """A 256 x 256 sign matrix of full rank: the Sylvester-Hadamard matrix,
    whose rows are orthogonal, under random row and column signs and a
    random row order."""
    rng = np.random.default_rng(seed)
    H = np.ones((1, 1), dtype=np.int64)
    for _ in range(8):
        H = np.kron(H, mx.HADAMARD_2.entries)
    H = H * rng.choice((-1, 1), size=(256, 1)) * rng.choice((-1, 1), size=256)
    return H[rng.permutation(256)]


def test_exact_rank_sign_matrix_with_repeated_row():
    H = _signed_hadamard_256(13)
    assert mx.exact_rank(mx.SignMatrix(H)) == 256
    # overwriting one row by another leaves 255 orthogonal rows
    H[200] = H[3]
    assert mx.exact_rank(mx.SignMatrix(H)) == 255


def test_exact_rank_primes(monkeypatch):
    import sympy
    used = []
    prime = mx._prime

    def recording(i):
        used.append(prime(i))
        return used[-1]

    monkeypatch.setattr(mx, "_prime", recording)
    H = _signed_hadamard_256(14)
    H[7] = H[100]
    assert mx.exact_rank(H) == 255
    # a rank-deficient 256 x 256 sign matrix takes dozens of primes
    assert 10 < len(used) == len(set(used))
    assert all(sympy.isprime(p) and p < 2 ** 21 for p in used)



def test_exact_rank_stops_at_a_known_upper_bound(monkeypatch):
    used = []
    prime = mx._prime
    monkeypatch.setattr(mx, "_prime", lambda i: used.append(i) or prime(i))
    H = _signed_hadamard_256(14)
    H[7] = H[100]
    # the first prime already reaches the bound 255, so it settles the rank
    assert mx.exact_rank(H, at_most=255) == 255 and used == [0]
    # a bound above the rank settles nothing, and every prime is taken
    used.clear()
    assert mx.exact_rank(H, at_most=256) == 255 and len(used) > 10

def test_exact_rank_input_checks():
    assert mx.exact_rank(np.zeros((0, 3))) == 0
    assert mx.exact_rank(np.zeros((3, 0), dtype=np.int64)) == 0
    assert mx.exact_rank(np.zeros((3, 4))) == 0
    assert mx.exact_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    for bad in ([[0.5, 0.5], [0.5, 0.7]], [[1, math.nan]], [[math.inf]],
                [[1 + 2j]], [["1"]]):
        with pytest.raises(ValueError, match="integer entries"):
            mx.exact_rank(bad)
    for bad in ([1, 2, 3], 5, np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="2-D"):
            mx.exact_rank(bad)


# --- spectrum -------------------------------------------------------------

def test_spectrum_all_ones():
    for m, n in [(2, 3), (4, 4), (1, 5)]:
        sp = mx.spectrum(mx.all_ones(m, n))
        assert sp.spectral_norm == pytest.approx(math.sqrt(m * n), abs=1e-12)
        assert sp.numeric_rank == 1


def test_spectrum_hadamard_2():
    # H_2^(x)k is 2^(k/2) times an orthogonal matrix
    H = mx.HADAMARD_2
    for k in range(1, 7):
        sp = mx.spectrum(H)
        assert sp.singular_values == pytest.approx((2 ** (k / 2),) * 2 ** k,
                                                   rel=1e-12)
        assert sp.numeric_rank == 2 ** k
        H = mx.tensor(H, mx.HADAMARD_2)


def test_spectrum_pattern_core():
    sp = mx.spectrum(mx.PATTERN_CORE_4)
    assert sp.spectral_norm == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert sp.numeric_rank == 2
    # Gram eigenvalues are {8, 8, 0, 0}
    assert sp.singular_values[:2] == pytest.approx((2 * math.sqrt(2),) * 2)
    assert sp.singular_values[2:] == (0.0, 0.0)


def test_spectrum_core_free_6():
    sp = mx.spectrum(mx.CORE_FREE_6)
    assert sp.spectral_norm == pytest.approx(2 * math.sqrt(3), abs=1e-12)
    assert sp.numeric_rank == 5


def test_spectrum_kronecker_rule():
    # singular values of A (x) B are the pairwise products of theirs
    core4 = [2 * math.sqrt(2)] * 2 + [0.0] * 2
    core6 = [2 * math.sqrt(3)] * 2 + [2.0] * 3 + [0.0]
    want = sorted((a * b for a in core4 for b in core6), reverse=True)
    sp = mx.spectrum(mx.tensor(mx.PATTERN_CORE_4, mx.CORE_FREE_6))
    assert sp.singular_values == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert sp.numeric_rank == 10


def test_spectrum_matches_numpy_svd():
    rng = np.random.default_rng(11)
    for i in range(60):
        m, n = rng.integers(1, 9, 2)
        if i % 2:
            A = rng.normal(size=(m, n))
        else:
            A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        got = np.array(mx.spectrum(A).singular_values)
        want = np.linalg.svd(np.asarray(A, complex))[1]
        assert np.allclose(got, want, atol=1e-9)


def test_spectrum_rejects_bad_tolerance():
    # the numeric rank counts values above tolerance * sigma_1, so a
    # tolerance of 1 or more would always report rank 0
    for tolerance in (0.0, -1e-9, 1.0, 2.5, math.nan):
        with pytest.raises(ValueError):
            mx.spectrum(mx.XOR_2, tolerance=tolerance)


def test_frobenius_identity_for_sign_matrices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = mx.SignMatrix(rng.choice((-1, 1),
                                     size=(rng.integers(1, 9),
                                           rng.integers(1, 9))))
        assert abs(mx.spectrum(A).frobenius_norm - math.sqrt(A.size)) <= 1e-9


# --- balance --------------------------------------------------------------

def test_strong_balance_is_vanishing_products_with_all_ones():
    # over all 4x4 sign matrices at once: E[b, i, j] = -1 iff bit 4i + j of b
    J = np.ones((4, 4), dtype=np.int64)
    E = (1 - 2 * (np.arange(2 ** 16)[:, None] >> np.arange(16) & 1)
         ).reshape(-1, 4, 4)
    flag = ((E.sum(axis=1) == 0).all(axis=1)
            & (E.sum(axis=2) == 0).all(axis=1))
    product_flag = (~(E @ J).any(axis=(1, 2))
                    & ~(E.transpose(0, 2, 1) @ J).any(axis=(1, 2)))
    assert (flag == product_flag).all() and flag.sum() == 90
    # balance_check on every balanced matrix and on a stride of the rest
    for b in [*np.flatnonzero(flag), *range(0, 2 ** 16, 64)]:
        assert mx.balance_check(mx.SignMatrix(E[b])).strongly_balanced == \
            flag[b], b


def test_balance_examples():
    assert mx.balance_check(mx.PATTERN_CORE_4).strongly_balanced
    assert mx.balance_check(mx.CORE_FREE_6).strongly_balanced
    rep = mx.balance_check(mx.all_ones(3, 3))
    assert not rep.balanced and not rep.strongly_balanced
    # balanced but not strongly balanced
    rep = mx.balance_check(mx.SignMatrix([[1, 1], [-1, -1]]))
    assert rep.balanced and not rep.strongly_balanced
    assert rep.row_sums == (2, -2)


# --- products -------------------------------------------------------------

def test_tensor_and_entrywise():
    assert mx.tensor(mx.HADAMARD_2, mx.SignMatrix([[1]])) == mx.HADAMARD_2
    core = mx.PATTERN_CORE_4.entries
    assert mx.SignMatrix(core * core) == mx.all_ones(4, 4)
    assert mx.exact_rank(mx.tensor(mx.XOR_2, mx.XOR_2)) == 1


def test_tensor_rank_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        A = mx.SignMatrix(rng.choice((-1, 1), size=(rng.integers(1, 5),
                                                    rng.integers(1, 5))))
        B = mx.SignMatrix(rng.choice((-1, 1), size=(rng.integers(1, 5),
                                                    rng.integers(1, 5))))
        assert mx.exact_rank(mx.tensor(A, B)) == \
            mx.exact_rank(A) * mx.exact_rank(B)
    A, B, C = (mx.SignMatrix(rng.choice((-1, 1), size=(2, 3)))
               for _ in range(3))
    assert mx.tensor(mx.tensor(A, B), C) == mx.tensor(A, mx.tensor(B, C))


# --- containment ----------------------------------------------------------

def test_containment_identity():
    hit = mx.contains_pattern(mx.PATTERN_CORE_4, mx.PATTERN_CORE_4, "ordered")
    assert hit.found
    assert hit.row_indices == (0, 1, 2, 3)
    assert hit.col_indices == (0, 1, 2, 3)


def test_core_free_6_avoids_the_core():
    # verified against an exhaustive 15 x 15 x 576 oracle before freezing
    assert not mx.contains_pattern(mx.CORE_FREE_6, mx.PATTERN_CORE_4,
                                   "up_to_permutation").found
    assert not mx.contains_pattern(mx.CORE_FREE_6, mx.PATTERN_CORE_4,
                                   "ordered").found


def test_all_ones_has_no_core():
    assert not mx.contains_pattern(mx.all_ones(4, 4), mx.PATTERN_CORE_4).found


def test_containment_finds_planted_pattern():
    rng = np.random.default_rng(13)
    core = mx.PATTERN_CORE_4.entries
    M = rng.choice((-1, 1), size=(6, 6))
    M[1:5, 2:6] = core[rng.permutation(4)][:, rng.permutation(4)]
    hit = mx.contains_pattern(mx.SignMatrix(M), mx.PATTERN_CORE_4)
    assert hit.found


def test_containment_rejects_oversized_pattern():
    with pytest.raises(ValueError):
        mx.contains_pattern(mx.XOR_2, mx.PATTERN_CORE_4)


def orbit_oracle(M, P, mode):
    """First (rows, cols) whose submatrix is one of P's p!*q! arrangements
    (P itself when ordered), trying every submatrix in lexicographic order."""
    p, q = P.shape
    arrangements = [P] if mode == "ordered" else [
        P[np.ix_(r, c)] for r in itertools.permutations(range(p))
        for c in itertools.permutations(range(q))]
    orbit = {np.ascontiguousarray(Q, dtype=np.int64).tobytes()
             for Q in arrangements}
    for rows in itertools.combinations(range(M.shape[0]), p):
        for cols in itertools.combinations(range(M.shape[1]), q):
            sub = np.ascontiguousarray(M[np.ix_(rows, cols)], dtype=np.int64)
            if sub.tobytes() in orbit:
                return rows, cols
    return None, None


def plant(rng, M, P):
    """Copy a random row/column arrangement of P into random rows and cols."""
    rows = np.sort(rng.choice(M.shape[0], P.shape[0], replace=False))
    cols = np.sort(rng.choice(M.shape[1], P.shape[1], replace=False))
    M[np.ix_(rows, cols)] = P[rng.permutation(P.shape[0])][
        :, rng.permutation(P.shape[1])]


def test_containment_matches_orbit_oracle():
    rng = np.random.default_rng(41)
    shapes = [tuple(int(v) for v in rng.integers(4, 9, size=2))
              + tuple(int(v) for v in rng.integers(1, 5, size=2))
              for _ in range(60)]
    shapes += [(6, 5, 4, 2), (7, 4, 3, 1), (8, 8, 4, 3)]  # taller than wide
    found = 0
    for m, n, p, q in shapes:
        M = rng.choice((-1, 1), size=(m, n))
        P = rng.choice((-1, 1), size=(p, q))
        if rng.random() < 0.5:
            plant(rng, M, P)
        for mode in ("ordered", "up_to_permutation"):
            hit = mx.contains_pattern(mx.SignMatrix(M), mx.SignMatrix(P), mode)
            rows, cols = orbit_oracle(M, P, mode)
            assert (hit.found, hit.row_indices, hit.col_indices) == \
                (rows is not None, rows, cols), (M, P, mode)
            found += hit.found
    assert 0 < found < 2 * len(shapes)


def test_containment_past_one_integer_key():
    """Patterns of more than 62 cells are compared by canonical words.  The
    oracle tries both orders of the two-line side and compares the sorted
    lines of the other side."""
    def oracle(M, P, mode):
        swap = P.shape[0] > P.shape[1]
        if swap:
            M, P = M.T, P.T
        target = sorted(map(tuple, P.T))
        hits = []
        for rows in itertools.combinations(range(M.shape[0]), 2):
            for cols in itertools.combinations(range(M.shape[1]), P.shape[1]):
                S = M[np.ix_(rows, cols)]
                if (np.array_equal(S, P) if mode == "ordered" else
                        any(sorted(map(tuple, S[list(r)].T)) == target
                            for r in itertools.permutations(range(2)))):
                    hits.append((cols, rows) if swap else (rows, cols))
        return min(hits) if hits else (None, None)

    rng = np.random.default_rng(43)
    P = rng.choice((-1, 1), size=(2, 32))
    found = {"ordered": 0, "up_to_permutation": 0}
    for trial in range(6):
        M = rng.choice((-1, 1), size=(3, 33))
        if trial:
            cols = np.sort(rng.choice(33, 32, replace=False))
            M[np.ix_([0, 2], cols)] = \
                P[::-1][:, rng.permutation(32)] if trial % 2 else P
        if trial > 3:
            M[1] = M[2]             # an earlier copy at rows (0, 1)
        for A, B in ((M, P), (M.T, P.T)):
            for mode in found:
                hit = mx.contains_pattern(mx.SignMatrix(A), mx.SignMatrix(B),
                                          mode)
                rows, cols = oracle(A, B, mode)
                assert (hit.found, hit.row_indices, hit.col_indices) == \
                    (rows is not None, rows, cols), (trial, mode)
                found[mode] += hit.found
    assert found == {"ordered": 4, "up_to_permutation": 10}


# --- canonical forms ------------------------------------------------------

def test_canonical_form_is_orbit_minimum():
    rng = np.random.default_rng(17)
    M = mx.SignMatrix(rng.choice((-1, 1), size=(3, 3)))
    base = mx.canonical_form(M)
    for _ in range(20):
        P = mx.SignMatrix(M.entries[rng.permutation(3)][:, rng.permutation(3)])
        assert mx.canonical_form(P) == base
    assert mx.is_canonical(base)


def _brute_canonical_word(E):
    """Smallest row-major word (+1 -> 0, -1 -> 1) over every row and
    column permutation."""
    bits = (E == -1).astype(int)
    m, n = E.shape
    return min(tuple(bits[np.ix_(r, c)].ravel())
               for r in itertools.permutations(range(m))
               for c in itertools.permutations(range(n)))


def test_canonical_form_tall_repeated_rows_against_brute_force():
    def check(E):
        want = _brute_canonical_word(E)
        got = mx.canonical_form(mx.SignMatrix(E)).entries
        assert tuple((got == -1).ravel()) == want, E
        ident = tuple((E == -1).astype(int).ravel())
        assert mx.is_canonical(mx.SignMatrix(E)) == (ident == want), E

    rng = np.random.default_rng(23)
    for m, n in ((5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (4, 4)):
        for _ in range(4):
            kinds = rng.choice((-1, 1), size=(int(rng.integers(1, 4)), n))
            check(kinds[rng.integers(0, len(kinds), size=m)])
    # wide shapes, and random rows that need not repeat
    for m, n in ((2, 5), (3, 5), (3, 6), (4, 5), (4, 5), (4, 5)):
        check(rng.choice((-1, 1), size=(m, n)))
    # 32 copies each of two rows: one branch per distinct row, not per row
    M = mx.SignMatrix(np.kron(np.ones((32, 1), dtype=int), mx.XOR_2.entries))
    assert mx.canonical_form(M).entries.tolist() == \
        [[1, -1]] * 32 + [[-1, 1]] * 32


def test_canonical_form_past_the_recursion_limit():
    # 1,100 rows, more than Python's default recursion limit of 1,000
    M = mx.SignMatrix(np.kron(np.ones((550, 1), dtype=int), mx.XOR_2.entries))
    C = mx.canonical_form(M)
    assert C.entries.tolist() == [[1, -1]] * 550 + [[-1, 1]] * 550
    assert not mx.is_canonical(M) and mx.is_canonical(C)


# --- strongly balanced search ---------------------------------------------

def test_search_rejects_odd_dimensions():
    with pytest.raises(ValueError):
        list(mx.search_strongly_balanced(3, 4))


def test_search_2x2():
    found = list(mx.search_strongly_balanced(2, 2, min_rank=1))
    assert found == [mx.XOR_2]


def test_search_4x4_canonical_classes():
    """Exhaustive 4x4: 90 strongly balanced matrices in 2 permutation classes
    (frozen from a brute-force enumeration over all 2^16 sign matrices)."""
    found = list(mx.search_strongly_balanced(4, 4))
    assert len(found) == 2
    assert sorted(mx.exact_rank(M) for M in found) == [1, 2]
    for M in found:
        assert mx.balance_check(M).strongly_balanced
        assert mx.is_canonical(M)
    # the rank-2 class is the pattern core's class
    rank2 = next(M for M in found if mx.exact_rank(M) == 2)
    assert mx.canonical_form(mx.PATTERN_CORE_4) == rank2


def test_search_4x4_brute_force_cross_check():
    """Independent enumeration of all 2^16 sign matrices."""
    count = 0
    reps = set()
    for bits in range(2 ** 16):
        E = np.array([[1 - 2 * ((bits >> (4 * i + j)) & 1) for j in range(4)]
                      for i in range(4)], dtype=np.int64)
        if (E.sum(axis=0) == 0).all() and (E.sum(axis=1) == 0).all():
            count += 1
            reps.add(mx.canonical_form(mx.SignMatrix(E)))
    assert count == 90
    assert reps == set(mx.search_strongly_balanced(4, 4))


def test_search_non_square_cross_check():
    """Non-square shapes against brute-force enumeration."""
    for rows, cols in [(2, 4), (4, 2)]:
        reps = set()
        for bits in range(2 ** (rows * cols)):
            E = np.array([[1 - 2 * ((bits >> (cols * i + j)) & 1)
                           for j in range(cols)] for i in range(rows)])
            if (E.sum(axis=0) == 0).all() and (E.sum(axis=1) == 0).all():
                reps.add(mx.canonical_form(mx.SignMatrix(E)))
        assert set(mx.search_strongly_balanced(rows, cols)) == reps
        assert len(reps) == 1


def test_search_4x4_core_free_is_empty():
    # frozen from the same brute-force oracle: no 4x4 strongly balanced
    # matrix of rank >= 2 avoids the pattern core
    found = list(mx.search_strongly_balanced(4, 4, min_rank=2,
                                             forbidden=mx.PATTERN_CORE_4))
    assert found == []


def test_search_6x6_core_free_exists():
    found = list(mx.search_strongly_balanced(6, 6, min_rank=2,
                                             forbidden=mx.PATTERN_CORE_4,
                                             limit=1))
    assert len(found) == 1
    M = found[0]
    assert mx.balance_check(M).strongly_balanced
    assert mx.exact_rank(M) >= 2
    assert not mx.contains_pattern(M, mx.PATTERN_CORE_4).found
    # the published 6x6 example passes the same filter
    assert mx.balance_check(mx.CORE_FREE_6).strongly_balanced
    assert mx.exact_rank(mx.CORE_FREE_6) >= 2


def test_search_6x6_core_free_frozen():
    # the full output, frozen from the orbit-set enumerator that predates
    # the integer submatrix matcher
    found = [M.entries.tolist() for M in
             mx.search_strongly_balanced(6, 6, forbidden=mx.PATTERN_CORE_4)]
    assert found == [
        [[1, 1, 1, -1, -1, -1], [1, 1, 1, -1, -1, -1], [1, 1, 1, -1, -1, -1],
         [-1, -1, -1, 1, 1, 1], [-1, -1, -1, 1, 1, 1], [-1, -1, -1, 1, 1, 1]],
        [[1, 1, 1, -1, -1, -1], [1, 1, -1, 1, -1, -1], [1, -1, -1, -1, 1, 1],
         [-1, 1, -1, -1, 1, 1], [-1, -1, 1, 1, 1, -1], [-1, -1, 1, 1, -1, 1]],
    ]
    assert mx.canonical_form(mx.CORE_FREE_6).entries.tolist() == found[1]


def test_search_full_outputs_frozen():
    # the full ordered outputs of search(6, 6) (all 7 classes) and of the
    # first five 6x8 classes of rank at least 4, frozen from the enumerator
    # that kept an ordered column partition per node
    P, N = 1, -1
    cases = {
        (6, 6, None, None): [
            [[P, P, P, N, N, N], [P, P, P, N, N, N], [P, P, P, N, N, N],
             [N, N, N, P, P, P], [N, N, N, P, P, P], [N, N, N, P, P, P]],
            [[P, P, P, N, N, N], [P, P, P, N, N, N], [P, P, N, P, N, N],
             [N, N, P, N, P, P], [N, N, N, P, P, P], [N, N, N, P, P, P]],
            [[P, P, P, N, N, N], [P, P, P, N, N, N], [P, N, N, P, P, N],
             [N, P, N, P, N, P], [N, N, P, N, P, P], [N, N, N, P, P, P]],
            [[P, P, P, N, N, N], [P, P, N, P, N, N], [P, P, N, N, P, N],
             [N, N, P, P, N, P], [N, N, P, N, P, P], [N, N, N, P, P, P]],
            [[P, P, P, N, N, N], [P, P, N, P, N, N], [P, N, P, N, P, N],
             [N, P, N, P, N, P], [N, N, P, N, P, P], [N, N, N, P, P, P]],
            [[P, P, P, N, N, N], [P, P, N, P, N, N], [P, N, P, N, P, N],
             [N, P, N, N, P, P], [N, N, P, P, N, P], [N, N, N, P, P, P]],
            [[P, P, P, N, N, N], [P, P, N, P, N, N], [P, N, N, N, P, P],
             [N, P, N, N, P, P], [N, N, P, P, P, N], [N, N, P, P, N, P]],
        ],
        (6, 8, 4, 5): [
            [[P, P, P, P, N, N, N, N], [P, P, P, P, N, N, N, N],
             [P, N, N, N, P, P, P, N], [N, P, N, N, P, P, N, P],
             [N, N, P, N, P, N, P, P], [N, N, N, P, N, P, P, P]],
            [[P, P, P, P, N, N, N, N], [P, P, P, N, P, N, N, N],
             [P, P, N, P, N, P, N, N], [N, N, P, N, N, P, P, P],
             [N, N, N, P, P, N, P, P], [N, N, N, N, P, P, P, P]],
            [[P, P, P, P, N, N, N, N], [P, P, P, N, P, N, N, N],
             [P, P, N, N, N, P, P, N], [N, N, P, P, N, P, N, P],
             [N, N, N, P, P, N, P, P], [N, N, N, N, P, P, P, P]],
            [[P, P, P, P, N, N, N, N], [P, P, P, N, P, N, N, N],
             [P, P, N, N, N, P, P, N], [N, N, P, N, N, P, P, P],
             [N, N, N, P, P, P, N, P], [N, N, N, P, P, N, P, P]],
            [[P, P, P, P, N, N, N, N], [P, P, P, N, P, N, N, N],
             [P, N, N, P, N, P, P, N], [N, P, N, P, N, P, N, P],
             [N, N, P, N, P, N, P, P], [N, N, N, N, P, P, P, P]],
        ],
    }
    for (rows, cols, min_rank, limit), want in cases.items():
        found = mx.search_strongly_balanced(rows, cols, min_rank=min_rank,
                                            limit=limit)
        assert [M.entries.tolist() for M in found] == want, (rows, cols)


def reference_search(rows, cols, min_rank=None, forbidden=None, limit=None):
    """Independent oracle: the enumerator that kept one integer code per
    column.  Each candidate extends every code to 2 * code + bit, and a
    prefix survives while the codes are sorted, every column of k ones
    among depth rows can still reach sum zero (|depth - 2k| <= rows left)
    and the newest row completes no forbidden submatrix."""
    candidates = [row for row in itertools.product((0, 1), repeat=cols)
                  if 2 * sum(row) == cols]
    find = None if forbidden is None else \
        mx._submatrix_matcher(forbidden, True, cols)

    def contains_forbidden(depth, codes):
        if find is None or depth < forbidden.rows:
            return False
        heads = itertools.combinations(range(depth - 1), forbidden.rows - 1)
        return find(mx._signs(codes, depth).T,
                    (h + (depth - 1,) for h in heads)) is not None

    def children(node):
        placed, start, codes = node
        depth = placed + 1
        twice = [2 * c for c in codes]
        for i in range(start, len(candidates) if depth > 1 else 1):
            new = tuple(map(operator.add, twice, candidates[i]))
            if list(new) == sorted(new) and \
                    all(abs(depth - 2 * c.bit_count()) <= rows - depth
                        for c in new) and \
                    not contains_forbidden(depth, new):
                yield depth, i, new

    leaves = (mx.SignMatrix(mx._signs(codes, rows).T) for _, _, codes in
              mx._depth_first(children, (0, 0, (0,) * cols), rows))
    return list(itertools.islice(
        (M for M in leaves if mx.is_canonical(M) and
         (min_rank is None or mx.exact_rank(M) >= min_rank)), limit))


def walk_counted(monkeypatch, search, *args, **kw):
    """search's output and the number of prefixes its own tree visits: the
    first _depth_first call, made before any leaf's canonicity test."""
    count = []
    depth_first = mx._depth_first

    def counted(children, root, depth):
        if count:
            return depth_first(children, root, depth)
        count.append(0)

        def kids(node):
            for child in children(node):
                count[0] += 1
                yield child
        return depth_first(kids, root, depth)

    with monkeypatch.context() as m:
        m.setattr(mx, "_depth_first", counted)
        return list(search(*args, **kw)), count[0]


def test_search_against_the_column_code_enumerator(monkeypatch):
    # every even shape up to 48 cells, plain, with a rank floor and with a
    # forbidden pattern: the same matrices in the same order, and the same
    # prefixes, as the sum and tie masks prune exactly where the sorted
    # codes and reachable sums did
    shapes = [(r, c) for r in (2, 4, 6, 8) for c in (2, 4, 6, 8)
              if r * c <= 48]
    cases = [(rows, cols, kw) for rows, cols in shapes
             for kw in ({}, {"min_rank": 2}, {"forbidden": mx.PATTERN_CORE_4})]
    # the other builtin patterns, a wide search with a limit, tall
    # core4-free searches, a pattern with a repeated row, and a pattern
    # taller than wide, which goes to the shared matcher
    cf6, h2, core4 = mx.CORE_FREE_6, mx.HADAMARD_2, mx.PATTERN_CORE_4
    twice = mx.SignMatrix(np.array([[1, 1, -1, -1], [1, 1, -1, -1],
                                    [1, -1, 1, -1]]))
    tall = mx.SignMatrix(np.array([[1, 1], [1, -1], [-1, 1]]))
    cases += [(6, 6, {"forbidden": cf6}), (8, 6, {"forbidden": cf6}),
              (6, 10, {"forbidden": cf6, "limit": 3}),
              (6, 6, {"forbidden": h2}), (4, 8, {"forbidden": h2}),
              (20, 2, {"forbidden": h2}), (12, 4, {"forbidden": core4}),
              (16, 4, {"forbidden": core4, "limit": 1}),
              (6, 6, {"forbidden": twice}), (12, 4, {"forbidden": twice}),
              (6, 4, {"forbidden": tall}), (8, 6, {"forbidden": tall})]
    matcher = mx._submatrix_matcher
    for rows, cols, kw in cases:
        want = walk_counted(monkeypatch, reference_search, rows, cols, **kw)
        calls = []

        def counted(P, permute, width):
            find = matcher(P, permute, width)
            return lambda E, row_sets: calls.append(1) or find(E, row_sets)
        with monkeypatch.context() as m:
            m.setattr(mx, "_submatrix_matcher", counted)
            got = walk_counted(monkeypatch, mx.search_strongly_balanced,
                               rows, cols, **kw)
        assert got == want, (rows, cols, kw)
        assert bool(calls) == (kw.get("forbidden") is tall), (rows, cols, kw)


def test_search_ranks_before_it_tests_canonicity(monkeypatch):
    # 25 leaves of search(6, 6), of which 10 have rank >= 4: only those
    # reach the canonicity test, and 2 of them are emitted
    ranked, tested = [], []
    exact_rank, minimal_word = mx.exact_rank, mx._minimal_word

    def rank(M, at_most=None):
        ranked.append(exact_rank(M))
        return ranked[-1]

    def word(rows, width, stop_early=False):
        tested.append(exact_rank(mx._signs(rows, width)))
        return minimal_word(rows, width, stop_early)
    monkeypatch.setattr(mx, "exact_rank", rank)
    monkeypatch.setattr(mx, "_minimal_word", word)
    found = list(mx.search_strongly_balanced(6, 6, min_rank=4))
    assert len(found) == 2 and len(ranked) == 25
    assert len(tested) == sum(r >= 4 for r in ranked) == 10
    assert min(tested) >= 4


def test_search_skips_a_forbidden_pattern_that_cannot_fit(monkeypatch):
    # a pattern with more columns, or more rows, than the search is in no
    # node, so the search is the unfiltered one and never looks for it
    def never(*args):
        raise AssertionError("looked for a pattern that cannot fit")
    cases = [(40, 2, mx.PATTERN_CORE_4, 3), (4, 4, mx.CORE_FREE_6, None),
             (2, 6, mx.PATTERN_CORE_4, None)]
    for rows, cols, P, limit in cases:
        want = list(mx.search_strongly_balanced(rows, cols, limit=limit))
        with monkeypatch.context() as m:
            m.setattr(mx, "_forbidden_check", never)
            m.setattr(mx, "_submatrix_matcher", never)
            got = list(mx.search_strongly_balanced(rows, cols, forbidden=P,
                                                   limit=limit))
        assert got == want and want, (rows, cols)


def test_search_wide_outputs_frozen():
    # ordered outputs frozen from the column-code enumerator; with two rows
    # the only second row is the complement of the first
    def signs(*rows):
        return [[1 if ch == "P" else -1 for ch in row] for row in rows]
    a, b = "P" * 8 + "N" * 8, "N" * 8 + "P" * 8
    cases = {
        (4, 16, 3): [
            signs(a, a, b, b),
            signs(a, "P" * 7 + "NP" + "N" * 7, "N" * 7 + "PN" + "P" * 7, b),
            signs(a, "P" * 6 + "NNPP" + "N" * 6, "N" * 6 + "PPNN" + "P" * 6,
                  b),
        ],
        (2, 22, 1): [signs("P" * 11 + "N" * 11, "N" * 11 + "P" * 11)],
    }
    for (rows, cols, limit), want in cases.items():
        found = mx.search_strongly_balanced(rows, cols, limit=limit)
        assert [M.entries.tolist() for M in found] == want, (rows, cols)


def test_search_refuses_wide_rows_before_allocating():
    # C(30, 15) = 155,117,520 balanced rows of 30 int64 entries would need
    # 37 GB; 24 columns (519 MB) are the first refused
    tracemalloc.start()
    try:
        for cols in (30, 24):
            with pytest.raises(ResourceLimitError,
                               match=f"{cols} columns need"):
                list(mx.search_strongly_balanced(2, cols, limit=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_balanced_rows_against_sorted_brute_force():
    # codes are Python ints, bit 1 for -1 and the first column most
    # significant; width 0 has the one empty row
    for cols in range(0, 11, 2):
        brute = sorted(itertools.product((0, 1), repeat=cols))
        want = [row for row in brute if 2 * sum(row) == cols]
        codes = mx._balanced_rows(cols)
        assert all(type(c) is int for c in codes)
        assert [tuple(c >> cols - 1 - j & 1 for j in range(cols))
                for c in codes] == want, cols


def test_search_respects_limit():
    found = list(mx.search_strongly_balanced(4, 4, limit=1))
    assert len(found) == 1


# --- text format ----------------------------------------------------------

def test_text_round_trip():
    text = mx.format_sign_matrix(mx.CORE_FREE_6)
    assert mx.parse_sign_matrix(text) == mx.CORE_FREE_6
    assert text.splitlines()[0] == "6 6"
    assert set(text.split()) - {"6"} == {"+1", "-1"}


def test_text_short_tokens():
    assert mx.parse_sign_matrix("2 2\n+ -\n- +") == mx.XOR_2


def test_text_errors():
    with pytest.raises(ValueError):
        mx.parse_sign_matrix("")
    with pytest.raises(ValueError):
        mx.parse_sign_matrix("2 2\n+1 -1")
    with pytest.raises(ValueError):
        mx.parse_sign_matrix("1 2\n+1 0")
    # rows past the header's count are refused, not dropped
    with pytest.raises(ValueError, match="expected 2 matrix rows, found 3"):
        mx.parse_sign_matrix("2 2\n+ -\n- +\n+ +")
    # one ValueError naming the format and the token or count, never
    # Python's own message
    for text, words in (("a b\n+ -", "header"), ("2 2 2\n+ -\n- +", "header"),
                        ("-1 2", "header"), ("2\n+ -", "header"),
                        ("1 2\n+ - +", "expected 2 tokens per row, got 3"),
                        ("1 2\n+ 1", "token '1'")):
        with pytest.raises(ValueError, match="sign-matrix") as err:
            mx.parse_sign_matrix(text)
        assert words in str(err.value), text
