"""Composition, orthogonality of composed characters, rank formula, witnesses."""

import math
import tracemalloc

import numpy as np
import pytest

from commbound import composer as cp
from commbound import matrices as mx
from commbound.approx import DualWitness, dual_polynomial
from commbound.boolfn import (BoolFunction, all_functions, builtin_function,
                              character_sums)
from commbound.errors import ResourceLimitError

CORE4 = mx.PATTERN_CORE_4
CORE6 = mx.CORE_FREE_6
# rectangular inner matrices, strongly balanced or not
WIDE = mx.SignMatrix([[1, -1, 1, -1], [-1, 1, -1, 1]])
TALL = mx.SignMatrix([[1, -1], [-1, -1], [1, 1]])


def _pairwise_orthogonality(g, n):
    """(pairs, worst): the number of pairs of distinct masks and the largest
    entry of M_T M_S^T and M_T^T M_S over them, from the dense composed
    characters."""
    mats = [cp.char_compose(T, g, n).entries for T in range(2 ** n)]
    worst = 0
    pairs = 0
    for T in range(2 ** n):
        for S in range(T + 1, 2 ** n):
            left = np.abs(mats[T] @ mats[S].T).max()
            right = np.abs(mats[T].T @ mats[S]).max()
            worst = max(worst, int(left), int(right))
            pairs += 1
    return pairs, worst


def _assert_orthogonality_lemma(g, n):
    """From one block on, distinct composed characters are orthogonal
    exactly when g is strongly balanced; with no blocks there is no pair."""
    pairs, worst = _pairwise_orthogonality(g, n)
    assert pairs == math.comb(2 ** n, 2), (g, n)
    strongly = mx.balance_check(g).strongly_balanced
    assert (worst == 0) == (n == 0 or strongly), (g, n, worst)


def _fourier_composition(f, g):
    """Reference: sum_T f_hat[T] * char_compose(T), in exact integers."""
    sums = character_sums(f)  # 2^n * f_hat[T]
    acc = sum(int(sums[T]) * cp.char_compose(T, g, f.n).entries
              for T in range(2 ** f.n))
    assert np.all(acc % 2 ** f.n == 0)
    return mx.SignMatrix(acc // 2 ** f.n)


def _all_sign_matrices(rows, cols):
    bits = (np.arange(2 ** (rows * cols))[:, None]
            >> np.arange(rows * cols)) & 1
    return (1 - 2 * bits).reshape(-1, rows, cols)


def _raise(*args, **kwargs):
    raise AssertionError("char_compose called")


def test_char_compose_trivial_mask():
    M = cp.char_compose(0, CORE4, 2)
    assert M == mx.all_ones(16, 16)


def test_char_compose_full_mask():
    assert cp.char_compose(0b11, mx.XOR_2, 2) == mx.tensor(mx.XOR_2, mx.XOR_2)


def test_char_compose_block_order():
    # block 1 (bit 0) is the most significant Kronecker factor
    assert cp.char_compose(0b01, CORE4, 2) == mx.tensor(CORE4, mx.all_ones(4, 4))
    assert cp.char_compose(0b10, CORE4, 2) == mx.tensor(mx.all_ones(4, 4), CORE4)


def test_char_compose_spectral_norm():
    # ||M_T|| = ||M_g||^|T| * sqrt(size(g))^(n - |T|), from the Kronecker rule
    for g, norm in [(CORE4, 2 * np.sqrt(2)), (CORE6, 2 * np.sqrt(3)),
                    (mx.XOR_2, 2.0)]:
        for n in (1, 2, 3):
            for T in range(2 ** n):
                k = bin(T).count("1")
                got = mx.spectrum(cp.char_compose(T, g, n)).spectral_norm
                assert got == pytest.approx(
                    norm ** k * np.sqrt(g.size) ** (n - k), rel=1e-12)


def test_compose_block_order():
    # the dictator on input 1 reads block 1, the most significant factor
    dictator = BoolFunction(2, [1, -1, 1, -1])
    assert cp.compose_block(dictator, CORE4).matrix == \
        cp.char_compose(0b01, CORE4, 2)


def test_compose_parity_xor_rank_one():
    comp = cp.compose_block(builtin_function("PARITY", 2), mx.XOR_2)
    assert comp.matrix == mx.tensor(mx.XOR_2, mx.XOR_2)
    assert mx.exact_rank(comp.matrix) == 1


def test_compose_constant_gives_all_ones():
    comp = cp.compose_block(BoolFunction(2, [1, 1, 1, 1]), CORE4)
    assert comp.matrix == mx.all_ones(16, 16)


def test_compose_pointwise_definition():
    f = builtin_function("AND", 2)
    comp = cp.compose_block(f, CORE4)
    # spot-check the defining identity on every entry
    for x in range(16):
        for y in range(16):
            z1 = CORE4[x // 4, y // 4]
            z2 = CORE4[x % 4, y % 4]
            m = (1 if z1 == -1 else 0) | ((1 if z2 == -1 else 0) << 1)
            assert comp.matrix[x, y] == f.table[m]


def test_block_mask_order_matches_char_compose():
    # compose_block reads f at block_mask; it equals the Fourier expansion
    # for every f exactly when each character of the mask is char_compose
    rng = np.random.default_rng(7)
    for rows, cols, n in [(2, 2, 3), (4, 4, 2), (6, 6, 2), (2, 4, 3),
                          (3, 2, 4), (1, 3, 3), (5, 2, 2)]:
        for _ in range(3):
            g = mx.SignMatrix(rng.choice((-1, 1), size=(rows, cols)))
            mask = mx.block_mask([g] * n)
            for T in range(2 ** n):
                parity = np.bitwise_count(mask & T).astype(np.int64) & 1
                assert np.array_equal(1 - 2 * parity,
                                      cp.char_compose(T, g, n).entries)


def test_compose_block_matches_fourier_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    pairs = [(f, g) for f in all_functions(1)
             for g in (CORE4, CORE6, WIDE, TALL, mx.HADAMARD_2)]
    pairs += [(f, g) for f in all_functions(2)
              for g in (CORE4, WIDE, TALL, mx.all_ones(1, 2))]
    pairs += [(builtin_function(name, 3), g)
              for name in ("AND", "OR", "MAJ", "PARITY")
              for g in (CORE4, CORE6, WIDE, TALL)]
    pairs += [(BoolFunction(4, rng.choice((-1, 1), size=16)), g)
              for g in (mx.XOR_2, WIDE, TALL, mx.HADAMARD_2)]
    pairs += [(builtin_function("AND", 4), CORE4)]
    want = [_fourier_composition(f, g) for f, g in pairs]
    monkeypatch.setattr(cp, "char_compose", _raise)
    for (f, g), M in zip(pairs, want):
        assert cp.compose_block(f, g).matrix == M, (f.table, g)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compose_memory_cap():
    # 4096 x 4096 composed entries at ENTRY_BYTES each pass the 256 MiB
    # budget and are refused before the block mask is built; 2048 x 2048
    # stay within it
    parity = builtin_function("PARITY", 12)
    w = dual_polynomial(parity, 1 / 3)

    def refused(call):
        with pytest.raises(ResourceLimitError,
                           match="composed matrix of 4096x4096 entries"):
            call()

    for call in (lambda: cp.compose_block(parity, mx.XOR_2),
                 lambda: cp.char_compose(1, mx.XOR_2, 12),
                 lambda: cp.build_witness(w, mx.XOR_2)):
        assert _traced_peak(lambda: refused(call)) < 2 ** 20
    cp._check_size(mx.XOR_2, 11)


def test_entry_bytes_bound_the_traced_peak():
    # at 2^20 composed entries each path holds at most ENTRY_BYTES per entry
    # at its peak: the block mask, the values, SignMatrix's validated copy
    # or the mu weights, and temporaries
    f = builtin_function("AND", 10)
    w = dual_polynomial(f, 1 / 3)
    mu = np.full((2, 2), 0.25)
    for call in (lambda: cp.compose_block(f, mx.XOR_2),
                 lambda: cp.char_compose(2 ** 10 - 1, mx.XOR_2, 10),
                 lambda: cp.build_witness(w, mx.XOR_2),
                 lambda: cp.build_witness(w, mx.XOR_2, mu)):
        assert _traced_peak(call) <= cp.ENTRY_BYTES * 2 ** 20


def test_orthogonality_reports():
    assert _pairwise_orthogonality(CORE4, 2) == (6, 0)
    assert _pairwise_orthogonality(mx.XOR_2, 1) == (1, 0)
    # J J^T has entries 2 = cols, the row sums of J
    assert _pairwise_orthogonality(mx.all_ones(2, 2), 1) == (1, 2)
    # no blocks, no pairs
    assert _pairwise_orthogonality(mx.all_ones(2, 3), 0) == (0, 0)


def test_orthogonality_matches_pairwise_oracle_small():
    # every sign matrix up to 3x3, square and rectangular
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            for entries in _all_sign_matrices(rows, cols):
                g = mx.SignMatrix(entries)
                for n in (0, 1, 2):
                    _assert_orthogonality_lemma(g, n)


def test_orthogonality_matches_pairwise_oracle_balanced_4x4():
    cube = _all_sign_matrices(4, 4)
    balanced = cube[(cube.sum(axis=1) == 0).all(axis=1)
                    & (cube.sum(axis=2) == 0).all(axis=1)]
    assert len(balanced) == 90
    for entries in balanced:
        g = mx.SignMatrix(entries)
        assert mx.balance_check(g).strongly_balanced
        for n in (1, 2):
            _assert_orthogonality_lemma(g, n)


def test_orthogonality_matches_pairwise_oracle_named():
    for g in (CORE4, CORE6, mx.XOR_2, mx.HADAMARD_2, mx.all_ones(2, 3),
              WIDE, TALL):
        for n in (0, 1, 2, 3):
            _assert_orthogonality_lemma(g, n)


def test_rank_theorem_examples():
    rep = cp.verify_rank_theorem(
        cp.compose_block(builtin_function("AND", 2), CORE4))
    assert (rep.formula_rank, rep.composed_rank, rep.equal) == (9, 9, True)
    rep = cp.verify_rank_theorem(
        cp.compose_block(builtin_function("PARITY", 2), mx.XOR_2))
    assert (rep.formula_rank, rep.composed_rank) == (1, 1)
    rep = cp.verify_rank_theorem(
        cp.compose_block(BoolFunction(2, [1, 1, 1, 1]), CORE4))
    assert (rep.formula_rank, rep.composed_rank) == (1, 1)


def test_rank_theorem_reuses_the_composition(monkeypatch):
    comp = cp.compose_block(builtin_function("AND", 3), CORE4)
    calls = []
    compose = cp.compose_block
    monkeypatch.setattr(cp, "compose_block",
                        lambda *a, **k: calls.append(1) or compose(*a, **k))
    rep = cp.verify_rank_theorem(comp)
    assert calls == []
    # every subset is in AND's support: 3^3 = sum over T of 2^|T|
    assert (rep.formula_rank, rep.composed_rank) == (27, 27)


def test_rank_theorem_takes_one_prime_per_matrix(monkeypatch):
    shapes = []
    rank_mod = mx._rank_mod
    monkeypatch.setattr(mx, "_rank_mod", lambda A, p: shapes.append(A.shape)
                        or rank_mod(A, p))
    for name, n, g in (("AND", 3, CORE4), ("PARITY", 2, CORE6),
                       ("MAJ", 3, CORE4), ("AND", 2, CORE6)):
        shapes.clear()
        comp = cp.compose_block(builtin_function(name, n), g)
        rep = cp.verify_rank_theorem(comp)
        assert shapes == [g.entries.shape, comp.matrix.entries.shape], name
        assert rep.equal and rep.composed_rank == mx.exact_rank(comp.matrix)


def test_rank_theorem_falls_back_when_the_first_prime_falls_short(
        monkeypatch):
    # a first prime that finds one rank too few cannot settle the formula,
    # so the later primes of the full exact_rank decide
    comp = cp.compose_block(builtin_function("AND", 3), CORE4)
    primes = []
    rank_mod = mx._rank_mod

    def short_first(A, p):
        primes.append(p)
        r = rank_mod(A, p)
        return r - 1 if A.shape == (64, 64) and len(primes) == 2 else r

    monkeypatch.setattr(mx, "_rank_mod", short_first)
    rep = cp.verify_rank_theorem(comp)
    assert (rep.formula_rank, rep.composed_rank, rep.equal) == (27, 27, True)
    assert len(primes) == 3 and primes[1] != primes[2]


def test_rank_theorem_requires_strong_balance():
    with pytest.raises(ValueError):
        cp.verify_rank_theorem(
            cp.compose_block(builtin_function("AND", 2), mx.HADAMARD_2))


def test_witness_hand_value():
    # single-block parity with the 4x4 core: B = core / 16
    w = DualWitness(v=np.array([0.5, -0.5]), d=1,
                    epsilon=1.0 / 3.0, correlation=1.0, l1=1.0)
    W = cp.build_witness(w, CORE4)
    assert np.allclose(W.B, CORE4.entries / 16.0)
    assert W.l1 == pytest.approx(1.0, abs=1e-12)


def test_witness_matrix_reads_the_point_table_per_entry():
    # B[x, y] = 2^n / size^n * v(mask of the n blocks), block 1 the most
    # significant digit of x and y, byte for byte; the bound reads n off v
    for g in (CORE4, CORE6):
        for f in [*all_functions(2), builtin_function("MAJ", 3),
                  BoolFunction(3, [1, -1, -1, -1, 1, 1, -1, 1])]:
            n = f.n
            if g.size ** n > 64 * 64:
                continue
            w = dual_polynomial(f, 1.0 / 3.0)
            scale = 2.0 ** n / float(g.size) ** n
            want = np.empty((g.rows ** n, g.cols ** n))
            for x in range(g.rows ** n):
                for y in range(g.cols ** n):
                    m = sum(1 << i for i in range(n)
                            if g[x // g.rows ** (n - 1 - i) % g.rows,
                                 y // g.cols ** (n - 1 - i) % g.cols] == -1)
                    want[x, y] = scale * w.v[m]
            assert cp.build_witness(w, g).B.tobytes() == want.tobytes()
            ratio = mx.spectrum(g).spectral_norm / np.sqrt(g.size)
            assert cp.witness_spectral_bound(w, g) == \
                float(ratio ** w.d * (1.0 / g.size) ** (n / 2.0))


def test_witness_inner_product_identity():
    f = builtin_function("PARITY", 2)
    w = dual_polynomial(f, 1.0 / 3.0)
    W = cp.build_witness(w, CORE4)
    M = cp.compose_block(f, CORE4).matrix
    inner = float((M.entries * W.B).sum())
    assert inner == pytest.approx(w.correlation, abs=1e-10)


def test_witness_spectral_bound_tight_for_parity():
    f = builtin_function("PARITY", 2)
    w = dual_polynomial(f, 1.0 / 3.0)
    W = cp.build_witness(w, CORE4)
    # (||g||/sqrt(16))^2 * (1/16) = 1/32, attained exactly by parity
    assert W.spectral_norm == pytest.approx(1.0 / 32.0, abs=1e-10)
    assert cp.witness_spectral_bound(w, CORE4) == pytest.approx(1.0 / 32.0,
                                                                abs=1e-12)


def test_witness_requires_strong_balance_without_mu():
    w = dual_polynomial(builtin_function("PARITY", 1), 1.0 / 3.0)
    with pytest.raises(ValueError):
        cp.build_witness(w, mx.HADAMARD_2)


def test_witness_with_uniform_mu():
    w = dual_polynomial(builtin_function("PARITY", 1), 1.0 / 3.0)
    mu = np.full((2, 2), 0.25)
    W = cp.build_witness(w, mx.XOR_2, mu=mu)
    assert W.l1 == pytest.approx(1.0, abs=1e-12)
    # uniform mu reproduces the strongly-balanced construction
    W0 = cp.build_witness(w, mx.XOR_2)
    assert np.allclose(W.B, W0.B)


def test_witness_accepts_every_mu_that_check_balanced_admits():
    # sum mu*g = 9e-10 passes check_balanced; ||B||_1 then moves by about
    # n * 9e-10, past a fixed 1e-9 for the four-bit duals
    d = 9e-10
    mu = np.array([[1 + d, 1 - d], [1 - d, 1 + d]]) / 4
    mx.DistributionMatrix(mu).check_balanced(mx.XOR_2)
    for name, n in (("AND", 4), ("OR", 4), ("AND", 3), ("MAJ", 5)):
        w = dual_polynomial(builtin_function(name, n), 1.0 / 3.0)
        W = cp.build_witness(w, mx.XOR_2, mu=mu)
        assert abs(W.l1 - 1.0) <= (1 + d) ** n - 1 + 1e-12, (name, n)


def test_witness_rejects_unbalanced_mu():
    w = dual_polynomial(builtin_function("PARITY", 1), 1.0 / 3.0)
    mu = np.array([[0.7, 0.1], [0.1, 0.1]])
    with pytest.raises(ValueError):
        cp.build_witness(w, mx.XOR_2, mu=mu)
    with pytest.raises(ValueError):
        cp.build_witness(w, mx.XOR_2, mu=np.full((2, 2), 0.3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="probability distribution"):
            cp.build_witness(w, mx.XOR_2,
                             mu=np.array([[0.25, 0.25], [0.25, bad]]))


def test_witness_bound_across_functions():
    # every outer function of two bits, over both 4x4 balanced classes
    inners = [*mx.search_strongly_balanced(4, 4), CORE4, CORE6]
    for f in all_functions(2):
        w = dual_polynomial(f, 1.0 / 3.0)
        for g in inners:
            W = cp.build_witness(w, g)
            assert W.spectral_norm <= cp.witness_spectral_bound(w, g) + 1e-8
            assert abs(W.l1 - 1.0) <= 1e-9
            M = cp.compose_block(f, g).matrix
            assert abs(float((M.entries * W.B).sum()) - W.correlation) \
                <= 1e-10
