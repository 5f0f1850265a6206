"""Group characters, invariance, the distance LP and its dual, group bounds."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from commbound import bounds as bd
from commbound import groupcomp as gc
from commbound import matrices as mx
from commbound.approx import approx_degree, verify_dual
from commbound.boolfn import all_functions, builtin_function, character_eval
from commbound.errors import ResourceLimitError

Z2 = gc.AbelianGroupSpec([2])
Z3 = gc.AbelianGroupSpec([3])
Z4 = gc.AbelianGroupSpec([4])
Z22 = gc.AbelianGroupSpec([2, 2])
T_Z2 = gc.characters_abelian(Z2)
T_Z3 = gc.characters_abelian(Z3)
T_Z22 = gc.characters_abelian(Z22)


def pair_set(counter):
    """The pair multiset of a Counter of (s, t) pairs."""
    return gc.pair_counts(list(Counter(counter).elements()))


def as_counter(T):
    return Counter({(s, t): m for s, t, m in T.tolist()})


def _element(G, i):
    """The digits of element index i, packed as the package packs them:
    first modulus least significant."""
    return tuple(np.array(np.unravel_index(i, G.moduli, order="F")).tolist())


def _index(G, digits):
    return int(np.ravel_multi_index(tuple(digits), G.moduli, order="F"))


def test_group_indexing_round_trip():
    G = gc.AbelianGroupSpec([3, 4, 2])
    for i in range(G.order):
        assert _index(G, _element(G, i)) == i
    m = G.moduli
    assert _oracle_add(m, _index(G, (2, 3, 1)), _index(G, (1, 1, 1))) == \
        _index(G, (0, 0, 0))
    assert _oracle_negate(m, _index(G, (1, 0, 1))) == _index(G, (2, 0, 1))
    gens = [_index(G, (1, 0, 0)), _index(G, (0, 1, 0)), _index(G, (0, 0, 1))]
    every = np.arange(G.order)
    for e in gens:
        moved = np.array([_oracle_add(m, a, e) for a in range(G.order)])
        assert (gc._differences(G, every, moved) == e).all()


def test_characters_z3():
    w = np.exp(2j * math.pi / 3)
    expect = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w ** 4]])
    assert np.allclose(T_Z3.table, expect, atol=1e-12)
    assert T_Z3.h == 3  # Abelian: one character per element


def test_characters_z2n_match_boolean_characters():
    # the Kronecker product of exact +-1 tables is exact, and held real
    for t in (1, 2, 3, 5):
        table = gc.characters_abelian(gc.AbelianGroupSpec([2] * t)).table
        assert table.dtype == np.float64
        for T in range(2 ** t):
            for x in range(2 ** t):
                assert table[T, x] == character_eval(T, x)


def test_characters_abelian_against_elementwise_formula():
    # asymmetric moduli: a reversed Kronecker order changes the table
    for moduli in ((3, 4, 2), (2, 5), (7,)):
        G = gc.AbelianGroupSpec(moduli)
        expect = np.empty((G.order, G.order), dtype=complex)
        for a in range(G.order):
            for x in range(G.order):
                phase = sum(aj * xj / m for aj, xj, m in
                            zip(_element(G, a), _element(G, x), moduli))
                expect[a, x] = np.exp(2j * math.pi * phase)
        table = gc.characters_abelian(G)
        assert np.abs(table.table - expect).max() <= 1e-12, moduli
        assert np.array_equal(table.class_of, np.arange(G.order))


def test_characters_abelian_quarter_turns_exact():
    table = gc.characters_abelian(gc.AbelianGroupSpec([4, 2])).table
    assert set(table.flat) == {1, 1j, -1, -1j}


def test_cyclic_tables_match_checked_constructor():
    # the cyclic tables skip the Gram check; the checked constructor
    # accepts the same arrays and builds equal tables
    for m in range(2, 65):
        got = gc.characters_abelian(gc.AbelianGroupSpec([m]))
        want = gc.CharacterTable(m, m, gc._cyclic_characters(m),
                                 np.arange(m), [1] * m)
        assert (got.h, got.order, got.degrees) == (want.h, want.order,
                                                    want.degrees)
        assert np.array_equal(got.table, want.table)
        assert np.array_equal(got.class_of, want.class_of)
        assert got.trivial_index() == want.trivial_index() == 0
        assert np.array_equal(got.conjugate, want.conjugate)
        assert not got.table.flags.writeable


def test_large_cyclic_table_skips_gram_check(monkeypatch):
    # the Gram check alone took over a second on Z_2048; the Abelian table
    # is built without the checked constructor that runs it
    def checked(*args, **kwargs):
        raise AssertionError("CharacterTable.__init__ ran the Gram check")

    monkeypatch.setattr(gc.CharacterTable, "__init__", checked)
    table = gc.characters_abelian(gc.AbelianGroupSpec([2048]))
    assert table.table.shape == (2048, 2048)
    assert table.table[1, 512] == 1j


def test_characters_abelian_table_cap():
    # 8192^2 complex entries would take 1 GiB; nothing is allocated
    with pytest.raises(ResourceLimitError):
        gc.characters_abelian(gc.AbelianGroupSpec((2,) * 13))


def test_product_table_refused_before_the_fold(monkeypatch):
    # four Z3 tables make an 81 x 81 complex table of 104976 bytes; under a
    # cap one byte lower product refuses before the fold allocates its table
    # of ones, and so does product_approx_degree, which on sixteen Z2 blocks
    # used to die in numpy's MemoryError
    from commbound import errors

    def no_fold(*args, **kwargs):
        raise AssertionError("the fold allocated its table")

    ones, fvals = np.ones, np.ones(81)
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 81 * 81 * 16 - 1)
    monkeypatch.setattr(np, "ones", no_fold)
    match = "character table of order 81 needs 104976 bytes"
    with pytest.raises(ResourceLimitError, match=match):
        gc.CharacterTable.product([T_Z3] * 4)
    with pytest.raises(ResourceLimitError, match=match):
        gc.product_approx_degree(fvals, [T_Z3] * 4, 1.0 / 3.0)
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 81 * 81 * 16)
    monkeypatch.setattr(np, "ones", ones)
    assert gc.CharacterTable.product([T_Z3] * 4).table.shape == (81, 81)


@pytest.mark.parametrize("moduli", [(3, 5, 2), (4, 2, 2), (2,) * 6])
def test_product_matches_the_kronecker_fold(moduli):
    # factors multiplied in place, most significant first, give the table
    # of np.kron folded from a real 1 x 1 one bit for bit, dtype included
    factors = [gc.characters_abelian(gc.AbelianGroupSpec((m,)))
               for m in moduli]
    kron = np.ones((1, 1))
    for t in factors[::-1]:
        kron = np.kron(kron, t.table)
    table = gc.CharacterTable.product(factors).table
    assert table.dtype == kron.dtype
    assert table.tobytes() == kron.tobytes()


def test_product_fold_holds_only_its_table(monkeypatch):
    # under a cap of exactly the table's bytes (Z2^6 x Z4, 256 x 256
    # complex), the fold's traced peak is the table, one ufunc buffer of
    # np.getbufsize() entries and the small class and degree arrays; a fold
    # that holds each partial product beside the next one goes past that
    from commbound import errors

    nbytes = 256 * 256 * 16
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", nbytes)
    factors = [T_Z2] * 6 + [gc.characters_abelian(Z4)]
    tracemalloc.start()
    try:
        table = gc.CharacterTable.product(factors).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == nbytes
    assert peak <= nbytes + np.getbufsize() * 16 + 2 ** 14


def test_cyclic_factor_refused_before_it_is_built(monkeypatch):
    # one cyclic factor is built before product can check the table
    from commbound import errors

    def no_cyclic(m):
        raise AssertionError("the cyclic table was built")

    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 81 * 81 * 16 - 1)
    monkeypatch.setattr(gc, "_cyclic_characters", no_cyclic)
    with pytest.raises(ResourceLimitError, match="order 81 needs 104976"):
        gc.characters_abelian(gc.AbelianGroupSpec([81]))


def test_character_table_validation():
    with pytest.raises(ValueError):
        gc.CharacterTable(2, 2, [[1, 1], [1, 1]], [0, 1], [1, 1])  # not orthogonal
    with pytest.raises(ValueError):
        gc.CharacterTable(2, 2, [[1, 1], [2, -2]], [0, 1], [1, 1])  # exceeds degree
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            gc.CharacterTable(2, 2, [[1, 1], [1, bad]], [0, 1], [1, 1])
    # orthogonal rows of norm sqrt(2) each: the first row over its degree
    # is named
    r2 = math.sqrt(2)
    for degrees, first in (([1, 1], 0), ([2, 1], 1)):
        with pytest.raises(ValueError, match=f"character {first} exceeds"):
            gc.CharacterTable(2, 2, [[r2, 0], [0, r2]], [0, 1], degrees)
    with pytest.raises(ValueError, match="use all h class indices"):
        gc.CharacterTable(2, 2, [[1, 1], [1, -1]], [0, 0], [1, 1])
    # S3's rows with e grouped with the transposition (01), on which the
    # sign character is 1 and -1
    with pytest.raises(ValueError, match="constant on each class"):
        gc.CharacterTable(3, 6, [[1, 1, 1, 1, 1, 1],
                                 [1, -1, -1, -1, 1, 1],
                                 [2, 0, 0, 0, -1, -1]],
                          [0, 0, 1, 1, 2, 2], [1, 1, 2])


def _kron_loop_characters(moduli):
    """The table as built before the product fold: kron(cyclic, table) from
    the first modulus on."""
    table = np.ones((1, 1), dtype=complex)
    for m in moduli:
        table = np.kron(gc._cyclic_characters(m), table)
    return table


def test_characters_abelian_against_kron_loop():
    # the fold multiplies the same factors in the other association; Z2
    # factors multiply by +-1 exactly and two other factors meet in a single
    # product either way, so the values are equal while at most two factors
    # are not Z2 (only the sign of some zero imaginary parts may differ).
    # Only the Z2^t tables, with no imaginary part, are held real
    for moduli in ((2,) * 9, (3,), (4,), (2, 3), (2, 5), (7,), (4, 2),
                   (3, 4, 2), (2, 5, 2, 3)):
        G = gc.AbelianGroupSpec(moduli)
        table = gc.characters_abelian(G)
        assert table.table.dtype == (np.float64 if set(moduli) == {2}
                                     else np.complex128), moduli
        assert np.array_equal(table.table, _kron_loop_characters(moduli))
        assert np.array_equal(table.class_of, np.arange(G.order))
        assert table.degrees == (1,) * G.order
        assert not table.table.flags.writeable
    # with three other factors the two associations may round apart in the
    # last bit
    for moduli in ((3, 3, 3), (5, 3, 4)):
        got = gc.characters_abelian(gc.AbelianGroupSpec(moduli)).table
        assert np.abs(got - _kron_loop_characters(moduli)).max() <= \
            4 * np.finfo(float).eps


def _s3():
    """S3 as permutations of (0, 1, 2): e, the transpositions (01), (02),
    (12), then the 3-cycles; its multiplication table and 3 x 6 table."""
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    mult = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
            for p in perms]
    table = gc.CharacterTable(3, 6, [[1, 1, 1, 1, 1, 1],
                                     [1, -1, -1, -1, 1, 1],
                                     [2, 0, 0, 0, -1, -1]],
                              [0, 1, 1, 1, 2, 2], [1, 1, 2])
    return np.array(mult), table


def test_non_abelian_s3_general_bound():
    mult, table = _s3()
    gm = gc.GroupMapMatrix(mult, order=6)
    reg = gc.regularity_check(gm)
    assert reg.regular and reg.copies == 6
    assert reg.diagonal_invariant is None  # no Abelian structure to test
    hard = [1, 2]
    orth = gc.orthogonality_general(gm, table, hard)
    assert orth.passed and math.comb(len(hard), 2) == 1
    assert max(orth.max_row_violation, orth.max_col_violation) <= 1e-12
    # f = the standard character; the best constant is 1/2, off by 3/2 at
    # e and at the 3-cycles
    rep = gc.general_bound(gm, table.table[2].real, table,
                           gc.HardnessPartition.from_easy([0], 3), 0.0)
    assert rep.applicable
    assert rep.intermediates["delta"] == pytest.approx(1.5, abs=1e-9)
    for i in (1, 2):
        c = rep.intermediates["per_character"][i]
        assert c["max_value"] * c["spectral_norm"] == pytest.approx(6.0)
    assert rep.main_term == pytest.approx(math.log2(1.5), abs=1e-9)


def test_product_approx_degree_s3_squared():
    _, table = _s3()
    square = gc.CharacterTable.product([table, table])
    assert (square.h, square.order) == (9, 36)
    # classes and degrees in mixed radix, the first factor least significant
    assert np.array_equal(square.class_of,
                          np.add.outer(3 * table.class_of, table.class_of)
                          .ravel())
    assert square.degrees == (1, 1, 2, 1, 1, 2, 2, 2, 4)
    std = table.table[2].real
    assert gc.product_approx_degree(np.ones(36), [table] * 2, 1 / 3) == 0
    # the standard character of the first factor, at index a + 6 b
    assert gc.product_approx_degree(np.kron(np.ones(6), std), [table] * 2,
                                    1 / 3) == 1
    # std x std is orthogonal to every other product character: h = f
    # certifies a distance of at least <f, f> / |f|_1 = 36 / 16 from them
    assert gc.product_approx_degree(np.kron(std, std), [table] * 2,
                                    1 / 3) == 2


def test_product_tables_pass_the_constructor_checks():
    # what the constructor would check, on tables the fold built unchecked:
    # the Gram matrix is |G| I and every row stays within its degree
    _, s3 = _s3()
    for table in (gc.characters_abelian(gc.AbelianGroupSpec((2,) * 10)),
                  gc.characters_abelian(gc.AbelianGroupSpec((3, 4, 2))),
                  gc.CharacterTable.product([gc.characters_abelian(
                      gc.AbelianGroupSpec((m,))) for m in (5, 2)]),
                  gc.CharacterTable.product([s3, T_Z2])):
        arr = table.table
        gram = arr @ arr.conj().T
        assert np.abs(gram - table.order * np.eye(table.h)).max() <= \
            1e-9 * table.order
        assert (np.abs(arr).max(axis=1)
                <= np.array(table.degrees) + 1e-12).all()
    assert gc.CharacterTable.product([s3, T_Z2]).degrees == (1, 1, 2) * 2


def test_product_of_no_tables_is_trivial():
    t = gc.CharacterTable.product([])
    assert (t.h, t.order, t.degrees) == (1, 1, (1,))
    assert t.table.tolist() == [[1]]
    assert t.class_of.tolist() == [0]


def test_character_table_rejects_non_integer_entries():
    for class_of, degrees in (([0.5, 1], [1, 1]), ([None, 1], [1, 1]),
                              (["0", 1], [1, 1]), ([0, 1], [None, 1]),
                              ([0, 1], [1.5, 1]), ([0, 1], ["1", 1])):
        with pytest.raises(ValueError, match="must be integers"):
            gc.CharacterTable(2, 2, [[1, 1], [1, -1]], class_of, degrees)


def test_character_table_json_round_trip():
    again = gc.CharacterTable.from_json(T_Z3.to_json())
    assert np.allclose(again.table, T_Z3.table)
    assert again.degrees == T_Z3.degrees
    # a table with no imaginary part is read as float64 and written back
    # byte for byte
    for table in (_s3()[1], gc.characters_abelian(gc.AbelianGroupSpec([2]
                                                                      * 3))):
        text = table.to_json()
        again = gc.CharacterTable.from_json(text)
        assert again.table.dtype == np.float64
        assert np.array_equal(again.table, table.table)
        assert again.to_json() == text


def _complex_cast(table):
    """table with its rows held as complex128, the reference for a real
    table.  Built past _record, which would store them real again."""
    out = object.__new__(gc.CharacterTable)
    for name in gc.CharacterTable.__slots__:
        setattr(out, name, getattr(table, name))
    out.table = table.table.astype(complex)
    return out


def test_products_of_real_tables_are_real():
    _, s3 = _s3()
    assert s3.table.dtype == np.float64
    for factors in ([T_Z2, T_Z2], [s3, T_Z2], [T_Z22, s3], []):
        product = gc.CharacterTable.product(factors)
        assert product.table.dtype == np.float64
        complex_rows = gc.CharacterTable.product(map(_complex_cast, factors))
        assert np.array_equal(product.table, complex_rows.table)
    for factors in ([T_Z2, T_Z3], [T_Z3, s3]):
        assert gc.CharacterTable.product(factors).table.dtype == \
            np.complex128


def test_real_tables_agree_with_their_complex_cast():
    # the dense orthogonality route and the spectral norms give the values
    # the complex128 rows give, on a map no shift fixes
    G = gc.AbelianGroupSpec([2] * 4)
    table = gc.characters_abelian(G)
    gm = gc.GroupMapMatrix(np.random.default_rng(5).permutation(
        np.arange(256) % 16).reshape(16, 16), G)
    wide = _complex_cast(table)
    hard = range(1, 16)
    real, cast = (gc.orthogonality_general(gm, t, hard) for t in (table, wide))
    assert real.route == cast.route == "dense" and not real.passed
    assert abs(real.max_row_violation - cast.max_row_violation) <= 1e-12
    assert abs(real.max_col_violation - cast.max_col_violation) <= 1e-12
    assert np.abs(np.subtract(gc._spectral_norms(table, list(hard), gm),
                              gc._spectral_norms(wide, list(hard), gm))
                  ).max() <= 1e-12


def test_byte_needs_follow_the_table_dtype(monkeypatch):
    needs = []
    check = gc.check_bytes

    def record(need, subject):
        # the pair-multiset keys, asked before the dense route, are int64
        if not subject.startswith("pair multisets"):
            needs.append(need)
        check(need, subject)

    monkeypatch.setattr(gc, "check_bytes", record)

    def recorded(call, *args):
        needs.clear()
        call(*args)
        return list(needs)

    X = Y = 8
    for G, real in ((gc.AbelianGroupSpec([2] * 3), True), (Z3, False)):
        table = gc.characters_abelian(G)
        assert (table.table.dtype == np.float64) == real
        wide = _complex_cast(table)
        # a map no shift fixes, so the dense route runs
        gm = gc.GroupMapMatrix(np.arange(X * Y).reshape(X, Y) % G.order, G)
        hard = list(range(1, G.order))
        k, n = len(hard), G.order
        got = [recorded(gc.characters_abelian, G),
               recorded(gc.CharacterTable.product, [table] * 2),
               recorded(gc.orthogonality_general, gm, table, hard),
               recorded(gc._spectral_norms, table, hard, gm)]
        # the complex figures
        wide_needs = [[n * n * 16] * 2, [n ** 4 * 16],
                      [8 * k * (4 * X * Y + 3 * max(X, Y) ** 2)],
                      [16 * k * X * Y]]
        assert [recorded(gc.CharacterTable.product, [wide] * 2),
                recorded(gc.orthogonality_general, gm, wide, hard),
                recorded(gc._spectral_norms, wide, hard, gm)] == wide_needs[1:]
        if not real:
            assert got == wide_needs
            continue
        # a real table: half of each figure, and no conjugate copy of the
        # stack, so on a square map the dense route needs less than half
        assert got[:2] + got[3:] == [[b // 2 for b in need] for need in
                                     wide_needs[:2] + wide_needs[3:]]
        assert got[2] == [k * (8 * X * Y + 16 * max(X, Y) ** 2)]
        assert got[2][0] < wide_needs[2][0] // 2


def test_z2_12_table_is_built_within_the_budget():
    # the complex fold peaked at 320 MiB, past the 256 MiB budget; the real
    # 128 MiB table and its 32 MiB factor fit
    from commbound import errors

    tracemalloc.start()
    try:
        table = gc.characters_abelian(gc.AbelianGroupSpec((2,) * 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= errors.MAX_TABLE_BYTES
    assert table.table.dtype == np.float64


def test_pair_multisets_from_xor():
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.XOR_2])
    fam = gc.pair_multisets(gm)
    assert len(fam.row_pairs) == 4 and len(fam.col_pairs) == 4
    assert as_counter(fam.row_pairs[(0, 1)]) == Counter({(0, 1): 1,
                                                         (1, 0): 1})
    assert fam.row_pairs[(0, 1)][:, 2].sum() == 2
    assert gc.g_invariant(fam.row_pairs[(0, 1)], gm.group)


def test_pair_multisets_single_cell():
    gm = gc.GroupMapMatrix(np.array([[2]]), Z3)
    fam = gc.pair_multisets(gm)
    assert len(fam.row_pairs) == 1 and len(fam.col_pairs) == 1
    only = fam.row_pairs[(0, 0)]
    assert only[:, 2].sum() == 1 and as_counter(only) == Counter({(2, 2): 1})


def test_pair_multiset_is_a_read_only_array_compared_by_value():
    T = pair_set({(2, 0): 3, (0, 1): 1})
    assert T.dtype == np.int64
    assert T.tolist() == [[0, 1, 1], [2, 0, 3]]
    fam = gc.pair_multisets(gc.GroupMapMatrix([[0, 1], [2, 2]], Z3))
    for P in (T, fam.row_pairs[(0, 1)], fam.col_pairs[(1, 0)]):
        assert P.dtype == np.int64 and P.shape[1] == 3
        with pytest.raises(ValueError):
            P[0, 2] = 7
    assert np.array_equal(T, pair_set({(0, 1): 1, (2, 0): 3}))
    assert not np.array_equal(T, pair_set({(0, 1): 1, (2, 0): 2}))
    assert np.array_equal(fam.row_pairs[(0, 1)],
                          pair_set({(0, 2): 1, (1, 2): 1}))
    assert pair_set({}).shape == (0, 3)


def test_pair_counts_against_counter_oracle():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 7, 40):
        for order in (2, 3, 8):
            pairs = rng.integers(0, order, size=(size, 2))
            want = Counter(map(tuple, pairs.tolist()))
            rows = sorted([s, t, m] for (s, t), m in want.items())
            for given in (pairs, pairs.tolist(), list(want.elements())):
                T = gc.pair_counts(given)
                assert T.dtype == np.int64 and T.shape == (len(want), 3)
                assert T.tolist() == rows
                assert not T.flags.writeable
    # duplicates merge into one row, and the rows come out sorted
    assert gc.pair_counts([(1, 0), (0, 2), (1, 0)]).tolist() == \
        [[0, 2, 1], [1, 0, 2]]
    assert gc.pair_counts([]).shape == (0, 3)


def test_pair_counts_and_g_invariant_refuse_non_elements():
    # floats were truncated and -1 read as |G| - 1 by the shift lookup
    for pairs in ([(1.5, 2.0)], [(1.0, 2.0)], [(-1, -1), (0, 0), (1, 1)]):
        with pytest.raises(ValueError, match="pair entries"):
            gc.pair_counts(pairs)
    # an entry past the group raised IndexError from the shift lookup
    for T in (gc.pair_counts([(5, 5)]), gc.pair_counts([(0, 1), (3, 0)])):
        with pytest.raises(ValueError, match="below 3"):
            gc.g_invariant(T, Z3)
    assert gc.g_invariant(gc.pair_counts([(0, 0), (1, 1), (2, 2)]), Z3)
    # a hand-built -1 was read as |G| - 1 by the shift lookup
    with pytest.raises(ValueError, match="below 3"):
        gc.g_invariant(np.array([[-1, -1, 1], [0, 0, 1], [1, 1, 1]]), Z3)


def test_invariance_refuses_a_map_with_only_an_order():
    # the order-only form is the one non-Abelian maps take; it has no
    # group to shift by
    gm = gc.GroupMapMatrix([[0, 1], [1, 0]], order=2)
    with pytest.raises(ValueError, match="needs an Abelian group"):
        gc.all_pairs_invariant(gm)
    with pytest.raises(ValueError, match="needs an Abelian group"):
        gc.g_invariant(gc.pair_counts([[0, 1], [1, 0]]), None)


def test_g_invariant_refuses_keys_that_do_not_increase():
    # both were answered False although the multisets are invariant
    unsorted = np.array([[1, 1, 1], [0, 0, 1], [2, 2, 1]])
    repeated = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 2], [2, 2, 2]])
    for T in (unsorted, repeated):
        with pytest.raises(ValueError, match="sorted"):
            gc.g_invariant(T, Z3)
        pairs = np.repeat(T[:, :2], T[:, 2], axis=0)
        assert gc.g_invariant(gc.pair_counts(pairs), Z3)
    # a family's keys lead with the line-pair label
    family = np.array([[1, 0, 0, 1], [0, 1, 1, 1]])
    with pytest.raises(ValueError, match="sorted"):
        gc.g_invariant(family, Z3)
    for T in (np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64),
              np.ones((1, 3))):
        with pytest.raises(ValueError, match="rows must be"):
            gc.g_invariant(T, Z3)


def test_family_check_keeps_the_line_pair():
    # T^{0,0} = {(0,0)}, T^{1,1} = {(1,1)}, T^{0,1} = {(0,1)} and
    # T^{1,0} = {(1,0)}: their union is invariant, no member is
    gm = gc.GroupMapMatrix([[0], [1]], Z2)
    fam = gc.pair_multisets(gm)
    assert gc.g_invariant(gc.pair_counts(fam.row_family[:, 1:3]), Z2)
    assert not any(gc.g_invariant(T, Z2) for T in fam.row_pairs.values())
    assert not gc.g_invariant(fam.row_family, Z2)
    assert not gc.all_pairs_invariant(gm)


def _permuted_addition(rng, G):
    p, q = rng.permutation(G.order), rng.permutation(G.order)
    return gc.GroupMapMatrix([[_oracle_add(G.moduli, a, b) for b in q]
                              for a in p], G)


def test_family_check_against_per_pair_loop_on_flipped_maps():
    rng = np.random.default_rng(11)
    maps = [_permuted_addition(rng, gc.AbelianGroupSpec(m))
            for m in ([3, 3], [4, 2], [2, 2, 2])]
    maps += [gc.GroupMapMatrix.from_sign_blocks(blocks) for blocks in
             ([mx.PATTERN_CORE_4] * 2, [mx.CORE_FREE_6, mx.PATTERN_CORE_4])]
    for gm in maps:
        G = gm.group
        for trial in range(4):
            E = gm.entries.copy()
            if trial:
                x, y = rng.integers(E.shape[0]), rng.integers(E.shape[1])
                E[x, y] = (E[x, y] + rng.integers(1, G.order)) % G.order
            flipped = gc.GroupMapMatrix(E, G)
            fam = gc.pair_multisets(flipped)
            per_pair = all(gc.g_invariant(T, G) for T in
                           [*fam.row_pairs.values(), *fam.col_pairs.values()])
            assert gc.all_pairs_invariant(flipped) == per_pair
            assert per_pair == (trial == 0), (G, trial)


def _not_computed(table):
    """The same rows in a table not marked as computed for a group, so
    orthogonality_general takes the dense route."""
    return gc.CharacterTable._trusted(table.table, table.class_of,
                                      table.degrees, table.trivial_index(),
                                      table.conjugate)


def test_character_stacks_refused_before_they_are_built(monkeypatch):
    # each element twice: Z2^11 on 128 x 32 needs 2047 real 128 x 32
    # stacks and a 2046 x 128 x 128 product with its moduli (604 MB); Z2^10
    # on 32 x 32, each element once (25 MB), is admitted
    from commbound import errors

    class Admitted(Exception):
        pass

    def admit(need, subject):
        errors.check_bytes(need, subject)
        raise Admitted

    cases = []
    for t, shape in ((11, (128, 32)), (10, (32, 32))):
        G = gc.AbelianGroupSpec([2] * t)
        E = np.arange(math.prod(shape)).reshape(shape) % 2 ** t
        cases.append((gc.GroupMapMatrix(E, G), gc.characters_abelian(G)))
    (big, big_table), (small, small_table) = cases
    # the computed table asks invariance first, which these maps fail
    with pytest.raises(ResourceLimitError, match="2047 character stacks"):
        gc.orthogonality_general(big, big_table, range(1, 2 ** 11))
    # a table not computed for the map goes straight to the stacks
    big_table, small_table = map(_not_computed, (big_table, small_table))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="2047 character stacks "
                           "over a 128x32 map need 603684864 bytes"):
            gc.orthogonality_general(big, big_table, range(1, 2 ** 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    monkeypatch.setattr(gc, "check_bytes", admit)
    with pytest.raises(Admitted):
        gc.orthogonality_general(small, small_table, range(1, 2 ** 10))


def test_pair_multisets_cap_fires_before_allocating():
    # 8 * 330^3 bytes of keys pass the 256 MiB cap; 256 x 256 stays under
    gm = gc.GroupMapMatrix(np.indices((330, 330)).sum(axis=0) % 2, Z2)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="need 287496000 bytes"):
            gc.all_pairs_invariant(gm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_pair_keys_past_the_budget_fall_back_to_the_stacks():
    # one hard character of Z2 on 330 x 330: the pair keys are refused, but
    # the dense route needs one 330 x 330 stack and no product
    gm = gc.GroupMapMatrix(np.indices((330, 330)).sum(axis=0) % 2, Z2)
    rep = gc.orthogonality_general(gm, T_Z2, [1])
    assert (rep.route, rep.all_pairs_invariant, rep.passed) == \
        ("dense", None, True)
    part = gc.HardnessPartition.from_easy([0], 2)
    assert gc.general_bound(gm, [1.0, -1.0], T_Z2, part, 0.0).applicable
    # the block passes its structural condition by the stacks, as with a
    # table not computed for it, and is refused only for its degree
    for table in (T_Z2, _not_computed(T_Z2)):
        assert gc.block_group_bound([gm], [1.0, -1.0], [table]).warnings[-1] \
            == "no subset larger than d=1 exists among 1 blocks"


def test_invariance_examples():
    diag = pair_set({(s, s): 1 for s in range(3)})
    assert gc.g_invariant(diag, Z3)
    assert gc.orthogonality_sums(diag, T_Z3) <= 1e-9

    bad = pair_set({(0, 0): 1, (0, 1): 1})
    assert not gc.g_invariant(bad, Z3)
    assert gc.orthogonality_sums(bad, T_Z3) > 1e-6

    # orbit closures are invariant by construction
    rng = np.random.default_rng(0)
    for G, table in ((Z3, T_Z3), (Z4, gc.characters_abelian(Z4)),
                     (Z22, T_Z22)):
        base = Counter({(int(rng.integers(G.order)),
                         int(rng.integers(G.order))): 1 for _ in range(3)})
        closed = Counter()
        for s in range(G.order):
            for (a, b), m in base.items():
                closed[(_oracle_add(G.moduli, s, a),
                        _oracle_add(G.moduli, s, b))] += m
        T = pair_set(closed)
        assert gc.g_invariant(T, G)
        assert gc.orthogonality_sums(T, table) <= 1e-8 * T[:, 2].sum()


def _shift_oracle(counter, G):
    """Fixed by (s,s) for every s in G, one Counter per shift."""
    return all(Counter({(_oracle_add(G.moduli, u, a),
                         _oracle_add(G.moduli, u, b)): m
                        for (a, b), m in counter.items()}) == counter
               for u in range(G.order))


def _closure(base, G, shifts):
    closed = Counter()
    for u in shifts:
        for (a, b), m in base.items():
            closed[(_oracle_add(G.moduli, u, a),
                    _oracle_add(G.moduli, u, b))] += m
    return closed


def test_g_invariant_against_shift_oracle():
    rng = np.random.default_rng(7)
    groups = [gc.AbelianGroupSpec(m) for m in
              ([3], [4], [2, 2], [3, 2], [4, 2])]
    invariant_seen = 0
    for G in groups:
        n = G.order
        # closures under the subgroup that e_1 generates are fixed by e_1
        # only, so a check of one generator would pass them
        first = range(G.moduli[0])
        for _ in range(40):
            base = Counter({(int(rng.integers(n)), int(rng.integers(n))):
                            int(rng.integers(1, 4))
                            for _ in range(int(rng.integers(1, 5)))})
            for cnt in (base, _closure(base, G, range(n)),
                        _closure(base, G, first)):
                want = _shift_oracle(cnt, G)
                assert gc.g_invariant(pair_set(cnt), G) == want, (G, cnt)
                invariant_seen += want
            # one extra copy of a pair breaks an invariant multiset
            closed = _closure(base, G, range(n))
            closed[next(iter(closed))] += 1
            assert not gc.g_invariant(pair_set(closed), G)
    assert invariant_seen >= 200


def test_g_invariant_full_runs_with_unequal_multiplicities():
    # each (t - s) run has its |G| rows, but one run mixes multiplicities
    for G in (Z3, Z22, gc.AbelianGroupSpec([2, 3])):
        n = G.order
        diag = Counter({(s, s): 1 for s in range(n)})
        shifted = Counter({(s, _oracle_add(G.moduli, s, 1)): 2
                           for s in range(n)})
        assert gc.g_invariant(pair_set(diag + shifted), G)
        uneven = diag + shifted
        uneven[(0, 0)] += 1
        assert not gc.g_invariant(pair_set(uneven), G)
        # the same in a family: two labels, only the second uneven
        fam = np.array([[label, s, t, m] for label, cnt in
                        enumerate((diag + shifted, uneven))
                        for (s, t), m in sorted(cnt.items())])
        assert not gc.g_invariant(fam, G)
        assert gc.g_invariant(fam[fam[:, 0] == 0], G)


def test_g_invariant_empty_multisets_are_invariant():
    for G in (Z2, Z3, Z22):
        assert gc.g_invariant(np.zeros((0, 3), dtype=np.int64), G)
        assert gc.g_invariant(np.zeros((0, 4), dtype=np.int64), G)


def test_pair_multisets_against_counter_oracle():
    rng = np.random.default_rng(3)
    for moduli in ([2], [3], [2, 2], [3, 2], [4, 2], [2, 3, 2]):
        G = gc.AbelianGroupSpec(moduli)
        for rows, cols in ((1, 1), (1, 5), (4, 3), (6, 6)):
            gm = gc.GroupMapMatrix(rng.integers(0, G.order, size=(rows, cols)),
                                   G)
            E = gm.entries
            fam = gc.pair_multisets(gm)
            assert sorted(fam.row_pairs) == [(x, x2) for x in range(rows)
                                             for x2 in range(rows)]
            assert sorted(fam.col_pairs) == [(y, y2) for y in range(cols)
                                             for y2 in range(cols)]
            # sorted rows, no (s, t) twice, multiplicities summing to the
            # line length, read-only
            for (x, x2), T in fam.row_pairs.items():
                want = Counter(zip(E[x].tolist(), E[x2].tolist()))
                assert T.tolist() == sorted([s, t, m] for (s, t), m in
                                            want.items())
                assert T.dtype == np.int64 and not T.flags.writeable
            for (y, y2), T in fam.col_pairs.items():
                want = Counter(zip(E[:, y].tolist(), E[:, y2].tolist()))
                assert T.tolist() == sorted([s, t, m] for (s, t), m in
                                            want.items())
                assert T.dtype == np.int64 and not T.flags.writeable


def test_diagonal_invariant_against_g_invariant():
    rng = np.random.default_rng(9)
    seen = set()
    for moduli in ([2], [3], [2, 2], [3, 2]):
        G = gc.AbelianGroupSpec(moduli)
        n = G.order
        for rows, cols in ((n, n), (2 * n, n), (3, 2 * n), (5, 7)):
            # shuffled full cycles hit every element equally often; random
            # rows mostly do not
            cycle = np.resize(np.arange(n), cols)
            for k in (0, rows // 2, rows):
                E = rng.integers(0, n, size=(rows, cols))
                E[:k] = np.reshape([rng.permutation(cycle) for _ in range(k)],
                                   (k, cols))
                for gm in (gc.GroupMapMatrix(E, G), gc.GroupMapMatrix(E.T, G)):
                    fam = gc.pair_multisets(gm)
                    rows_ok = all(gc.g_invariant(T, G) for (x, x2), T in
                                  fam.row_pairs.items() if x == x2)
                    cols_ok = all(gc.g_invariant(T, G) for (y, y2), T in
                                  fam.col_pairs.items() if y == y2)
                    every = all(gc.g_invariant(T, G) for T in
                                [*fam.row_pairs.values(),
                                 *fam.col_pairs.values()])
                    assert gc.all_pairs_invariant(gm) == every
                    got = gc.regularity_check(gm).diagonal_invariant
                    assert got == (rows_ok or cols_ok), (moduli, gm.entries)
                    seen.add((rows_ok, cols_ok))
    assert {(True, False), (False, True), (False, False)} <= seen


def test_tprime_routes_agree():
    diag = pair_set({(s, s): 1 for s in range(3)})
    rep = gc.tprime_check(diag, T_Z3)
    assert rep.direct_ok and rep.conjugated_ok and rep.agree
    assert rep.direct_max == gc.orthogonality_sums(diag, T_Z3)
    bad = pair_set({(0, 0): 1, (0, 1): 1})
    rep = gc.tprime_check(bad, T_Z3)
    assert not rep.direct_ok and not rep.conjugated_ok and rep.agree
    assert rep.direct_max == gc.orthogonality_sums(bad, T_Z3)


def test_tprime_direct_against_quadruple_loop():
    rng = np.random.default_rng(11)
    for G in (Z3, Z4, Z22):
        table = gc.characters_abelian(G)
        chi = table.table
        for trial in range(30):
            cnt = Counter({(int(rng.integers(G.order)),
                            int(rng.integers(G.order))):
                           int(rng.integers(1, 4))
                           for _ in range(int(rng.integers(1, 6)))})
            if trial % 2:
                cnt = _closure(cnt, G, range(G.order))
            T = pair_set(cnt)
            want = 0.0
            for i in range(table.h):
                for j in range(table.h):
                    if i != j:
                        acc = 0.0 + 0.0j
                        for s, t, m in T.tolist():
                            acc += m * chi[i, s] * np.conj(chi[j, t])
                        want = max(want, abs(acc))
            assert abs(gc.tprime_check(T, table).direct_max - want) <= 1e-12


def test_regularity():
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4])
    rep = gc.regularity_check(gm)
    assert rep.regular and rep.copies == 8 and rep.diagonal_invariant
    const = gc.GroupMapMatrix(np.zeros((2, 2), dtype=int), Z2)
    rep = gc.regularity_check(const)
    assert not rep.regular and rep.counts == (4, 0)
    odd = gc.GroupMapMatrix(np.zeros((1, 1), dtype=int), Z3)
    rep = gc.regularity_check(odd)
    assert rep.copies is None and not rep.regular
    # general_bound words the refusal from the report and the map
    partition = gc.HardnessPartition.from_easy([0], 3)
    refused = gc.general_bound(odd, [0.0] * 3, T_Z3, partition, 0.0)
    assert refused.warnings[-1] == "regularity fails: matrix size 1 is not " \
        "divisible by the group order 3"
    uneven = gc.general_bound(gc.GroupMapMatrix([[0, 1, 1]], Z3), [0.0] * 3,
                              T_Z3, partition, 0.0)
    assert uneven.warnings[-1] == \
        "regularity fails: element counts are not all equal"


def test_diagonal_invariance_forces_regularity():
    # each column a shuffled copy of G, repeated: every line pair (y, y)
    # is G-invariant, so each element appears equally often
    rng = np.random.default_rng(0)
    for G in (Z3, Z4, Z22):
        for _ in range(20):
            copies = int(rng.integers(1, 4))
            cols = []
            for _ in range(4):
                col = np.repeat(np.arange(G.order), copies)
                rng.shuffle(col)
                cols.append(col)
            rep = gc.regularity_check(
                gc.GroupMapMatrix(np.column_stack(cols), G))
            assert rep.diagonal_invariant and rep.regular


def test_from_sign_blocks_layout():
    # block 1 is the most significant factor and sets bit 0
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4, mx.XOR_2])
    bit0 = np.kron(mx.PATTERN_CORE_4.entries == -1, np.ones((2, 2), int))
    bit1 = np.kron(np.ones((4, 4), int), mx.XOR_2.entries == -1)
    assert np.array_equal(gm.entries, bit0 + 2 * bit1)


def test_orthogonality_general_balanced_blocks():
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4,
                                             mx.PATTERN_CORE_4])
    rep = gc.orthogonality_general(gm, T_Z22, range(4))
    assert rep.passed and math.comb(len(range(4)), 2) == 6
    # a single hard character passes vacuously
    rep = gc.orthogonality_general(gm, T_Z22, [3])
    assert rep.passed and math.comb(len([3]), 2) == 0


def test_orthogonality_general_constant_column_fails():
    gm = gc.GroupMapMatrix(np.zeros((3, 1), dtype=int), Z3)
    rep = gc.orthogonality_general(gm, T_Z3, range(3))
    assert not rep.passed


def _pairwise_orthogonality(gmap, table, hard):
    """Worst row and column sums over each pair of distinct hard characters,
    one pair at a time, and the number of pairs."""
    mats = {i: table.table[i][gmap.entries] for i in hard}
    worst_row = worst_col = 0.0
    pairs = list(itertools.combinations(sorted(hard), 2))
    for a, b in pairs:
        A, B = mats[a], mats[b]
        worst_row = max(worst_row, float(np.abs(A @ B.conj().T).max()))
        worst_col = max(worst_col, float(np.abs(A.T @ B.conj()).max()))
    return worst_row, worst_col, len(pairs)


def test_orthogonality_general_against_pairwise_loop():
    rng = np.random.default_rng(19)
    verdicts = set()
    for moduli in ([3], [4, 2], [2, 2, 2]):
        G = gc.AbelianGroupSpec(moduli)
        table = gc.characters_abelian(G)
        base = _permuted_addition(rng, G)
        E = base.entries.copy()
        E[rng.integers(E.shape[0]), rng.integers(E.shape[1])] += 1
        maps = [base, gc.GroupMapMatrix(E % G.order, G),
                gc.GroupMapMatrix(rng.integers(G.order, size=(6, 4)), G)]
        for gm in maps:
            for size in range(G.order + 1):
                hard = rng.choice(G.order, size=size, replace=False).tolist()
                rep = gc.orthogonality_general(gm, table, hard)
                row, col, pairs = _pairwise_orthogonality(gm, table, hard)
                assert math.comb(len(hard), 2) == pairs
                assert rep.max_row_violation == pytest.approx(row, abs=1e-12)
                assert rep.max_col_violation == pytest.approx(col, abs=1e-12)
                assert rep.passed == (row <= 1e-8 * gm.cols and
                                      col <= 1e-8 * gm.rows)
                verdicts.add(rep.passed)
    assert verdicts == {True, False}


INVARIANCE_GROUPS = ([2], [3], [4], [2, 2], [2, 3], [2, 2, 2])


def _seeded_maps(rng, G):
    """Invariant maps (permuted addition tables, with rows and columns
    repeated in random order) and maps that are not (one entry moved, and
    uniform random entries)."""
    base = _permuted_addition(rng, G)
    rows = rng.permutation(np.repeat(np.arange(G.order), 2))
    blown = gc.GroupMapMatrix(base.entries[rows][:, rng.permutation(G.order)],
                              G)
    moved = base.entries.copy()
    moved[rng.integers(G.order), rng.integers(G.order)] += 1
    return [base, blown, gc.GroupMapMatrix(moved % G.order, G),
            gc.GroupMapMatrix(rng.integers(G.order, size=(G.order, 6)), G)]


def test_invariance_route_implies_a_dense_pass():
    rng = np.random.default_rng(29)
    routes = Counter()
    for moduli in INVARIANCE_GROUPS:
        G = gc.AbelianGroupSpec(moduli)
        table = gc.characters_abelian(G)
        for gm in _seeded_maps(rng, G):
            invariant = gc.all_pairs_invariant(gm)
            for size in range(G.order + 1):
                hard = rng.choice(G.order, size=size, replace=False).tolist()
                rep = gc.orthogonality_general(gm, table, hard)
                row, col, _ = _pairwise_orthogonality(gm, table, hard)
                assert rep.all_pairs_invariant == invariant
                routes[rep.route] += 1
                if rep.route == "invariance":
                    assert invariant and rep.passed
                    assert rep.max_row_violation == rep.max_col_violation == 0.0
                    assert row <= 1e-8 * gm.cols and \
                        col <= 1e-8 * gm.rows, (moduli, hard)
                else:
                    assert not invariant
                    assert rep.max_row_violation == pytest.approx(row, abs=1e-12)
                    assert rep.max_col_violation == pytest.approx(col, abs=1e-12)
    assert routes["invariance"] >= 50 and routes["dense"] >= 50


def test_invariance_equals_orthogonality_with_every_character_hard():
    rng = np.random.default_rng(31)
    verdicts = Counter()
    for moduli in INVARIANCE_GROUPS:
        G = gc.AbelianGroupSpec(moduli)
        table = gc.characters_abelian(G)
        for gm in _seeded_maps(rng, G):
            row, col, _ = _pairwise_orthogonality(gm, table, range(G.order))
            dense = row <= 1e-8 * gm.cols and col <= 1e-8 * gm.rows
            assert gc.all_pairs_invariant(gm) == dense, (moduli, gm.entries)
            verdicts[dense] += 1
            # the block bound decides the block by invariance alone, and
            # agrees with the dense route of a table not computed for it
            fv = np.ones(G.order)
            fv[1] = -1.0
            by_invariance = gc.block_group_bound([gm], fv, [table])
            by_stack = gc.block_group_bound([gm], fv, [_not_computed(table)])
            assert by_invariance.warnings == by_stack.warnings
            assert by_invariance.main_term == by_stack.main_term
    assert verdicts[True] >= 6 and verdicts[False] >= 6


def test_block_group_bound_builds_no_stack_for_computed_tables(monkeypatch):
    subjects = []
    check = gc.check_bytes
    monkeypatch.setattr(gc, "check_bytes", lambda need, subject:
                        subjects.append(subject) or check(need, subject))
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4])
    flat = gc.GroupMapMatrix(np.array([[0, 0], [1, 1]]), Z2)
    assert gc.block_group_bound([gm, gm], np.array([1.0, -1.0, 1.0, -1.0]),
                                [T_Z2, T_Z2]).applicable
    assert not gc.block_group_bound([flat], np.array([1.0, -1.0]),
                                    [T_Z2]).applicable
    assert not any("character stacks" in s for s in subjects)


def test_only_the_computed_table_takes_the_invariance_route():
    G = gc.AbelianGroupSpec([4, 2])
    gm = _permuted_addition(np.random.default_rng(37), G)
    computed = gc.characters_abelian(G)
    assert computed.group == G
    rep = gc.orthogonality_general(gm, computed, range(1, 8))
    assert (rep.route, rep.all_pairs_invariant) == ("invariance", True)
    # equal rows read from a file, built by hand, or computed for another
    # group of the same order are not known to be the map's characters
    others = [gc.CharacterTable.from_json(computed.to_json()),
              gc.CharacterTable(8, 8, computed.table, range(8), [1] * 8),
              gc.characters_abelian(gc.AbelianGroupSpec([8]))]
    for table in others:
        rep = gc.orthogonality_general(gm, table, range(1, 8))
        assert rep.route == "dense" and rep.all_pairs_invariant is None
    assert others[0].group is None and others[1].group is None


def test_general_bound_norms_against_spectrum():
    rng = np.random.default_rng(23)
    for moduli in ([3], [4, 2], [2, 2, 2]):
        G = gc.AbelianGroupSpec(moduli)
        table = gc.characters_abelian(G)
        gm = _permuted_addition(rng, G)
        fv = np.ones(G.order)
        fv[rng.integers(G.order)] = -1.0
        part = gc.HardnessPartition.from_easy([table.trivial_index()],
                                              G.order)
        rep = gc.general_bound(gm, fv, table, part, 0.0)
        assert rep.applicable, moduli
        per_char = rep.intermediates["per_character"]
        assert sorted(per_char) == sorted(part.hard)
        for i, entry in per_char.items():
            norm = mx.spectrum(table.table[i][gm.entries]).spectral_norm
            assert entry["spectral_norm"] == pytest.approx(norm, rel=1e-12)
            assert entry["max_value"] == np.abs(table.table[i]).max()


def test_block_group_bound_ties_pick_the_lowest_character():
    # every non-trivial character of Z2 x Z2 has norm 4 on the XOR table;
    # moving the trivial row to index t leaves the lowest other index
    xor = gc.GroupMapMatrix(np.bitwise_xor.outer(np.arange(4), np.arange(4)),
                            Z22)
    norms = {mx.spectrum(T_Z22.table[c][xor.entries]).spectral_norm
             for c in range(4)}
    assert norms == {4.0}
    for t in range(4):
        order = [1, 2, 3]
        order.insert(t, 0)
        table = gc.CharacterTable(4, 4, T_Z22.table[order], range(4),
                                  [1] * 4)
        assert table.trivial_index() == t
        rep = gc.block_group_bound([xor, xor], np.ones(16), [table, table])
        assert rep.applicable
        assert rep.intermediates["per_block_best_character"] == \
            [1 if t == 0 else 0] * 2


def test_distance_to_easy():
    and2 = builtin_function("AND", 2)
    fv = and2.table.astype(float)
    low = [T for T in range(4) if bin(T).count("1") < 2]
    # matches the Boolean degree-1 approximation error
    assert gc.distance_to_easy(fv, T_Z22, low) == pytest.approx(0.5, abs=1e-8)
    assert gc.distance_to_easy(fv, T_Z22, range(4)) == pytest.approx(0.0,
                                                                     abs=1e-8)
    assert gc.distance_to_easy(fv, T_Z22, []) == pytest.approx(1.0, abs=1e-8)


def test_dual_h_properties():
    # single character over Z2 with nothing easy: h proportional to f
    fv = np.array([1.0, -1.0])
    dh = gc.dual_h(fv, T_Z2, [])
    assert dh.delta == pytest.approx(1.0, abs=1e-8)
    assert dh.l1 <= 2.0 + 1e-9
    assert dh.correlation > dh.delta
    assert dh.ok

    and2 = builtin_function("AND", 2)
    fv = and2.table.astype(float)
    low = [T for T in range(4) if bin(T).count("1") < 2]
    dh = gc.dual_h(fv, T_Z22, low)
    assert dh.ok
    assert dh.easy_coeff_max <= 1e-8
    # halving h gives a valid witness in the Boolean normalization
    from commbound.approx import DualWitness

    w = DualWitness(v=dh.h / 2.0, d=2,
                    epsilon=1.0 / 3.0,
                    correlation=float(fv @ dh.h / 2.0),
                    l1=float(np.abs(dh.h / 2.0).sum()))
    assert verify_dual(w, and2).ok


def test_dual_h_coefficient_bound():
    # |h_hat_i| <= (sum|h| / |G|) * max|chi_i| for everything produced
    for f in all_functions(2):
        fv = f.table.astype(float)
        for easy in ([], [0], [0, 1, 2]):
            dh = gc.dual_h(fv, T_Z22, easy)
            coeffs = T_Z22.table @ dh.h / 4.0
            assert np.abs(coeffs).max() <= np.abs(dh.h).sum() / 4.0 + 1e-9
            assert dh.ok or dh.delta <= 0, (f.table, easy)


def test_general_bound_degenerates_to_balanced_bound():
    for n in (1, 2):
        par = builtin_function("PARITY", n)
        gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4] * n)
        tb = gc.characters_abelian(gc.AbelianGroupSpec([2] * n))
        part = gc.HardnessPartition.from_easy(
            [T for T in range(2 ** n) if bin(T).count("1") < n], 2 ** n)
        rep = gc.general_bound(gm, par.table.astype(float), tb,
                               part, 0.0)
        sh = bd.sherstov_bound(par, mx.PATTERN_CORE_4, 1.0 / 3.0)
        assert rep.applicable
        assert rep.main_term == pytest.approx(sh.main_term, abs=1e-8)


def test_general_bound_inapplicable_paths():
    par = builtin_function("PARITY", 1)
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4])
    fv = par.table.astype(float)
    # delta <= 2 eps
    part = gc.HardnessPartition.from_easy([0], 2)
    rep = gc.general_bound(gm, fv, T_Z2, part, 0.5)
    assert not rep.applicable
    # empty hard set
    part = gc.HardnessPartition.from_easy([0, 1], 2)
    rep = gc.general_bound(gm, fv, T_Z2, part, 0.0)
    assert not rep.applicable
    # irregular map
    bad = gc.GroupMapMatrix(np.zeros((2, 2), dtype=int), Z2)
    part = gc.HardnessPartition.from_easy([0], 2)
    rep = gc.general_bound(bad, fv, T_Z2, part, 0.0)
    assert not rep.applicable


def test_hardness_partition_refuses_repeated_or_outside_indices():
    # a repeated index was merged without a word
    for easy in ([0, 0], [4], [-1], [1, 2, 1]):
        with pytest.raises(ValueError) as exc:
            gc.HardnessPartition.from_easy(easy, 4)
        assert str(exc.value) == \
            f"easy indices must be distinct and in [0, 4), got {easy}"
    part = gc.HardnessPartition.from_easy([2, 0], 4)
    assert (part.easy, part.hard) == ({0, 2}, {1, 3})


def test_group_bounds_refuse_bad_epsilon_and_table_order():
    T_Z4 = gc.characters_abelian(Z4)
    z4 = gc.GroupMapMatrix(np.add.outer(np.arange(4), np.arange(4)) % 4, Z4)
    z2 = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4])
    fv = np.array([1.0, -1.0, 1.0, -1.0])
    part4 = gc.HardnessPartition.from_easy([0], 4)
    part2 = gc.HardnessPartition.from_easy([0], 2)
    assert gc.general_bound(z4, fv, T_Z4, part4, 0.0).main_term == 0.0
    # a negative epsilon inflated the main term; it is refused first
    for eps in (-1.0, -5.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            gc.general_bound(z4, fv, T_Z4, part4, eps)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            gc.general_bound(z4, fv, T_Z2, part2, eps)
    # a Z2 table on a Z4 map raised IndexError, a Z4 table on a Z2 map
    # reported "orthogonality fails"
    with pytest.raises(ValueError, match="order 2, but the group map has "
                                         "order 4"):
        gc.general_bound(z4, fv, T_Z2, part2, 0.0)
    with pytest.raises(ValueError, match="order 4, but the group map has "
                                         "order 2"):
        gc.general_bound(z2, fv[:2], T_Z4, part4, 0.0)
    with pytest.raises(ValueError, match="block 1's character table has "
                                         "order 2, .* order 4"):
        gc.block_group_bound([z4], fv, [T_Z2])
    with pytest.raises(ValueError, match="block 1's character table has "
                                         "order 4, .* order 2"):
        gc.block_group_bound([z2], fv[:2], [T_Z4])
    # checked for every block before any block's structure
    irregular = gc.GroupMapMatrix(np.zeros((2, 2), dtype=int), Z2)
    with pytest.raises(ValueError, match="block 2's character table"):
        gc.block_group_bound([irregular, z4], np.ones(8), [T_Z2, T_Z2])


def test_product_approx_degree_matches_boolean():
    for n in (1, 2):
        for f in all_functions(n):
            d_prod = gc.product_approx_degree(
                f.table.astype(float), [T_Z2] * n, 1.0 / 3.0)
            assert d_prod == approx_degree(f, 1.0 / 3.0).d


def test_product_characters_against_per_combination():
    T_Z4 = gc.characters_abelian(Z4)
    for tables in ([T_Z3], [T_Z2, T_Z3], [T_Z3, T_Z22, T_Z2],
                   [T_Z4, T_Z2, T_Z3]):
        want = []
        trivial = [t.trivial_index() for t in tables]
        for combo in itertools.product(*[range(t.h) for t in tables]):
            row = np.ones(1, dtype=complex)
            for c, t in zip(reversed(combo), reversed(tables)):
                row = np.kron(row, t.table[c])
            nonid = sum(c != tr for c, tr in zip(combo, trivial))
            want.append((nonid, row.tobytes()))
        nonid, product = gc._product_characters(tables)
        assert sorted(zip(nonid.tolist(),
                          (r.tobytes() for r in product.table))) == \
            sorted(want)


def test_product_approx_degree_skips_the_full_character_lp(monkeypatch):
    # every character together spans every class function, so d = t needs
    # no LP, and d = 0 misses with error (max f - min f)/2 = 1: 3-bit parity
    # over three Z2 tables takes the LPs at d = 1 and 2 only
    calls = []
    solve = gc.chebyshev
    monkeypatch.setattr(gc, "chebyshev",
                        lambda *a: calls.append(1) or solve(*a))
    fv = builtin_function("PARITY", 3).table.astype(float)
    assert gc.product_approx_degree(fv, [T_Z2] * 3, 1.0 / 3.0) == 3
    assert len(calls) == 2


def test_s3_values_must_be_a_class_function():
    mult, table = _s3()
    gm = gc.GroupMapMatrix(mult, order=6)
    # not constant on the transpositions 1, 2, 3
    f = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    part = gc.HardnessPartition.from_easy([0], 3)
    with pytest.raises(ValueError, match="not a class function: elements 1 "
                                         "and 2 share class 1"):
        gc.general_bound(gm, f, table, part, 0.0)
    for call in (lambda: gc.product_approx_degree(np.kron(f, np.ones(6)),
                                                  [table] * 2, 1 / 3),
                 lambda: gc.block_group_bound([gm, gm], np.kron(f, np.ones(6)),
                                              [table] * 2)):
        with pytest.raises(ValueError, match="not a class function"):
            call()
    with pytest.raises(ValueError, match="one value per group element"):
        gc.general_bound(gm, f[:5], table, part, 0.0)
    # the sign character is a class function
    sign = table.table[1].real
    assert gc.general_bound(gm, sign, table, part, 0.0).applicable
    assert gc.product_approx_degree(np.kron(sign, sign), [table] * 2,
                                    1 / 3) == 2


def test_zero_distance_is_a_positive_zero():
    T_Z4 = gc.characters_abelian(Z4)
    delta = gc.distance_to_easy(np.ones(4), T_Z4, [0])
    assert delta == 0.0 and math.copysign(1.0, delta) == 1.0


def test_product_approx_degree_constant():
    assert gc.product_approx_degree(np.ones(9), [T_Z3, T_Z3], 1.0 / 3.0) == 0


def test_product_approx_degree_refuses_before_it_allocates():
    # 24 blocks of Z2: the product's 2^24 x 2^24 table is refused by its
    # byte check before the 2^24 non-identity counts are built
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="order 16777216"):
            gc.product_approx_degree([0.0] * 4, [T_Z2] * 24, 1.0 / 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_product_refuses_an_order_too_long_to_print():
    # Z2^20000 has an order of 6,021 digits, more than Python converts from
    # int to str, so its refusal words the order as it words the need
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=r"^character table of order at least "
                                 r"2\^20000 needs at least 2\^40003 bytes"):
            gc.product_approx_degree([0.0] * 4, [T_Z2] * 20000, 1.0 / 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_check_bytes_names_a_need_too_long_to_print():
    # 10^5000 has more digits than Python converts from int to str
    from commbound.errors import check_bytes

    with pytest.raises(ResourceLimitError, match=r"^x needs at least 2\^16609 "
                                                 r"bytes \(cap 268435456\)$"):
        check_bytes(10 ** 5000, "x needs")


def test_product_approx_degree_full_support_character():
    # real part of a character with every component non-trivial needs all
    # blocks (frozen LP oracle: error 0.75 with one component, 0 with two)
    w = np.exp(2j * math.pi / 3)
    fv = np.array([(w ** ((a + b) % 3)).real
                   for b in range(3) for a in range(3)])
    assert gc.product_approx_degree(fv, [T_Z3, T_Z3], 1.0 / 3.0) == 2


def _product_sweep(fvals, tables, epsilon):
    """The product degree from an LP at every degree below the number of
    blocks: the reference for product_approx_degree's search."""
    nonid, product = gc._product_characters(tables)
    fv = gc.check_class_function(fvals, product)
    for d in range(len(tables)):
        basis = gc._real_span_basis(product, np.flatnonzero(nonid <= d))
        if gc.chebyshev(fv, basis)[0] <= epsilon + 1e-9:
            return d
    return len(tables)


def test_product_approx_degree_matches_its_sweep():
    # seeded +-1 and real values on Z2^t (t <= 5) and Z3^t (t <= 3) blocks,
    # some of them functions of the first k blocks only (the first block is
    # the least significant digit), so that every d from 0 to t turns up
    rng = np.random.default_rng(34)
    seen = Counter()
    for table, most in ((T_Z2, 5), (T_Z3, 3)):
        for t in range(1, most + 1):
            order = table.order ** t
            values = [rng.choice([-1.0, 1.0], size=order),
                      rng.uniform(-1.0, 1.0, size=order)]
            for k in range(1, t):
                low = rng.choice([-1.0, 1.0], size=table.order ** k)
                values.append(np.tile(low, order // low.size))
            for fv in values:
                for eps in (0.0, 1.0 / 3.0, 0.6, 1.0 - 1e-10):
                    d = gc.product_approx_degree(fv, [table] * t, eps)
                    assert d == _product_sweep(fv, [table] * t, eps), \
                        (table.order, t, fv, eps)
                    seen[d == t, d == 0] += 1
    assert seen[False, False] and seen[True, False] and seen[False, True]


def test_product_search_refuses_only_what_a_sweep_would(monkeypatch):
    import commbound.errors

    # five Z2 blocks under a budget that admits the degree-2 span LP (18 x
    # 83 cells) and refuses degree 3 (28 x 93): the values whose sweep
    # stopped by degree 2 get their degree, though the search's doubling
    # probes degree 3 before degree 2, and the rest refuse degree 3 as the
    # sweep did
    rng = np.random.default_rng(38)
    seen = Counter()
    tables = [T_Z2] * 5
    for _ in range(20):
        fv = rng.choice([-1.0, 1.0], size=32)
        for eps in (0.5, 0.7, 0.9, 0.99):
            d = _product_sweep(fv, tables, eps)
            with monkeypatch.context() as m:
                m.setattr(commbound.errors, "MAX_TABLE_BYTES", 18 * 83 * 8)
                if d > 2:
                    with pytest.raises(ResourceLimitError,
                                       match="tableau of 27 rows"):
                        gc.product_approx_degree(fv, tables, eps)
                    seen["refused"] += 1
                else:
                    assert gc.product_approx_degree(fv, tables, eps) == d
                    seen[d] += 1
    assert seen[2] and seen["refused"]


def test_block_group_bound_identical_blocks():
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4])
    # outer function depends on block 1 only: product degree 1, t = 2,
    # so the best admissible subset has both blocks: 2 * 0.5 = 1.0
    fv = np.array([1.0, -1.0, 1.0, -1.0])
    rep = gc.block_group_bound([gm, gm], fv, [T_Z2, T_Z2])
    assert rep.applicable
    assert rep.intermediates["d"] == 1
    assert rep.main_term == pytest.approx(1.0, abs=1e-9)
    per_block = rep.intermediates["per_block_best_term"]
    assert per_block == pytest.approx([0.5, 0.5], abs=1e-9)


def test_block_group_bound_boundary_inapplicable():
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4])
    fv = np.array([1.0, -1.0, -1.0, 1.0])  # full parity: d = t = 2
    rep = gc.block_group_bound([gm, gm], fv, [T_Z2, T_Z2])
    assert not rep.applicable


def test_block_group_bound_refusals(monkeypatch):
    xor = gc.GroupMapMatrix.from_sign_blocks([mx.XOR_2])
    with pytest.raises(ValueError, match="one character table per block"):
        gc.block_group_bound([xor, xor], np.ones(4), [T_Z2])
    # 4,097 Z2 blocks need one norm each, past the cap of 4,096, and are
    # refused before any block's SVD
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD before the refusal")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(ResourceLimitError, match="4097 character-norm"):
        gc.block_group_bound([xor] * 4097, np.ones(2), [T_Z2] * 4097)
    monkeypatch.undo()
    # constant rows: regular, but the block fails orthogonality
    flat = gc.GroupMapMatrix(np.array([[0, 0], [1, 1]]), Z2)
    rep = gc.block_group_bound([flat], np.array([1.0, -1.0]), [T_Z2])
    assert not rep.applicable and rep.main_term is None
    assert rep.warnings[-1] == ("block 1 fails its structural condition "
                                "(regular=True, orthogonal=False)")


def test_block_group_bound_z3_latin_square():
    # regular map from the Z3 addition table
    latin = np.array([[(x + y) % 3 for y in range(3)] for x in range(3)])
    gm = gc.GroupMapMatrix(latin, Z3)
    assert gc.regularity_check(gm).regular
    fv = np.array([(np.exp(2j * math.pi / 3) ** a).real for a in range(3)])
    rep = gc.block_group_bound([gm], fv, [T_Z3])
    # d = 0 for this single-block function? no: it needs its character, d = 1 = t
    if rep.applicable:
        assert rep.main_term is not None
    else:
        assert rep.intermediates["d"] >= 1


def test_degeneration_exhaustive_2x2_blocks():
    blocks = [mx.SignMatrix([[1 - 2 * ((bits >> (2 * i + j)) & 1)
                              for j in range(2)] for i in range(2)])
              for bits in range(16)]
    for b1 in blocks:
        for b2 in blocks:
            rep = gc.degeneration_check([b1, b2])
            assert rep.equivalent


def test_degeneration_core4_cubed():
    rep = gc.degeneration_check([mx.PATTERN_CORE_4] * 3)
    assert rep.equivalent and rep.all_pairs_invariant


def test_general_bound_warns_on_easy_set_not_closed_under_conjugation():
    latin = np.array([[(x + y) % 3 for y in range(3)] for x in range(3)])
    gm = gc.GroupMapMatrix(latin, Z3)
    fv = np.array([1.0, -1.0, -1.0])
    for easy, warns in (([0, 1], True), ([0], False), ([0, 1, 2], False)):
        part = gc.HardnessPartition.from_easy(easy, 3)
        rep = gc.general_bound(gm, fv, T_Z3, part, 0.0)
        flagged = [w for w in rep.warnings if "conjugat" in w]
        assert bool(flagged) == warns, easy
        if warns:
            assert "[1]" in flagged[0]
    # the warning does not change the verdict or the distance
    rep = gc.general_bound(gm, fv, T_Z3,
                           gc.HardnessPartition.from_easy([0, 1], 3), 0.0)
    assert rep.applicable and rep.intermediates["delta"] == 1.0


def test_degeneration_examples():
    rep = gc.degeneration_check([mx.PATTERN_CORE_4, mx.PATTERN_CORE_4])
    assert rep.all_pairs_invariant and rep.all_blocks_strongly_balanced
    rep = gc.degeneration_check([mx.all_ones(2, 2)])
    assert not rep.all_pairs_invariant and not rep.all_blocks_strongly_balanced
    assert rep.equivalent


def test_group_map_text_round_trip():
    gm = gc.GroupMapMatrix.from_sign_blocks([mx.XOR_2, mx.XOR_2])
    text = gm.to_text()
    assert text.splitlines()[0] == "group 2,2"
    again = gc.GroupMapMatrix.from_text(text)
    assert np.array_equal(again.entries, gm.entries)
    assert again.group == gm.group


def test_group_map_text_errors():
    with pytest.raises(ValueError):
        gc.GroupMapMatrix.from_text("2,2\n0:0")
    with pytest.raises(ValueError):
        gc.GroupMapMatrix.from_text("group 2,2\n0:0:0")
    # one ValueError naming the format, never int()'s own message
    for text, words in (("group", "must start"),
                        ("group 2,2,\n0:0", "must start"),
                        ("group 2,x\n0:0", "must start"),
                        ("group 1\n0", "must start"),
                        ("group 2,2", "no rows"), ("group 2,2\n\n", "no rows"),
                        ("group 2,2\n0:0,1:1\n0:0", "equal length"),
                        ("group 2,2\n0:0,1", "has 1 components, expected 2"),
                        ("group 2,2\n0:0,1:x", "must be integers"),
                        ("group 2,2\n0:0,1:", "must be integers"),
                        ("group 2\n0,,1", "must be integers"),
                        ("group 2\n" + "9" * 30, "must be integers"),
                        ("group 3,2\n0:0,2:2", "'2:2' is out of range")):
        with pytest.raises(ValueError, match="group.map") as err:
            gc.GroupMapMatrix.from_text(text)
        assert words in str(err.value), text
        assert "invalid literal" not in str(err.value), text


# The scalar mixed-radix code the numpy encoding replaced, kept as the oracle:
# the first modulus is the least significant digit.

def _oracle_element(moduli, index):
    out = []
    for m in moduli:
        out.append(index % m)
        index //= m
    return tuple(out)


def _oracle_index(moduli, element):
    idx = 0
    for a, m in zip(reversed(element), reversed(moduli)):
        if not 0 <= a < m:
            raise ValueError(f"component {a} out of range for modulus {m}")
        idx = idx * m + a
    return idx


def _oracle_add(moduli, i, j):
    return _oracle_index(moduli, tuple(
        (a + b) % m for a, b, m in zip(_oracle_element(moduli, i),
                                       _oracle_element(moduli, j), moduli)))


def _oracle_negate(moduli, i):
    return _oracle_index(moduli, tuple(
        (-a) % m for a, m in zip(_oracle_element(moduli, i), moduli)))


def _oracle_differences(moduli):
    """t - s for every pair of element indices, s major."""
    n = math.prod(moduli)
    return [_oracle_add(moduli, t, _oracle_negate(moduli, s))
            for s in range(n) for t in range(n)]


def _oracle_from_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    moduli = [int(t) for t in lines[0][len("group"):].strip().split(",")]
    return [[_oracle_index(moduli, tuple(int(p) for p in token.split(":")))
             for token in ln.split(",")] for ln in lines[1:]]


def _oracle_to_text(moduli, entries):
    lines = ["group " + ",".join(str(m) for m in moduli)]
    for row in entries:
        lines.append(",".join(":".join(str(a) for a in
                                       _oracle_element(moduli, int(v)))
                              for v in row))
    return "\n".join(lines) + "\n"


ORACLE_GROUPS = [(2,) * t for t in range(1, 7)] + [
    (3,), (4,), (5,), (7,), (8,), (3, 3), (4, 2), (6, 2), (3, 4, 2)]


def test_group_encoding_against_scalar_oracle():
    for moduli in ORACLE_GROUPS:
        G = gc.AbelianGroupSpec(moduli)
        s, t = np.divmod(np.arange(G.order ** 2), G.order)
        assert gc._differences(G, s, t).tolist() == \
            _oracle_differences(moduli), moduli
        for i in range(G.order):
            e = _oracle_element(moduli, i)
            assert _element(G, i) == e and _index(G, e) == i, (moduli, i)
            assert all(type(a) is int for a in _element(G, i))


def test_group_map_text_against_scalar_oracle():
    rng = np.random.default_rng(12)
    for moduli in ORACLE_GROUPS:
        G = gc.AbelianGroupSpec(moduli)
        for shape in ((1, 1), (3, 5), (7, 4)):
            gm = gc.GroupMapMatrix(rng.integers(G.order, size=shape), G)
            text = gm.to_text()
            assert text == _oracle_to_text(moduli, gm.entries), moduli
            again = gc.GroupMapMatrix.from_text(text)
            assert again.group == G
            assert np.array_equal(again.entries, gm.entries), moduli
            assert again.entries.tolist() == _oracle_from_text(text), moduli


def test_distance_to_easy_unpaired_character_adds_nothing():
    # a real approximant cannot use chi_1 without its conjugate chi_2, so
    # easy = {0, 1} gives exactly the distance to the constants
    fv = np.array([1.0, -1.0, -1.0])
    assert gc.distance_to_easy(fv, T_Z3, [0, 1]) == 1.0
    assert gc.distance_to_easy(fv, T_Z3, [0]) == 1.0


def _complex_span_distance(fv, rows):
    """HiGHS oracle: min delta with |f - Re p| <= delta and Im p = 0 exactly,
    p = sum_a c_a chi_a over complex c."""
    from scipy.optimize import linprog

    k, N = rows.shape
    re = np.hstack([rows.real.T, -rows.imag.T])    # Re p in (Re c, Im c)
    im = np.hstack([rows.imag.T, rows.real.T])     # Im p
    ones = np.ones((N, 1))
    A_ub = np.vstack([np.hstack([-re, -ones]), np.hstack([re, -ones])])
    c = np.zeros(2 * k + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.concatenate([-fv, fv]),
                  A_eq=np.hstack([im, np.zeros((N, 1))]), b_eq=np.zeros(N),
                  bounds=[(None, None)] * (2 * k) + [(0, None)],
                  method="highs")
    assert res.status == 0
    return res.fun


def test_distance_to_easy_against_complex_span_oracle():
    rng = np.random.default_rng(11)
    for moduli in ([4], [3, 2], [5], [3, 3]):
        table = gc.characters_abelian(gc.AbelianGroupSpec(moduli))
        for _ in range(6):
            fv = rng.uniform(-1.0, 1.0, size=table.order)
            easy = sorted(rng.choice(table.order, size=rng.integers(1, 4),
                                     replace=False).tolist())
            ref = _complex_span_distance(fv, table.table[easy])
            assert gc.distance_to_easy(fv, table, easy) == pytest.approx(
                ref, abs=1e-9), (moduli, easy)
            # closing the set under conjugation makes the dual a certificate
            closed = sorted(set(easy) | {
                _oracle_negate(moduli, a) for a in easy})
            if len(closed) == table.order:
                continue
            dh = gc.dual_h(fv, table, closed)
            assert dh.ok, (moduli, closed)
            assert dh.l1 == pytest.approx(2.0, abs=1e-12)
            assert dh.correlation == pytest.approx(2.0 * dh.delta, abs=1e-9)


def _checked_cyclic(m):
    return gc.CharacterTable(m, m, gc._cyclic_characters(m), range(m),
                             [1] * m)


def test_conjugate_against_the_argmax_oracle():
    # conj(chi_a) is the row b where |sum_g chi_a(g) chi_b(g)| peaks
    _, s3 = _s3()
    tables = [gc.characters_abelian(gc.AbelianGroupSpec(m))
              for m in ([4], [3, 2], [5, 3], [2] * 8, [4, 4, 3])]
    tables += [s3, gc.CharacterTable.product(
        [s3, _checked_cyclic(4), _checked_cyclic(3)])]
    for table in tables:
        rows = table.table
        want = np.abs(rows @ rows.T).argmax(axis=1)
        assert np.array_equal(table.conjugate, want), rows.shape
        assert not table.conjugate.flags.writeable
        assert np.abs(rows[table.conjugate] - rows.conj()).max() <= 1e-12
        assert np.array_equal(rows[table.trivial_index()],
                              np.ones(table.order))


def test_character_table_refuses_missing_trivial_row_or_conjugate():
    # Z3 with chi_2 negated: orthogonal, but conj(chi_1) = -chi_2 is no row
    flipped = T_Z3.table * np.array([[1], [1], [-1]])
    with pytest.raises(ValueError, match=r"^table is not closed under "
                       r"conjugation: no row is conj\(chi_1\)$"):
        gc.CharacterTable(3, 3, flipped, range(3), [1] * 3)
    with pytest.raises(ValueError,
                       match="^table has no trivial character row$"):
        gc.CharacterTable(2, 2, [[-1, -1], [1, -1]], [0, 1], [1, 1])


def test_trivial_lookup_builds_no_table_copy():
    # the trivial row is recorded when the table is built, so the lookup
    # holds no copy of the 128 MiB table
    table = gc.characters_abelian(gc.AbelianGroupSpec([2] * 12))
    tracemalloc.start()
    try:
        trivial = table.trivial_index()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trivial == 0 and peak < 2 ** 20
    # every element of Z2^12 is its own negative
    assert np.array_equal(table.conjugate, np.arange(4096))


def test_span_lp_refused_before_its_basis_is_built():
    # Z2^12 with every character easy: 4097 rows over 2 * 4096 + 1 + 4097
    # columns.  The 128 MiB table is built before the trace starts; the
    # whole 4096 x 4096 complex conjugate product alone would be twice that
    table = gc.characters_abelian(gc.AbelianGroupSpec([2] * 12))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="simplex tableau of "
                           "4097 rows and 12290 columns needs 402948144 "):
            gc.distance_to_easy(np.ones(4096), table, range(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
