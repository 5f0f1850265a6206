"""Truth tables, characters, the transform pair, and exact degree."""

import numpy as np
import pytest

from commbound import boolfn as bf


def test_table_validation():
    with pytest.raises(ValueError):
        bf.BoolFunction(2, [1, -1, 1])
    with pytest.raises(ValueError):
        bf.BoolFunction(1, [1, 0])


def test_arity_cap():
    from commbound.errors import ResourceLimitError

    assert bf.builtin_function("AND", bf.MAX_ARITY).n == bf.MAX_ARITY
    with pytest.raises(ResourceLimitError):
        bf.builtin_function("AND", bf.MAX_ARITY + 1)
    # refused from the header alone, before the bits are read
    with pytest.raises(ResourceLimitError):
        bf.parse_truth_table(f"n={bf.MAX_ARITY + 1}\n01\n")


def test_character_eval():
    assert bf.character_eval(0, 0b101) == 1
    assert bf.character_eval(0b001, 0b001) == -1
    assert bf.character_eval(0b011, 0b011) == 1
    assert bf.character_eval(0b011, 0b001) == -1


def test_character_orthogonality_exhaustive():
    for n in range(1, 5):
        N = 2 ** n
        for T in range(N):
            for S in range(N):
                total = sum(bf.character_eval(T, x) * bf.character_eval(S, x)
                            for x in range(N))
                assert total == (N if T == S else 0)


def test_wht_parity():
    for n in (1, 2, 3):
        s = bf.wht(bf.builtin_function("PARITY", n).table)
        full = 2 ** n - 1
        for T in range(2 ** n):
            assert s[T] == pytest.approx(1.0 if T == full else 0.0)


def test_wht_and2():
    # direct 4-point summation: {}, {1}, {2} -> 1/2; {1,2} -> -1/2
    s = bf.wht(bf.builtin_function("AND", 2).table)
    assert list(s) == pytest.approx([0.5, 0.5, 0.5, -0.5])


def test_wht_constant():
    s = bf.wht(bf.BoolFunction(2, [1, 1, 1, 1]).table)
    assert list(s) == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_transform_round_trip():
    rng = np.random.default_rng(0)
    for n in range(1, 11):
        f = rng.normal(size=2 ** n)
        back = bf.iwht(bf.wht(f))
        assert np.abs(back - f).max() <= 1e-12
        coeffs = rng.normal(size=2 ** n)
        s = bf.wht(bf.iwht(coeffs))
        assert np.abs(s - coeffs).max() <= 1e-12
        for a in (back, s):     # iwht's and wht's, read-only float64
            assert a.dtype == np.float64 and not a.flags.writeable


def test_parseval():
    rng = np.random.default_rng(1)
    for n in range(1, 6):
        f = bf.BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
        coeffs = bf.wht(f.table)
        assert (coeffs ** 2).sum() == pytest.approx(1.0, abs=1e-9)


def test_degree_examples():
    assert bf.degree(bf.builtin_function("PARITY", 3)) == 3
    assert bf.degree(bf.builtin_function("AND", 2)) == 2
    assert bf.degree(bf.BoolFunction(2, [1, 1, 1, 1])) == 0
    assert bf.degree(bf.BoolFunction(1, [1, -1])) == 1


def test_degree_subadditive_under_product():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        f = bf.BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
        g = bf.BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
        fg = bf.BoolFunction(n, f.table * g.table)
        assert bf.degree(fg) <= bf.degree(f) + bf.degree(g)


def test_builtins():
    or2 = bf.builtin_function("OR", 2)
    assert list(or2.table) == [1, -1, -1, -1]
    maj3 = bf.builtin_function("MAJ", 3)
    assert maj3.table[0b000] == 1 and maj3.table[0b011] == -1 and \
        maj3.table[0b100] == 1
    with pytest.raises(ValueError):
        bf.builtin_function("MAJ", 2)
    with pytest.raises(ValueError):
        bf.builtin_function("NOPE", 2)


def test_function_spec():
    f = bf.parse_function_spec("PARITY:3")
    assert f == bf.builtin_function("PARITY", 3)
    with pytest.raises(ValueError):
        bf.parse_function_spec("PARITY")
    with pytest.raises(ValueError):
        bf.parse_function_spec("PARITY:x")


def test_truth_table_round_trip():
    f = bf.builtin_function("AND", 3)
    text = bf.format_truth_table(f)
    assert text.startswith("n=3\n")
    assert bf.parse_truth_table(text) == f
    with pytest.raises(ValueError):
        bf.parse_truth_table("n=2\n010")
    with pytest.raises(ValueError):
        bf.parse_truth_table("2\n0101")
    # a header that is not a non-negative integer arity is refused by name
    for text in ("n=-1\n", "n=x\n0", "n=\n0", "", "n=1.0\n01"):
        with pytest.raises(ValueError, match="truth table must start") as err:
            bf.parse_truth_table(text)
        assert "invalid literal" not in str(err.value), text
    for text in ("n=1\n0", "n=1\n02"):
        with pytest.raises(ValueError, match="truth table"):
            bf.parse_truth_table(text)


def _per_block_fwht(a):
    """The butterfly one block at a time, as it was before the levels were
    vectorized; kept as the bit-for-bit reference."""
    h = 1
    while h < a.shape[0]:
        for start in range(0, a.shape[0], 2 * h):
            x = a[start:start + h].copy()
            y = a[start + h:start + 2 * h]
            a[start:start + h] = x + y
            a[start + h:start + 2 * h] = x - y
        h *= 2
    return a


def test_character_sums_against_dense_hadamard():
    rng = np.random.default_rng(4)
    H = np.ones((1, 1), dtype=np.int64)
    for n in range(0, 11):
        f = bf.BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
        got = bf.character_sums(f)
        assert got.dtype == np.int64
        assert np.array_equal(got, H @ f.table), n
        H = np.kron(np.array([[1, 1], [1, -1]]), H)


def test_wht_iwht_bitwise_against_per_block_loop():
    rng = np.random.default_rng(5)
    for n in range(0, 13):
        table = rng.normal(size=2 ** n)
        got = bf.wht(table)
        want = _per_block_fwht(table.copy()) / 2 ** n
        assert got.tobytes() == want.tobytes(), n
        got = bf.iwht(table)
        assert got.tobytes() == _per_block_fwht(table.copy()).tobytes(), n


def test_builtins_against_per_point_formulas():
    formulas = {
        "PARITY": lambda x, n: bin(x).count("1") % 2 == 1,
        "AND": lambda x, n: x == 2 ** n - 1,
        "OR": lambda x, n: x != 0,
        "MAJ": lambda x, n: 2 * bin(x).count("1") > n,
    }
    assert set(formulas) == set(bf.BUILTIN_FUNCTIONS)
    for name, minus in formulas.items():
        for n in range(1, 11):
            if name == "MAJ" and n % 2 == 0:
                with pytest.raises(ValueError, match="odd arity"):
                    bf.builtin_function(name, n)
                continue
            want = [-1 if minus(x, n) else 1 for x in range(2 ** n)]
            assert bf.builtin_function(name, n).table.tolist() == want


def test_degree_against_popcount_of_support():
    rng = np.random.default_rng(6)
    cases = [bf.builtin_function(name, n) for name in ("AND", "OR", "PARITY")
             for n in range(1, 9)]
    cases += [bf.BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
              for n in range(0, 9) for _ in range(5)]
    # low-degree tables: products of at most two coordinates
    for n in range(2, 9):
        x = np.arange(2 ** n)
        cases.append(bf.BoolFunction(n, 1 - 2 * ((x ^ (x >> 1)) & 1)))
    for f in cases:
        sums = bf.character_sums(f)
        want = max((bin(T).count("1") for T in range(2 ** f.n)
                    if sums[T] != 0), default=0)
        assert bf.degree(f) == want
