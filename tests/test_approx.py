"""Approximate degree, the dual witness, and their verification."""

import functools
from collections import Counter

import numpy as np
import pytest

from commbound.approx import (_types, approx_degree, best_approximation,
                              chebyshev, dual_polynomial, error_profile,
                              verify_dual)
from commbound.boolfn import (BoolFunction, all_functions, builtin_function,
                              degree)

AND2 = builtin_function("AND", 2)


# the full LP, over all 2^n points and the characters of degree <= d: the
# reference for the LP on f's types
def _character_matrix(n: int, masks) -> np.ndarray:
    """Rows chi_T(x) = (-1)^popcount(T & x) over all 2^n points, T in masks."""
    v = np.bitwise_and.outer(np.asarray(masks, dtype=np.int64),
                             np.arange(2 ** n))
    return 1.0 - 2.0 * (np.bitwise_count(v) & 1)


def _masks_up_to_degree(n: int, d: int) -> np.ndarray:
    """Every T with |T| <= d, in ascending order."""
    return np.flatnonzero(np.bitwise_count(np.arange(2 ** n)) <= d)


def test_error_profiles_frozen():
    # frozen from an independent LP oracle run
    assert error_profile(AND2) == pytest.approx([1.0, 0.5, 0.0], abs=1e-8)
    assert error_profile(builtin_function("AND", 3)) == pytest.approx(
        [1.0, 2.0 / 3.0, 0.25, 0.0], abs=1e-8)
    assert error_profile(builtin_function("OR", 2)) == pytest.approx(
        [1.0, 0.5, 0.0], abs=1e-8)
    assert error_profile(builtin_function("MAJ", 3)) == pytest.approx(
        [1.0, 0.5, 0.5, 0.0], abs=1e-8)


def test_parity_needs_full_degree():
    for n in range(1, 5):
        f = builtin_function("PARITY", n)
        assert approx_degree(f, 1.0 / 3.0).d == n
        # one degree less leaves the maximal error
        err, _ = best_approximation(f, n - 1)
        assert err == pytest.approx(1.0, abs=1e-8)


def test_tiny_epsilon_gives_exact_degree():
    # any nonzero best error at n <= 3 is at least 2^-n (checked by oracle),
    # so an epsilon below that forces the exact degree
    from commbound.boolfn import degree

    for n in (1, 2, 3):
        eps = 2.0 ** (-n) / 2.0
        for f in all_functions(n):
            assert approx_degree(f, eps).d == degree(f)


def test_epsilon_zero_exact_path():
    r = approx_degree(AND2, 0.0)
    assert r.d == 2 and r.lp_status == "exact" and r.max_error == 0.0


def test_constant_function():
    const = BoolFunction(2, [1, 1, 1, 1])
    assert approx_degree(const, 1.0 / 3.0).d == 0
    w = dual_polynomial(const, 1.0 / 3.0)
    assert w.d == 0
    assert verify_dual(w, const).ok
    # at d = 0 the witness is the point mass f(0) e_0
    for eps in (0.0, 1.0 / 3.0):
        w = dual_polynomial(BoolFunction(2, [-1, -1, -1, -1]), eps)
        assert w.d == 0 and list(w.v) == [-1.0, 0.0, 0.0, 0.0]


def test_exact_path_witness():
    f = builtin_function("AND", 3)
    r = approx_degree(f, 0.0)
    assert r.d == 3 and r.witness.d == 3
    # the degree-2 dual: its correlation is the best degree-2 error, 1/4
    assert r.witness.correlation == pytest.approx(0.25, abs=1e-12)
    assert verify_dual(r.witness, f).ok


def _highs_chebyshev(fv, B):
    """min delta over free c with |f - B^T c| <= delta, solved by HiGHS."""
    from scipy.optimize import linprog

    k, N = B.shape
    ones = np.ones((N, 1))
    A_ub = np.vstack([np.hstack([-B.T, -ones]), np.hstack([B.T, -ones])])
    c = np.zeros(k + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.concatenate([-fv, fv]),
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.status == 0
    return res.fun


def test_chebyshev_certificates_against_highs():
    # AND:8 and OR:8 are the degenerate LPs on which a smallest-index
    # (Bland) simplex cycled in floating point; the LPs here run over every
    # character, and approx_degree's on the seeded tables' types
    rng = np.random.default_rng(3)
    tables = [BoolFunction(n, rng.choice([-1, 1], size=2 ** n))
              for n in (5, 5, 5, 6, 6)]
    cases = [(f, f.n) for f in [*all_functions(3), *tables]] + [
        (builtin_function("MAJ", 5), 5), (builtin_function("PARITY", 5), 5),
        (builtin_function("AND", 8), 4), (builtin_function("OR", 8), 4)]
    for f, top in cases:
        fv = f.table.astype(float)
        highs = []
        for d in range(top + 1):
            B = _character_matrix(f.n, _masks_up_to_degree(f.n, d))
            err, coeffs, v = chebyshev(fv, B)
            l1 = np.abs(v).sum()
            # sum |v| = 1 wherever the error is positive; with error 0 any
            # dual-feasible v (sum |v| <= 1) is optimal
            if err > 1e-9:
                assert abs(l1 - 1.0) <= 1e-12, (f.table, d)
            assert l1 <= 1.0 + 1e-12
            assert np.abs(B @ v).max() <= 1e-9
            assert abs(v @ fv - err) <= 1e-9
            assert np.abs(fv - coeffs @ B).max() <= err + 1e-9
            highs.append(_highs_chebyshev(fv, B))
            assert err == pytest.approx(highs[-1], abs=1e-9)
        if not any(f is t for t in tables):
            continue
        # approx_degree's d is the first degree HiGHS finds within epsilon
        # (deg(f) at the latest), and its witness passes verify_dual
        for eps in (0.1, 1.0 / 3.0, 0.5):
            want = next(d for d in range(top + 1)
                        if d == degree(f) or highs[d] <= eps + 1e-9)
            r = approx_degree(f, eps)
            assert r.d == want, (f.table, eps)
            assert verify_dual(r.witness, f).ok, (f.table, eps)


def test_chebyshev_solves_the_k_plus_1_row_dual(monkeypatch):
    import commbound.approx

    shapes = []
    solve = commbound.approx.solve_lp

    def spy(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, **kw):
        shapes.append((len(c), np.shape(A_ub)[0], np.shape(A_eq)[0]))
        return solve(c, A_ub, b_ub, A_eq, b_eq, **kw)

    monkeypatch.setattr(commbound.approx, "solve_lp", spy)
    f = builtin_function("MAJ", 5)
    for d in range(f.n + 1):
        B = _character_matrix(f.n, _masks_up_to_degree(f.n, d))
        chebyshev(f.table, B)
        # one l1 row and one equality row per basis function, over p and q
        assert shapes[-1] == (2 * 2 ** f.n, 1, B.shape[0])


def test_chebyshev_tableau_cap():
    from commbound.errors import ResourceLimitError

    # 6000 basis functions on one point: a 6002 x 6005 tableau, past 2^28
    # bytes, refused before the tableau is allocated
    with pytest.raises(ResourceLimitError):
        chebyshev([1.0], np.ones((6000, 1)))


def test_zero_epsilon_refused_before_the_basis_is_built():
    import tracemalloc

    from commbound.errors import ResourceLimitError

    # AND:12 flipped also at the points 2^k - 1, k = 1..11 (x_1..x_k = -1):
    # no swap of two inputs keeps the table, so its types are its 2^12
    # points, and it is of degree 11.  epsilon = 0 goes straight to degree
    # 10, whose 4083 x 4096 basis alone is 134 MB; the 4084 x 12277 tableau
    # is refused first
    table = builtin_function("AND", 12).table.copy()
    table[[2 ** k - 1 for k in range(1, 12)]] *= -1
    f = BoolFunction(12, table)
    assert degree(f) == 11 and len(_classes(f)) == 12
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="simplex tableau of "
                           "4084 rows and 12277 columns needs 401245040 "):
            approx_degree(f, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_zero_epsilon_on_two_classes_solves_on_its_types():
    # AND:12 flipped also at the point x_1 = x_2 = -1: classes {x_1, x_2}
    # and the ten others, 3 * 11 = 33 types, so its degree-11 LP is small
    table = builtin_function("AND", 12).table.copy()
    table[0b11] = -1
    f = BoolFunction(12, table)
    assert _classes(f) == [[0, 1], list(range(2, 12))]
    assert len(_types(f)[0]) == 33
    r = approx_degree(f, 0.0)
    assert (r.d, r.lp_status) == (12, "exact")
    assert verify_dual(r.witness, f).ok


def test_the_search_refuses_only_what_a_sweep_would(monkeypatch):
    import commbound.errors
    from commbound.errors import ResourceLimitError

    # seeded 5-bit tables with no swap symmetry, so that their types are
    # their 32 points, under a budget that admits the degree-2 tableau (18 x
    # 83 cells) and refuses degree 3 (28 x 93).  A sweep from degree 0 up
    # solved its LPs up to degree min(d, deg(f) - 1); wherever those all
    # fit, the search returns the result of the full budget (at d = 2 its
    # doubling probes the refused degree 3 before degree 2), and elsewhere
    # it refuses degree 3 as the sweep did
    rng = np.random.default_rng(37)
    seen = Counter()
    for _ in range(40):
        f = BoolFunction(5, rng.choice([-1, 1], size=32))
        if len(_classes(f)) < 5:
            continue
        for eps in (0.1, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99):
            full = approx_degree(f, eps)
            swept = _sweep_lp_count(f, eps, full.d) - 1
            with monkeypatch.context() as m:
                m.setattr(commbound.errors, "MAX_TABLE_BYTES", 18 * 83 * 8)
                if swept > 2 and full.d < f.n:
                    with pytest.raises(ResourceLimitError,
                                       match="tableau of 27 rows"):
                        approx_degree(f, eps)
                    seen["refused"] += 1
                    continue
                r = approx_degree(f, eps)
            assert (r.d, r.max_error) == (full.d, full.max_error)
            assert np.array_equal(r.witness.v, full.witness.v)
            seen[full.d] += 1
    assert seen[2] and seen[5] and seen["refused"]


def test_maj7_at_one_third():
    # the desk-scale ceiling: degree 5, with a verified degree-4 dual
    f = builtin_function("MAJ", 7)
    r = approx_degree(f, 1.0 / 3.0)
    assert r.d == 5
    assert verify_dual(r.witness, f).ok
    B = _character_matrix(7, _masks_up_to_degree(7, 5))
    assert r.max_error == pytest.approx(
        _highs_chebyshev(f.table.astype(float), B), abs=1e-9)
    B = _character_matrix(7, _masks_up_to_degree(7, 4))
    assert r.witness.correlation == pytest.approx(
        _highs_chebyshev(f.table.astype(float), B), abs=1e-9)


def test_character_matrix_rows():
    from commbound.boolfn import character_eval

    for n in range(5):
        chi = _character_matrix(n, range(2 ** n))
        assert chi.tolist() == [[character_eval(T, x) for x in range(2 ** n)]
                                for T in range(2 ** n)]
    assert _character_matrix(3, []).shape == (0, 8)


def test_approximant_quality():
    r = approx_degree(AND2, 1.0 / 3.0)
    assert r.d == 2
    # reconstruct the approximant pointwise and check the sup error
    from commbound.boolfn import iwht

    values = iwht(r.approximant)
    assert np.abs(values - AND2.table).max() <= 1.0 / 3.0 + 1e-8
    # no coefficients above the certified degree
    for T in range(4):
        if bin(T).count("1") > r.d:
            assert r.approximant[T] == pytest.approx(0.0, abs=1e-9)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        approx_degree(AND2, 1.0)
    with pytest.raises(ValueError):
        approx_degree(AND2, -0.1)
    with pytest.raises(ValueError):
        dual_polynomial(AND2, 1.0)


def test_parity_dual_witness_is_scaled_parity():
    f = builtin_function("PARITY", 3)
    w = dual_polynomial(f, 1.0 / 3.0)
    assert w.d == 3
    assert w.correlation == pytest.approx(1.0, abs=1e-8)
    assert w.l1 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w.v, f.table / 8.0, atol=1e-8)


def test_and2_dual_witness():
    w = dual_polynomial(AND2, 1.0 / 3.0)
    # dual optimum equals the best degree-1 error, 1/2
    assert w.correlation == pytest.approx(0.5, abs=1e-8)
    assert verify_dual(w, AND2).ok


def test_verify_dual_catches_scaling():
    w = dual_polynomial(AND2, 1.0 / 3.0)
    doubled = type(w)(v=2.0 * w.v, d=w.d,
                      epsilon=w.epsilon, correlation=2 * w.correlation,
                      l1=2 * w.l1)
    chk = verify_dual(doubled, AND2)
    assert not chk.l1_ok and not chk.ok


def test_verify_dual_catches_orthogonality_shift():
    w = dual_polynomial(AND2, 1.0 / 3.0)
    shifted = type(w)(v=w.v + 1e-3, d=w.d,
                      epsilon=w.epsilon, correlation=w.correlation, l1=w.l1)
    chk = verify_dual(shifted, AND2)
    # the constant-character inner product moves by 1e-3 * 2^n
    assert chk.orthogonality_max == pytest.approx(4e-3, abs=1e-9)
    assert not chk.orthogonality_ok


def test_verify_dual_arity_mismatch():
    w = dual_polynomial(AND2, 1.0 / 3.0)
    with pytest.raises(ValueError):
        verify_dual(w, builtin_function("AND", 3))


def test_weak_duality_all_n2():
    for f in all_functions(2):
        profile = error_profile(f)
        w = dual_polynomial(f, 1.0 / 3.0)
        if w.d >= 1:
            assert w.correlation == pytest.approx(profile[w.d - 1], abs=1e-7)


def test_degree_monotone_in_epsilon():
    grid = (0.01, 0.1, 1.0 / 3.0, 0.5, 0.9)
    for n in (1, 2, 3):
        for f in all_functions(n):
            degs = [approx_degree(f, eps).d for eps in grid]
            assert degs == sorted(degs, reverse=True), f.table


def test_masks_up_to_degree_against_popcount():
    for n in range(0, 11):
        for d in range(-1, n + 2):
            want = [T for T in range(2 ** n) if bin(T).count("1") <= d]
            assert _masks_up_to_degree(n, d).tolist() == want, (n, d)


def _count_lps(monkeypatch):
    """Patch approx.solve_lp to count its calls; returns the count list."""
    import commbound.approx

    calls = []
    solve = commbound.approx.solve_lp
    monkeypatch.setattr(commbound.approx, "solve_lp",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def _reference_sweep(f, epsilon, fit=None):
    """(d, witness table, error) from an LP at every degree 0..n, the
    full-degree LP included: the sweep before it stopped at deg(f).  fit(d)
    is the LP of degree d (approx._fit by default); a cached one shares
    the LPs between epsilons."""
    from commbound.approx import _FEAS_TOL, _fit

    fit = fit or functools.partial(_fit, f)
    v = np.zeros(2 ** f.n)
    v[0] = f.table[0]
    for d in range(f.n + 1):
        err, _, dual = fit(d)
        if err <= epsilon + _FEAS_TOL:
            return d, v, err
        v = dual
    raise AssertionError("the full-degree LP is always exact")


def _sweep_lp_count(f, epsilon, d):
    """LPs the sweep that stopped at deg(f) solved for a result d: one per
    degree from 0 (from deg(f) - 1 at epsilon = 0) up to d, none from
    deg(f) up."""
    top = degree(f)
    return min(top, 1) if epsilon == 0 else min(d + 1, top)


def _parity_witness(f):
    """sign(s) chi_[n] / 2^n for the top character sum s of f: the unique
    optimal dual at degree n - 1 of a full-degree f."""
    from commbound.boolfn import character_sums

    s = int(character_sums(f)[-1])
    odd = np.bitwise_count(np.arange(2 ** f.n)) & 1
    return np.where(odd, -1.0, 1.0) * np.sign(s) / 2 ** f.n


def test_chebyshev_zero_optimum_is_a_positive_zero():
    import math

    err = chebyshev(AND2.table, _character_matrix(2, range(4)))[0]
    assert err == 0.0 and math.copysign(1.0, err) == 1.0


def test_parity_sweep_stops_at_the_exact_degree(monkeypatch):
    import math

    # degree 0 misses with error 1 and degree n - 1 with |s|/2^n = 1, so
    # no degree is left to an LP
    calls = _count_lps(monkeypatch)
    for n in range(1, 7):
        calls.clear()
        r = approx_degree(builtin_function("PARITY", n), 1.0 / 3.0)
        assert (r.d, len(calls), r.lp_status) == (n, 0, "exact")
        assert math.copysign(1.0, r.max_error) == 1.0 and r.max_error == 0.0


def test_epsilon_zero_solves_one_lp(monkeypatch):
    # the witness is the dual at deg(f) - 1: an LP unless deg(f) = n, where
    # it is the parity
    calls = _count_lps(monkeypatch)
    x1x2 = BoolFunction(3, [1, -1, -1, 1] * 2)
    for f in [builtin_function("AND", 4), builtin_function("MAJ", 3),
              BoolFunction(3, [1] * 8), BoolFunction(3, [-1] * 8), x1x2]:
        calls.clear()
        r = approx_degree(f, 0.0)
        assert r.lp_status == "exact" and r.max_error == 0.0
        assert len(calls) == (0 if r.d in (0, f.n) else 1), f.table
    assert approx_degree(x1x2, 0.0).d == 2


def test_sweep_matches_a_full_reference_sweep():
    for f in all_functions(3):
        for eps in (0.0, 1.0 / 3.0, 0.6):
            r = approx_degree(f, eps)
            d, v, _ = _reference_sweep(f, eps)
            assert r.d == r.witness.d == d, (f.table, eps)
            if d < f.n:
                assert np.array_equal(r.witness.v, v), (f.table, eps)
            else:
                # the degree n - 1 witness is exact; the LP's is within 1e-15
                exact = _parity_witness(f)
                assert np.array_equal(r.witness.v, exact)
                assert np.abs(v - exact).max() <= 1e-15, (f.table, eps)


def test_error_profile_is_exact_from_the_degree_up():
    import math

    from commbound.boolfn import degree

    for f in [AND2, builtin_function("MAJ", 3), builtin_function("OR", 4),
              BoolFunction(2, [1, -1, 1, -1]), BoolFunction(2, [1] * 4)]:
        top = degree(f)
        profile = error_profile(f)
        assert len(profile) == f.n + 1
        for d in range(top):
            assert profile[d] == best_approximation(f, d)[0]
        for e in profile[top:]:
            assert e == 0.0 and math.copysign(1.0, e) == 1.0


def _full_errors(f):
    """Best error at every degree below deg(f), from the Chebyshev LP over
    all 2^n points and the characters of degree <= d."""
    from commbound.boolfn import degree

    fv = f.table.astype(float)
    return [chebyshev(fv, _character_matrix(
        f.n, _masks_up_to_degree(f.n, d)))[0] for d in range(degree(f))]


def _builtins(top):
    return [builtin_function(name, n)
            for name in ("AND", "OR", "PARITY", "MAJ")
            for n in range(1, top + 1) if name != "MAJ" or n % 2]


def test_level_lp_matches_the_full_lp():
    from commbound.approx import _FEAS_TOL
    from commbound.boolfn import iwht

    for f in _builtins(7):
        errors = _full_errors(f)
        assert error_profile(f)[:len(errors)] == pytest.approx(errors,
                                                               abs=1e-9)
        for eps in (0.0, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.9):
            d = next((d for d, e in enumerate(errors)
                      if e <= eps + _FEAS_TOL), len(errors))
            r = approx_degree(f, eps)
            assert r.d == d, (f.table, eps)
            assert r.max_error == pytest.approx(
                errors[d] if d < len(errors) else 0.0, abs=1e-9)
            assert verify_dual(r.witness, f).ok, (f.table, eps)
            # the approximant lives on degrees <= d and meets its error
            high = np.bitwise_count(np.arange(2 ** f.n)) > d
            assert not r.approximant[high].any()
            assert np.abs(iwht(r.approximant) - f.table).max() <= \
                r.max_error + 1e-9


def _lp_widths(monkeypatch):
    """Patch approx.solve_lp to record the variable count of each LP."""
    import commbound.approx

    widths = []
    solve = commbound.approx.solve_lp
    monkeypatch.setattr(commbound.approx, "solve_lp",
                        lambda c, *a, **k: widths.append(len(c))
                        or solve(c, *a, **k))
    return widths


def _oracle_classes(f):
    """f's swap classes by brute force: the components of the graph whose
    edges are the transpositions (i j) that leave f's table unchanged,
    each swap checked point by point."""
    def swapped(x, i, j):
        bi, bj = x >> i & 1, x >> j & 1
        return x ^ ((bi ^ bj) << i) ^ ((bi ^ bj) << j)

    label = list(range(f.n))
    for i in range(f.n):
        for j in range(i + 1, f.n):
            if all(f.table[swapped(x, i, j)] == f.table[x]
                   for x in range(2 ** f.n)):
                old, new = label[j], label[i]
                label = [new if c == old else c for c in label]
    groups = {}
    for i, c in enumerate(label):
        groups.setdefault(c, []).append(i)
    return sorted(groups.values())


def _classes(f):
    """The swap classes _types found: the inputs i grouped by the type of
    the point with only x_i = -1, in order of their least input."""
    t = _types(f)[1]
    groups = {}
    for i in range(f.n):
        groups.setdefault(int(t[1 << i]), []).append(i)
    return list(groups.values())


def test_each_lp_runs_on_the_swap_class_types(monkeypatch):
    import math

    widths = _lp_widths(monkeypatch)
    seen = set()
    for f in all_functions(3):
        classes = _oracle_classes(f)
        assert _classes(f) == classes, f.table
        widths.clear()
        approx_degree(f, 0.01)
        best_approximation(f, 1)
        # p and q over the prod_b (|B_b| + 1) types: 8 on the 4 levels of a
        # symmetric table, 16 on the 8 points of one with no symmetry, 12 on
        # the 6 types of classes of sizes 2 and 1
        want = 2 * math.prod(len(c) + 1 for c in classes)
        assert widths and set(widths) == {want}, f.table
        symmetric = all(len({int(f.table[x]) for x in range(8)
                             if bin(x).count("1") == k}) == 1
                        for k in range(4))
        assert (want == 8) == symmetric, f.table
        seen.add(want)
    assert seen == {8, 12, 16}


def _planted(rng, sizes):
    """A seeded table that is a random function of the -1 counts in blocks
    of the given sizes, the inputs dealt to the blocks at random; returns
    it and the blocks."""
    n = sum(sizes)
    perm = rng.permutation(n)
    cuts = np.cumsum([0, *sizes])
    blocks = [sorted(perm[a:b].tolist()) for a, b in zip(cuts, cuts[1:])]
    key = np.zeros(2 ** n, dtype=np.int64)
    for b in blocks:
        count = np.bitwise_count(np.arange(2 ** n) & sum(1 << i for i in b))
        key = key * (len(b) + 1) + count
    values = rng.choice([-1, 1], size=int(np.prod([m + 1 for m in sizes])))
    return BoolFunction(n, values[key]), sorted(blocks)


def _relabelled(f, perm):
    """g(x) = f(y) with y_{perm[i]} = x_i: input i of g is input perm[i]
    of f."""
    x = np.arange(2 ** f.n)
    y = sum(((x >> i) & 1) << int(p) for i, p in enumerate(perm))
    return BoolFunction(f.n, f.table[y])


def _check_against_the_full_lp(f, rng):
    """d and error of the type LP against the full LP at every degree
    below deg(f) and three epsilons; the witness verifies; the classes
    agree with the oracle and move with a relabelling of the inputs."""
    from commbound.approx import _FEAS_TOL

    errors = _full_errors(f)
    assert error_profile(f)[:len(errors)] == pytest.approx(errors, abs=1e-9)
    for eps in (0.1, 1.0 / 3.0, 0.5):
        d = next((d for d, e in enumerate(errors)
                  if e <= eps + _FEAS_TOL), len(errors))
        r = approx_degree(f, eps)
        assert r.d == d, (f.table, eps)
        assert r.max_error == pytest.approx(
            errors[d] if d < len(errors) else 0.0, abs=1e-9)
        assert verify_dual(r.witness, f).ok, (f.table, eps)
    classes = _classes(f)
    assert classes == _oracle_classes(f), f.table
    perm = rng.permutation(f.n)
    moved = sorted(sorted(int(np.flatnonzero(perm == i)[0]) for i in c)
                   for c in classes)
    assert sorted(_classes(_relabelled(f, perm))) == moved, (f.table, perm)
    return classes


def test_type_lp_matches_the_full_lp_on_every_three_bit_function():
    rng = np.random.default_rng(11)
    for f in all_functions(3):
        _check_against_the_full_lp(f, rng)


def test_type_lp_matches_the_full_lp_on_planted_classes():
    rng = np.random.default_rng(5)
    for sizes in ((2, 1, 1), (2, 2), (3, 2), (2, 2, 1), (3, 2, 1), (4, 2),
                  (3, 2, 2)):
        f, blocks = _planted(rng, sizes)
        assert sorted(_check_against_the_full_lp(f, rng)) == blocks, sizes


def test_type_lp_on_maj7_with_one_point_flipped():
    table = builtin_function("MAJ", 7).table.copy()
    table[1] *= -1
    f = BoolFunction(7, table)
    assert _check_against_the_full_lp(f, np.random.default_rng(2)) == \
        [[0], list(range(1, 7))]
    r = approx_degree(f, 1.0 / 3.0)
    assert r.d == 5 and r.max_error == pytest.approx(0.316770186335,
                                                      abs=1e-12)


def test_symmetric_truth_table_file_takes_the_level_path(monkeypatch,
                                                         tmp_path):
    from commbound.boolfn import format_truth_table, load_function

    path = tmp_path / "maj7.txt"
    path.write_text(format_truth_table(builtin_function("MAJ", 7)))
    widths = _lp_widths(monkeypatch)
    f = load_function(str(path))
    r = approx_degree(f, 1.0 / 3.0)
    assert r.d == 5 and set(widths) == {16}
    assert verify_dual(r.witness, f).ok


def test_lifted_witness_verifies_at_sixteen_bits():
    for f in [builtin_function("AND", 16), builtin_function("MAJ", 15),
              builtin_function("PARITY", 16)]:
        for eps in (0.0, 1.0 / 3.0):
            r = approx_degree(f, eps)
            check = verify_dual(r.witness, f)
            assert check.ok, (f.n, eps, check)
            assert check.l1 == pytest.approx(1.0, abs=1e-12)
    assert approx_degree(builtin_function("AND", 16), 1.0 / 3.0).d == 5


def test_verify_dual_transform_matches_the_character_matrix():
    from commbound.approx import DualWitness

    rng = np.random.default_rng(7)
    for n in range(9):
        f = BoolFunction(n, [1] * 2 ** n)
        v = rng.standard_normal(2 ** n)
        for d in range(n + 2):
            w = DualWitness(v=v, d=d, epsilon=0.5,
                            correlation=0.0, l1=0.0)
            chi = _character_matrix(n, _masks_up_to_degree(n, d - 1))
            want = float(np.abs(chi @ v).max(initial=0.0))
            assert abs(verify_dual(w, f).orthogonality_max - want) <= 1e-12


# the search against the sweep: approx_degree reads degrees 0 and n - 1 off
# the transform and searches the degrees between; _reference_sweep solves an
# LP at every degree from 0 up

SEARCH_EPSILONS = (0.0, 1.0 / 3.0, 0.6, 1.0 - 1e-10)


def _npn_representatives(n):
    """One table of each class of n-bit functions under permuting and
    negating the inputs and negating the output, all of which keep every
    error profile and the exact degree."""
    import itertools

    x = np.arange(2 ** n)
    maps = np.array([sum(((x >> i) & 1) << p for i, p in enumerate(perm))
                     ^ flip for perm in itertools.permutations(range(n))
                     for flip in range(2 ** n)])
    weights = 1 << x
    full = 2 ** 2 ** n - 1
    seen = np.zeros(full + 1, dtype=bool)
    reps = []
    for code in range(full + 1):
        if not seen[code]:
            images = ((code >> x) & 1)[maps] @ weights
            seen[images] = seen[full ^ images] = True
            reps.append(BoolFunction(n, 1 - 2 * ((code >> x) & 1)))
    return reps


def _check_search_against_the_sweep(f):
    """Same d and witness as the sweep, and max_error within 1e-12, at
    every SEARCH_EPSILONS; the degree n - 1 witness, exact here, is within
    1e-15 of the sweep's LP dual."""
    from commbound.approx import _fit

    fit = functools.cache(functools.partial(_fit, f))
    for eps in SEARCH_EPSILONS:
        r = approx_degree(f, eps)
        d, v, err = _reference_sweep(f, eps, fit)
        assert r.d == r.witness.d == d, (f.table, eps)
        assert abs(r.max_error - err) <= 1e-12, (f.table, eps)
        if d == f.n:
            assert np.array_equal(r.witness.v, _parity_witness(f))
            assert np.abs(r.witness.v - v).max() <= 1e-15, \
                (f.table, eps)
        else:
            assert np.array_equal(r.witness.v, v), (f.table, eps)


def test_search_matches_the_sweep_on_every_small_function():
    for n in (2, 3):
        for f in all_functions(n):
            _check_search_against_the_sweep(f)
    reps = _npn_representatives(4)
    assert len(reps) == 222
    for f in reps:
        _check_search_against_the_sweep(f)


def test_search_matches_the_sweep_on_planted_classes():
    rng = np.random.default_rng(34)
    for sizes in ((2, 2, 1), (3, 1, 1), (1, 1, 1, 1, 1), (2, 2, 2),
                  (3, 2, 1), (4, 1, 1), (3, 2, 2), (2, 2, 2, 1)):
        f, blocks = _planted(rng, sizes)
        assert sorted(_classes(f)) == blocks, sizes
        _check_search_against_the_sweep(f)


def _full_degree_functions():
    """Builtins and seeded planted tables of degree n, 2 to 7 bits."""
    rng = np.random.default_rng(35)
    fs = [f for f in _builtins(7) if f.n >= 2 and degree(f) == f.n]
    for sizes in ((2, 1), (1, 1, 1, 1), (3, 2), (2, 2, 1), (3, 3),
                  (3, 2, 2)):
        f, _ = _planted(rng, sizes)
        if degree(f) == f.n:
            fs.append(f)
    return fs


def test_degree_n_minus_1_closed_form_matches_its_lp():
    from commbound.boolfn import character_sums

    at_n_minus_1 = 0
    for f in _full_degree_functions():
        e = abs(int(character_sums(f)[-1])) / 2 ** f.n
        lp_err, lp_approximant = best_approximation(f, f.n - 1)
        assert abs(e - lp_err) <= 1e-12, f.table
        # epsilon = e: degree n - 1 fits with the parity left out
        r = approx_degree(f, min(e, 0.99))
        if r.d == f.n - 1:
            at_n_minus_1 += 1
            assert r.lp_status == "optimal" and r.max_error == e
            assert np.abs(r.approximant - lp_approximant).max() <= 1e-12
        # below e it misses, and the parity is the witness
        w = approx_degree(f, e / 2).witness
        check = verify_dual(w, f)
        assert w.d == f.n and check.ok and check.orthogonality_max == 0.0
        assert w.correlation == e and w.l1 == 1.0
    assert at_n_minus_1 >= 5


def _workload_calls(monkeypatch, tmp_path):
    """(workload, seed, f, epsilon, result, LPs solved) of every
    approx_degree call that perfbench's three workloads make at seeds 1 to
    3, each task run as perfbench runs it."""
    import importlib.util
    import pathlib
    import sys

    import commbound
    import commbound.approx
    import commbound.bounds
    import commbound.cli

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, gen)
    spec.loader.exec_module(gen)
    lps = _count_lps(monkeypatch)
    calls = []
    solve = commbound.approx.approx_degree

    def counted(f, epsilon):
        before = len(lps)
        r = solve(f, epsilon)
        calls.append((workload, seed, f, epsilon, r, len(lps) - before))
        return r

    for module in (commbound.approx, commbound.bounds, commbound.cli):
        monkeypatch.setattr(module, "approx_degree", counted)
    for workload in gen.WORKLOADS:
        for seed in (1, 2, 3):
            root = tmp_path / f"{workload}-{seed}"
            for task in gen.generate(workload, seed, str(root), commbound):
                if task.argv is None:
                    module, name = task.call.split(".")
                    getattr(getattr(commbound, module), name)(*task.args)
                else:
                    out = str(root / (task.id + ".json"))
                    assert commbound.cli.main(task.argv + ["--output", out]) \
                        == task.expect, task.id
    return calls


def test_lp_count_guard_on_parity_and_majority(monkeypatch):
    # degree n - 1 misses: |s|/2^n is 1 for PARITY:n, 1/2 for MAJ:3 and
    # 3/8 for MAJ:5
    lps = _count_lps(monkeypatch)
    for f in [builtin_function("PARITY", n) for n in range(1, 9)] + \
            [builtin_function("MAJ", 3), builtin_function("MAJ", 5)]:
        lps.clear()
        assert approx_degree(f, 1.0 / 3.0).d == f.n
        assert not lps, (f.n, len(lps))


def test_lp_count_guard_on_full_degree_five_bit_tables(monkeypatch):
    lps = _count_lps(monkeypatch)
    # degrees 1 to 3 of a full-degree 5-bit table: a probe at 1, then 3,
    # then 2, or the degree-0 witness LP after a fit at 1.  Seeded tables,
    # and MAJ:5 with one point flipped, whose degree-1 error can be 6/7
    rng = np.random.default_rng(36)
    tables = [rng.choice([-1, 1], size=32) for _ in range(40)]
    for x in range(32):
        tables.append(builtin_function("MAJ", 5).table.copy())
        tables[-1][x] *= -1
    seen = set()
    for table in tables:
        f = BoolFunction(5, table)
        if degree(f) < 5:
            continue
        for eps in (0.1, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99):
            lps.clear()
            r = approx_degree(f, eps)
            assert len(lps) <= 3, (f.table, eps, r.d)
            seen.add(r.d)
    assert seen >= {1, 2, 3, 4}


def test_lp_count_guard_on_the_workloads(monkeypatch, tmp_path, capsys):
    # never more LPs than the sweep, on every call the workloads make
    calls = _workload_calls(monkeypatch, tmp_path)
    capsys.readouterr()
    assert {c[0] for c in calls} == {"degree", "inner", "group"}
    for workload, seed, f, eps, r, count in calls:
        assert count <= _sweep_lp_count(f, eps, r.d), \
            (workload, seed, f.table, eps, r.d, count)
    # at seed 1 the sweep solved 96 LPs a pass on degree and 65 on inner
    lps_at_seed_1 = Counter()
    for workload, seed, *_, count in calls:
        lps_at_seed_1[workload] += count if seed == 1 else 0
    assert lps_at_seed_1["degree"] <= 32 and lps_at_seed_1["inner"] <= 5, \
        lps_at_seed_1


def _lp_spectrum(f, d):
    """Reference coefficients of the degree-d LP approximant: the type
    polynomial at every point, transformed and cut above degree d."""
    from commbound.approx import _lp
    from commbound.boolfn import _fwht_inplace

    types = _types(f)
    coeffs = _fwht_inplace(_lp(types, d)[1][types[1]]) / 2 ** f.n
    coeffs[np.bitwise_count(np.arange(2 ** f.n)) > d] = 0.0
    return coeffs


def _transform(f, d):
    """Reference coefficients read off the transform: all of them, cut
    above degree d (only the parity, at d = n - 1)."""
    from commbound.boolfn import character_sums

    coeffs = character_sums(f) / 2 ** f.n
    coeffs[np.bitwise_count(np.arange(2 ** f.n)) > d] = 0.0
    return coeffs


def _is_table(a, n):
    """a is a read-only float64 array of length 2^n, a spectrum or a point
    table."""
    return (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.shape == (2 ** n,) and not a.flags.writeable)


def test_spectra_are_read_only_coefficient_arrays():
    from commbound.boolfn import iwht, wht

    rng = np.random.default_rng(38)
    fs = list(all_functions(3)) + [
        BoolFunction(5, rng.choice((-1, 1), size=32)) for _ in range(4)]
    branches = Counter()
    for f in fs:
        s = wht(f.table)
        assert _is_table(s, f.n)
        assert s.tobytes() == _transform(f, f.n).tobytes()
        assert np.array_equal(iwht(s), f.table)
        for d in range(f.n):
            approximant = best_approximation(f, d)[1]
            assert _is_table(approximant, f.n)
            assert approximant.tobytes() == _lp_spectrum(f, d).tobytes()
        for eps in (0.0, 0.2, 1.0 / 3.0, 0.6, 0.9):
            r = approx_degree(f, eps)
            if r.d == degree(f):
                branch, want = "transform", _transform(f, r.d)
            elif r.d == f.n - 1:
                branch, want = "parity left out", _transform(f, r.d)
            else:
                branch, want = "lp", _lp_spectrum(f, r.d)
            branches[branch, f.n] += 1
            assert _is_table(r.approximant, f.n), (f.table, eps)
            assert r.approximant.tobytes() == want.tobytes(), (f.table, eps)
    assert len(branches) == 6, branches
    with pytest.raises(ValueError, match="length 2\\^n"):
        iwht(np.zeros(6))


def test_witness_tables_are_read_only_point_arrays():
    # each branch's table byte for byte: the point mass f(0) e_0 at d = 0,
    # the parity at d = n, and otherwise the lifted LP dual at d - 1
    from commbound.approx import _fit

    rng = np.random.default_rng(39)
    fs = list(all_functions(3)) + [
        BoolFunction(5, rng.choice((-1, 1), size=32)) for _ in range(4)]
    branches = Counter()
    cases = [(f, eps) for f in fs
             for eps in (0.0, 0.2, 1.0 / 3.0, 0.6, 0.9, 1.0 - 1e-10)]
    cases.append((builtin_function("AND", 12), 0.0))
    for f, eps in cases:
        w = approx_degree(f, eps).witness
        if w.d == 0:
            branch, want = "point mass", np.zeros(2 ** f.n)
            want[0] = f.table[0]
        elif w.d == f.n:
            branch, want = "parity", _parity_witness(f)
        else:
            branch, want = "lp", _fit(f, w.d - 1)[2]
        branches[branch, f.n] += 1
        assert _is_table(w.v, f.n), (f.table, eps)
        assert w.v.tobytes() == want.tobytes(), (f.table, eps)
    assert len(branches) == 7 and branches["parity", 12] == 1, branches


def _fields(r):
    """Every field of an approx_degree result, arrays as bytes."""
    w = r.witness
    return (r.d, r.max_error, r.lp_status, r.approximant.tobytes(),
            w.v.tobytes(), w.d, w.epsilon, w.correlation, w.l1)


def test_degrees_read_off_the_transform_build_no_types(monkeypatch):
    # f's types are built by the first LP.  No LP runs when both sides are
    # free: the witness at d = 0 or n (the LP at d - 1 otherwise), and the
    # approximant at deg(f) or n - 1 (the LP at d otherwise)
    import commbound.approx

    def no_types(f):
        raise AssertionError("types built")

    fs = list(all_functions(3)) + [builtin_function(name, n) for name, n in
                                   [("PARITY", 6), ("MAJ", 15), ("AND", 12),
                                    ("AND", 16)]]
    seen = Counter()
    for f in fs:
        for eps in SEARCH_EPSILONS:
            want = approx_degree(f, eps)
            with monkeypatch.context() as m:
                m.setattr(commbound.approx, "_types", no_types)
                if not (want.d in (0, f.n)
                        and want.d in (degree(f), f.n - 1)):
                    with pytest.raises(AssertionError, match="types built"):
                        approx_degree(f, eps)
                    seen["lp"] += 1
                    continue
                got = approx_degree(f, eps)
            assert _fields(got) == _fields(want), (f.table, eps)
            seen[want.d == 0, f.n] += 1
    assert seen["lp"] and seen[False, 16] and seen[True, 3], seen
