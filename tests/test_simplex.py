"""The in-package simplex against scipy's LP solver as an oracle."""

import numpy as np
import pytest
from scipy.optimize import linprog

from commbound.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def test_simple_bounded():
    # min -x - y  s.t. x + y <= 1
    res = solve_lp([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0)


def test_equality_only():
    res = solve_lp([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0])
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([3.0, 0.0])


def test_infeasible():
    res = solve_lp([1.0], A_eq=[[1.0]], b_eq=[-2.0])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp([-1.0])
    assert res.status == UNBOUNDED


def test_redundant_equality_rows():
    # a dependent equality leaves an artificial stuck in the basis at zero;
    # phase 2 must still solve correctly
    res = solve_lp([1.0, 1.0], A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)
    res = solve_lp([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[2.0],
                   A_eq=[[1.0, 1.0], [3.0, 3.0]], b_eq=[2.0, 6.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-4.0)


def test_degenerate_cycling_guard():
    # Beale's example, on which Dantzig's rule with a plain min-ratio test
    # cycles; the Harris ratio test must leave the degenerate vertex
    c = [-0.75, 150.0, -0.02, 6.0]
    A_ub = [[0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0]]
    b_ub = [0.0, 0.0, 1.0]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-0.05)


def test_against_scipy_corpus():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m_ub = int(rng.integers(0, 6))
        m_eq = int(rng.integers(0, 4))
        c = rng.normal(size=n).round(3)
        A_ub = rng.normal(size=(m_ub, n)).round(3) if m_ub else None
        b_ub = rng.normal(size=m_ub).round(3) if m_ub else None
        A_eq = rng.normal(size=(m_eq, n)).round(3) if m_eq else None
        b_eq = rng.normal(size=m_eq).round(3) if m_eq else None
        res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=[(0, None)] * n, method="highs")
        assert res.status == _STATUS.get(ref.status), (res.status, ref.status)
        if res.status == OPTIMAL:
            assert res.objective == pytest.approx(ref.fun, abs=1e-6)
            if A_ub is not None:
                assert (A_ub @ res.x <= b_ub + 1e-7).all()
            if A_eq is not None:
                assert np.allclose(A_eq @ res.x, b_eq, atol=1e-7)
            assert (res.x >= -1e-9).all()


def test_row_duals_certify_the_optimum():
    # y is dual feasible (c - A^T y >= 0, y <= 0 on the <= rows) and b.y
    # equals the optimum, which HiGHS computes independently
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m_ub = int(rng.integers(1, 6))
        m_eq = int(rng.integers(0, 4))
        c = rng.normal(size=n).round(3)
        A_ub = rng.normal(size=(m_ub, n)).round(3)
        b_ub = rng.normal(size=m_ub).round(3)
        A_eq = rng.normal(size=(m_eq, n)).round(3) if m_eq else None
        b_eq = rng.normal(size=m_eq).round(3) if m_eq else None
        res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
        if res.status != OPTIMAL:
            assert res.y is None
            continue
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=[(0, None)] * n, method="highs")
        A = A_ub if A_eq is None else np.vstack([A_ub, A_eq])
        b = b_ub if b_eq is None else np.concatenate([b_ub, b_eq])
        assert res.y.shape == (m_ub + m_eq,)
        assert (c - A.T @ res.y >= -1e-9).all()
        assert (res.y[:m_ub] <= 1e-9).all()
        assert b @ res.y == pytest.approx(ref.fun, abs=1e-9)
        checked += 1
    assert checked >= 50


def _degenerate_l1_lps(rng, count):
    """The shape of the Chebyshev dual: equality rows with zero right-hand
    side, one l1 row, small-integer data.  Every vertex but the optimum is
    highly degenerate, which is where smallest-index rules cycle in floating
    point."""
    for _ in range(count):
        N = int(rng.integers(2, 17))
        k = int(rng.integers(1, min(N, 8) + 1))
        E = rng.integers(-2, 3, size=(k, N)).astype(float)
        f = rng.integers(-2, 3, size=N).astype(float)
        yield (np.concatenate([-f, f]), np.ones((1, 2 * N)), np.ones(1),
               np.hstack([E, -E]), np.zeros(k))


def _check_against_highs(c, A_ub, b_ub, A_eq, b_eq):
    """Solve, then check status, objective, feasibility and the row-dual
    certificate against HiGHS."""
    res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(c), method="highs")
    assert res.status == _STATUS.get(ref.status), (res.status, ref.status)
    if res.status != OPTIMAL:
        return
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert (res.x >= -1e-9).all()
    assert (A_ub @ res.x <= b_ub + 1e-9).all()
    assert np.abs(A_eq @ res.x - b_eq).max() <= 1e-9
    A = np.vstack([A_ub, A_eq])
    assert (c - A.T @ res.y >= -1e-9).all()
    assert (res.y[:len(b_ub)] <= 1e-9).all()
    assert np.concatenate([b_ub, b_eq]) @ res.y == pytest.approx(ref.fun,
                                                                 abs=1e-9)


def test_degenerate_l1_corpus():
    for lp in _degenerate_l1_lps(np.random.default_rng(11), 150):
        _check_against_highs(*lp)


def test_stall_shift_engages(monkeypatch):
    # with no degenerate pivot allowed, every degenerate step shifts the rhs;
    # a shift 10^5 times the usual size leaves the shifted optimum infeasible
    # for the true rhs, so the dual-simplex restore runs as well
    import commbound.simplex as sx

    shifts = []
    shift = sx._shift_rhs

    def big_shift(tab, size, seed):
        shifts.append(seed)
        shift(tab, 1e5 * size, seed)

    monkeypatch.setattr(sx, "_STALL_ROWS", 0)
    monkeypatch.setattr(sx, "_shift_rhs", big_shift)
    for lp in _degenerate_l1_lps(np.random.default_rng(12), 60):
        _check_against_highs(*lp)
    assert len(shifts) >= 30
    test_degenerate_cycling_guard()


def test_artificials_left_basic_after_phase_one_are_driven_out(monkeypatch):
    # phase 1 ends with two artificials basic at zero on rows that still
    # have structural entries; each is pivoted out before phase 2, and those
    # two pivots are not counted as iterations
    import commbound.simplex as sx

    pivots = []
    pivot = sx._pivot

    def counted(tab, row, col):
        pivots.append((row, col))
        pivot(tab, row, col)

    monkeypatch.setattr(sx, "_pivot", counted)
    lp = (np.array([-3.0, -3.0, -1.0, 1.0]),
          np.array([[1.0, -1.0, 1.0, 0.0], [0.0, 0.0, -2.0, -1.0]]),
          np.array([1.0, 1.0]),
          np.array([[1.0, 2.0, -1.0, 2.0], [1.0, 0.0, -1.0, 1.0]]),
          np.array([-1.0, -1.0]))
    res = solve_lp(*lp)
    assert res.status == OPTIMAL and res.objective == pytest.approx(-1.0)
    assert len(pivots) - res.iterations == 2
    _check_against_highs(*lp)


def test_chebyshev_shape_starts_at_the_phase_one_optimum(monkeypatch):
    # with b_eq = 0 and b_ub >= 0 every row starts on its slack or on an
    # artificial at zero, so no priced phase-1 step runs: the artificials of
    # the rank(E) independent equality rows are driven out first, unpriced
    # and uncounted, and every later pivot is a counted phase-2 step
    import commbound.simplex as sx

    events = []
    pivot, leaving_row = sx._pivot, sx._leaving_row

    def counted_pivot(tab, row, col):
        events.append("pivot")
        pivot(tab, row, col)

    def counted_leaving_row(a, rhs, basis):
        events.append("ratio test")
        return leaving_row(a, rhs, basis)

    monkeypatch.setattr(sx, "_pivot", counted_pivot)
    monkeypatch.setattr(sx, "_leaving_row", counted_leaving_row)
    for lp in _degenerate_l1_lps(np.random.default_rng(13), 100):
        events.clear()
        res = solve_lp(*lp)
        assert res.status == OPTIMAL
        rank = np.linalg.matrix_rank(lp[3])
        assert events[:rank] == ["pivot"] * rank
        assert events.count("pivot") - res.iterations == rank


def test_mixed_sign_inequality_rows_against_highs():
    # rows with b_ub >= 0 start on their slacks, the rest on artificials
    # that phase 1 drives to zero; status, optimum, x and the row duals
    # match HiGHS
    rng = np.random.default_rng(14)
    optimal = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m_ub = int(rng.integers(2, 6))
        m_eq = int(rng.integers(1, 4))
        signs = rng.permutation(np.resize([1.0, -1.0], m_ub))
        b_ub = signs * np.abs(rng.normal(size=m_ub)).round(3)
        lp = (rng.normal(size=n).round(3), rng.normal(size=(m_ub, n)).round(3),
              b_ub, rng.normal(size=(m_eq, n)).round(3),
              rng.normal(size=m_eq).round(3))
        _check_against_highs(*lp)
        optimal += solve_lp(*lp).status == OPTIMAL
    assert optimal >= 30
