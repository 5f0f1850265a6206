"""Dense simplex: Dantzig pricing, Harris ratio test, rank-1 pivots.

Solves  min c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0,
with b_ub >= 0 and b_eq = 0, so that the origin is feasible (every LP in
the package is a Chebyshev LP of this shape: b_ub = 1, b_eq = 0), and
returns the row duals y with it: c - A^T y >= 0, y <= 0 on the inequality
rows, and b.y equals the optimum (A and b stack the _ub rows over the _eq
rows).  Problem sizes here are small (a few hundred rows at most), so a
plain dense tableau is adequate and keeps the package dependency-free.

Each _ub row starts with its slack basic, each _eq row on an artificial at
zero; both columns are e_i, and every row has an artificial column, so
those columns hold the basis inverse throughout.  Each artificial is
driven out on its largest structural entry, unpriced, before the first
priced step; on a redundant row, with no structural entry left, it stays
basic at zero.  An entering column that no row bounds makes the LP
unbounded, which raises SimplexError, as the iteration cap does.

Every step is a whole-array operation.  The entering column is the most
negative reduced cost (Dantzig).  The leaving row comes from Harris's
two-pass ratio test: pass one bounds the step by min (rhs+ + tol) / a, pass
two takes the largest pivot a among the rows within that bound, ties to the
smallest basic index.  Preferring large pivots keeps rounding noise in
degenerate rows (rhs near 0) from steering the choice, which is what makes
smallest-index rules cycle in floating point.  A pivot is one in-place
rank-1 update of the tableau.

Harris carries no anti-cycling proof, so a long run of degenerate pivots
shifts every basic value up by a small random amount, which separates the
tied ratios; at the shifted optimum the true rhs is restored from the basis
inverse and any negative basic value is pivoted out by dual simplex steps.
The shift is the backstop for the Chebyshev LPs on many types, those of
functions with few swap symmetries (see approx), and the iteration cap
stays behind it.
Feasibility tolerance is 1e-9 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommboundError, check_bytes

FEASIBILITY_TOL = 1e-9
# a run of degenerate pivots longer than _STALL_ROWS times the row count
# shifts the rhs by 100 to 200 times the tolerance, so that the ratio test
# sees distinct ratios; the longest run measured in a solve that converges
# is about 1.6 times the row count, on Chebyshev LPs over all 2^n types of
# tables of up to 9 bits with no swap symmetry
_STALL_ROWS = 3


class SimplexError(CommboundError):
    """Solver failure (iteration cap, unbounded LP, failed rhs restore)."""


@dataclass
class LPResult:
    x: np.ndarray
    objective: float
    iterations: int
    y: np.ndarray


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Make column col the unit vector e_row by one rank-1 update."""
    pivot_row = tab[row] / tab[row, col]
    column = tab[:, col].copy()
    column[row] = 0.0
    tab -= column[:, None] * pivot_row
    tab[row] = pivot_row


def _shift_rhs(tab: np.ndarray, size: float, seed: int) -> None:
    """Raise every basic value by a random amount in [size, 2 size)."""
    rng = np.random.default_rng(seed)
    tab[:-1, -1] += size * (1.0 + rng.random(tab.shape[0] - 1))


def _leaving_row(a: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    """Harris two-pass ratio test on column a; -1 if no row bounds the step."""
    rows = (a > FEASIBILITY_TOL).nonzero()[0]
    if rows.size == 0:
        return -1
    a = a[rows]
    r = rhs[rows].clip(0.0)
    theta = ((r + FEASIBILITY_TOL) / a).min()
    within = r <= theta * a
    rows, a = rows[within], a[within]
    rows = rows[a == a.max()]
    return int(rows[basis[rows].argmin()])


def check_tableau(m: int, nvars: int, n_ub: int) -> None:
    """ResourceLimitError when the tableau of m rows over nvars variables,
    n_ub of the rows inequalities, would pass MAX_TABLE_BYTES."""
    total = nvars + n_ub + m
    check_bytes((m + 1) * (total + 1) * 8,
                f"simplex tableau of {m} rows and {total} columns needs")


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    """Minimize c.x over x >= 0 with the given inequality/equality rows.

    Raises ValueError unless b_ub >= 0 and b_eq = 0, SimplexError on an
    unbounded LP, and ResourceLimitError, before building the tableau, when
    it would pass MAX_TABLE_BYTES.
    """
    if (b_ub is not None and not (np.asarray(b_ub) >= 0).all()) or \
            (b_eq is not None and np.any(b_eq)):
        raise ValueError("solve_lp needs a feasible origin: b_ub >= 0 and "
                         "b_eq = 0")
    c = np.asarray(c, dtype=float)
    nvars = c.shape[0]
    n_ub = 0 if A_ub is None else len(A_ub)
    m = n_ub + (0 if A_eq is None else len(A_eq))
    check_tableau(m, nvars, n_ub)

    # columns: structural, one slack per inequality row, one artificial per
    # row, then the rhs; the constraint rows are written in place
    n_struct = nvars + n_ub
    total = n_struct + m
    tab = np.zeros((m + 1, total + 1))
    if A_ub is not None:
        tab[:n_ub, :nvars] = A_ub
        tab[:n_ub, -1] = b_ub
    if A_eq is not None:
        tab[n_ub:m, :nvars] = A_eq
    b = tab[:m, -1].copy()
    tab[np.arange(n_ub), nvars + np.arange(n_ub)] = 1.0
    tab[np.arange(m), n_struct + np.arange(m)] = 1.0
    basis = np.r_[nvars:n_struct, n_struct + n_ub:total]
    max_iter = 200 * (m + total + 10)

    iterations = 0

    def step(row: int, col: int) -> None:
        nonlocal iterations
        if iterations >= max_iter:
            raise SimplexError(
                f"simplex iteration cap {max_iter} exceeded "
                f"({m} rows, {total} columns)")
        _pivot(tab, row, col)
        basis[row] = col
        iterations += 1

    def restore_rhs(cost) -> None:
        """Put back the true rhs after a shift, x_B = B^-1 b with B^-1 in
        the artificial columns, then pivot out negative basic values by
        dual simplex steps, which keep every reduced cost nonnegative."""
        tab[:m, -1] = tab[:m, n_struct:total] @ b
        while True:
            r = int(np.argmin(tab[:m, -1]))
            if tab[r, -1] >= -FEASIBILITY_TOL:
                break
            row = tab[r, :n_struct]
            cols = np.flatnonzero(row < -FEASIBILITY_TOL)
            if cols.size == 0:
                raise SimplexError("no pivot restores feasibility after an "
                                   "rhs shift")
            step(r, int(cols[np.argmin(tab[-1, cols] / -row[cols])]))
        tab[-1, -1] = -cost[basis] @ tab[:m, -1]

    # drive the artificials out of the basis on their largest structural
    # entry; an all-zero structural row is redundant, and its artificial
    # stays basic at value zero and never re-enters
    for i in range(n_ub, m):
        j = int(np.argmax(np.abs(tab[i, :n_struct])))
        if abs(tab[i, j]) > FEASIBILITY_TOL:
            _pivot(tab, i, j)
            basis[i] = j

    # Dantzig/Harris iteration on c; a run of more than _STALL_ROWS * m
    # degenerate pivots shifts the rhs (_shift_rhs), and the true rhs is
    # restored at the shifted optimum
    cost = np.zeros(total + 1)
    cost[:nvars] = c
    tab[-1] = cost - cost[basis] @ tab[:m]
    stall = 0
    shifted = False
    while True:
        enter = int(tab[-1, :n_struct].argmin())
        if tab[-1, enter] >= -FEASIBILITY_TOL:
            if not shifted:
                break
            restore_rhs(cost)
            stall, shifted = 0, False
            continue
        leave = _leaving_row(tab[:m, enter], tab[:m, -1], basis)
        if leave < 0:
            raise SimplexError(f"LP unbounded: no row bounds column {enter}")
        stall = stall + 1 if tab[leave, -1] <= FEASIBILITY_TOL else 0
        if stall > _STALL_ROWS * m and not shifted:
            _shift_rhs(tab, 100 * FEASIBILITY_TOL, seed=iterations)
            shifted = True
            continue
        step(leave, enter)

    x = np.zeros(total)
    x[basis] = tab[:m, -1]
    # an artificial column starts as e_i and has zero cost, so its reduced
    # cost is minus the dual of row i
    return LPResult(x[:nvars].copy(), float(c @ x[:nvars]), iterations,
                    -tab[-1, n_struct:total])
