"""Dense simplex: Dantzig pricing, Harris ratio test, rank-1 pivots.

Solves  min c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0,
and returns the row duals y with it: c - A^T y >= 0, y <= 0 on the
inequality rows, and b.y equals the optimum (A and b stack the _ub rows
over the _eq rows).  Problem sizes here are small (a few hundred rows at
most), so a plain dense tableau is adequate and keeps the package
dependency-free.

Rows are normalized to b >= 0.  A _ub row that keeps its sign starts with
its slack basic, every other row on an artificial; both columns are e_i,
so the artificial columns hold the basis inverse throughout.  If the basic
artificials all start at zero (the Chebyshev LP has b_eq = 0, b_ub = 1),
phase 1 is skipped, else it minimizes their sum.  Each artificial still
basic is then driven out on its largest structural entry, unpriced, and
phase 2 minimizes c.x.

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

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexError(CommboundError):
    """Solver failure (iteration cap or internal inconsistency)."""


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    y: np.ndarray | None = None


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

    Raises ResourceLimitError, before building the tableau, when it would
    pass MAX_TABLE_BYTES.
    """
    c = np.asarray(c, dtype=float)
    nvars = c.shape[0]
    n_ub = 0 if A_ub is None else len(A_ub)
    m = n_ub + (0 if A_eq is None else len(A_eq))
    check_tableau(m, nvars, n_ub)

    # columns: structural, one slack per inequality row, one artificial per
    # row, then the rhs; the constraint rows are written in place and every
    # row is normalized to b >= 0
    n_struct = nvars + n_ub
    total = n_struct + m
    tab = np.zeros((m + 1, total + 1))
    if A_ub is not None:
        tab[:n_ub, :nvars] = A_ub
        tab[:n_ub, -1] = b_ub
    if A_eq is not None:
        tab[n_ub:m, :nvars] = A_eq
        tab[n_ub:m, -1] = b_eq
    sign = np.where(tab[:m, -1] < 0, -1.0, 1.0)
    tab[:m, :nvars] *= sign[:, None]
    tab[:m, -1] = b_norm = tab[:m, -1] * sign
    tab[np.arange(n_ub), nvars + np.arange(n_ub)] = sign[:n_ub]
    tab[np.arange(m), n_struct + np.arange(m)] = 1.0
    basis = np.arange(n_struct, total)
    slack = (sign[:n_ub] > 0).nonzero()[0]
    basis[slack] = nvars + slack
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
        tab[:m, -1] = tab[:m, n_struct:total] @ b_norm
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

    def run_phase(cost) -> str:
        """Dantzig/Harris iteration on the objective cost (one entry per
        tableau column, the rhs last); returns the status.

        A run of more than _STALL_ROWS * m degenerate pivots shifts the rhs
        (_shift_rhs), and the true rhs is restored at the shifted optimum.
        """
        tab[-1] = cost - cost[basis] @ tab[:m]
        stall = 0
        shifted = False
        while True:
            enter = int(tab[-1, :n_struct].argmin())
            if tab[-1, enter] >= -FEASIBILITY_TOL:
                if not shifted:
                    return OPTIMAL
                restore_rhs(cost)
                stall, shifted = 0, False
                continue
            leave = _leaving_row(tab[:m, enter], tab[:m, -1], basis)
            if leave < 0:
                return UNBOUNDED
            stall = stall + 1 if tab[leave, -1] <= FEASIBILITY_TOL else 0
            if stall > _STALL_ROWS * m and not shifted:
                _shift_rhs(tab, 100 * FEASIBILITY_TOL, seed=iterations)
                shifted = True
                continue
            step(leave, enter)

    # ---- phase 1: minimize the sum of artificials; when they all start at
    # zero the start is already optimal and the cost row stays zero
    cost = np.zeros(total + 1)
    cost[n_struct:total] = 1.0
    status = run_phase(cost) if b_norm[basis >= n_struct].any() else OPTIMAL
    # the phase-1 objective is -tab[-1,-1] and can never be negative
    if status != OPTIMAL or tab[-1, -1] > 1e-7:
        raise SimplexError("phase-1 simplex ended in an inconsistent state")
    if -tab[-1, -1] > 1e-7:
        return LPResult(INFEASIBLE, None, None, iterations)

    # drive leftover artificials out of the basis on their largest
    # structural entry; an all-zero structural row is redundant, and its
    # artificial stays basic at value zero and never re-enters
    for i in np.flatnonzero(basis >= n_struct):
        j = int(np.argmax(np.abs(tab[i, :n_struct])))
        if abs(tab[i, j]) > FEASIBILITY_TOL:
            _pivot(tab, i, j)
            basis[i] = j

    # ---- phase 2: original objective
    cost = np.zeros(total + 1)
    cost[:nvars] = c
    if run_phase(cost) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, iterations)

    x = np.zeros(total)
    x[basis] = tab[:m, -1]
    objective = float(c @ x[:nvars])
    # an artificial column starts as e_i and has zero phase-2 cost, so its
    # reduced cost is minus the dual of the (sign-normalized) row i
    y = -tab[-1, n_struct:total] * sign
    return LPResult(OPTIMAL, x[:nvars].copy(), objective, iterations, y)
