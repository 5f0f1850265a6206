"""Dense two-phase simplex with Bland's anti-cycling rule.

Solves  min c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0,
and returns the row duals y with it: c - A^T y >= 0, y <= 0 on the
inequality rows, and b.y equals the optimum (A and b stack the _ub rows
over the _eq rows).  Problem sizes here are small (a few thousand
variables/constraints at most), so a plain dense tableau is adequate and
keeps the package dependency-free.
Feasibility tolerance is 1e-9 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommboundError

FEASIBILITY_TOL = 1e-9

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


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             tol: float = FEASIBILITY_TOL, max_iter: int | None = None) -> LPResult:
    """Minimize c.x over x >= 0 with the given inequality/equality rows."""
    c = np.asarray(c, dtype=float)
    nvars = c.shape[0]
    rows = []
    rhs = []
    n_ub = 0
    if A_ub is not None:
        A_ub = np.asarray(A_ub, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float)
        n_ub = A_ub.shape[0]
        rows.append(A_ub)
        rhs.append(b_ub)
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        rows.append(A_eq)
        rhs.append(b_eq)
    if rows:
        A = np.vstack(rows)
        b = np.concatenate(rhs)
    else:
        A = np.zeros((0, nvars))
        b = np.zeros(0)
    m = A.shape[0]

    # slacks for the inequality rows
    slack = np.zeros((m, n_ub))
    for i in range(n_ub):
        slack[i, i] = 1.0
    T = np.hstack([A, slack])

    # normalize to b >= 0
    sign = np.where(b < 0, -1.0, 1.0)
    T *= sign[:, None]
    b = b * sign

    n_struct = T.shape[1]
    # artificial variable per row
    art = np.eye(m)
    tab = np.hstack([T, art, b.reshape(-1, 1)])
    basis = [n_struct + i for i in range(m)]
    total = n_struct + m
    if max_iter is None:
        max_iter = 200 * (m + total + 10)

    iterations = 0

    def pivot(tab, row, col):
        tab[row, :] /= tab[row, col]
        for r in range(tab.shape[0]):
            if r != row and tab[r, col] != 0.0:
                tab[r, :] -= tab[r, col] * tab[row, :]

    def run_phase(tab, cost, allowed):
        """Bland's rule iteration on the current tableau; returns status."""
        nonlocal iterations
        m_rows = tab.shape[0] - 1
        while True:
            if iterations > max_iter:
                raise SimplexError(
                    f"simplex iteration cap {max_iter} exceeded "
                    f"({m_rows} rows, {total} columns)")
            # entering: smallest index with negative reduced cost
            enter = -1
            for j in allowed:
                if tab[-1, j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # leaving: min ratio, ties by smallest basis variable (Bland)
            best_ratio = None
            leave = -1
            for i in range(m_rows):
                a = tab[i, enter]
                if a > tol:
                    ratio = tab[i, -1] / a
                    if (best_ratio is None or ratio < best_ratio - 1e-15
                            or (abs(ratio - best_ratio) <= 1e-15
                                and basis[i] < basis[leave])):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(tab, leave, enter)
            basis[leave] = enter
            iterations += 1

    # ---- phase 1: minimize the sum of artificials
    cost1 = np.zeros(total + 1)
    cost1[n_struct:total] = 1.0
    tab = np.vstack([tab, cost1])
    # reduce cost row against the artificial basis
    for i in range(m):
        tab[-1, :] -= tab[i, :]
    status = run_phase(tab, cost1, range(n_struct))
    # the phase-1 objective is -tab[-1,-1] and can never be negative
    if status != OPTIMAL or tab[-1, -1] > 1e-7:
        raise SimplexError("phase-1 simplex ended in an inconsistent state")
    if -tab[-1, -1] > 1e-7:
        return LPResult(INFEASIBLE, None, None, iterations)

    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n_struct:
            for j in range(n_struct):
                if abs(tab[i, j]) > tol:
                    pivot(tab, i, j)
                    basis[i] = j
                    break
            # an all-zero structural row is redundant; its artificial stays
            # basic at value zero and never re-enters

    # ---- phase 2: original objective
    cost2 = np.zeros(total + 1)
    cost2[:nvars] = c
    tab[-1, :] = cost2
    for i in range(m):
        if basis[i] < n_struct and cost2[basis[i]] != 0.0:
            tab[-1, :] -= cost2[basis[i]] * tab[i, :]
    status = run_phase(tab, cost2, range(n_struct))
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, iterations)

    x = np.zeros(total)
    for i in range(m):
        x[basis[i]] = tab[i, -1]
    objective = float(c @ x[:nvars])
    # an artificial column starts as e_i and has zero phase-2 cost, so its
    # reduced cost is minus the dual of the (sign-normalized) row i
    y = -tab[-1, n_struct:total] * sign
    return LPResult(OPTIMAL, x[:nvars].copy(), objective, iterations, y)
