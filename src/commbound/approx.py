"""Approximate polynomial degree via LP, and the dual witness that certifies it.

One LP does both sides.  For each candidate degree d below deg(f),
`chebyshev` solves the dual form of the best sup-norm approximation of f by
polynomials of degree at most d: its solution is a point function v with
unit l1 mass, zero correlation with every character of degree at most d,
and correlation with f equal to that best error, and its row duals are the
approximant.  The v at the last degree whose error exceeds epsilon is the
witness that deg_epsilon(f) is larger.  From deg(f) up no LP is needed: the
transform approximates f without error.  Inner products are plain sums over
the 2^n points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import (BoolFunction, FourierSpectrum, RealPointFunction, degree,
                     wht)
from .simplex import OPTIMAL, SimplexError, check_tableau, solve_lp

ORTHOGONALITY_SLACK = 1e-8
L1_SLACK = 1e-9
CORRELATION_SLACK = 1e-8
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class DualWitness:
    """Certificate that deg_epsilon(f) >= d (see verify_dual for the checks)."""

    v: RealPointFunction
    d: int
    epsilon: float
    correlation: float
    l1: float


@dataclass(frozen=True)
class ApproxDegreeResult:
    d: int
    approximant: FourierSpectrum
    max_error: float
    lp_status: str
    witness: DualWitness


@dataclass(frozen=True)
class DualCheck:
    orthogonality_max: float
    orthogonality_ok: bool
    l1: float
    l1_ok: bool
    correlation: float
    correlation_margin: float
    correlation_ok: bool

    @property
    def ok(self) -> bool:
        return self.orthogonality_ok and self.l1_ok and self.correlation_ok


def _character_matrix(n: int, masks) -> np.ndarray:
    """Rows chi_T(x) = (-1)^popcount(T & x) over all 2^n points, T in masks."""
    v = np.bitwise_and.outer(np.asarray(masks, dtype=np.int64),
                             np.arange(2 ** n))
    return 1.0 - 2.0 * (np.bitwise_count(v) & 1)


def _masks_up_to_degree(n: int, d: int) -> np.ndarray:
    """Every T with |T| <= d, in ascending order."""
    T = np.arange(2 ** n)
    return T[np.bitwise_count(T) <= d]


def chebyshev(fvals, basis) -> tuple[float, np.ndarray, np.ndarray]:
    """Best sup-norm approximation of f by the real span of the basis rows.

    Solves the LP dual of min_c max_x |f(x) - sum_k c_k basis_k(x)|, which
    has one row per basis function plus one:  maximize <f, v> over
    v = p - q with p, q >= 0, basis @ v = 0 and sum (p + q) <= 1.  Returns
    (error, c, v): the error is the optimum (+0.0 when it is zero), c is
    minus the row duals of the equality rows (the LP's dual feasibility is
    |f - c @ basis| <= error at every point), and v certifies the error:
    basis @ v = 0, v @ f = error and sum_x |v(x)| <= 1.  A tableau past
    MAX_TABLE_BYTES raises ResourceLimitError from solve_lp.
    """
    f = np.asarray(fvals, dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("values to approximate must be finite")
    B = np.asarray(basis, dtype=float).reshape(-1, f.size)
    k, N = B.shape
    res = solve_lp(np.concatenate([-f, f]),
                   A_ub=np.ones((1, 2 * N)), b_ub=[1.0],
                   A_eq=np.hstack([B, -B]), b_eq=np.zeros(k))
    if res.status != OPTIMAL:
        raise SimplexError(f"Chebyshev LP over {k} basis functions "
                           f"returned {res.status}")
    return -res.objective + 0.0, -res.y[1:], res.x[:N] - res.x[N:]


def _fit(f: BoolFunction, d: int) -> tuple[float, FourierSpectrum, np.ndarray]:
    """Chebyshev LP over the characters of degree <= d, with its dual.

    An LP past MAX_TABLE_BYTES is refused before its basis is built."""
    masks = _masks_up_to_degree(f.n, d)
    check_tableau(len(masks) + 1, 2 * 2 ** f.n, 1)
    err, raw, v = chebyshev(f.table, _character_matrix(f.n, masks))
    coeffs = np.zeros(2 ** f.n)
    coeffs[masks] = raw
    return err, FourierSpectrum(n=f.n, coeffs=tuple(coeffs)), v


def _witness(f: BoolFunction, d: int, epsilon: float,
             v: np.ndarray) -> DualWitness:
    return DualWitness(v=RealPointFunction(f.n, v), d=d, epsilon=epsilon,
                       correlation=float(v @ f.table.astype(float)),
                       l1=float(np.abs(v).sum()))


def best_approximation(f: BoolFunction, d: int) -> tuple[float, FourierSpectrum]:
    """Minimal sup-norm error over real polynomials of degree <= d."""
    err, approximant, _ = _fit(f, d)
    return err, approximant


def error_profile(f: BoolFunction) -> list[float]:
    """Best achievable sup-norm error at every degree 0..n: an LP below
    deg(f), and from there 0.0, which the transform attains."""
    top = degree(f)
    return [best_approximation(f, d)[0] for d in range(top)] + \
        [0.0] * (f.n + 1 - top)


def approx_degree(f: BoolFunction, epsilon: float) -> ApproxDegreeResult:
    """Smallest d whose degree-<=d Chebyshev LP is feasible at error epsilon.

    Only degrees below deg(f) take an LP: at deg(f) the transform itself is
    an errorless approximant, returned with lp_status "exact".  Below
    deg(f) the best error is at least 2^(1-n), so epsilon = 0 solves only
    the degree deg(f)-1 LP.  The witness is the LP dual at degree d-1,
    whose error exceeds epsilon; for d = 0 it is the point mass f(0) e_0,
    which no character below degree 0 constrains.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    top = degree(f)
    v = np.zeros(2 ** f.n)
    v[0] = f.table[0]
    for d in range(0 if epsilon else max(top - 1, 0), top):
        err, approximant, dual = _fit(f, d)
        if err <= epsilon + _FEAS_TOL:
            return ApproxDegreeResult(d=d, approximant=approximant,
                                      max_error=err, lp_status="optimal",
                                      witness=_witness(f, d, epsilon, v))
        v = dual
    return ApproxDegreeResult(d=top, approximant=wht(f), max_error=0.0,
                              lp_status="exact",
                              witness=_witness(f, top, epsilon, v))


def dual_polynomial(f: BoolFunction, epsilon: float) -> DualWitness:
    """The dual witness that deg_epsilon(f) >= d, from the approx_degree sweep.

    v has unit l1 mass, plain-sum orthogonality to every character below the
    certified degree d, and correlation with f equal to the best error at
    degree d-1, which exceeds epsilon.
    """
    return approx_degree(f, epsilon).witness


def verify_dual(w: DualWitness, f: BoolFunction) -> DualCheck:
    """Re-check the three witness properties independently of the LP."""
    if w.v.n != f.n:
        raise ValueError(f"arity mismatch: witness {w.v.n}, function {f.n}")
    v = w.v.table
    chi = _character_matrix(f.n, _masks_up_to_degree(f.n, w.d - 1))
    orth_max = float(np.abs(chi @ v).max(initial=0.0))
    l1 = float(np.abs(v).sum())
    corr = float(v @ f.table.astype(float))
    return DualCheck(
        orthogonality_max=orth_max,
        orthogonality_ok=orth_max <= ORTHOGONALITY_SLACK,
        l1=l1,
        l1_ok=l1 <= 1.0 + L1_SLACK,
        correlation=corr,
        correlation_margin=corr - w.epsilon,
        correlation_ok=corr >= w.epsilon - CORRELATION_SLACK,
    )
