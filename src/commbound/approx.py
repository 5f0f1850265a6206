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

A symmetric f (its table constant on every Hamming level, as for every
builtin, and detected from the table) takes the same LP on its n+1 levels
(Minsky-Papert symmetrization), over the Chebyshev polynomials T_j(2k/n - 1)
in the level k.  The level dual psi lifts to the point witness
v(x) = psi(|x|) / C(n, |x|), which keeps the l1 mass, the correlation and
the orthogonality to every character of degree <= d, because a character's
average over a level is a polynomial of its degree in k.  The approximant is
p(x) = P(|x|) for the fitted level polynomial P, cut above degree d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import (BoolFunction, FourierSpectrum, RealPointFunction,
                     _fwht_inplace, degree, wht)
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


def _popcounts(n: int) -> np.ndarray:
    """|T| for every mask T = 0..2^n-1 (the Hamming level of every point)."""
    return np.bitwise_count(np.arange(2 ** n))


def _masks_up_to_degree(n: int, d: int) -> np.ndarray:
    """Every T with |T| <= d, in ascending order."""
    return np.flatnonzero(_popcounts(n) <= d)


def _levels(f: BoolFunction) -> np.ndarray | None:
    """f's values on the Hamming levels 0..n when its table is constant on
    every level, else None; None at arity 0 too, where the level grid
    2k/n - 1 is undefined."""
    k = _popcounts(f.n)
    F = np.zeros(f.n + 1)
    F[k] = f.table
    return F if f.n and np.array_equal(F[k], f.table) else None


def _level_basis(n: int, d: int) -> np.ndarray:
    """Chebyshev polynomials T_j(2k/n - 1), j <= min(d, n), on the levels
    k = 0..n, by the three-term recurrence; they span the polynomials of
    degree <= d in k and are bounded by 1 on the levels."""
    t = 2.0 * np.arange(n + 1) / n - 1.0
    T = np.ones((min(d, n) + 1, n + 1))
    T[1:2] = t
    for j in range(2, len(T)):
        T[j] = 2.0 * t * T[j - 1] - T[j - 2]
    return T


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


def _lp(f: BoolFunction, F: np.ndarray | None,
        d: int) -> tuple[float, np.ndarray, np.ndarray]:
    """chebyshev at degree d: on the levels F of a symmetric f, else over the
    characters of degree <= d, an LP past MAX_TABLE_BYTES refused before its
    basis is built.  The raw (error, c, v) stay on the LP's own domain."""
    if F is not None:
        return chebyshev(F, _level_basis(f.n, d))
    masks = _masks_up_to_degree(f.n, d)
    check_tableau(len(masks) + 1, 2 * 2 ** f.n, 1)
    return chebyshev(f.table, _character_matrix(f.n, masks))


def _approximant(f: BoolFunction, F: np.ndarray | None, d: int,
                 c: np.ndarray) -> FourierSpectrum:
    """The spectrum of _lp's approximant: c on the characters of degree <= d,
    or on the levels the transform of P(|x|), P = c @ basis, cut above d."""
    if F is None:
        coeffs = np.zeros(2 ** f.n)
        coeffs[_masks_up_to_degree(f.n, d)] = c
    else:
        k = _popcounts(f.n)
        coeffs = _fwht_inplace((c @ _level_basis(f.n, d))[k]) / 2 ** f.n
        coeffs[k > d] = 0.0
    return FourierSpectrum(n=f.n, coeffs=tuple(coeffs))


def _lift(f: BoolFunction, F: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """The point table of _lp's dual: v itself, or v(x) = psi(|x|)/C(n, |x|)
    for a level dual psi."""
    if F is None:
        return v
    sizes = [math.comb(f.n, k) for k in range(f.n + 1)]
    return (v / sizes)[_popcounts(f.n)]


def _fit(f: BoolFunction, d: int) -> tuple[float, FourierSpectrum, np.ndarray]:
    """Chebyshev LP of degree d, with its approximant and its dual as a
    point table."""
    F = _levels(f)
    err, c, v = _lp(f, F, d)
    return err, _approximant(f, F, d, c), _lift(f, F, v)


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
    F = _levels(f)
    return [_lp(f, F, d)[0] for d in range(top)] + [0.0] * (f.n + 1 - top)


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
    F = _levels(f)
    v = np.zeros(2 ** f.n if F is None else f.n + 1)
    v[0] = f.table[0]
    for d in range(0 if epsilon else max(top - 1, 0), top):
        err, c, dual = _lp(f, F, d)
        if err <= epsilon + _FEAS_TOL:
            return ApproxDegreeResult(
                d=d, approximant=_approximant(f, F, d, c), max_error=err,
                lp_status="optimal",
                witness=_witness(f, d, epsilon, _lift(f, F, v)))
        v = dual
    return ApproxDegreeResult(d=top, approximant=wht(f), max_error=0.0,
                              lp_status="exact",
                              witness=_witness(f, top, epsilon,
                                               _lift(f, F, v)))


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
    # plain sums against every character at once, by the fast transform
    sums = _fwht_inplace(v.copy())
    orth_max = float(np.abs(sums[_popcounts(f.n) < w.d]).max(initial=0.0))
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
