"""Approximate polynomial degree via LP, and the dual witness that certifies it.

One LP does both sides.  At a degree d below deg(f), `chebyshev` solves the
dual form of the best sup-norm approximation of f by polynomials of degree
at most d: its solution is a point function v with unit l1 mass, zero
correlation with every character of degree at most d, and correlation with
f equal to that best error, and its row duals are the approximant.  The v
at the last degree whose error exceeds epsilon is the witness that
deg_epsilon(f) is larger.  The errors are nonincreasing in d, so
approx_degree searches for that degree and solves the LP only at the
degrees it probes; three degrees are read off the transform instead: 0,
where a non-constant f has error 1; n-1 of a full-degree f, where only the
parity is left out; and deg(f) and up, where the transform approximates f
without error.  Inner products are plain sums over the 2^n points.

The LP runs on f's types (Minsky-Papert symmetrization by f's own
symmetries; see _types): it keeps the optimum, since averaging over the
permutations within f's swap classes keeps an approximant's error and
degree.  Its basis is the products of Chebyshev polynomials in the class
counts of total degree <= d, which span the class averages of the
characters of degree <= d, so the type dual psi lifts to the point witness
v(x) = psi(t(x)) / |orbit of t(x)| with the same l1 mass, correlation and
orthogonality.  The approximant is p(x) = P(t(x)) for the fitted type
polynomial P, cut above degree d.  One class of all n inputs (a symmetric
f, every builtin) gives the n+1 Hamming levels; n singletons give the 2^n
points and the characters, each of odd degree negated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boolfn import (BoolFunction, _arity, _fwht_inplace, _sums_degree,
                     character_sums, degree)
from .errors import ResourceLimitError
from .simplex import check_tableau, solve_lp

ORTHOGONALITY_SLACK = 1e-8
L1_SLACK = 1e-9
CORRELATION_SLACK = 1e-8
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class DualWitness:
    """Certificate that deg_epsilon(f) >= d (see verify_dual for the checks)."""

    v: np.ndarray       # the dual's read-only point table
    d: int
    epsilon: float
    correlation: float
    l1: float


@dataclass(frozen=True)
class ApproxDegreeResult:
    """approximant is the spectrum of the degree-d polynomial, a read-only
    array indexed by subset mask as wht returns it."""

    d: int
    approximant: np.ndarray
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


def _popcounts(n: int) -> np.ndarray:
    """|T| for every mask T = 0..2^n-1 (the Hamming level of every point)."""
    return np.bitwise_count(np.arange(2 ** n))


def _types(f: BoolFunction) -> tuple:
    """f's swap classes and its types, (F, t, k, tables).

    Inputs i and j share a class when swapping x_i and x_j leaves f's table
    unchanged, an equivalence ((i k) = (i j)(j k)(i j)), so each input is
    tested against one member of every class before it.  A type counts the
    -1 inputs k_b in each class B_b; types and basis multi-indices s share
    one mixed radix, class 0 least significant.  F is f on the types, t the
    type of every point, k[b] the k_b of every type, and tables[b][s] is
    T_s(2 k_b / |B_b| - 1) at every type.
    """
    table = f.table.reshape((2,) * f.n)     # input i on axis -1 - i
    classes: list[list[int]] = []
    for i in range(f.n):
        for c in classes:
            if (table == table.swapaxes(-1 - i, -1 - c[0])).all():
                c.append(i)
                break
        else:
            classes.append([i])
    base = [len(c) + 1 for c in classes]
    radix = np.array([math.prod(base[:b]) for b in range(len(base) + 1)])
    k = np.arange(radix[-1]) // radix[:-1, None] % np.array(base)[:, None]
    masks = np.array([sum(1 << i for i in c) for c in classes], np.int64)
    t = radix[:-1] @ np.bitwise_count(masks[:, None] & np.arange(2 ** f.n))
    F = np.zeros(radix[-1])
    F[t] = f.table
    return F, t, k, [_chebyshev_table(len(c))[:, kb]
                     for c, kb in zip(classes, k)]


@functools.cache
def _chebyshev_table(m: int) -> np.ndarray:
    """T_s(2k/m - 1) by s and k = 0..m, read-only: the Chebyshev
    polynomials on the counts of a class of m inputs."""
    # imported here, so that only the LP pays numpy.polynomial's import
    from numpy.polynomial.chebyshev import chebvander

    table = chebvander(2 * np.arange(m + 1) / m - 1, m).T
    table.setflags(write=False)
    return table


def chebyshev(fvals, basis) -> tuple[float, np.ndarray, np.ndarray]:
    """Best sup-norm approximation of f by the real span of the basis rows.

    Solves the LP dual of min_c max_x |f(x) - sum_k c_k basis_k(x)|, which
    has one row per basis function plus one:  maximize <f, v> over
    v = p - q with p, q >= 0, basis @ v = 0 and sum (p + q) <= 1, from the
    feasible origin v = 0; the l1 row keeps it bounded.  Returns (error, c,
    v): the error is the optimum (+0.0 when it is zero), c is minus the row
    duals of the equality rows (the LP's dual feasibility is
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
    return -res.objective + 0.0, -res.y[1:], res.x[:N] - res.x[N:]


def _lp(types: tuple, d: int) -> tuple[float, np.ndarray, np.ndarray]:
    """chebyshev at degree d on the types, over the products
    prod_b T_{s_b}(2 k_b / |B_b| - 1) with sum_b s_b <= d, an LP past
    MAX_TABLE_BYTES refused before its basis is built.  Returns the error,
    the approximant P and the dual psi, both on the types."""
    F, _, k, tables = types
    rows = (k.sum(0) <= d).nonzero()[0]
    check_tableau(len(rows) + 1, 2 * len(F), 1)
    B = np.ones((len(rows), len(F)))
    for table, kb in zip(tables, k):
        B *= table[kb[rows]]
    err, c, psi = chebyshev(F, B)
    return err, c @ B, psi


def _approximant(coeffs: np.ndarray, d: int) -> np.ndarray:
    """A spectrum cut above degree d, where only rounding noise or the
    parity is left, and made read-only."""
    coeffs[np.bitwise_count(np.arange(coeffs.size)) > d] = 0.0
    coeffs.setflags(write=False)
    return coeffs


def _lift(t: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The point table v(x) = psi(t(x)) / |orbit of t(x)| of a type dual,
    the orbit of a type being its points."""
    return (psi / np.bincount(t, minlength=len(psi)))[t]


def _fit(f: BoolFunction, d: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Chebyshev LP of degree d, with the spectrum of its approximant
    p(x) = P(t(x)) and its dual as a point table."""
    types = _types(f)
    err, P, psi = _lp(types, d)
    t = types[1]
    return err, _approximant(_fwht_inplace(P[t]) / t.size, d), _lift(t, psi)


def best_approximation(f: BoolFunction, d: int) -> tuple[float, np.ndarray]:
    """Minimal sup-norm error over real polynomials of degree <= d, and the
    spectrum of a polynomial that attains it."""
    err, approximant, _ = _fit(f, d)
    return err, approximant


def error_profile(f: BoolFunction) -> list[float]:
    """Best achievable sup-norm error at every degree 0..n: an LP below
    deg(f), and from there 0.0, which the transform attains."""
    top = degree(f)
    types = _types(f)
    return [_lp(types, d)[0] for d in range(top)] + [0.0] * (f.n + 1 - top)


def _first_fit(lo: int, hi: int, fits) -> int:
    """Smallest d in (lo, hi] with fits(d), for a fits that is monotone in
    d, false at lo and true at hi (neither is asked): steps of 1, 2, 4, ...
    from the last miss until one fits, then bisection of the gap left.

    A degree whose LP the byte budget refuses (ResourceLimitError) counts
    as a fit, since every degree above it is refused too.  So the search
    ends below the first refused degree, or on it, and then raises its
    refusal: it refuses exactly where a sweep from lo + 1 up would have.
    """
    refused = {}

    def probe(d: int) -> bool:
        try:
            return fits(d)
        except ResourceLimitError as err:
            refused[d] = err
            return True

    step = 1
    while lo + step < hi and not probe(lo + step):
        lo += step
        step *= 2
    hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    if hi in refused:
        raise refused[hi]
    return hi


def approx_degree(f: BoolFunction, epsilon: float) -> ApproxDegreeResult:
    """Smallest d whose best degree-<=d error is at most epsilon.

    The errors are nonincreasing in d, since the spans are nested, and
    three of them need no LP.  At deg(f) the transform itself is an
    errorless approximant, returned with lp_status "exact".  At degree 0
    the span is the constants, so a non-constant f has error 1.  At degree
    n-1 of a full-degree f only the parity chi_[n] is left out: with s the
    integer sum of f chi_[n], the error is |s|/2^n, the approximant is
    f - s/2^n chi_[n], and the unique optimal dual is sign(s) chi_[n]/2^n.
    Below deg(f) the best error is at least 2^(1-n), so an epsilon below
    that (epsilon = 0) takes d = deg(f) at once.  The degrees in between
    are searched (_first_fit), one Chebyshev LP per degree probed.  The
    witness is the dual at degree d-1, whose error exceeds epsilon: the
    parity at n-1, the point mass f(0) e_0 for d = 0 (no character below
    degree 0 constrains it), and otherwise the LP's, which the search has
    solved unless d-1 is 0 or nothing was searched.  An LP past the byte
    budget raises ResourceLimitError only where a sweep from degree 0 up
    would have solved it: below d, at d-1 for the witness or at d for the
    approximant.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    n = f.n
    sums = character_sums(f)
    top = _sums_degree(sums)
    s = int(sums[-1])
    parity_err = abs(s) / 2 ** n        # the error at n-1 when top = n
    # built by the first LP, if any runs
    types = functools.cache(functools.partial(_types, f))
    tol = epsilon + _FEAS_TOL
    lp = functools.cache(lambda d: _lp(types(), d))
    if top == 0 or tol < 2.0 ** (1 - n) or parity_err > tol:
        d = top
    elif tol >= 1.0:
        d = 0
    else:
        d = _first_fit(0, n - 1 if s else top, lambda d: lp(d)[0] <= tol)
    if d == 0:
        v = np.zeros(2 ** n)
        v[0] = f.table[0]
    elif d == n:
        v = math.copysign(2.0 ** -n, s) * (-1.0) ** (_popcounts(n) & 1)
    else:
        v = _lift(types()[1], lp(d - 1)[2])
    v.setflags(write=False)
    if d == top:
        err, coeffs = 0.0, sums / 2 ** n    # the transform, wht(f.table)
    elif d == n - 1:
        err, coeffs = parity_err, sums / 2 ** n     # its parity cut below
    else:
        err, P, _ = lp(d)
        coeffs = _fwht_inplace(P[types()[1]]) / 2 ** n
    return ApproxDegreeResult(
        d=d, approximant=_approximant(coeffs, d), max_error=err,
        lp_status="exact" if d == top else "optimal",
        witness=DualWitness(v=v, d=d, epsilon=epsilon,
                            correlation=float(v @ f.table.astype(float)),
                            l1=float(np.abs(v).sum())))


def dual_polynomial(f: BoolFunction, epsilon: float) -> DualWitness:
    """The dual witness that deg_epsilon(f) >= d, from approx_degree.

    v has unit l1 mass, plain-sum orthogonality to every character below the
    certified degree d, and correlation with f equal to the best error at
    degree d-1, which exceeds epsilon: the LP dual there, or at d = n of a
    full-degree f the exact sign(s) chi_[n]/2^n, whose orthogonality sums
    are exactly 0.
    """
    return approx_degree(f, epsilon).witness


def verify_dual(w: DualWitness, f: BoolFunction) -> DualCheck:
    """Re-check the three witness properties independently of the LP."""
    n = _arity(w.v)
    if n != f.n:
        raise ValueError(f"arity mismatch: witness {n}, function {f.n}")
    # plain sums against every character at once, by the fast transform
    sums = _fwht_inplace(w.v.copy())
    orth_max = float(np.abs(sums[_popcounts(f.n) < w.d]).max(initial=0.0))
    l1 = float(np.abs(w.v).sum())
    corr = float(w.v @ f.table.astype(float))
    return DualCheck(
        orthogonality_max=orth_max,
        orthogonality_ok=orth_max <= ORTHOGONALITY_SLACK,
        l1=l1,
        l1_ok=l1 <= 1.0 + L1_SLACK,
        correlation=corr,
        correlation_margin=corr - w.epsilon,
        correlation_ok=corr >= w.epsilon - CORRELATION_SLACK,
    )
