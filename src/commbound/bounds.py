"""Complexity-measure evaluators: discrepancy, dual-norm enclosures, and the
lower-bound main terms for composed functions.

Discrepancy is computed exactly by enumerating the subsets of the shorter
side (the other side has a closed form for a fixed subset), their sums
taken from 0/1 matrix products.  The dual factorization norm gamma2* is
never computed directly:
disc (the 0/1 norm) <= ||A*P||_{inf->1} <= gamma2* <= K_G ||A*P||_{inf->1}
<= 4 K_G disc by Grothendieck, K_G over-approximated by 1.7823, and
gamma2* <= sqrt(mn) ||A*P|| by Cauchy-Schwarz enclose it.  shizhu_bound
decides on that Cauchy-Schwarz end alone, with ||A*P|| the largest singular
value LAPACK returns: a rigorous enclosure of it (a Rump-style PSD
certificate) is not computed yet.
Every theorem evaluator reports a main term only: unquantified additive
constants are excluded and flagged in the warnings list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import approx_degree
from .boolfn import BoolFunction
from .composer import WitnessMatrix
from .errors import ResourceLimitError
from .matrices import (DistributionMatrix, SignMatrix, balance_check,
                       exact_rank, spectrum)

#: Documented upper bound on Grothendieck's constant (1.78...).
GROTHENDIECK_UPPER = 1.7823

#: Most subsets of the shorter side discrepancy enumerates: 2^24.
ENUMERATION_CAP = 24

OMITTED_CONSTANT_WARNING = "additive O(1) constant omitted from main_term"

# discrepancy sums the subsets of this many rows in one matrix product
_LOW_ROWS = 12


@dataclass
class BoundReport:
    """Evaluated lower-bound main term with intermediates and warnings."""

    theorem: str
    applicable: bool = True
    main_term: float | None = None
    intermediates: dict = field(default_factory=dict)
    warnings: list = field(
        default_factory=lambda: [OMITTED_CONSTANT_WARNING])

    def refuse(self, warning: str) -> "BoundReport":
        """Mark the theorem inapplicable for the reason warning gives."""
        self.applicable = False
        self.warnings.append(warning)
        return self


@dataclass(frozen=True)
class SpectralDiscCert:
    """Candidate certificate (submatrix, distribution, r) for spectral discrepancy."""

    row_indices: tuple
    col_indices: tuple
    mu: DistributionMatrix
    r: float


@dataclass(frozen=True)
class SpectralDiscReport:
    balance_residual: float
    balanced: bool
    cond2_value: float
    cond2_ok: bool
    cond3_value: float
    cond3_ok: bool
    minimal_r: float


@dataclass(frozen=True)
class ShaltielReport:
    lhs: float
    disc: float
    ok: bool


@dataclass(frozen=True)
class ApproxNormBound:
    trace_lb: float
    gamma2_lb: float
    qcc_main_term: float | None
    applicable: bool


def discrepancy(A: SignMatrix, P: DistributionMatrix) -> float:
    """Exact discrepancy max_{x,y in {0,1}} |x (A*P) y| by enumerating the
    subsets of the shorter side.

    disc(A, P) = disc(A^T, P^T), so a tall A*P is transposed first.  For a
    fixed row subset the optimal column subset takes either all positive or
    all negative column sums, so only the 2^rows row subsets are
    enumerated.  The column sums of every subset of the first min(rows, 12)
    rows come from one 0/1 matrix product; each subset of the remaining rows
    adds its column sums to that block as an offset.
    """
    if (A.rows, A.cols) != (P.rows, P.cols):
        raise ValueError("matrix and distribution dimensions must match")
    W = A.entries * P.weights
    if A.cols < A.rows:
        W = W.T
    m = W.shape[0]
    if m > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"discrepancy enumeration needs 2^{m} subsets of the shorter "
            f"side (cap 2^{ENUMERATION_CAP}); fall back to the bound "
            "disc <= ||A||/sqrt(size(A))")
    low = min(m, _LOW_ROWS)
    subsets = (np.arange(2 ** low)[:, None] >> np.arange(low)) & 1
    block = subsets @ W[:low]
    best = 0.0
    for high in range(2 ** (m - low)):
        col = block + ((high >> np.arange(m - low)) & 1) @ W[low:]
        best = max(best, np.clip(col, 0, None).sum(axis=1).max(),
                   -np.clip(col, None, 0).sum(axis=1).min())
    return float(best)


def uniform_discrepancy(A: SignMatrix) -> float:
    return discrepancy(A, DistributionMatrix.uniform(A.rows, A.cols))


def shaltiel_verify(A: SignMatrix) -> ShaltielReport:
    """Check (1/108)(||A||/sqrt(size))^3 <= disc_U(A), with 1e-9 slack."""
    ratio = spectrum(A).spectral_norm / math.sqrt(A.size)
    lhs = ratio ** 3 / 108.0
    disc = uniform_discrepancy(A)
    return ShaltielReport(lhs=lhs, disc=disc, ok=lhs <= disc + 1e-9)


def _cauchy_schwarz_end(A: SignMatrix, P: DistributionMatrix) -> float:
    """Upper end sqrt(mn) ||A*P|| of the dual factorization norm of A*P."""
    return math.sqrt(A.size) * spectrum(A.entries * P.weights).spectral_norm


def gamma2_star_interval(A: SignMatrix, P: DistributionMatrix) -> tuple:
    """Enclosure [disc, min(4 K_G disc, sqrt(mn) ||A*P||)] of the dual
    factorization norm of A*P, derived in the module docstring."""
    disc = discrepancy(A, P)
    return (disc, min(4.0 * GROTHENDIECK_UPPER * disc,
                      _cauchy_schwarz_end(A, P)))


def verify_spectral_disc(A: SignMatrix, cert: SpectralDiscCert) -> SpectralDiscReport:
    """Check the three spectral-discrepancy conditions for a supplied certificate.

    Also reports the smallest r consistent with conditions (2) and (3) for
    this particular submatrix and distribution.  With a uniform mu, condition
    (3) holds automatically.
    """
    rows = list(cert.row_indices)
    cols = list(cert.col_indices)
    if not rows or not cols:
        raise ValueError("certificate index sets must be non-empty")
    if max(rows) >= A.rows or max(cols) >= A.cols or min(rows) < 0 or min(cols) < 0:
        raise ValueError("certificate indices out of range")
    sub = A.entries[np.ix_(rows, cols)]
    mu = cert.mu.weights
    if mu.shape != sub.shape:
        raise ValueError("mu shape must match the selected submatrix")
    size = sub.size
    weighted = sub * mu
    balance_residual = abs(float(weighted.sum()))
    norm2 = spectrum(weighted).spectral_norm
    norm3 = spectrum(np.abs(weighted)).spectral_norm
    rt = math.sqrt(size)
    return SpectralDiscReport(
        balance_residual=balance_residual,
        balanced=balance_residual <= 1e-9,
        cond2_value=norm2,
        cond2_ok=norm2 <= cert.r / rt + 1e-9,
        cond3_value=norm3,
        cond3_ok=norm3 <= (1.0 + cert.r) / rt + 1e-9,
        minimal_r=max(norm2 * rt, norm3 * rt - 1.0),
    )


def approx_trace_lower(A: SignMatrix, B: WitnessMatrix,
                       epsilon: float) -> ApproxNormBound:
    """Witness-certified lower bounds on the approximate trace and factorization norms.

    trace_lb = (<A,B> - eps ||B||_1) / ||B||, gamma2_lb = trace_lb/sqrt(size),
    and the communication main term is log2(gamma2_lb).  A non-positive
    numerator makes the bound vacuous and is flagged instead of hidden.
    """
    if A.entries.shape != B.B.shape:
        raise ValueError("matrix and witness dimensions must match")
    if B.spectral_norm <= 0:
        raise ValueError("witness has zero spectral norm")
    inner = float((A.entries * B.B).sum())
    trace_lb = (inner - epsilon * B.l1) / B.spectral_norm
    gamma2_lb = trace_lb / math.sqrt(A.size)
    if gamma2_lb > 0:
        return ApproxNormBound(trace_lb, gamma2_lb, math.log2(gamma2_lb), True)
    return ApproxNormBound(trace_lb, gamma2_lb, None, False)


def sherstov_bound(f: BoolFunction, g: SignMatrix,
                   epsilon0: float) -> BoundReport:
    """Main term of the strongly-balanced composition bound:
    deg_eps0(f) * log2(sqrt(size(M_g)) / ||M_g||)."""
    if not 0 < epsilon0 < 1:
        raise ValueError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
    report = BoundReport(theorem="sherstov")
    if not balance_check(g).strongly_balanced:
        return report.refuse("inner matrix is not strongly balanced")
    d = approx_degree(f, epsilon0).d
    sp = spectrum(g)
    ratio = math.sqrt(g.size) / sp.spectral_norm
    rank_g = exact_rank(g)
    report.main_term = d * math.log2(ratio)
    report.intermediates = {
        "d": d,
        "epsilon0": epsilon0,
        "spectral_norm": sp.spectral_norm,
        "size": g.size,
        "ratio": ratio,
        "inner_rank": rank_g,
    }
    if rank_g == 1:
        report.warnings.append(
            "inner matrix has rank 1: the composed complexity can be O(1) "
            "and this bound carries no content")
    return report


def disc_bound(f: BoolFunction, g: SignMatrix) -> BoundReport:
    """Discrepancy form of the composition bound:
    (1/3) deg_{1/3}(f) (log2(1/disc_U(M_g)) - 7).  disc_U comes first, so
    a g past the enumeration cap is refused before the LP."""
    report = BoundReport(theorem="disc")
    if not balance_check(g).strongly_balanced:
        return report.refuse("inner matrix is not strongly balanced")
    disc = uniform_discrepancy(g)
    d = approx_degree(f, 1.0 / 3.0).d
    inner = math.log2(1.0 / disc) - 7.0
    report.main_term = d * inner / 3.0 + 0.0  # 0.0, not -0.0, at d = 0
    report.intermediates = {
        "d": d,
        "disc_u": disc,
        "log_term": inner,
    }
    if inner <= 0:
        report.warnings.append(
            "discrepancy is at least 2^-7, the bound is vacuous")
    return report


def shizhu_bound(f: BoolFunction, g: SignMatrix, mu: DistributionMatrix,
                 epsilon0: float) -> BoundReport:
    """Degree main term under the dual-norm smallness condition.

    Requires mu balanced with respect to g.  The condition fails for every
    mu when the duality floor 1/sqrt(min(m, n)) <= 1/gamma2(M_g) <=
    gamma2*(M_g * mu) exceeds d/(2en), as below 30 rows or columns.  Past
    the floor it holds when the Cauchy-Schwarz end sqrt(mn) ||M_g * mu||,
    one SVD with LAPACK's largest singular value, is at most d/(2en);
    otherwise it is not established (that end does not refute it) and the
    gap is reported.  An outer function of no inputs is inapplicable too.
    """
    if not 0 < epsilon0 < 1:
        raise ValueError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
    mu.check_balanced(g)
    report = BoundReport(theorem="shizhu")
    if f.n == 0:
        return report.refuse(
            "outer function has no inputs: the threshold d/(2en) is undefined")
    d = approx_degree(f, epsilon0).d
    n = f.n
    threshold = d / (2.0 * math.e * n)
    floor = 1.0 / math.sqrt(min(g.rows, g.cols))
    report.intermediates = {"d": d, "n": n, "threshold": threshold,
                            "gamma2_star_floor": floor,
                            "gap": floor - threshold}
    if floor > threshold:
        need = (f"needs at least {math.ceil(threshold ** -2)} rows and "
                "columns" if d else "cannot hold at degree 0")
        return report.refuse(
            f"condition fails for every mu: gamma2* >= 1/sqrt(min(m, n)) = "
            f"{floor:.6g} exceeds d/(2en) = {threshold:.6g}; it {need}")
    high = _cauchy_schwarz_end(g, mu)
    report.intermediates.update(gamma2_star_high=high, gap=high - threshold)
    if high > threshold:
        return report.refuse(
            f"condition not established: gamma2* upper bound sqrt(mn) "
            f"||M_g * mu|| = {high:.6g} exceeds d/(2en) = {threshold:.6g}")
    report.main_term = float(d)
    return report
