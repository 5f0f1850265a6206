"""Block-composed sign matrices and the witness matrices built from dual functions.

The composed function applies an outer Boolean f to n independent inner
evaluations g(x^i, y^i).  Tensor structure does the heavy lifting: the sign
matrix of a composed character is a Kronecker product of copies of M_g and
the all-ones matrix, and a strongly balanced g makes those products mutually
orthogonal, which yields the exact rank formula and the spectral-norm bounds
verified here.

Multi-index convention: block 1 is the most significant tensor factor, and
block i corresponds to bit i-1 of subset/point masks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .approx import DualWitness
from .boolfn import BoolFunction, _arity, character_sums
from .errors import check_bytes
from .matrices import (DistributionMatrix, SignMatrix, balance_check,
                       block_mask, exact_rank, spectrum)

# bytes per composed entry at the traced peak, above the most measured (27 in
# compose_block and char_compose, 24 in build_witness, 32 with mu)
ENTRY_BYTES = 40


@dataclass(frozen=True)
class Composition:
    f: BoolFunction
    g: SignMatrix
    matrix: SignMatrix


@dataclass(frozen=True)
class WitnessMatrix:
    """Real matrix B certifying approximate-norm lower bounds for f o g^n."""

    B: np.ndarray
    l1: float
    correlation: float
    spectral_norm: float


@dataclass(frozen=True)
class RankTheoremReport:
    formula_rank: int
    composed_rank: int
    equal: bool
    inner_rank: int


def _check_size(g: SignMatrix, n: int) -> None:
    rows, cols = g.rows ** n, g.cols ** n
    check_bytes(ENTRY_BYTES * rows * cols,
                f"composed matrix of {rows}x{cols} entries needs")


def require_strongly_balanced(g: SignMatrix, witness: bool) -> None:
    """ValueError unless g is strongly balanced, as the witness without mu,
    or else the rank formula, needs it."""
    if not balance_check(g).strongly_balanced:
        raise ValueError("witness construction without mu requires a "
                         "strongly balanced inner matrix" if witness else
                         "inner matrix must be strongly balanced for the "
                         "rank formula to apply")


def char_compose(T: int, g: SignMatrix, n: int) -> SignMatrix:
    """Sign matrix of chi_T composed with g^n: Kronecker factors M_g for
    blocks in T and all-ones otherwise, block 1 leftmost."""
    if T < 0 or T >= 2 ** n:
        raise ValueError(f"mask {T} does not fit in {n} bits")
    _check_size(g, n)
    ones = np.ones((g.rows, g.cols), dtype=np.int64)
    return SignMatrix(functools.reduce(
        np.kron, [g.entries if (T >> i) & 1 else ones for i in range(n)],
        np.ones((1, 1), dtype=np.int64)))


def compose_block(f: BoolFunction, g: SignMatrix) -> Composition:
    """Materialize the sign matrix of f composed with g on f.n blocks.

    Each entry is f evaluated at the block mask of its row and column, so
    the matrix is built once.  It equals the Fourier expansion
    sum_T f_hat[T] * char_compose(T) because block_mask's bit order is
    char_compose's Kronecker order; that depends only on the shape of g and
    n, and the tests check it per shape.
    """
    _check_size(g, f.n)
    entries = f.table[block_mask([g] * f.n)]
    return Composition(f=f, g=g, matrix=SignMatrix(entries))


def verify_rank_theorem(comp: Composition) -> RankTheoremReport:
    """Compare the composed rank with sum of rk(M_g)^|T| over the spectrum support.

    Both sides are exact integers: the formula uses the exact rank of g, the
    left side the exact rank of the already materialized composition, each
    from matrices.exact_rank (elimination modulo primes below 2^21, stopped
    by Hadamard's bound).  M_{f o g^n} = sum_T f_hat(T) M_T with rank(M_T) =
    rk(g)^|T|, so by subadditivity the formula bounds the composed rank for
    every g, and the first prime whose rank reaches it settles equality.
    Requires g strongly balanced (the formula does not hold otherwise).
    """
    require_strongly_balanced(comp.g, witness=False)
    rank_g = exact_rank(comp.g)
    support = np.flatnonzero(character_sums(comp.f))
    formula = sum(rank_g ** int(k) for k in np.bitwise_count(support))
    actual = exact_rank(comp.matrix, at_most=formula)
    return RankTheoremReport(formula_rank=formula, composed_rank=actual,
                             equal=formula == actual, inner_rank=rank_g)


def build_witness(w: DualWitness, g: SignMatrix, mu=None) -> WitnessMatrix:
    """Compose the dual function with g^n and normalize into a witness matrix.

    Without mu (requires strongly balanced g):
        B[x,y] = (2^n / size(M_g)^n) * v(g(x^1,y^1), ..., g(x^n,y^n)).
    With a probability matrix mu balanced against g (sum mu*g = 0):
        B[x,y] = 2^n * v(g(...)) * prod_i mu(x^i, y^i).
    Either way ||B||_1 = 1 and <M_{f o g^n}, B> equals the witness correlation.
    A residual delta = |sum mu*g|, which check_balanced admits up to 1e-9,
    puts each block's +1 and -1 masses at (1 +- delta)/2, so ||B||_1 may
    then lie anywhere in [(1 - delta)^n, (1 + delta)^n].
    """
    n = _arity(w.v)
    _check_size(g, n)

    slack = 1e-9
    if mu is None:
        require_strongly_balanced(g, witness=True)
        scale = (2.0 ** n) / float(g.size) ** n
        factor = 1.0
    else:
        mu = DistributionMatrix(getattr(mu, "weights", mu))
        mu.check_balanced(g)
        scale = 2.0 ** n
        factor = functools.reduce(np.kron, [mu.weights] * n, np.ones((1, 1)))
        delta = abs(float((mu.weights * g.entries).sum()))
        slack += (1.0 + delta) ** n - 1.0

    B = scale * w.v[block_mask([g] * n)] * factor

    l1 = float(np.abs(B).sum())
    if abs(l1 - 1.0) > slack:
        raise RuntimeError(
            f"witness l1 mass {l1} differs from 1; balance preconditions "
            "should have forced it")
    B.setflags(write=False)
    return WitnessMatrix(B=B, l1=l1,
                         correlation=w.correlation,
                         spectral_norm=spectrum(B).spectral_norm)


def witness_spectral_bound(w: DualWitness, g: SignMatrix) -> float:
    """Proof-side ceiling for ||B||: (||M_g||/sqrt(size))^d * size^(-n/2)."""
    sp = spectrum(g)
    ratio = sp.spectral_norm / np.sqrt(g.size)
    return float(ratio ** w.d * (1.0 / g.size) ** (_arity(w.v) / 2.0))
