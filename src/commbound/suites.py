"""Seeded property suites: every structural invariant the package promises,
runnable as a batch (CLI `verify-suite`) or from the test suite.

Each suite returns a SuiteResult with the number of checks performed and a
list of failure descriptions (empty on success).  All randomness flows from
an explicit seed, so reports are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bd
from . import composer as cp
from . import groupcomp as gc
from . import matrices as mx
from .approx import approx_degree, dual_polynomial, error_profile, verify_dual
from .boolfn import (BoolFunction, RealPointFunction, all_functions,
                     builtin_function, character_eval, degree, iwht, wht)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list = field(default_factory=list)

    def note(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.passed = False
            self.failures.append(message)


def _random_sign(rng, rows, cols) -> mx.SignMatrix:
    return mx.SignMatrix(rng.choice((-1, 1), size=(rows, cols)))


def suite_matrix_invariants(seed: int = 0) -> SuiteResult:
    res = SuiteResult("matrix-invariants", True, 0)
    rng = np.random.default_rng(seed)

    # Frobenius norm of a sign matrix is exactly sqrt(size)
    for _ in range(50):
        A = _random_sign(rng, rng.integers(1, 9), rng.integers(1, 9))
        frob = mx.spectrum(A).frobenius_norm
        res.note(abs(frob - math.sqrt(A.size)) <= 1e-9,
                 f"frobenius {frob} != sqrt({A.size})")

    # exact rank agrees with the numeric rank of the spectrum
    for _ in range(200):
        A = _random_sign(rng, rng.integers(1, 9), rng.integers(1, 9))
        r_exact = mx.exact_rank(A)
        r_num = mx.spectrum(A, 1e-9).numeric_rank
        res.note(r_exact == r_num,
                 f"rank mismatch exact={r_exact} numeric={r_num}")

    # orthogonal sums: disjoint-support pairs satisfy the rank/norm additivity
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        r_split = int(rng.integers(1, m))
        c_split = int(rng.integers(1, n))
        A = np.zeros((m, n), dtype=np.int64)
        B = np.zeros((m, n), dtype=np.int64)
        A[:r_split, :c_split] = rng.choice((-1, 1), size=(r_split, c_split))
        B[r_split:, c_split:] = rng.choice((-1, 1),
                                           size=(m - r_split, n - c_split))
        assert not (A @ B.T).any() and not (A.T @ B).any()
        res.note(mx.exact_rank(A + B) == mx.exact_rank(A) + mx.exact_rank(B),
                 "rank additivity failed for an orthogonal pair")
        sa, sb, sab = (mx.spectrum(x) for x in (A, B, A + B))
        res.note(abs(sab.trace_norm - sa.trace_norm - sb.trace_norm) <= 1e-8,
                 "trace-norm additivity failed")
        res.note(abs(sab.spectral_norm
                     - max(sa.spectral_norm, sb.spectral_norm)) <= 1e-8,
                 "spectral max rule failed")

    # strongly balanced iff the products with the all-ones matrix vanish,
    # over all 4x4 sign matrices at once: E[b, i, j] = -1 iff bit 4i + j of b
    J = np.ones((4, 4), dtype=np.int64)
    E = (1 - 2 * (np.arange(2 ** 16)[:, None] >> np.arange(16) & 1)
         ).reshape(-1, 4, 4)
    flag = ((E.sum(axis=1) == 0).all(axis=1)
            & (E.sum(axis=2) == 0).all(axis=1))
    product_flag = (~(E @ J).any(axis=(1, 2))
                    & ~(E.transpose(0, 2, 1) @ J).any(axis=(1, 2)))
    violations = int((flag != product_flag).sum())
    res.note(violations == 0,
             f"{violations} 4x4 matrices disagree on the balance criterion")

    # tensor: rank multiplicativity and associativity up to reshape
    for _ in range(50):
        A = _random_sign(rng, rng.integers(1, 5), rng.integers(1, 5))
        B = _random_sign(rng, rng.integers(1, 5), rng.integers(1, 5))
        res.note(mx.exact_rank(mx.tensor(A, B))
                 == mx.exact_rank(A) * mx.exact_rank(B),
                 "tensor rank multiplicativity failed")
    A, B, C = (_random_sign(rng, 2, 3) for _ in range(3))
    res.note(mx.tensor(mx.tensor(A, B), C) == mx.tensor(A, mx.tensor(B, C)),
             "tensor associativity failed")
    return res


def suite_boolfn(seed: int = 0) -> SuiteResult:
    res = SuiteResult("boolfn-invariants", True, 0)
    rng = np.random.default_rng(seed)

    # character orthogonality, exhaustive for n <= 4 (exact integers)
    for n in range(1, 5):
        N = 2 ** n
        ok = True
        for T in range(N):
            for S in range(N):
                total = sum(character_eval(T, x) * character_eval(S, x)
                            for x in range(N))
                if total != (N if T == S else 0):
                    ok = False
        res.note(ok, f"character orthogonality violated at n={n}")

    # transform round trip on random spectra
    for n in range(1, 11):
        coeffs = rng.normal(size=2 ** n)
        from .boolfn import FourierSpectrum

        s = FourierSpectrum(n=n, coeffs=tuple(coeffs))
        back = wht(iwht(s))
        res.note(np.abs(np.array(back.coeffs) - coeffs).max() <= 1e-12,
                 f"wht(iwht) round trip failed at n={n}")
        f = RealPointFunction(n, rng.normal(size=2 ** n))
        rt = iwht(wht(f))
        res.note(np.abs(rt.table - f.table).max() <= 1e-12,
                 f"iwht(wht) round trip failed at n={n}")

    # degree subadditivity under pointwise product
    for _ in range(100):
        n = int(rng.integers(1, 5))
        f = BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
        g = BoolFunction(n, rng.choice((-1, 1), size=2 ** n))
        fg = BoolFunction(n, f.table * g.table)
        res.note(degree(fg) <= degree(f) + degree(g),
                 "degree subadditivity failed")
    return res


def suite_approx(seed: int = 0) -> SuiteResult:
    res = SuiteResult("approx-invariants", True, 0)
    eps_grid = (0.01, 0.1, 1.0 / 3.0, 0.5, 0.9)

    for n in range(1, 4):
        for f in all_functions(n):
            profile = error_profile(f)
            # monotone nonincreasing degree over the epsilon grid
            degs = []
            for eps in eps_grid:
                d = next(d for d, e in enumerate(profile) if e <= eps + 1e-9)
                degs.append(d)
            res.note(all(a >= b for a, b in zip(degs, degs[1:])),
                     f"degree not monotone in epsilon for n={n} table={f.table}")

            w = dual_polynomial(f, 1.0 / 3.0)
            res.note(verify_dual(w, f).ok,
                     f"dual witness failed verification, table={f.table}")
            # weak duality: dual optimum == primal error at degree d-1
            if w.d >= 1:
                res.note(abs(w.correlation - profile[w.d - 1]) <= 1e-7,
                         f"weak duality gap at n={n} table={f.table}: "
                         f"{w.correlation} vs {profile[w.d - 1]}")
    return res


def suite_composer(seed: int = 0) -> SuiteResult:
    res = SuiteResult("composer-invariants", True, 0)
    rng = np.random.default_rng(seed)
    balanced4 = list(mx.search_strongly_balanced(4, 4))

    # witness spectral bound across inner matrices and outer functions
    outers = [builtin_function("PARITY", 2), builtin_function("AND", 2)]
    outers += [BoolFunction(2, rng.choice((-1, 1), size=4)) for _ in range(6)]
    for f in outers:
        w = dual_polynomial(f, 1.0 / 3.0)
        for g in balanced4 + [mx.CORE_FREE_6]:
            W = cp.build_witness(w, g)
            bound = cp.witness_spectral_bound(w, g)
            res.note(W.spectral_norm <= bound + 1e-8,
                     f"witness norm {W.spectral_norm} above bound {bound}")
            comp = cp.compose_block(f, g)
            inner = float((comp.matrix.entries * W.B).sum())
            res.note(abs(inner - W.correlation) <= 1e-10,
                     "composed inner product differs from witness correlation")

    # strongly balanced inner matrices give orthogonal character matrices
    for g, n_max in [(balanced4[0], 3), (balanced4[1], 3),
                     (mx.XOR_2, 3), (mx.CORE_FREE_6, 2)]:
        for n in range(1, n_max + 1):
            rep = cp.verify_orthogonality(g, n)
            res.note(rep.orthogonal,
                     f"orthogonality violated for a balanced inner matrix, n={n}")
    res.note(not cp.verify_orthogonality(mx.all_ones(2, 2), 1).orthogonal,
             "all-ones matrix should violate orthogonality")
    return res


def suite_bounds(seed: int = 0) -> SuiteResult:
    res = SuiteResult("bounds-invariants", True, 0)
    rng = np.random.default_rng(seed)

    # discrepancy upper bound and its cube-root converse on a random corpus
    for _ in range(200):
        A = _random_sign(rng, rng.integers(1, 11), rng.integers(1, 11))
        disc = bd.uniform_discrepancy(A)
        ratio = mx.spectrum(A).spectral_norm / math.sqrt(A.size)
        res.note(disc <= ratio + 1e-9,
                 f"disc {disc} above spectral bound {ratio}")
        res.note(ratio ** 3 / 108.0 <= disc + 1e-9,
                 f"cube-root lower bound fails: {ratio ** 3 / 108} vs {disc}")

    # end-to-end chain: witness at eps0, trace bound at eps0/2
    eps0 = 1.0 / 3.0
    outers = [builtin_function("PARITY", 2), builtin_function("AND", 2),
              builtin_function("OR", 2)]
    for f in outers:
        w = dual_polynomial(f, eps0)
        for g in (mx.PATTERN_CORE_4, mx.CORE_FREE_6):
            W = cp.build_witness(w, g)
            M = cp.compose_block(f, g).matrix
            r = bd.approx_trace_lower(M, W, eps0 / 2.0)
            rhs = (math.sqrt(g.size) / mx.spectrum(g).spectral_norm) ** w.d / 12.0
            res.note(r.gamma2_lb + 1e-8 >= rhs,
                     f"trace chain fails: {r.gamma2_lb} < {rhs}")

    # main term is invariant under row/column permutations of the inner matrix
    f = builtin_function("PARITY", 2)
    base = bd.sherstov_bound(f, mx.PATTERN_CORE_4, eps0).main_term
    for _ in range(20):
        P = mx.SignMatrix(mx.PATTERN_CORE_4.entries[
            rng.permutation(4)][:, rng.permutation(4)])
        term = bd.sherstov_bound(f, P, eps0).main_term
        res.note(abs(term - base) <= 1e-9,
                 "main term changed under permutation of the inner matrix")
    return res


def _random_multiset(rng, order: int, max_size: int = 6) -> np.ndarray:
    k = int(rng.integers(1, max_size + 1))
    return gc.pair_counts([(int(rng.integers(order)), int(rng.integers(order)))
                           for _ in range(k)])


def _orbit_closure(T: np.ndarray, G: gc.AbelianGroupSpec) -> np.ndarray:
    """T's pairs, repeated by their multiplicities, shifted by every s in G."""
    pairs = np.repeat(T[:, :2], T[:, 2], axis=0)
    digits = zip(np.unravel_index(np.arange(G.order), G.moduli, order="F"),
                 np.unravel_index(pairs, G.moduli, order="F"))
    moved = np.ravel_multi_index([s[:, None, None] + p for s, p in digits],
                                 G.moduli, mode="wrap", order="F")
    return gc.pair_counts(moved.reshape(-1, 2))


def suite_groupcomp(seed: int = 0) -> SuiteResult:
    res = SuiteResult("groupcomp-invariants", True, 0)
    rng = np.random.default_rng(seed)
    groups = [gc.AbelianGroupSpec([3]), gc.AbelianGroupSpec([4]),
              gc.AbelianGroupSpec([2, 2])]
    tables = {G.moduli: gc.characters_abelian(G) for G in groups}

    # invariance <=> vanishing cross-character sums, and the two t'-routes agree
    for trial in range(500):
        G = groups[trial % 3]
        table = tables[G.moduli]
        T = _random_multiset(rng, G.order)
        if trial % 2 == 0:
            T = _orbit_closure(T, G)
        inv = gc.g_invariant(T, G)
        sums = gc.orthogonality_sums(T, table)
        res.note(inv == (sums <= 1e-8 * T[:, 2].sum()),
                 f"invariance/sums equivalence failed (inv={inv}, sums={sums})")
        rep = gc.tprime_check(T, table)
        res.note(rep.agree, "t' statements disagree")
        res.note(rep.direct_ok == inv, "t' verdict differs from invariance")

    # diagonal invariance forces regularity (columns built as shuffled copies of G)
    for G in groups:
        for _ in range(20):
            cols = []
            copies = int(rng.integers(1, 4))
            for _ in range(4):
                col = np.repeat(np.arange(G.order), copies)
                rng.shuffle(col)
                cols.append(col)
            gm = gc.GroupMapMatrix(np.column_stack(cols), G)
            rep = gc.regularity_check(gm)
            res.note(rep.diagonal_invariant and rep.regular,
                     "diagonally invariant map is not regular")

    # Z2-blocks equivalence, exhaustive over all pairs of 2x2 sign blocks
    blocks2 = [mx.SignMatrix(np.array(
        [[1 - 2 * ((bits >> (2 * i + j)) & 1) for j in range(2)]
         for i in range(2)])) for bits in range(16)]
    for b1 in blocks2:
        for b2 in blocks2:
            rep = gc.degeneration_check([b1, b2])
            res.note(rep.equivalent, "Z2-blocks equivalence violated")

    # product approximate degree equals the Boolean approximate degree
    z2_table = gc.characters_abelian(gc.AbelianGroupSpec([2]))
    for n in range(1, 4):
        for f in all_functions(n):
            d_prod = gc.product_approx_degree(
                gc.class_function_from_bool(f), [z2_table] * n, 1.0 / 3.0)
            d_bool = approx_degree(f, 1.0 / 3.0).d
            res.note(d_prod == d_bool,
                     f"product degree {d_prod} != degree {d_bool} "
                     f"for table={f.table}")

    # Abelian degeneration of the general bound
    for n in (1, 2):
        par = builtin_function("PARITY", n)
        gm = gc.GroupMapMatrix.from_sign_blocks([mx.PATTERN_CORE_4] * n)
        tb = gc.characters_abelian(gc.AbelianGroupSpec([2] * n))
        part = gc.HardnessPartition.from_easy(
            [T for T in range(2 ** n) if bin(T).count("1") < n], 2 ** n)
        rep = gc.general_bound(gm, gc.class_function_from_bool(par), tb,
                               part, 0.0)
        sh = bd.sherstov_bound(par, mx.PATTERN_CORE_4, 1.0 / 3.0)
        res.note(rep.applicable
                 and abs(rep.main_term - sh.main_term) <= 1e-8,
                 f"general/balanced main terms differ at n={n}")

    # coefficient bound for every dual class function produced here
    t22 = gc.characters_abelian(gc.AbelianGroupSpec([2, 2]))
    for f in itertools.islice(all_functions(2), 16):
        fv = gc.class_function_from_bool(f)
        for easy in ([], [0], [0, 1, 2]):
            dh = gc.dual_h(fv, t22, easy)
            coeffs = t22.table @ dh.h / t22.order
            lhs = np.abs(coeffs).max()
            rhs = np.abs(dh.h).sum() / t22.order  # max |chi| = 1 (Abelian)
            res.note(lhs <= rhs + 1e-9,
                     f"coefficient bound violated: {lhs} > {rhs}")
            if dh.delta > 0:
                res.note(dh.ok, f"dual class function failed its checks "
                                f"(delta={dh.delta})")
    return res


ALL_SUITES = {
    "matrix": suite_matrix_invariants,
    "boolfn": suite_boolfn,
    "approx": suite_approx,
    "composer": suite_composer,
    "bounds": suite_bounds,
    "groupcomp": suite_groupcomp,
}


def run_suites(names=None, seed: int = 0) -> list[SuiteResult]:
    chosen = list(ALL_SUITES) if names is None else list(names)
    out = []
    for name in chosen:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}; "
                             f"choose from {sorted(ALL_SUITES)}")
        out.append(ALL_SUITES[name](seed=seed))
    return out
