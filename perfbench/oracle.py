"""Independent oracles for every task's output.

Nothing here calls commbound.  Linear programs go to scipy's HiGHS solver,
norms and ranks to LAPACK through numpy, discrepancy is recomputed by
vectorised enumeration, pair-multiset invariance by one-hot histograms, and
the paper's closed forms are checked where they apply: the composed rank
formula, ||B||_1 = 1, ||B|| <= the witness spectral bound, Shaltiel's
inequality (||A|| / sqrt(size))^3 / 108 <= disc_U(A), and the sherstov main
term d * log2(sqrt(size) / ||g||).

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from gen import char_table, group_add_table, sign_blocks_map

TIE = 1e-7      # LP optima this close to epsilon may land on either side
ABS = 1e-7


class Checker:
    def __init__(self):
        self._cheb = {}
        self.errors = []

    def expect(self, cond: bool, msg: str) -> None:
        if not cond:
            self.errors.append(msg)

    def close(self, got, want, what: str, tol: float = ABS) -> None:
        ok = got is not None and want is not None and \
            abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))
        self.expect(ok, f"{what}: got {got}, oracle {want}")

    # -- approximate degree -------------------------------------------------

    def cheb_error(self, basis: np.ndarray, f: np.ndarray) -> float:
        """min over c of max |f - basis^T c| (HiGHS)."""
        key = (basis.tobytes(), basis.shape, f.tobytes())
        if key in self._cheb:
            return self._cheb[key]
        k, N = basis.shape
        if k == 0:
            val = float(np.abs(f).max())
        else:
            A = np.block([[-basis.T, -np.ones((N, 1))],
                          [basis.T, -np.ones((N, 1))]])
            b = np.concatenate([-f, f])
            c = np.zeros(k + 1)
            c[-1] = 1.0
            res = linprog(c, A_ub=A, b_ub=b, method="highs",
                          bounds=[(None, None)] * k + [(0, None)])
            if res.status != 0:
                raise RuntimeError(f"oracle LP failed: {res.message}")
            val = float(res.x[-1])
        self._cheb[key] = val
        return val

    def bool_error(self, f: np.ndarray, d: int) -> float:
        """Best degree-<=d sup-norm error of a function on {-1,1}^n."""
        H = hadamard(int(math.log2(f.size)))
        return self.cheb_error(H[weights(f.size) <= d], f.astype(float))

    def degree_ok(self, errors, d: int, eps: float) -> bool:
        """d is a valid deg_eps: feasible at d, infeasible at d - 1."""
        if d is None or d < 0:
            return False
        ok = errors(d) <= eps + TIE
        return ok and (d == 0 or errors(d - 1) > eps - TIE)

    def approx_degree(self, f: np.ndarray, eps: float) -> int:
        for d in range(int(math.log2(f.size)) + 1):
            if self.bool_error(f, d) <= eps + TIE:
                return d
        raise RuntimeError("full degree must be exact")

    def check_degree(self, f, d, eps, what="d") -> None:
        self.expect(self.degree_ok(lambda k: self.bool_error(f, k), d, eps),
                    f"{what}={d} is not deg_{eps} (oracle "
                    f"{self.approx_degree(f, eps)})")


def hadamard(n: int) -> np.ndarray:
    """chi_T(x) = (-1)^|T & x| as the n-fold Kronecker power of [[1,1],[1,-1]]."""
    H = np.ones((1, 1))
    for _ in range(n):
        H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return H


def weights(N: int) -> np.ndarray:
    return np.array([bin(T).count("1") for T in range(N)])


def svals(M) -> np.ndarray:
    return np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)


def disc_uniform(A: np.ndarray) -> float:
    """max over row subsets S of max(positive, negative) column-sum mass."""
    m, n = A.shape
    W = A / A.size
    best = 0.0
    chunk = 1 << min(m, 14)
    for start in range(0, 2 ** m, chunk):
        S = np.arange(start, min(start + chunk, 2 ** m))
        ind = ((S[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        cols = ind @ W
        pos = np.where(cols > 0, cols, 0).sum(axis=1)
        neg = -np.where(cols < 0, cols, 0).sum(axis=1)
        best = max(best, float(np.maximum(pos, neg).max()))
    return best


def _codes(M: np.ndarray, p: int, q: int):
    """Integer code of every p x q submatrix (bit set where the entry is -1)."""
    bits = (M == -1).astype(np.int64)
    col_sets = np.array(list(itertools.combinations(range(M.shape[1]), q)))
    row_code = np.zeros((M.shape[0], len(col_sets)), dtype=np.int64)
    for b in range(q):
        row_code |= bits[:, col_sets[:, b]] << b
    row_sets = np.array(list(itertools.combinations(range(M.shape[0]), p)))
    code = np.zeros((len(row_sets), len(col_sets)), dtype=np.int64)
    for a in range(p):
        code |= row_code[row_sets[:, a]] << (q * a)
    return code


def _code(P: np.ndarray) -> int:
    return int(_codes(P, *P.shape)[0, 0])


def contains(M: np.ndarray, P: np.ndarray, ordered: bool) -> bool:
    p, q = P.shape
    if p > M.shape[0] or q > M.shape[1]:
        return False
    codes = _codes(M, p, q)
    if ordered:
        return bool((codes == _code(P)).any())
    orbit = {_code(P[list(r)][:, list(c)])
             for r in itertools.permutations(range(p))
             for c in itertools.permutations(range(q))}
    return bool(np.isin(codes, list(orbit)).any())


def canonical(M: np.ndarray) -> tuple:
    """Invariant of M under row and column permutations (rows <= 8): the
    least sorted column-code tuple over all row orders."""
    m = M.shape[0]
    perms = np.array(list(itertools.permutations(range(m))))
    codes = ((M[perms] == -1) << np.arange(m)[None, :, None]).sum(axis=1)
    return min(map(tuple, np.sort(codes, axis=1)))


@functools.lru_cache(maxsize=None)
def balanced_classes(rows: int, cols: int) -> list:
    """One representative per permutation class of strongly balanced
    rows x cols sign matrices, by brute force over multisets of rows."""
    cand = np.array([r for r in itertools.product([1, -1], repeat=cols)
                     if sum(r) == 0])
    idx = np.array(list(itertools.combinations_with_replacement(
        range(len(cand)), rows)))
    mats = cand[idx[(cand[idx].sum(axis=1) == 0).all(axis=1)]]
    reps = {}
    for M in mats:
        reps.setdefault(canonical(M), M)
    return list(reps.values())


def pair_invariance(E: np.ndarray, moduli) -> tuple:
    """(every row pair, every column pair, diagonal) multisets invariant
    under the diagonal shift (s, t) -> (s + u, t + u)."""
    order = int(np.prod(moduli))
    add = group_add_table(moduli)

    def invariant(hist):      # hist: (..., order, order)
        ok = np.ones(hist.shape[:-2], dtype=bool)
        for u in range(order):
            shifted = hist[..., add[:, u], :][..., add[:, u]]
            ok &= (shifted == hist).all(axis=(-1, -2))
        return ok

    onehot = (E[..., None] == np.arange(order)).astype(np.int64)
    rows = invariant(np.einsum("ayn,bym->abnm", onehot, onehot))
    cols = invariant(np.einsum("yan,ybm->abnm", onehot, onehot))
    diag = bool(np.diagonal(rows).all() or np.diagonal(cols).all())
    return bool(rows.all()), bool(cols.all()), diag


def orth_violations(E: np.ndarray, C: np.ndarray, chars) -> tuple:
    chars = sorted(chars)
    if len(chars) < 2:
        return 0.0, 0.0
    A = C[chars][:, E]                      # (h, X, Y)
    rows = np.abs(np.einsum("ixy,jzy->ijxz", A, A.conj()))
    cols = np.abs(np.einsum("ixy,jxz->ijyz", A, A.conj()))
    off = ~np.eye(len(chars), dtype=bool)
    return float(rows[off].max()), float(cols[off].max())


def span_distance(ck: Checker, f: np.ndarray, C: np.ndarray, chars,
                  moduli) -> float:
    """Sup distance from real f to real functions in the span of chars.

    A real function in the span of a set of characters lies in the span of
    the part of that set closed under conjugation, whose real and imaginary
    parts give a real basis."""
    order = int(np.prod(moduli))
    neg = [int(group_add_table(moduli)[:, a].tolist().index(0))
           for a in range(order)]
    closed = [a for a in chars if neg[a] in chars]
    basis = np.vstack([C[closed].real, C[closed].imag]) if closed else \
        np.zeros((0, order))
    basis = basis[np.abs(basis).max(axis=1) > 1e-12] if closed else basis
    return ck.cheb_error(basis, f)


# ---------------------------------------------------------------------------
# checks per task kind; rep is the CLI "report" payload or a library result

def check_approx(ck, rep, data):
    f, eps = data["table"], data["eps"]
    n = int(math.log2(f.size))
    d = rep["d"]
    ck.expect(rep["n"] == n, f"n={rep['n']}")
    ck.check_degree(f, d, eps)
    ck.close(rep["max_error"], ck.bool_error(f, d), "max_error", 1e-6)
    if not data["dual"]:
        ck.expect("dual" not in rep, "unexpected dual block")
        return
    dual = rep["dual"]
    v = np.array(dual["witness_table"], dtype=float)
    ck.expect(dual["d"] == d and v.size == f.size, "dual shape or degree")
    ck.close(np.abs(v).sum(), 1.0, "dual l1", 1e-9)
    low = hadamard(n)[weights(f.size) < d]
    ck.expect(low.size == 0 or np.abs(low @ v).max() <= 1e-8,
              "dual witness correlates with a low-degree character")
    corr = float(v @ f)
    ck.close(dual["correlation"], corr, "dual correlation", 1e-9)
    ck.expect(corr >= eps - 1e-8, f"dual correlation {corr} below {eps}")
    if d > 0:   # LP duality: the dual optimum is the error at degree d - 1
        ck.close(corr, ck.bool_error(f, d - 1), "dual optimum", 1e-6)
    ck.expect(dual["all_checks_pass"] is True, "dual checks flag")


def check_sherstov(ck, rep, data):
    f, g = data["table"], data["g"]
    balanced = (g.sum(axis=0) == 0).all() and (g.sum(axis=1) == 0).all()
    ck.expect(rep["applicable"] == bool(balanced), "applicable flag")
    if not balanced:
        ck.expect(rep["main_term"] is None, "main term without balance")
        return
    d = rep["intermediates"]["d"]
    ck.check_degree(f, d, 1.0 / 3.0)
    norm = svals(g)[0]
    ck.close(rep["intermediates"]["spectral_norm"], norm, "||g||")
    ck.close(rep["main_term"], d * math.log2(math.sqrt(g.size) / norm),
             "sherstov main term")
    rank = int(np.linalg.matrix_rank(g))
    ck.expect(rep["intermediates"]["inner_rank"] == rank, "inner rank")
    ck.expect(any("rank 1" in w for w in rep["warnings"]) == (rank == 1),
              "rank-1 warning")


def check_disc(ck, rep, data):
    f, g = data["table"], data["g"]
    d = rep["intermediates"]["d"]
    ck.check_degree(f, d, 1.0 / 3.0)
    disc = disc_uniform(g)
    ck.close(rep["intermediates"]["disc_u"], disc, "disc_U")
    ck.close(rep["main_term"], d * (math.log2(1.0 / disc) - 7.0) / 3.0,
             "disc main term")


def check_analyze(ck, rep, data):
    M = data["M"]
    m, n = M.shape
    ck.expect((rep["rows"], rep["cols"]) == (m, n), "shape")
    bal = rep["balance"]
    ck.expect(bal["row_sums"] == M.sum(axis=1).tolist(), "row sums")
    ck.expect(bal["col_sums"] == M.sum(axis=0).tolist(), "col sums")
    ck.expect(bal["strongly_balanced"] == bool(
        not M.sum(axis=0).any() and not M.sum(axis=1).any()), "strong balance")
    ck.expect(rep["exact_rank"] == int(np.linalg.matrix_rank(M)), "rank")
    sv = svals(M)
    sp = rep["spectrum"]
    got = np.array(sp["singular_values"], dtype=float)
    ck.expect(got.shape == sv.shape and
              np.abs(got - sv).max() <= 1e-6 * sv[0], "singular values")
    ck.close(sp["spectral_norm"], sv[0], "spectral norm")
    ck.close(sp["trace_norm"], sv.sum(), "trace norm", 1e-6)
    ck.close(sp["frobenius_norm"], math.sqrt(M.size), "frobenius norm")
    ck.expect(sp["numeric_rank"] == int((sv > sp["tolerance"] * sv[0]).sum()),
              "numeric rank")
    core = np.array([[1, -1, 1, -1], [1, -1, -1, 1],
                     [-1, 1, 1, -1], [-1, 1, -1, 1]])
    if m >= 4 and n >= 4:
        ck.expect(rep["core4_free_ordered"] == (not contains(M, core, True)),
                  "core4 ordered containment")
        ck.expect(rep["core4_free_up_to_permutation"] ==
                  (not contains(M, core, False)), "core4 containment")
    disc = disc_uniform(M)
    ck.close(rep["disc_uniform"], disc, "disc_uniform")
    ck.expect((sv[0] / math.sqrt(M.size)) ** 3 / 108 <= disc + 1e-12,
              "Shaltiel's inequality fails")


def _composition(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_T f_hat(T) (x)_i (g if i in T else J), block 1 leftmost."""
    n = int(math.log2(f.size))
    fhat = hadamard(n) @ f / f.size
    out = 0.0
    for T in range(f.size):
        if abs(fhat[T]) < 1e-12:
            continue
        K = np.ones((1, 1))
        for i in range(n):
            K = np.kron(K, g if (T >> i) & 1 else np.ones(g.shape))
        out = out + fhat[T] * K
    return out


def check_compose(ck, rep, data):
    f, g, eps = data["table"], data["g"], data["eps"]
    n = int(math.log2(f.size))
    ck.expect((rep["rows"], rep["cols"]) == (g.shape[0] ** n, g.shape[1] ** n),
              "composed shape")
    rf = rep["rank_formula"]
    rank_g = int(np.linalg.matrix_rank(g))
    sums = np.rint(hadamard(n) @ f).astype(int)
    formula = sum(rank_g ** bin(T).count("1")
                  for T in range(f.size) if sums[T] != 0)
    comp = _composition(f.astype(float), g.astype(float))
    ck.expect(np.abs(np.abs(comp) - 1).max() < 1e-9, "composition is not +-1")
    ck.expect(rf["formula_rank"] == formula, "formula rank")
    ck.expect(rf["composed_rank"] == int(np.linalg.matrix_rank(comp)),
              "composed rank")
    ck.expect(rf["equal"] is True and rf["inner_rank"] == rank_g, "rank flags")
    if not data["witness"]:
        ck.expect("witness" not in rep, "unexpected witness block")
        return
    w = rep["witness"]
    d = w["d"]
    ck.check_degree(f, d, eps, "witness d")
    ck.close(w["l1"], 1.0, "||B||_1", 1e-9)
    if d > 0:
        ck.close(w["correlation"], ck.bool_error(f, d - 1), "<M, B>", 1e-6)
    bound = (svals(g)[0] / math.sqrt(g.size)) ** d * g.size ** (-n / 2)
    ck.close(w["spectral_bound"], bound, "witness spectral bound")
    ck.expect(0 < w["spectral_norm"] <= bound * (1 + 1e-9),
              f"||B|| = {w['spectral_norm']} above the bound {bound}")


def check_search(ck, rep, data):
    rows, cols = data["rows"], data["cols"]
    mats = [np.array(e["matrix"]) for e in rep["matrices"]]
    ck.expect(rep["count"] == len(mats), "count")
    for e, M in zip(rep["matrices"], mats):
        ck.expect(M.shape == (rows, cols) and set(np.unique(M)) <= {-1, 1},
                  "shape or entries")
        ck.expect(not M.sum(axis=0).any() and not M.sum(axis=1).any(),
                  "not strongly balanced")
        rank = int(np.linalg.matrix_rank(M))
        ck.expect(e["rank"] == rank and rank >= data["min_rank"], "rank")
        if data["forbidden"] is not None:
            ck.expect(not contains(M, data["forbidden"], False),
                      "contains the forbidden pattern")
    forms = [canonical(M) for M in mats]
    ck.expect(len(set(forms)) == len(forms),
              "two emitted matrices are equal up to permutation")
    if data["limit"] is not None:
        ck.expect(1 <= len(mats) <= data["limit"], "count against the limit")
    elif rows <= 6 and cols <= 6:
        want = [M for M in balanced_classes(rows, cols)
                if np.linalg.matrix_rank(M) >= data["min_rank"] and
                (data["forbidden"] is None or
                 not contains(M, data["forbidden"], False))]
        ck.expect(len(mats) == len(want),
                  f"{len(mats)} classes emitted, brute force finds "
                  f"{len(want)}")


def check_group(ck, rep, data):
    E, moduli, f = data["entries"], data["moduli"], data["values"]
    order = int(np.prod(moduli))
    C = char_table(moduli)
    X, Y = E.shape
    ck.expect((rep["rows"], rep["cols"], rep["group_order"]) == (X, Y, order),
              "shape")
    counts = np.bincount(E.reshape(-1), minlength=order)
    regular = bool(E.size % order == 0 and (counts == E.size // order).all())
    reg = rep["regularity"]
    ck.expect(reg["regular"] == regular and reg["counts"] == counts.tolist(),
              "regularity")
    rows_ok, cols_ok, diag = pair_invariance(E, moduli)
    ck.expect(reg["diagonal_invariant"] == diag, "diagonal invariance")
    ck.expect(rep["all_pairs_invariant"] == (rows_ok and cols_ok),
              "pair invariance")
    easy = sorted(data["easy"])
    hard = sorted(set(range(order)) - set(easy))
    ck.expect(rep["easy"] == easy and rep["hard"] == hard, "partition")
    row_v, col_v = orth_violations(E, C, hard)
    orth = rep["orthogonality"]
    ck.expect(abs(orth["max_row_violation"] - row_v) <= 1e-8 * Y and
              abs(orth["max_col_violation"] - col_v) <= 1e-8 * X,
              "orthogonality violations")
    passed = row_v <= 1e-8 * Y and col_v <= 1e-8 * X
    ck.expect(orth["passed"] == passed, "orthogonality verdict")
    b = rep["bound"]
    eps = data["eps"]
    delta = span_distance(ck, f, C, easy, moduli) if hard else 0.0
    applicable = regular and passed and bool(hard) and delta - 2 * eps > 0
    ck.expect(b["applicable"] == applicable, "bound applicability")
    if not applicable:
        return
    ck.close(b["intermediates"]["delta"], delta, "delta", 1e-6)
    denom = max(svals(C[i][E])[0] for i in hard)
    ck.close(b["intermediates"]["denominator"], denom, "denominator")
    ck.close(b["main_term"],
             math.log2(math.sqrt(E.size) * (delta - 2 * eps) / denom),
             "general main term", 1e-6)


def check_characters(ck, res, data):
    C = char_table(data["moduli"])
    order = C.shape[0]
    ck.expect(res.h == order and res.order == order, "table shape")
    ck.expect(np.abs(np.asarray(res.table) - C).max() <= 1e-9, "table values")
    ck.expect(list(res.degrees) == [1] * order, "degrees")
    ck.expect(np.array_equal(res.class_of, np.arange(order)), "classes")


def check_degeneration(ck, res, data):
    blocks = data["blocks"]
    E = sign_blocks_map(blocks)
    rows_ok, cols_ok, _ = pair_invariance(E, (2,) * len(blocks))
    balanced = all(not b.sum(axis=0).any() and not b.sum(axis=1).any()
                   for b in blocks)
    ck.expect(res.all_pairs_invariant == (rows_ok and cols_ok), "invariance")
    ck.expect(res.all_blocks_strongly_balanced == balanced, "balance")
    ck.expect(res.equivalent is True and
              (rows_ok and cols_ok) == balanced, "degeneration equivalence")


def check_block_bound(ck, res, data):
    maps, f = data["maps"], data["fvals"]
    tables = [char_table(m) for _, m in maps]
    for (E, moduli), C in zip(maps, tables):
        counts = np.bincount(E.reshape(-1), minlength=C.shape[0])
        row_v, col_v = orth_violations(E, C, range(C.shape[0]))
        ok = (counts == counts[0]).all() and row_v <= 1e-8 * E.shape[1] \
            and col_v <= 1e-8 * E.shape[0]
        ck.expect(bool(ok), "a block fails its structural condition")
    # product characters with at most d non-identity components
    full = np.ones((1, 1), dtype=complex)
    nonid = np.zeros(1, dtype=int)
    for C in tables:
        full = np.kron(C, full)
        nonid = (np.kron((np.arange(C.shape[0]) != 0).astype(int)[:, None],
                         np.ones((nonid.size, 1), dtype=int)).ravel()
                 + np.tile(nonid, C.shape[0]))
    moduli = tuple(m for _, mods in maps for m in mods)

    def err(k):
        return span_distance(ck, f, full, [a for a in range(full.shape[0])
                                           if nonid[a] <= k], moduli)

    t = len(maps)
    d = res.intermediates["d"]
    ck.expect(ck.degree_ok(err, d, 1.0 / 3.0), f"product degree {d}")
    ck.expect(res.applicable == (d < t), "applicability")
    if d >= t:
        return
    terms = []
    for (E, _), C in zip(maps, tables):
        terms.append(min(math.log2(math.sqrt(E.size) / svals(C[c][E])[0])
                         for c in range(1, C.shape[0])))
    ck.expect(np.allclose(res.intermediates["per_block_best_term"], terms,
                          atol=1e-7), "per-block terms")
    best = min(sum(sorted(terms)[:k]) for k in range(d + 1, t + 1))
    ck.close(res.main_term, best, "block main term")


CHECKS = {
    "approx": check_approx, "sherstov": check_sherstov, "disc": check_disc,
    "analyze": check_analyze, "compose": check_compose,
    "search": check_search, "group_check": check_group,
    "characters": check_characters, "degeneration": check_degeneration,
    "block_bound": check_block_bound,
}


def check(ck: Checker, kind: str, result, data) -> list:
    """Run one oracle; returns its failure messages."""
    ck.errors = []
    try:
        CHECKS[kind](ck, result, data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        ck.errors.append(f"malformed result: {exc!r}")
    return list(ck.errors)
