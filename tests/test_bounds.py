"""Discrepancy, norm enclosures, and the lower-bound evaluators."""

import functools
import math

import numpy as np
import pytest

from commbound import bounds as bd
from commbound import composer as cp
from commbound import matrices as mx
from commbound.approx import dual_polynomial
from commbound.boolfn import BoolFunction, builtin_function
from commbound.errors import ResourceLimitError

CORE4 = mx.PATTERN_CORE_4
CORE6 = mx.CORE_FREE_6
U = bd.DistributionMatrix.uniform


def _no_enumeration(*args):
    raise AssertionError("discrepancy enumerated")


def brute_force_disc(A, P):
    """Independent oracle: enumerate both subset sides."""
    W = A.entries * P.weights
    m, n = W.shape
    best = 0.0
    for xb in range(2 ** m):
        x = np.array([(xb >> i) & 1 for i in range(m)], dtype=float)
        for yb in range(2 ** n):
            y = np.array([(yb >> j) & 1 for j in range(n)], dtype=float)
            best = max(best, abs(x @ W @ y))
    return best


def test_distribution_validation():
    with pytest.raises(ValueError):
        bd.DistributionMatrix([[0.5, -0.1], [0.3, 0.3]])
    with pytest.raises(ValueError):
        bd.DistributionMatrix([[0.3, 0.3], [0.3, 0.3]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            bd.DistributionMatrix([[0.25, 0.25], [0.25, bad]])
    d = U(2, 2)
    assert d.weights.sum() == pytest.approx(1.0)


def test_distribution_text_rows_match_the_header():
    text = "2 2\n0.25 0.25\n0.25 0.25\n"
    assert bd.DistributionMatrix.from_text(text).weights.shape == (2, 2)
    # rows past the header's count are refused, not dropped
    for extra in ("0.25 0.25\n", "0 0 0\n"):
        with pytest.raises(ValueError):
            bd.DistributionMatrix.from_text(text + extra)
    # the sign-matrix grid reader, with its errors naming the format
    for bad, words in (("", "header"), ("2 2 2\n" + text[4:], "header"),
                       ("2 x\n" + text[4:], "header"),
                       ("2 2\n0.25\n0.25 0.25 0.25\n", "tokens per row"),
                       ("2 2\n0.25 abc\n0.25 0.25\n", "token 'abc'")):
        with pytest.raises(ValueError, match="distribution") as err:
            bd.DistributionMatrix.from_text(bad)
        assert words in str(err.value), bad
    assert mx.DistributionMatrix is bd.DistributionMatrix


def test_disc_frozen_values():
    assert bd.uniform_discrepancy(mx.HADAMARD_2) == pytest.approx(0.5)
    assert bd.uniform_discrepancy(mx.all_ones(3, 5)) == pytest.approx(1.0)
    assert bd.uniform_discrepancy(CORE4) == pytest.approx(0.125)
    assert bd.uniform_discrepancy(CORE6) == pytest.approx(1.0 / 9.0)
    assert bd.uniform_discrepancy(mx.XOR_2) == pytest.approx(0.25)


def test_disc_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(25):
        A = mx.SignMatrix(rng.choice((-1, 1), size=(rng.integers(1, 6),
                                                    rng.integers(1, 6))))
        P = U(A.rows, A.cols)
        assert bd.discrepancy(A, P) == pytest.approx(brute_force_disc(A, P),
                                                     abs=1e-12)


def test_disc_nonuniform():
    rng = np.random.default_rng(29)
    A = mx.SignMatrix(rng.choice((-1, 1), size=(4, 4)))
    w = rng.random((4, 4))
    P = bd.DistributionMatrix(w / w.sum())
    assert bd.discrepancy(A, P) == pytest.approx(brute_force_disc(A, P),
                                                 abs=1e-12)


def all_subsets(k):
    return (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1


def test_disc_matches_all_subset_pairs():
    """Non-uniform P against |x (A*P) y| over every row and column subset
    pair at once.  The 13- and 14-row shapes are enumerated transposed;
    their last rows carry most of the mass, so the optimum needs them."""
    rng = np.random.default_rng(47)
    for m, n in [(1, 3), (4, 1), (7, 6), (10, 5), (10, 9), (13, 4), (14, 5)]:
        A = mx.SignMatrix(rng.choice((-1, 1), size=(m, n)))
        w = rng.random((m, n))
        w[12:] *= 50
        P = bd.DistributionMatrix(w / w.sum())
        W = A.entries * P.weights
        expect = np.abs(all_subsets(m) @ W @ all_subsets(n).T).max()
        assert bd.discrepancy(A, P) == pytest.approx(
            expect, rel=0, abs=A.size * np.finfo(float).eps)


def test_disc_past_one_block_of_subsets():
    """Both sides above 12 run more than one block of row subsets, and the
    last rows carry most of the mass.  The oracle enumerates the column
    subsets instead, each with its best row subset in closed form."""
    rng = np.random.default_rng(53)
    for m, n in [(13, 13), (14, 13), (14, 14)]:
        A = mx.SignMatrix(rng.choice((-1, 1), size=(m, n)))
        w = rng.random((m, n))
        w[12:] *= 50
        P = bd.DistributionMatrix(w / w.sum())
        sums = A.entries * P.weights @ all_subsets(n).T
        expect = max(np.clip(sums, 0, None).sum(axis=0).max(),
                     -np.clip(sums, None, 0).sum(axis=0).min())
        assert bd.discrepancy(A, P) == pytest.approx(
            expect, rel=0, abs=A.size * np.finfo(float).eps)


def test_disc_enumerates_the_shorter_side():
    # disc(A, P) = disc(A^T, P^T): a tall input is enumerated transposed
    rng = np.random.default_rng(59)
    for _ in range(40):
        m = int(rng.integers(9, 21))
        n = int(rng.integers(1, 7))
        A = mx.SignMatrix(rng.choice((-1, 1), size=(m, n)))
        w = rng.random((m, n))
        P = bd.DistributionMatrix(w / w.sum())
        At = mx.SignMatrix(A.entries.T)
        Pt = bd.DistributionMatrix(P.weights.T)
        assert bd.discrepancy(A, P) == pytest.approx(
            bd.discrepancy(At, Pt), rel=1e-12, abs=1e-15)
    # 2^2 subsets of 26 x 2, far below the cap of 2^24
    tall = mx.SignMatrix(np.tile([[1, -1], [-1, 1]], (13, 1)))
    assert bd.uniform_discrepancy(tall) == pytest.approx(0.25)


def test_disc_enumeration_cap():
    big = mx.all_ones(25, 25)
    with pytest.raises(ResourceLimitError, match="2\\^25 subsets"):
        bd.discrepancy(big, U(25, 25))


def test_disc_spectral_upper_bound_corpus():
    rng = np.random.default_rng(31)
    for _ in range(200):
        A = mx.SignMatrix(rng.choice((-1, 1), size=(rng.integers(1, 11),
                                                    rng.integers(1, 11))))
        disc = bd.uniform_discrepancy(A)
        assert disc <= mx.spectrum(A).spectral_norm / math.sqrt(A.size) + 1e-9


def test_shaltiel_examples_and_corpus():
    rep = bd.shaltiel_verify(mx.HADAMARD_2)
    assert rep.lhs == pytest.approx((1 / math.sqrt(2)) ** 3 / 108)
    assert rep.disc == pytest.approx(0.5) and rep.ok
    rep = bd.shaltiel_verify(mx.all_ones(2, 2))
    assert rep.lhs == pytest.approx(1 / 108) and rep.ok
    rng = np.random.default_rng(37)
    for _ in range(200):
        A = mx.SignMatrix(rng.choice((-1, 1), size=(rng.integers(1, 11),
                                                    rng.integers(1, 11))))
        assert bd.shaltiel_verify(A).ok


def test_gamma2_star_interval():
    # the spectral end sqrt(mn) ||A*P|| is the smaller one on both
    for A, want in ((mx.HADAMARD_2, (0.5, 0.707107)),
                    (mx.all_ones(2, 2), (1.0, 1.0))):
        lo, hi = bd.gamma2_star_interval(A, U(2, 2))
        assert (lo, hi) == pytest.approx(want)
        assert bd.uniform_discrepancy(A) <= lo <= hi


def brute_force_pm1_norm(W):
    """Independent oracle: max over +-1 row vectors x of sum_y |(x W)_y|,
    the +-1 norm, itself a lower bound on gamma2*."""
    m = W.shape[0]
    x = 1 - 2 * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)
    return float(np.abs(x @ W).sum(axis=1).max())


def test_gamma2_star_high_encloses_the_pm1_norm():
    rng = np.random.default_rng(59)
    cases = [(A, U(A.rows, A.cols)) for A in
             (mx.XOR_2, mx.HADAMARD_2, CORE4, CORE6)]
    for m in (1, 3, 5, 8, 12):
        n = int(rng.integers(1, 13))
        A = mx.SignMatrix(rng.choice((-1, 1), size=(m, n)))
        w = rng.random((m, n))
        cases += [(A, U(m, n)), (A, bd.DistributionMatrix(w / w.sum()))]
    for A, P in cases:
        W = A.entries * P.weights
        lo, hi = bd.gamma2_star_interval(A, P)
        assert lo <= brute_force_pm1_norm(W) <= hi + 1e-12
        assert hi <= math.sqrt(A.size) * np.linalg.norm(W, 2) + 1e-12


def test_gamma2_star_high_is_at_least_the_duality_floor():
    # for any A and P, <A, A*P> = 1 and duality with gamma2 give
    # gamma2*(A*P) >= 1/gamma2(A) >= 1/sqrt(min(m, n)); an upper end below
    # this floor is unsound, as K_G * disc was
    rng = np.random.default_rng(61)
    cases = [(mx.tensor(CORE6, CORE4), U(24, 24))]
    for _ in range(40):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        A = mx.SignMatrix(rng.choice((-1, 1), size=(m, n)))
        w = rng.random((m, n)) ** 4
        cases += [(A, U(m, n)), (A, bd.DistributionMatrix(w / w.sum()))]
    for A, P in cases:
        floor = 1 / math.sqrt(min(A.rows, A.cols))
        assert bd.gamma2_star_interval(A, P)[1] >= floor - 1e-12, A.entries
    # so any threshold of at most 1/(2e), as d/(2en) is, stays below the
    # floor up to 29 rows and columns; from 30 on, both sides are past the
    # enumeration cap of 24, where disc, and so the lower end, is refused
    assert 1 / (2 * math.e) < 1 / math.sqrt(29)
    assert 1 / (2 * math.e) >= 1 / math.sqrt(30)
    assert bd.ENUMERATION_CAP < 29


def test_spectral_disc_certificate():
    cert = bd.SpectralDiscCert((0, 1), (0, 1), U(2, 2), r=1.0)
    rep = bd.verify_spectral_disc(mx.XOR_2, cert)
    assert rep.balanced
    assert rep.cond2_ok and rep.cond3_ok
    # ||XOR*U|| = 1/2, so the minimal r for this pair is sqrt(4)/2 = 1
    assert rep.minimal_r == pytest.approx(1.0, abs=1e-9)
    # uniform mu satisfies condition (3) automatically
    assert rep.cond3_value <= (1 + rep.minimal_r) / 2 + 1e-9


def test_spectral_disc_unbalanced_mu():
    cert = bd.SpectralDiscCert((0, 1), (0, 1), U(2, 2), r=1.0)
    rep = bd.verify_spectral_disc(mx.all_ones(2, 2), cert)
    assert not rep.balanced


def test_spectral_disc_bad_indices():
    with pytest.raises(ValueError):
        bd.verify_spectral_disc(mx.XOR_2,
                                bd.SpectralDiscCert((0, 5), (0, 1), U(2, 2), 1.0))


def test_approx_trace_lower_hand_value():
    # B = A/size for the 2x2 Walsh matrix: <A,B> = 1, ||B||_1 = 1,
    # ||B|| = sqrt(2)/4, so the
    # zero-epsilon bound is 4/sqrt(2) = 2 sqrt(2)
    A = mx.HADAMARD_2
    B = cp.WitnessMatrix(B=A.entries / 4.0, l1=1.0, correlation=1.0,
                         spectral_norm=mx.spectrum(A.entries / 4.0).spectral_norm)
    r = bd.approx_trace_lower(A, B, 0.0)
    assert r.trace_lb == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert r.gamma2_lb == pytest.approx(math.sqrt(2), abs=1e-9)
    assert r.qcc_main_term == pytest.approx(0.5, abs=1e-9)


def test_approx_trace_lower_vacuous_at_eps_one():
    f = builtin_function("PARITY", 2)
    w = dual_polynomial(f, 1.0 / 3.0)
    W = cp.build_witness(w, CORE4)
    M = cp.compose_block(f, CORE4).matrix
    r = bd.approx_trace_lower(M, W, 1.0)
    assert r.trace_lb <= 0 and not r.applicable and r.qcc_main_term is None


def test_chain_inequality():
    eps0 = 1.0 / 3.0
    for name in ("PARITY", "AND", "OR"):
        f = builtin_function(name, 2)
        w = dual_polynomial(f, eps0)
        for g in (CORE4, CORE6):
            W = cp.build_witness(w, g)
            M = cp.compose_block(f, g).matrix
            r = bd.approx_trace_lower(M, W, eps0 / 2.0)
            rhs = (math.sqrt(g.size)
                   / mx.spectrum(g).spectral_norm) ** w.d / 12.0
            assert r.gamma2_lb + 1e-8 >= rhs


def test_sherstov_bound_headline_value():
    rep = bd.sherstov_bound(builtin_function("PARITY", 2), CORE4, 1.0 / 3.0)
    assert rep.applicable
    assert rep.main_term == pytest.approx(1.0, abs=1e-6)
    assert rep.intermediates["d"] == 2
    assert rep.intermediates["ratio"] == pytest.approx(math.sqrt(2))


def test_sherstov_bound_core6():
    rep = bd.sherstov_bound(builtin_function("PARITY", 2), CORE6, 1.0 / 3.0)
    assert rep.main_term == pytest.approx(math.log2(3), abs=1e-9)


def test_sherstov_bound_rank_one_warning():
    rep = bd.sherstov_bound(builtin_function("PARITY", 2), mx.XOR_2, 1.0 / 3.0)
    assert rep.applicable
    assert rep.main_term == 0.0  # ||XOR_2|| = 2 = sqrt(size) exactly
    assert any("rank 1" in w for w in rep.warnings)


def test_sherstov_bound_constant_function():
    rep = bd.sherstov_bound(BoolFunction(2, [1, 1, 1, 1]), CORE4, 1.0 / 3.0)
    assert rep.main_term == pytest.approx(0.0)
    assert rep.intermediates["d"] == 0


def test_sherstov_bound_preconditions():
    rep = bd.sherstov_bound(builtin_function("PARITY", 2), mx.HADAMARD_2,
                            1.0 / 3.0)
    assert not rep.applicable and rep.main_term is None
    with pytest.raises(ValueError):
        bd.sherstov_bound(builtin_function("PARITY", 2), CORE4, 0.0)


def test_disc_bound_values():
    rep = bd.disc_bound(builtin_function("PARITY", 2), CORE4)
    # disc_U = 1/8, log2(8) - 7 = -4: vacuous, reported as-is with a warning
    assert rep.main_term == pytest.approx(2 * (3 - 7) / 3)
    assert any("vacuous" in w for w in rep.warnings)
    # degree 0 times a negative log term is 0.0, never -0.0
    for const in (BoolFunction(2, [1, 1, 1, 1]), BoolFunction(0, [1])):
        rep = bd.disc_bound(const, CORE4)
        assert rep.main_term == 0.0 and math.copysign(1, rep.main_term) == 1
    rep = bd.disc_bound(builtin_function("AND", 2), mx.HADAMARD_2)
    assert not rep.applicable and rep.main_term is None
    assert rep.warnings[-1] == "inner matrix is not strongly balanced"


def test_shizhu_bound_small_instance(monkeypatch):
    # frozen pipeline values: the duality floor 1/sqrt(2) exceeds the
    # threshold d/(2 e n) = 2/(4e) ~ 0.1839 for every mu, so the condition
    # fails before any subset is enumerated; it needs (2e)^2 ~ 29.6 lines
    monkeypatch.setattr(bd, "discrepancy", _no_enumeration)
    f = builtin_function("PARITY", 2)
    rep = bd.shizhu_bound(f, mx.XOR_2, U(2, 2), 1.0 / 3.0)
    assert not rep.applicable
    assert rep.intermediates["gamma2_star_floor"] == pytest.approx(2 ** -0.5)
    assert rep.intermediates["threshold"] == pytest.approx(2 / (4 * math.e))
    assert rep.intermediates["gap"] == pytest.approx(
        2 ** -0.5 - 2 / (4 * math.e))
    assert "gamma2_star_high" not in rep.intermediates
    assert rep.warnings[-1].endswith("needs at least 30 rows and columns")


def test_shizhu_bound_passing_instance(monkeypatch):
    # the condition can pass only from 30 rows and columns on; below, the
    # floor refuses first and the report stays consistent with it.  Past
    # the floor it is decided on sqrt(mn) ||M_g * mu|| without enumerating
    monkeypatch.setattr(bd, "discrepancy", _no_enumeration)
    f = builtin_function("PARITY", 1)
    for side in (2, 4, 24, 28):
        g = mx.SignMatrix(np.tile(mx.XOR_2.entries, (side // 2, side // 2)))
        rep = bd.shizhu_bound(f, g, U(side, side), 1.0 / 3.0)
        assert rep.applicable == (rep.intermediates["gamma2_star_floor"]
                                  <= rep.intermediates["threshold"])
        assert not rep.applicable and rep.main_term is None
        assert "gamma2_star_high" not in rep.intermediates
    # PARITY:k has degree k, so d/(2en) = 1/(2e) ~ 0.1839 throughout
    threshold = 1 / (2 * math.e)
    parity3 = builtin_function("PARITY", 3)
    tiles = mx.SignMatrix(np.tile(mx.XOR_2.entries, (15, 15)))
    g32 = functools.reduce(mx.tensor, [mx.HADAMARD_2] * 3, CORE4)
    # the 30 x 30 tiling has rank 1, so its end is 1.0; core4 (x) h2^(x)3
    # passes the floor 1/sqrt(32) ~ 0.1768 but its end is 0.25
    for g, high in ((tiles, 1.0), (g32, 0.25)):
        rep = bd.shizhu_bound(parity3, g, U(g.rows, g.cols), 1.0 / 3.0)
        assert not rep.applicable and rep.main_term is None
        assert rep.intermediates["gamma2_star_floor"] <= threshold
        assert rep.intermediates["gamma2_star_high"] == pytest.approx(high)
        assert rep.intermediates["gap"] == pytest.approx(high - threshold)
        assert rep.warnings[-1].startswith("condition not established")
    # core4 (x) h2^(x)4 under the uniform mu: the end 2^(-5/2) ~ 0.1768
    # is below the threshold, so the degree main term applies
    g = mx.tensor(g32, mx.HADAMARD_2)
    mu = U(64, 64)
    rep = bd.shizhu_bound(parity3, g, mu, 1.0 / 3.0)
    assert rep.applicable and rep.main_term == 3.0
    high = rep.intermediates["gamma2_star_high"]
    assert high == pytest.approx(2 ** -2.5, abs=1e-12)
    assert high == pytest.approx(
        64 * np.linalg.norm(g.entries * mu.weights, 2), abs=1e-12)


def test_shizhu_degenerate_degree_zero():
    const = BoolFunction(2, [1, 1, 1, 1])
    rep = bd.shizhu_bound(const, mx.XOR_2, U(2, 2), 1.0 / 3.0)
    assert not rep.applicable
    assert rep.warnings[-1].endswith("cannot hold at degree 0")


def test_shizhu_refuses_an_outer_function_of_no_inputs():
    # n = 0 leaves the threshold d/(2en) undefined
    rep = bd.shizhu_bound(BoolFunction(0, [1]), mx.XOR_2, U(2, 2), 1.0 / 3.0)
    assert not rep.applicable and rep.main_term is None
    assert any("no inputs" in w for w in rep.warnings)


def test_shizhu_requires_balanced_mu():
    f = builtin_function("PARITY", 2)
    with pytest.raises(ValueError):
        bd.shizhu_bound(f, mx.all_ones(2, 2), U(2, 2), 1.0 / 3.0)


def test_main_term_permutation_invariance():
    rng = np.random.default_rng(41)
    f = builtin_function("PARITY", 2)
    base = bd.sherstov_bound(f, CORE4, 1.0 / 3.0).main_term
    for _ in range(20):
        P = mx.SignMatrix(CORE4.entries[rng.permutation(4)][:, rng.permutation(4)])
        assert bd.sherstov_bound(f, P, 1.0 / 3.0).main_term == \
            pytest.approx(base, abs=1e-9)
