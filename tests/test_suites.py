"""The batch property suites must all pass with the default seed."""

import pytest

from commbound.suites import ALL_SUITES, run_suites


@pytest.mark.parametrize("name", sorted(ALL_SUITES))
def test_suite_passes(name):
    result = run_suites([name], seed=0)[0]
    assert result.passed, result.failures[:5]
    assert result.checks > 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["bogus"])


def test_orbit_closure_matches_scalar_adds():
    # the closure shifts every pair by every group element in one array
    # operation; the scalar G.add loop is the oracle
    from collections import Counter

    import numpy as np

    from commbound import groupcomp as gc
    from commbound.suites import _orbit_closure, _random_multiset

    rng = np.random.default_rng(3)
    for moduli in ([3], [4], [2, 2], [3, 4, 2], [2, 2, 2]):
        G = gc.AbelianGroupSpec(moduli)
        for _ in range(20):
            T = _random_multiset(rng, G.order)
            expected = Counter()
            for s in range(G.order):
                for a, b, m in T.tolist():
                    expected[(G.add(s, a), G.add(s, b))] += m
            assert _orbit_closure(T, G).tolist() == \
                sorted([a, b, m] for (a, b), m in expected.items())


def test_random_multiset_keeps_its_draws():
    # verify-suite --seed N checks the multisets the Counter version drew:
    # one size draw, then s and t for each pair, in that order
    from collections import Counter

    import numpy as np

    from commbound.suites import _random_multiset

    rng, oracle = np.random.default_rng(4), np.random.default_rng(4)
    for order in (3, 4) * 20:
        T = _random_multiset(rng, order)
        cnt = Counter()
        for _ in range(int(oracle.integers(1, 7))):
            cnt[(int(oracle.integers(order)),
                 int(oracle.integers(order)))] += 1
        assert T.tolist() == sorted([s, t, m] for (s, t), m in cnt.items())
    assert rng.integers(1 << 30) == oracle.integers(1 << 30)
