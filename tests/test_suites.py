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
    # operation; the scalar G.add loop is the oracle, order included
    from collections import Counter

    import numpy as np

    from commbound import groupcomp as gc
    from commbound.suites import _orbit_closure, _random_multiset

    rng = np.random.default_rng(3)
    for moduli in ([3], [4], [2, 2], [3, 4, 2], [2, 2, 2]):
        G = gc.AbelianGroupSpec(moduli)
        for _ in range(20):
            cnt = _random_multiset(rng, G.order)
            expected = Counter()
            for s in range(G.order):
                for (a, b), m in cnt.items():
                    expected[(G.add(s, a), G.add(s, b))] += m
            assert list(_orbit_closure(cnt, G).items()) == \
                list(expected.items())
