"""Each library entry point refuses input it cannot use with one ValueError
line that names the problem, before any work starts."""

import math

import numpy as np
import pytest

from commbound import approx as ap
from commbound import boolfn as bf
from commbound import bounds as bd
from commbound import composer as cp
from commbound import groupcomp as gc
from commbound import matrices as mx

T_Z2 = gc.characters_abelian(gc.AbelianGroupSpec([2]))
PLUS_MINUS = [[1, 1], [1, -1]]
WITNESS_OF_3 = ap.DualWitness(v=np.zeros(3), d=1, epsilon=0.5,
                              correlation=0.0, l1=0.0)

# id: (call, pattern its message matches)
REFUSALS = {
    "group order past the cap": (
        lambda: gc.AbelianGroupSpec([2] * 15),
        r"group order 32768 exceeds cap 16384"),
    "character table shape": (
        lambda: gc.CharacterTable(2, 2, [[1, 1]], [0, 1], [1, 1]),
        r"character table must be 2x2"),
    "character class out of range": (
        lambda: gc.CharacterTable(2, 2, PLUS_MINUS, [0, 2], [1, 1]),
        r"class_of must map each element to a class index"),
    "character degree below 1": (
        lambda: gc.CharacterTable(2, 2, PLUS_MINUS, [0, 1], [1, 0]),
        r"degrees must be positive"),
    "group map not 2-D": (
        lambda: gc.GroupMapMatrix([0, 1], order=2),
        r"group map must be 2-dimensional and non-empty"),
    "group map with no rows": (
        lambda: gc.GroupMapMatrix(np.zeros((0, 2), int), order=2),
        r"group map must be 2-dimensional and non-empty"),
    "group map with no columns": (
        lambda: gc.GroupMapMatrix(np.zeros((2, 0), int),
                                  gc.AbelianGroupSpec([2])),
        r"group map must be 2-dimensional and non-empty"),
    "group map without a group or order": (
        lambda: gc.GroupMapMatrix([[0, 1]]),
        r"either a group or an explicit order is required"),
    "group map entry out of range": (
        lambda: gc.GroupMapMatrix([[0, 2]], order=2),
        r"entries must be valid element indices"),
    "class function not finite": (
        lambda: gc.check_class_function([0.0, math.nan], T_Z2),
        r"class-function values must be finite"),
    "distance to easy of the wrong length": (
        lambda: gc.distance_to_easy([0.0] * 3, T_Z2, [0]),
        r"f must assign one real value per group element"),
    "product degree epsilon outside [0, 1)": (
        lambda: gc.product_approx_degree([0.0, 1.0], [T_Z2], 1.0),
        r"epsilon must lie in \[0, 1\), got 1.0"),
    "discrepancy shapes differ": (
        lambda: bd.discrepancy(mx.XOR_2, mx.DistributionMatrix(
            np.full((1, 2), 0.5))),
        r"matrix and distribution dimensions must match"),
    "containment mode unknown": (
        lambda: mx.contains_pattern(mx.XOR_2, mx.XOR_2, "sideways"),
        r"unknown containment mode 'sideways'"),
    "balanced search side not positive": (
        lambda: next(mx.search_strongly_balanced(0, 4)),
        r"dimensions must be positive"),
    "balanced search side odd": (
        lambda: next(mx.search_strongly_balanced(4, 3)),
        r"strongly balanced sign matrices need even dimensions: got 4x3"),
    "distribution not 2-D": (
        lambda: mx.DistributionMatrix([0.5, 0.5]),
        r"probability distribution must be a 2-d array"),
    "chebyshev values not finite": (
        lambda: ap.chebyshev([0.0, math.inf], [[1.0, 1.0]]),
        r"values to approximate must be finite"),
    "builtin at arity 0": (
        lambda: bf.builtin_function("AND", 0),
        r"arity must be at least 1"),
    "point function of the wrong length": (
        lambda: bf.wht([0.0] * 3),
        r"a spectrum has length 2\^n, got shape \(3,\)"),
    "spectrum of the wrong length": (
        lambda: bf.iwht(np.zeros(6)),
        r"a spectrum has length 2\^n, got shape \(6,\)"),
    "witness of the wrong length": (
        lambda: ap.verify_dual(WITNESS_OF_3, bf.builtin_function("AND", 2)),
        r"a spectrum has length 2\^n, got shape \(3,\)"),
    "witness matrix of a witness of the wrong length": (
        lambda: cp.build_witness(WITNESS_OF_3, mx.PATTERN_CORE_4),
        r"a spectrum has length 2\^n, got shape \(3,\)"),
    "Boolean function value not an integer": (
        lambda: bf.BoolFunction(1, [1.9, -1.5]),
        r"Boolean function values must be -1 or \+1"),
    "sign matrix entry not an integer": (
        lambda: mx.SignMatrix([[1.7, -1.2], [-1.0, 1.0]]),
        r"sign matrix entries must be -1 or \+1"),
    "group map entry not an integer": (
        lambda: gc.GroupMapMatrix([[0.5, 1.2]], order=2),
        r"entries must be valid element indices"),
    "modulus not an integer": (
        lambda: gc.AbelianGroupSpec([2.5, 3.9]),
        r"every modulus must be an integer >= 2"),
    "shizhu epsilon0 outside (0, 1)": (
        lambda: bd.shizhu_bound(bf.builtin_function("PARITY", 2), mx.XOR_2,
                                mx.DistributionMatrix(np.full((2, 2), 0.25)),
                                1.0),
        r"epsilon0 must lie in \(0, 1\), got 1.0"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_is_one_line_naming_the_problem(case):
    call, pattern = REFUSALS[case]
    with pytest.raises(ValueError, match=pattern) as info:
        call()
    assert info.type is ValueError
    assert "\n" not in str(info.value)


def test_integral_floats_are_accepted():
    # the checks read the given values, so 1.0 passes where 1.7 does not
    assert bf.BoolFunction(1, [1.0, -1.0]) == bf.BoolFunction(1, [1, -1])
    signs = mx.SignMatrix([[1.0, -1.0]]).entries
    assert signs.dtype == np.int64 and signs.tolist() == [[1, -1]]
    elements = gc.GroupMapMatrix([[1.0, 0.0]], order=2).entries
    assert elements.dtype == np.int64 and elements.tolist() == [[1, 0]]
    spec = gc.AbelianGroupSpec([2.0, np.int64(3)])
    assert spec == gc.AbelianGroupSpec([2, 3]) and spec.moduli == (2, 3)
