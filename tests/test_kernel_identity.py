"""The integer-weight entropy kernel is bit-identical to the exact-rational one.

The reference below is the Fraction formulation of the kernel: cells are
normalized to Fraction probabilities, marginals and slice masses add
Fractions, and each entropy term is float(p) * (log2(den) - log2(num)) on
the reduced rational. Every comparison is float `==`, not approx.
"""
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainlab import InvalidParameterError, JointTable, binary_entropy, conditional_entropy, entropy
from chainlab.info_theory import binary_entropy_ratio


def ref_cells(weights):
    total = sum(weights.values())
    return {k: Fraction(w, total) for k, w in weights.items() if w}


def ref_term_bits(p):
    if p == 0:
        return 0.0
    return float(p) * (math.log2(p.denominator) - math.log2(p.numerator))


def ref_entropy(cells):
    return math.fsum(ref_term_bits(p) for p in cells.values())


def ref_marginal(cells, pos):
    out = {}
    for values, p in cells.items():
        key = tuple(values[i] for i in pos)
        out[key] = out.get(key, 0) + p
    return out


def ref_conditional_entropy(cells, target_pos, given_pos):
    slices = {}
    for values, p in cells.items():
        cond = slices.setdefault(tuple(values[i] for i in given_pos), {})
        v = values[target_pos]
        cond[v] = cond[v] + p if v in cond else p
    terms = []
    for cond in slices.values():
        weight = sum(cond.values())
        w = float(weight)
        for p in cond.values():
            terms.append(w * ref_term_bits(p / weight))
    return math.fsum(terms)


def ref_binary_entropy(x):
    return ref_term_bits(x) + ref_term_bits(1 - x)


@st.composite
def weighted_tables(draw):
    """Integer weights over 2-4 variables with alphabets of 1-3 values; many
    cells are zero, so single-cell slices are common."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    cells = list(product(*(range(s) for s in sizes)))
    weight = st.one_of(st.just(0), st.integers(1, 12), st.integers(1, 10**9))
    weights = dict(zip(cells, draw(st.lists(weight, min_size=len(cells), max_size=len(cells)))))
    if not any(weights.values()):
        weights[draw(st.sampled_from(cells))] = draw(st.integers(1, 10**9))
    labels = tuple(f"v{i}" for i in range(len(sizes)))
    target = draw(st.integers(0, len(sizes) - 1))
    others = [i for i in range(len(sizes)) if i != target]
    given_pos = draw(st.permutations(others).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda m: tuple(order[:m]))))
    return labels, weights, target, given_pos


@given(weighted_tables())
def test_joint_table_kernel_is_bit_identical(case):
    labels, weights, target, given_pos = case
    table = JointTable.from_weights(labels, weights)
    cells = ref_cells(weights)
    assert table.entries == cells
    assert entropy(table) == ref_entropy(cells)
    given_names = tuple(labels[i] for i in given_pos)
    assert conditional_entropy(table, labels[target], given_names) == ref_conditional_entropy(
        cells, target, given_pos)
    kept = given_pos + (target,)
    marginal = table.marginal(tuple(labels[i] for i in kept))
    assert entropy(marginal) == ref_entropy(ref_marginal(cells, kept))


@given(st.integers(1, 10**12).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b))))
def test_binary_entropy_is_bit_identical(ab):
    a, b = ab
    expected = ref_binary_entropy(Fraction(a, b))
    assert binary_entropy(Fraction(a, b)) == expected
    assert binary_entropy_ratio(a, b) == expected
    assert binary_entropy_ratio(3 * a, 3 * b) == expected


@pytest.mark.parametrize("weights", [{(0, 0): 3, (1, 0): -1}, {(0, 0): 0}, {(0, 0): 1.5}])
def test_bad_weights_rejected(weights):
    with pytest.raises(InvalidParameterError):
        JointTable.from_weights(("x", "y"), weights)


def test_binary_entropy_ratio_domain():
    with pytest.raises(InvalidParameterError):
        binary_entropy_ratio(3, 2)
