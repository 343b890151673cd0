import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from chainlab import (
    InvalidParameterError,
    JointTable,
    binary_entropy,
    binomial_anticoncentration,
    log_binomial,
)
from chainlab import info_theory
from chainlab.info_theory import binary_slice_entropies, binomial_bound_verdicts, total_variation

from util import ref_cells, ref_conditional_entropy, ref_entropy, ref_marginal

TOL = 1e-9


def random_cells(rng: random.Random, sizes: tuple[int, ...]) -> dict:
    """Fraction cells of a random joint law over small alphabets."""
    cells = list(product(*(range(s) for s in sizes)))
    weights = {cell: rng.randint(0, 8) for cell in cells}
    if sum(weights.values()) == 0:
        weights[cells[0]] = 1
    return ref_cells(weights)


def class_entropy(weights) -> float:
    """H(class) of classes with these integer weights, all under answer 0."""
    return binary_slice_entropies({}, Counter((w, 0) for w in weights), (1, 1))[1]


def answer_entropy_given_slice(pairs) -> float:
    """H(answer | slice) of slices with these (answer 0, answer 1) weights."""
    total = tuple(map(sum, zip(*pairs)))
    return binary_slice_entropies(Counter(pairs), Counter([total]), (1, 1))[0]


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_two_thirds(self):
        value = binary_entropy(Fraction(2, 3))
        assert value <= 24 / 25
        assert value == pytest.approx(0.9182958340544896, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(InvalidParameterError):
            binary_entropy(1.5)

    def test_symmetry(self):
        for x in (Fraction(1, 3), Fraction(1, 10), 0.42):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)


class TestEntropy:
    def test_uniform_six(self):
        assert class_entropy([1] * 6) == pytest.approx(math.log2(6), abs=TOL)

    def test_point_mass(self):
        assert class_entropy([1, 0]) == 0.0

    def test_quarter_three_quarters(self):
        # direct evaluation of the binary entropy formula
        expected = 0.25 * math.log2(4) + 0.75 * math.log2(4 / 3)
        assert class_entropy([1, 3]) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_log_support(self):
        rng = random.Random(0)
        for _ in range(50):
            weights = [rng.randint(0, 8) for _ in range(6)]
            weights[0] += not any(weights)
            h = class_entropy(weights)
            assert -TOL <= h <= math.log2(sum(map(bool, weights))) + TOL


class TestTotalVariation:
    def test_same_law_different_totals_is_exact_zero(self):
        a = JointTable.from_weights(("x",), {(0,): 1, (1,): 3})
        b = JointTable.from_weights(("x",), {(0,): 5, (1,): 15})
        distance = total_variation(a, b)
        assert distance == 0
        assert isinstance(distance, Fraction)

    def test_different_laws_give_exact_distance(self):
        # (1/4, 3/4, 0) against (1/3, 1/3, 1/3): half of 1/12 + 5/12 + 1/3
        a = JointTable.from_weights(("x",), {(0,): 1, (1,): 3})
        b = JointTable.from_weights(("x",), {(0,): 1, (1,): 1, (2,): 1})
        assert total_variation(a, b) == Fraction(5, 12)
        assert total_variation(b, a) == Fraction(5, 12)


class TestConditionalEntropy:
    """Binary-answer cases read H(answer | slice) from the slice function;
    the chain rule and subadditivity hold for the Fraction reference."""

    def test_independent_equals_marginal(self):
        # answer a uniform bit, slice uniform over 3 values, independent
        lhs = answer_entropy_given_slice([(1, 1)] * 3)
        assert lhs == pytest.approx(binary_entropy(Fraction(1, 2)), abs=TOL)

    def test_determined_is_zero(self):
        assert answer_entropy_given_slice([(1, 0), (0, 1)]) == pytest.approx(0.0, abs=TOL)

    def test_three_point_joint(self):
        # uniform on {(0,0),(0,1),(1,0)}: slices H(X|Y=0)=1, H(X|Y=1)=0, weights 2/3, 1/3
        assert answer_entropy_given_slice([(1, 1), (1, 0)]) == pytest.approx(2 / 3, abs=TOL)

    def test_conditioning_reduces_entropy(self):
        rng = random.Random(1)
        for _ in range(100):
            pairs = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(4)]
            pairs[0] = (pairs[0][0] + 1, pairs[0][1])
            w0, w1 = map(sum, zip(*pairs))
            assert answer_entropy_given_slice(pairs) <= binary_entropy(Fraction(w1, w0 + w1)) + TOL

    def test_chain_rule_exact(self):
        rng = random.Random(2)
        for _ in range(100):
            cells = random_cells(rng, (3, 3))
            h_x = ref_entropy(ref_marginal(cells, (0,)))
            h_y_given_x = ref_conditional_entropy(cells, 1, (0,))
            assert ref_entropy(cells) == pytest.approx(h_x + h_y_given_x, abs=TOL)

    def test_subadditivity(self):
        rng = random.Random(3)
        for _ in range(100):
            cells = random_cells(rng, (3, 3))
            marginals = ref_entropy(ref_marginal(cells, (0,))) + ref_entropy(ref_marginal(cells, (1,)))
            assert ref_entropy(cells) <= marginals + TOL


class TestFano:
    """Fano's inequality for a binary answer: H(X | Y) <= H2(error) for any
    estimator of X from Y."""

    def test_zero_error(self):
        assert binary_entropy(0) == 0.0

    def test_symmetry_point(self):
        assert binary_entropy(Fraction(1, 3)) == pytest.approx(binary_entropy(Fraction(2, 3)), abs=1e-12)

    def test_domain(self):
        for error in (Fraction(-1, 4), Fraction(3, 2)):
            with pytest.raises(InvalidParameterError):
                binary_entropy(error)

    def test_every_deterministic_estimator(self):
        # exhaustive check on a small joint: every estimator g(Y) leaves
        # H(X|Y) <= H2(error); past error 1/2 the complement of g is the witness
        pairs = [(5, 1), (1, 4), (2, 1)]  # (x = 0, x = 1) weights at y = 0, 1, 2
        h_x_given_y = answer_entropy_given_slice(pairs)
        for g in product((0, 1), repeat=3):
            error = Fraction(sum(pair[1 - g[y]] for y, pair in enumerate(pairs)), 14)
            assert h_x_given_y <= binary_entropy(error) + TOL


class TestLogBinomial:
    def test_small(self):
        assert log_binomial(4, 2) == pytest.approx(math.log2(6), abs=1e-12)

    def test_edge_zero(self):
        assert log_binomial(7, 0) == 0.0

    def test_16_choose_8(self):
        assert math.comb(16, 8) == 12870
        assert log_binomial(16, 8) == pytest.approx(math.log2(12870), abs=1e-12)

    def test_symmetry(self):
        for p in (5, 9, 16, 33):
            for q in range(p + 1):
                assert log_binomial(p, q) == log_binomial(p, p - q)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            log_binomial(4, 5)


class TestBinomialEntropyBounds:
    @pytest.mark.parametrize("p,q", [(16, 8), (1024, 512), (2, 1), (16, 1), (100, 37)])
    def test_corrected_form_passes(self, p, q):
        verdicts = binomial_bound_verdicts(p, q)
        assert verdicts.passed
        assert verdicts.lower_pass and verdicts.upper_pass

    def test_printed_form_fails_when_skewed(self):
        # with the square root numerator bound to 2q the upper bound drops
        # below the true coefficient away from the middle
        verdicts = binomial_bound_verdicts(16, 1)
        assert verdicts.printed_form_upper_pass is False
        assert not verdicts.printed_form_pass

    def test_printed_form_matches_at_middle(self):
        assert binomial_bound_verdicts(64, 32).printed_form_pass

    def test_precondition(self):
        for q in (0, 4):
            with pytest.raises(InvalidParameterError):
                binomial_bound_verdicts(4, q)

    def test_verdicts_are_the_reports_verdicts(self):
        # every primary verdict passes; the printed form fails somewhere, not everywhere
        printed_failures = 0
        for p in range(2, 65):
            for q in range(1, p):
                verdicts = binomial_bound_verdicts(p, q)
                assert verdicts.passed is True, (p, q)
                printed_failures += not verdicts.printed_form_pass
        assert 0 < printed_failures < 64 * 63 // 2


class TestBinomialFilter:
    """The float filter in front of the exact binomial verdicts decides
    exactly what the exact path decides."""

    def test_exact_everywhere_gives_the_filtered_verdicts(self, monkeypatch):
        from chainlab.experiments import sweep_binomial_bounds

        points = [(p, q) for p in range(2, 65) for q in range(1, p)]
        filtered = [binomial_bound_verdicts(p, q) for p, q in points]
        counts = sweep_binomial_bounds(128, 16)
        monkeypatch.setattr(info_theory, "_MARGIN_ERROR", math.inf)
        assert [binomial_bound_verdicts(p, q) for p, q in points] == filtered
        assert sweep_binomial_bounds(128, 16) == counts

    def test_the_sweep_is_decided_in_floats(self, monkeypatch):
        from chainlab.experiments import sweep_binomial_bounds

        counts = sweep_binomial_bounds(128, 16)

        def no_exact_path(*args):
            raise AssertionError("a margin fell back to exact arithmetic")

        monkeypatch.setattr(info_theory, "_bounds_hold", no_exact_path)
        assert sweep_binomial_bounds(128, 16) == counts

    def test_undecided_only_on_the_exact_path(self, monkeypatch):
        # a pi bracket around the lower bound's exact threshold at (8, 3), v = p
        p, q = 8, 3
        r = p - q
        threshold = Fraction(p ** (2 * p) * p, 8 * q ** (2 * q) * r ** (2 * r) * math.comb(p, q) ** 2 * q * r)
        monkeypatch.setattr(info_theory, "_PI_LO", threshold - Fraction(1, 10**15))
        monkeypatch.setattr(info_theory, "_PI_HI", threshold + Fraction(1, 10**15))
        assert binomial_bound_verdicts(p, q).lower_pass is None
        monkeypatch.setattr(info_theory, "_bounds_hold", lambda p, q, v: [(True, True), (True, True)])
        assert binomial_bound_verdicts(p, q).lower_pass is True

class TestAnticoncentration:
    def test_t16_quarter(self):
        result = binomial_anticoncentration(16, Fraction(1, 4))
        assert result.probability == Fraction(12870, 65536)
        assert result.bound == Fraction(1, 2)
        assert result.passed

    def test_zero_c(self):
        result = binomial_anticoncentration(100, 0)
        assert result.probability == 0
        assert result.passed

    def test_t1024_eighth(self):
        result = binomial_anticoncentration(1024, Fraction(1, 8))
        assert result.passed
        assert result.probability <= Fraction(1, 4)

    def test_exact_window_edges_are_strict(self):
        # c*sqrt(t)=2 at t=16, c=1/2: |i-8|<2 keeps i in {7,8,9} only
        hits = sum(math.comb(16, i) for i in (7, 8, 9))
        result = binomial_anticoncentration(16, Fraction(1, 2))
        assert result.probability == Fraction(hits, 2**16)

    def test_small_t_small_c_fails_the_bound(self):
        # the bound is asymptotic; at t=16 the single central term already
        # exceeds 2c for c=1/16
        result = binomial_anticoncentration(16, Fraction(1, 16))
        assert result.probability == Fraction(12870, 65536)
        assert not result.passed
