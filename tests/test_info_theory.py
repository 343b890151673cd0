import math
import random
from fractions import Fraction
from itertools import product

import pytest

from chainlab import (
    InvalidParameterError,
    JointTable,
    binary_entropy,
    binomial_anticoncentration,
    check_binomial_entropy_bounds,
    conditional_entropy,
    entropy,
    log_binomial,
)
from chainlab import info_theory
from chainlab.info_theory import binomial_bound_verdicts, total_variation

TOL = 1e-9


def random_joint(rng: random.Random, sizes: tuple[int, ...]) -> JointTable:
    """Random rational joint table over small alphabets (integer weights)."""
    cells = list(product(*(range(s) for s in sizes)))
    weights = {cell: rng.randint(0, 8) for cell in cells}
    if sum(weights.values()) == 0:
        weights[cells[0]] = 1
    labels = tuple(f"v{i}" for i in range(len(sizes)))
    return JointTable.from_weights(labels, {k: w for k, w in weights.items() if w})


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
        d = JointTable.from_weights(("x",), {(i,): 1 for i in range(6)})
        assert entropy(d) == pytest.approx(math.log2(6), abs=TOL)

    def test_point_mass(self):
        d = JointTable.from_weights(("x",), {(0,): 1, (1,): 0})
        assert entropy(d) == 0.0

    def test_quarter_three_quarters(self):
        d = JointTable.from_weights(("x",), {(0,): 1, (1,): 3})
        # direct evaluation of the binary entropy formula
        expected = 0.25 * math.log2(4) + 0.75 * math.log2(4 / 3)
        assert entropy(d) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_log_support(self):
        rng = random.Random(0)
        for _ in range(50):
            j = random_joint(rng, (6,))
            h = entropy(j)
            assert -TOL <= h <= math.log2(len(j.entries)) + TOL


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
    def test_independent_equals_marginal(self):
        # X uniform bit, Y uniform over 3 values, independent
        weights = {(x, y): 1 for x in range(2) for y in range(3)}
        j = JointTable.from_weights(("x", "y"), weights)
        assert conditional_entropy(j, "x", ("y",)) == pytest.approx(entropy(j.marginal(("x",))), abs=TOL)

    def test_determined_is_zero(self):
        j = JointTable.from_weights(("x", "y"), {(0, 0): 1, (1, 1): 1})
        assert conditional_entropy(j, "x", ("y",)) == pytest.approx(0.0, abs=TOL)

    def test_three_point_joint(self):
        # uniform on {(0,0),(0,1),(1,0)}: slices H(X|Y=0)=1, H(X|Y=1)=0, weights 2/3, 1/3
        j = JointTable.from_weights(("x", "y"), {(0, 0): 1, (0, 1): 1, (1, 0): 1})
        assert conditional_entropy(j, "x", ("y",)) == pytest.approx(2 / 3, abs=TOL)

    def test_unknown_label(self):
        j = JointTable.from_weights(("x", "y"), {(0, 0): 1})
        with pytest.raises(InvalidParameterError):
            conditional_entropy(j, "z", ("y",))

    def test_conditioning_reduces_entropy(self):
        rng = random.Random(1)
        for _ in range(100):
            j = random_joint(rng, (3, 4))
            assert conditional_entropy(j, "v0", ("v1",)) <= entropy(j.marginal(("v0",))) + TOL

    def test_chain_rule_exact(self):
        rng = random.Random(2)
        for _ in range(100):
            j = random_joint(rng, (3, 3))
            h_joint = entropy(j)
            h_x = entropy(j.marginal(("v0",)))
            h_y_given_x = conditional_entropy(j, "v1", ("v0",))
            assert h_joint == pytest.approx(h_x + h_y_given_x, abs=TOL)

    def test_subadditivity(self):
        rng = random.Random(3)
        for _ in range(100):
            j = random_joint(rng, (3, 3))
            assert entropy(j) <= entropy(j.marginal(("v0",))) + entropy(j.marginal(("v1",))) + TOL


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
        j = JointTable.from_weights(
            ("x", "y"), {(0, 0): 5, (1, 0): 1, (0, 1): 1, (1, 1): 4, (0, 2): 2, (1, 2): 1}
        )
        h_x_given_y = conditional_entropy(j, "x", ("y",))
        for g in product((0, 1), repeat=3):
            error = sum(p for (x, y), p in j.entries.items() if g[y] != x)
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
        report = check_binomial_entropy_bounds(p, q)
        assert report.passed
        assert report.details["lower_pass"] and report.details["upper_pass"]

    def test_printed_form_fails_when_skewed(self):
        # with the square root numerator bound to 2q the upper bound drops
        # below the true coefficient away from the middle
        report = check_binomial_entropy_bounds(16, 1)
        assert report.details["printed_form_upper_pass"] is False
        assert not report.details["printed_form_pass"]

    def test_printed_form_matches_at_middle(self):
        report = check_binomial_entropy_bounds(64, 32)
        assert report.details["printed_form_pass"]

    def test_report_shape(self):
        report = check_binomial_entropy_bounds(16, 8)
        assert report.mode == "exact"
        assert report.rhs["lower"] <= report.lhs <= report.rhs["upper"]

    def test_precondition(self):
        with pytest.raises(InvalidParameterError):
            check_binomial_entropy_bounds(4, 0)
        for q in (0, 4):
            with pytest.raises(InvalidParameterError):
                binomial_bound_verdicts(4, q)

    def test_verdicts_are_the_reports_verdicts(self):
        printed_failures = 0
        for p in range(2, 65):
            for q in range(1, p):
                report = check_binomial_entropy_bounds(p, q)
                verdicts = binomial_bound_verdicts(p, q)
                assert verdicts.passed is report.passed is True, (p, q)
                assert verdicts.printed_form_pass is report.details["printed_form_pass"], (p, q)
                assert verdicts._asdict().items() <= report.details.items(), (p, q)
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
