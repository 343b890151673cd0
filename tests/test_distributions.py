import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby

import numpy as np
import pytest

from chainlab import (
    BalancedString,
    InvalidParameterError,
    ResourceLimitError,
    bias_grid,
    balanced_strings,
    enumerate_support,
    pmf_biased_index,
)
from chainlab.distributions import DEFAULT_ENUMERATION_BUDGET, structured_points, structured_pool_size
from chainlab.info_theory import total_variation
from chainlab.montecarlo import chain_instances, sample_chain_batch

from util import chi2_quantile, chi2_stat, validate_instance


class TestBiasGrid:
    def test_n4(self):
        expected = sorted(
            {Fraction(0), Fraction(1, 6), Fraction(1, 2), Fraction(-1, 6), Fraction(-1, 2)}
        )
        assert bias_grid(4) == expected

    def test_n2(self):
        assert bias_grid(2) == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
    def test_all_within_half(self, n):
        assert all(abs(t) <= Fraction(1, 2) for t in bias_grid(n))

    def test_grid_matches_integer_pool_sizes(self):
        # every grid value corresponds to an integer pool size in [n/2, n]
        for n in (4, 6, 8):
            for theta in bias_grid(n):
                b = Fraction(n) / (1 + 2 * abs(theta))
                assert b.denominator == 1
                assert n // 2 <= b <= n


class TestPmf:
    def test_unbiased_n2(self):
        assert pmf_biased_index(2, 0, BalancedString("10"), 1) == Fraction(1, 4)

    def test_impossible_cell_at_full_bias(self):
        assert pmf_biased_index(4, Fraction(1, 2), BalancedString("0011"), 1) == 0

    def test_quarter_bias_cell(self):
        value = pmf_biased_index(4, Fraction(1, 4), BalancedString("0011"), 3)
        assert value == Fraction(1, 16)

    def test_sums_to_one(self):
        total = sum(
            pmf_biased_index(4, Fraction(1, 4), y, rho)
            for y in balanced_strings(4)
            for rho in range(1, 5)
        )
        assert total == 1

    def test_unbalanced_rejected(self):
        from chainlab import BitString

        with pytest.raises(InvalidParameterError):
            pmf_biased_index(4, 0, BitString("1110"), 1)


class TestSampleChain:
    """The chain sampler, `sample_chain_batch`, row by row."""

    def test_every_output_validates(self):
        _, sigma, strings = sample_chain_batch(np.random.default_rng(11), 200, 6, 3)
        assert all(validate_instance(inst) for inst in chain_instances(strings, sigma))

    def test_point_probability_n2(self):
        # Pr[(z=1, X=10, sigma=1)] = 1/4
        trials = 40000
        answer, sigma, strings = sample_chain_batch(np.random.default_rng(5), trials, 2, 1)
        hits = int(((answer == 1) & (sigma[:, 0] == 1) & strings[:, 0, 0] & ~strings[:, 0, 1]).sum())
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) <= 5 * se

    def test_marginal_uniform_n4(self):
        # marginalizing the answer bit leaves every (string, index) pair at 1/24
        trials = 120000
        _, sigma, strings = sample_chain_batch(np.random.default_rng(6), trials, 4, 1)
        counts = Counter(zip(map(bytes, strings[:, 0]), sigma[:, 0].tolist()))
        assert len(counts) == 24
        p = 1 / 24
        se = math.sqrt(p * (1 - p) / trials)
        for pair in counts:
            assert abs(counts[pair] / trials - p) <= 5 * se

    def test_pairs_independent_given_answer(self):
        # conditioned on the answer, the two (string, index) pairs are independent
        trials = 80000
        answer, sigma, strings = sample_chain_batch(np.random.default_rng(7), trials, 2, 2)
        joint = {0: Counter(), 1: Counter()}
        marg1 = {0: Counter(), 1: Counter()}
        marg2 = {0: Counter(), 1: Counter()}
        totals = Counter(answer.tolist())
        pairs = zip(answer.tolist(), map(bytes, strings[:, 0]), map(bytes, strings[:, 1]), sigma.tolist())
        for z, x1, x2, (s1, s2) in pairs:
            a, b = (x1, s1), (x2, s2)
            joint[z][(a, b)] += 1
            marg1[z][a] += 1
            marg2[z][b] += 1
        for z in (0, 1):
            n_z = totals[z]
            expected = {
                (a, b): (marg1[z][a] / n_z) * (marg2[z][b] / n_z)
                for a in marg1[z]
                for b in marg2[z]
            }
            stat = chi2_stat(joint[z], expected, n_z)
            df = (len(marg1[z]) - 1) * (len(marg2[z]) - 1)
            assert stat <= chi2_quantile(df)


class TestStructuredPoints:
    """The one enumeration of the structured law, `structured_points`, and its pool size."""

    def test_full_bias_always_one(self):
        assert all(y.bit(rho) == 1 for _, y, rho in structured_points(4, Fraction(1, 2)))

    def test_full_negative_bias_always_zero(self):
        assert all(y.bit(rho) == 0 for _, y, rho in structured_points(4, Fraction(-1, 2)))

    def test_unbiased_n2_uniform(self):
        counts = Counter((y.text, rho) for _, y, rho in structured_points(2, 0))
        assert counts == {("01", 1): 1, ("01", 2): 1, ("10", 1): 1, ("10", 2): 1}

    def test_bias_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            next(structured_points(4, Fraction(2, 3)))

    def test_off_grid_error_names_neighbors(self):
        with pytest.raises(InvalidParameterError) as err:
            structured_pool_size(4, Fraction(1, 3))
        message = str(err.value)
        assert "1/6" in message and "1/2" in message

    @pytest.mark.parametrize("n", [5, 0])
    def test_odd_or_too_small_n_rejected(self, n):
        with pytest.raises(InvalidParameterError):
            next(structured_points(n, 0))

    def test_point_invariants(self):
        for n in (2, 4, 6, 8):
            for theta in bias_grid(n):
                b = structured_pool_size(n, theta)
                pools = [pool for pool, _ in groupby(pool for pool, _, _ in structured_points(n, theta))]
                assert pools == list(combinations(range(1, n + 1), b))  # grouped: each pool in one run
                for pool, y, rho in structured_points(n, theta):
                    assert y.ones() == n // 2 and rho in pool

    def test_unbiased_collapses_to_uniform_index(self):
        # at theta = 0 the pool is every position, so the index is uniform on 1..n
        counts = Counter(rho for _, _, rho in structured_points(4, 0))
        assert counts == {rho: 6 for rho in range(1, 5)}


class TestEnumerateSupport:
    def test_direct_unbiased_n2(self):
        table = enumerate_support(2, 0, "direct")
        assert len(table.entries) == 4
        assert all(p == Fraction(1, 4) for p in table.entries.values())

    def test_structured_full_bias_n4(self):
        table = enumerate_support(4, Fraction(1, 2), "structured")
        assert len(table.entries) == 12
        assert all(p == Fraction(1, 12) for p in table.entries.values())
        assert all(y.bit(rho) == 1 for (y, rho) in table.entries)

    @pytest.mark.parametrize("variant", ["direct", "structured"])
    def test_total_is_one(self, variant):
        for theta in bias_grid(4):
            table = enumerate_support(4, theta, variant)
            assert sum(table.entries.values()) == 1

    def test_direct_matches_pmf(self):
        for theta in bias_grid(6):
            table = enumerate_support(6, theta, "direct").entries
            for y in balanced_strings(6):
                for rho in range(1, 7):
                    assert table.get((y, rho), Fraction(0)) == pmf_biased_index(6, theta, y, rho)

    def test_identity_spot_negative_theta(self):
        direct = enumerate_support(6, Fraction(-1, 4), "direct")
        structured = enumerate_support(6, Fraction(-1, 4), "structured")
        assert total_variation(direct, structured) == 0

    def test_budget_error_reports_requirement(self):
        with pytest.raises(ResourceLimitError) as err:
            enumerate_support(22, 0, "direct")
        assert err.value.required == math.comb(22, 11) * 22
        assert err.value.budget == DEFAULT_ENUMERATION_BUDGET

    def test_bad_variant(self):
        with pytest.raises(InvalidParameterError):
            enumerate_support(4, 0, "other")
