import math

import pytest

from chainlab import (
    InvalidParameterError,
    ProtocolContractError,
    build_protocol,
    chained_majority_protocol,
    exact_majority_success,
    majority_vote_success,
    montecarlo_success,
    sampled_bits_protocol,
    trivial_forward_protocol,
    truncation_protocol,
)
from chainlab.montecarlo import MonteCarloEstimate, montecarlo_success_by_name
from chainlab.protocols import constant_protocol


def within_5se(estimate: float, exact: float, trials: int) -> bool:
    se = math.sqrt(exact * (1 - exact) / trials)
    return abs(estimate - exact) <= 5 * se


class TestEstimate:
    def test_from_counts(self):
        est = MonteCarloEstimate.from_counts(750, 1000, seed=3)
        assert est.estimate == 0.75
        assert est.ci_halfwidth == pytest.approx(1.96 * math.sqrt(0.75 * 0.25 / 1000))
        assert est.seed == 3

    def test_trivial_forward_is_certain(self):
        est = montecarlo_success(trivial_forward_protocol(8, 2), 8, 2, 1000, seed=0)
        assert est.estimate == 1.0
        assert est.ci_halfwidth == 0.0

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            montecarlo_success(trivial_forward_protocol(4, 1), 4, 1, 0, seed=0)

    def test_size_mismatch(self):
        with pytest.raises(ProtocolContractError):
            montecarlo_success(trivial_forward_protocol(4, 1), 8, 1, 10, seed=0)


class TestDeterminism:
    def test_generic_path_reproducible(self):
        a = montecarlo_success(truncation_protocol(4, 1, 2), 4, 1, 5000, seed=11)
        b = montecarlo_success(truncation_protocol(4, 1, 2), 4, 1, 5000, seed=11)
        assert a == b

    def test_vectorized_path_reproducible(self):
        p = build_protocol("index-majority", 64, 1, {"B": 4})
        a = montecarlo_success(p, 64, 1, 200000, seed=11)
        b = montecarlo_success(p, 64, 1, 200000, seed=11)
        assert a.successes == b.successes

    def test_seed_changes_counts(self):
        p = build_protocol("index-majority", 64, 1, {"B": 4})
        a = montecarlo_success(p, 64, 1, 200000, seed=1)
        b = montecarlo_success(p, 64, 1, 200000, seed=2)
        assert a.successes != b.successes

    def test_worker_count_does_not_change_counts(self):
        p = chained_majority_protocol(64, 3, 4)
        one = montecarlo_success(p, 64, 3, 150000, seed=5, workers=1)
        two = montecarlo_success(p, 64, 3, 150000, seed=5, workers=2)
        assert one == two


class TestAgainstExactOracles:
    def test_constant_protocol_near_half(self):
        est = montecarlo_success(constant_protocol(4, 1, 0), 4, 1, 100000, seed=7)
        assert within_5se(est.estimate, 0.5, est.trials)

    def test_index_majority_vectorized(self):
        est = montecarlo_success(build_protocol("index-majority", 64, 1, {"B": 4}), 64, 1, 100000, seed=3)
        assert within_5se(est.estimate, float(exact_majority_success(4)), est.trials)

    def test_generic_engine_agrees_with_vectorized_kernel(self):
        # same protocol family through both code paths, both against the
        # exact convolution oracle
        exact = float(majority_vote_success(3, exact_majority_success(4)))
        p = chained_majority_protocol(8, 3, 4)
        fast = montecarlo_success(p, 8, 3, 100000, seed=21)
        assert within_5se(fast.estimate, exact, fast.trials)

        slow_successes = 0
        trials = 20000
        import random

        from chainlab import SharedRandomness, run_chain_protocol, sample_chain
        from chainlab.protocols import derive_seed

        for t in range(trials):
            rng = random.Random(derive_seed("engine-check", 21, t))
            inst = sample_chain(8, 3, rng)
            shared = SharedRandomness(derive_seed("engine-check-shared", 21, t))
            slow_successes += run_chain_protocol(p, inst, shared).correct
        assert within_5se(slow_successes / trials, exact, trials)

    def test_truncation_exact_three_quarters(self):
        est = montecarlo_success(truncation_protocol(4, 1, 2), 4, 1, 40000, seed=9)
        assert within_5se(est.estimate, 0.75, est.trials)

    def test_sampled_bits_formula(self):
        # success = 1/2 + (1/2)(1 - (1 - m/n)^k)
        exact = 0.5 + 0.5 * (1 - (1 - 4 / 16) ** 4)
        est = montecarlo_success(sampled_bits_protocol(16, 4, 4), 16, 4, 20000, seed=13)
        assert within_5se(est.estimate, exact, est.trials)

    def test_sampled_bits_extremes(self):
        full = montecarlo_success(sampled_bits_protocol(8, 2, 8), 8, 2, 2000, seed=1)
        assert full.estimate == 1.0
        none = montecarlo_success(sampled_bits_protocol(8, 2, 0), 8, 2, 40000, seed=2)
        assert within_5se(none.estimate, 0.5, none.trials)

    def test_chained_majority_block_one_perfect(self):
        est = montecarlo_success(chained_majority_protocol(16, 2, 1), 16, 2, 2000, seed=4)
        assert est.estimate == 1.0


class TestByName:
    def test_by_name_matches_spec_object(self):
        by_name = montecarlo_success_by_name("index-majority", 64, 1, {"B": 4}, 50000, 17)
        explicit = montecarlo_success(build_protocol("index-majority", 64, 1, {"B": 4}), 64, 1, 50000, 17)
        assert by_name == explicit
