import math
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from chainlab import (
    BitString,
    ChainInstance,
    InvalidParameterError,
    JointTable,
    ProtocolContractError,
    ProtocolSpec,
    ResourceLimitError,
    SharedRandomness,
    bias_grid,
    chained_majority_protocol,
    exact_majority_success,
    majority_vote_success,
    run_chain_protocol,
    sampled_bits_protocol,
    trivial_forward_protocol,
    truncation_protocol,
    verify_chain_entropy_bound,
    verify_conditional_independence,
    verify_distribution_identity,
    verify_entropy_given_pool,
)
from chainlab.distributions import DEFAULT_ENUMERATION_BUDGET, enumerate_support, structured_pool_size
from chainlab.experiments import (
    _fano_companion,
    run_suite,
    suite_biased_index,
    suite_binomial_bounds,
    suite_chain_entropy,
    suite_entropy_pool,
    suite_majority,
    suite_pmf,
)
from chainlab.info_theory import binary_slice_entropies
from chainlab.model import balanced_strings
from chainlab.montecarlo import MonteCarloEstimate
from chainlab.oracle import (
    _entropy_bound_report,
    enumerated_majority_success,
    full_string_message_function,
    random_chain_protocol,
    random_message_function,
    sweep_entropy_given_pool,
    truncation_message_function,
)
from chainlab.protocols import decoder_output

import chainlab.distributions as distributions
import chainlab.oracle as oracle
from util import biased_report, constant_protocol, mutate, ref_cells, ref_conditional_entropy, ref_entropy, ref_marginal

TOL = 1e-9


class TestDistributionIdentity:
    @pytest.mark.parametrize("n,theta", [
        (4, Fraction(1, 2)),
        (4, 0),
        (6, Fraction(-1, 4)),
        (8, Fraction(3, 10)),
    ])
    def test_identity_holds(self, n, theta):
        report = verify_distribution_identity(n, theta)
        assert report.passed
        assert report.lhs == 0
        assert report.mode == "exact"

    def test_size_bounded_by_the_budget(self):
        assert verify_distribution_identity(12, 0).passed
        # theta = 1/6 at n = 16 needs 10,810,800 structured points
        with pytest.raises(ResourceLimitError):
            verify_distribution_identity(16, Fraction(1, 6))

    def test_off_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_distribution_identity(4, Fraction(1, 3))

    def test_perturbed_structured_table_fails(self, monkeypatch):
        import chainlab.oracle as oracle_module

        real = oracle_module.enumerate_support

        def perturbed(n, theta, variant):
            table = real(n, theta, variant)
            if variant != "structured":
                return table
            weights = dict(table.weights)
            first, second = sorted(weights, key=lambda key: (key[0].text, key[1]))[:2]
            weights[first] -= 1
            weights[second] += 1
            return JointTable.from_weights(table.labels, weights)

        monkeypatch.setattr(oracle_module, "enumerate_support", perturbed)
        report = verify_distribution_identity(4, 0)
        # n=4, theta=0: the structured total is 1*6*4 = 24, so one unit is 1/24
        assert report.passed is False
        assert report.lhs == Fraction(1, 24)

    @pytest.mark.parametrize("new", [
        # every position indexed, in the pool or not: only theta = 0 (pool = all) is unmoved
        "for rho in range(1, n + 1):",
        # only the pool's first position indexed
        "for rho in pool[:1]:",
    ], ids=["index-outside-pool", "first-pool-position-only"])
    def test_identity_sees_a_structured_table_fault(self, monkeypatch, new):
        mutate(monkeypatch, distributions, "_structured_table", "for rho in pool:", new)
        for n in (4, 6):
            for theta in bias_grid(n):
                expected = theta == 0 and new.startswith("for rho in range")
                assert verify_distribution_identity(n, theta).passed is expected, (n, theta)


class TestChecksCanFail:
    """One injected fault per check, each turning `passed` to False."""

    def test_moved_weight_fails_pmf(self, monkeypatch):
        import chainlab.experiments as experiments_module

        real = experiments_module.enumerate_support

        def perturbed(n, theta, variant):
            table = real(n, theta, variant)
            weights = dict(table.weights)
            first, second = sorted(weights, key=lambda key: (key[0].text, key[1]))[:2]
            weights[first] -= 1
            weights[second] += 1
            return JointTable.from_weights(table.labels, weights)

        monkeypatch.setattr(experiments_module, "enumerate_support", perturbed)
        (report,) = suite_pmf(ns=(4,), theta=Fraction(0))
        assert report.passed is False
        assert report.lhs == "2 mismatched cells"

    def test_next_block_decode_fails_majority_success(self, monkeypatch):
        import chainlab.oracle as oracle_module

        def next_block(summary, sigma, mask, perm, block_size):
            blocks = len(summary)
            block = (perm[sigma - 1] - 1) // block_size + 1
            return summary.bit(block % blocks + 1) ^ mask.bit(sigma)

        monkeypatch.setattr(oracle_module, "index_majority_decode", next_block)
        reports = [r for r in suite_majority((1, 2, 4), enum_n=8, mc_trials=0)
                   if r.check == "majority-protocol-success"]
        assert [r.lhs for r in reports] == [1, Fraction(3, 4), Fraction(11, 16)]
        assert [r.rhs for r in reports] == [Fraction(1, 2)] * 3
        assert all(r.passed is False for r in reports)

    def test_wrong_posterior_entropy_fails_fano(self, monkeypatch):
        import chainlab.oracle as oracle_module

        # truncation t=n reads every indexed bit, so success is 1 and the
        # ceiling H2(1) is 0.0; an oracle that reports a posterior entropy of
        # 1.0 must turn the estimator-ceiling check red
        real = oracle_module.binary_slice_entropies
        monkeypatch.setattr(oracle_module, "binary_slice_entropies",
                            lambda slices, classes, weights: (1.0, real(slices, classes, weights)[1]))
        report = verify_chain_entropy_bound(truncation_protocol(4, 1, 4), 4, 1)
        assert report.details["success"] == 1
        assert report.lhs == 1.0
        # the accounting bound is vacuous here (rhs 1 - (log2 6 + 4)/2 < 0), so it still passes
        assert report.passed is True
        assert report.rhs < 0
        fano = _fano_companion(report)
        assert fano.rhs == 0.0
        assert fano.passed is False

    def test_zero_log_binomial_fails_restricted_support_entropy(self, monkeypatch):
        import chainlab.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "log_binomial", lambda b, h: 0.0)
        report = verify_entropy_given_pool(64, 0)
        assert (report.lhs, report.rhs) == (0.0, 52.0)
        assert report.passed is False
        # at n=4, theta=0 the right side is 4 - 2 log2 4 = 0, so no fault can fail it
        assert verify_entropy_given_pool(4, 0).rhs == 0.0
        assert verify_entropy_given_pool(4, 0).passed is True

    def test_unit_entropy_ratio_fails_restricted_support_entropy_sweep(self, monkeypatch):
        import chainlab.oracle as oracle_module

        assert sweep_entropy_given_pool(32)[:2] == (136, 0)
        monkeypatch.setattr(oracle_module, "binary_entropy_ratio", lambda a, b: 1.0)
        assert sweep_entropy_given_pool(32)[:2] == (136, 7)
        (report,) = suite_entropy_pool(ns=(), sweep_to=32)
        assert report.check == "restricted-support-entropy-sweep"
        assert report.lhs == "7 failures"
        assert report.passed is False

    def test_wrong_pi_bracket_fails_binomial_bounds_sweep(self, monkeypatch):
        import chainlab.info_theory as info_theory_module

        monkeypatch.setattr(info_theory_module, "_PI_LO", Fraction(4))
        monkeypatch.setattr(info_theory_module, "_PI_HI", Fraction(4) + Fraction(1, 10**15))
        (report,) = suite_binomial_bounds(64, 16)
        assert report.check == "binomial-entropy-bounds-sweep"
        assert report.details["checks"] == report.details["corrected_failures"] == 888
        assert report.passed is False

    def test_even_odds_estimate_fails_majority_montecarlo(self, monkeypatch):
        import chainlab.experiments as experiments_module

        def even_odds(name, n, k, params, trials, seed, workers=None):
            return MonteCarloEstimate.from_counts(10000, 20000, seed)

        monkeypatch.setattr(experiments_module, "montecarlo_success_by_name", even_odds)
        (report,) = [r for r in suite_majority((1,), enum_n=8) if r.check == "majority-montecarlo"]
        assert (report.lhs, report.rhs) == (0.5, 0.6875)
        assert report.passed is False

    def test_index_outside_the_pool_fails_conditional_independence(self, monkeypatch):
        import chainlab.oracle as oracle_module

        # at theta = 1/2 the pool is the chosen half-set, the ones of the
        # string, so a pair indexed at a zero is outside the exact support;
        # one draw in 100 is too few to move any support cell by 5 SE
        real = oracle_module.sample_biased_structured

        def leaky(rng, count, n, theta):
            strings, indices = real(rng, count, n, theta)
            indices[::100] = strings[::100].argmin(axis=1) + 1
            return strings, indices

        monkeypatch.setattr(oracle_module, "sample_biased_structured", leaky)
        report = verify_conditional_independence(4, Fraction(1, 2), trials=20000, seed=1)
        assert report.lhs < 5
        assert report.details["outside_support"] == 200
        assert report.passed is False

    def test_index_always_lowest_in_pool_fails_conditional_independence(self, monkeypatch):
        import chainlab.oracle as oracle_module

        # the structured draw with the index fixed at the lowest pool
        # position: every draw stays inside the support, but the index is no
        # longer uniform on the pool, so the law is wrong
        def lowest(rng, count, n, theta):
            order = np.argsort(rng.random((count, n)), axis=1)
            strings = np.zeros((count, n), dtype=bool)
            np.put_along_axis(strings, order[:, : n // 2], True, axis=1)  # theta > 0: the chosen are ones
            return strings, order[:, : structured_pool_size(n, theta)].min(axis=1) + 1

        monkeypatch.setattr(oracle_module, "sample_biased_structured", lowest)
        report = verify_conditional_independence(4, Fraction(1, 6), trials=20000, seed=1)
        assert report.details["outside_support"] == 0
        assert report.lhs > 5
        assert report.passed is False

    def test_no_advantage_fails_majority_advantage_floor(self, monkeypatch):
        import chainlab.experiments as experiments_module

        monkeypatch.setattr(experiments_module, "exact_majority_success", lambda b: Fraction(1, 2))
        (report,) = [r for r in suite_majority((1,), enum_n=8, mc_trials=0)
                     if r.check == "majority-advantage-floor"]
        assert (report.lhs, report.rhs) == (Fraction(1, 2), Fraction(33, 64))
        assert report.passed is False


def _fold(protocol, n, k, shared_seed=0):
    """The final boards of one forward pass folded into (answer, messages,
    reveals) weights, and the exact success, each board decoded once."""
    shared = SharedRandomness(shared_seed)
    weights, hits = {}, 0
    for board, key, *pair in oracle._final_boards(protocol, n, k, shared):
        hits += pair[decoder_output(protocol, board, shared)]
        weights.update(((z, key, board.indices), w) for z, w in enumerate(pair) if w)
    return weights, Fraction(hits, sum(weights.values()))


class TestEnumerateJoint:
    def test_support_n2_k1(self):
        weights, _ = _fold(trivial_forward_protocol(2, 1), 2, 1)
        # 2 answers x 2 valid (string, index) pairs each, transcripts all distinct
        assert list(weights.values()) == [1, 1, 1, 1]

    def test_no_message_transcript_is_indices_only(self):
        weights, _ = _fold(constant_protocol(2, 1), 2, 1)
        messages = {m for _, m, _ in weights}
        assert messages == {((),)}

    def test_budget(self):
        # counted in message calls before any is made: 70 strings on each of
        # 1, 560 and 560^2 boards (70 messages x 8 indices per player)
        with pytest.raises(ResourceLimitError) as err:
            verify_chain_entropy_bound(trivial_forward_protocol(8, 3), 8, 3)
        assert err.value.required == 70 * (1 + 560 + 560**2)
        assert err.value.budget == DEFAULT_ENUMERATION_BUDGET

    def test_random_protocol_n8_k3_enumerates(self):
        # 2 * 280^3 support points, over the budget when each ran the engine
        weights, _ = _fold(random_chain_protocol(8, 3, 3, 0), 8, 3)
        answers = Counter()
        for (z, *_), w in weights.items():
            answers[z] += w
        assert answers == {0: 280**3, 1: 280**3}

    def test_total_probability_exact(self):
        # each player has 6 strings x 2 indices under each answer: 2 * 12^2 points
        weights, _ = _fold(truncation_protocol(4, 2, 2), 4, 2)
        assert sum(weights.values()) == 2 * 12**2


def _chain_support(n, k):
    """All (answer, strings, indices) with positive probability; uniform weight each."""
    strings = balanced_strings(n)
    for z in (0, 1):
        valid = [(y, s) for y in strings for s in range(1, n + 1) if y.bit(s) == z]
        for combo in product(valid, repeat=k):
            yield z, tuple(y for y, _ in combo), tuple(s for _, s in combo)


def _engine_runs(protocol, n, k, shared_seed):
    """The scalar engine once per support point: the reference for the pass."""
    shared = SharedRandomness(shared_seed)
    weights = Counter()
    hits = 0
    for z, strings, indices in _chain_support(n, k):
        result = run_chain_protocol(protocol, ChainInstance(n, k, strings, indices, z), shared)
        weights[(z, *result.board.key())] += 1
        hits += result.correct
    return dict(weights), Fraction(hits, sum(weights.values()))


def _pass_subjects(n, k):
    return [
        *(truncation_protocol(n, k, t) for t in (0, 2, n)),
        *(random_chain_protocol(n, k, 3, seed) for seed in (11, 12, 13)),
        sampled_bits_protocol(n, k, 2),
        chained_majority_protocol(n, k, 2),
        trivial_forward_protocol(n, k, "last-only"),
    ]


def _accounting_miss(n, k):
    """The first subject whose chain accounting differs from the scalar
    engine's (answer, messages, reveals) table read by the Fraction
    reference, by float ==, or in its success; None if none does."""
    for protocol in _pass_subjects(n, k):
        weights, success = _engine_runs(protocol, n, k, 3)
        cells = ref_cells(weights)
        expected = (ref_conditional_entropy(cells, 0, (1, 2)), ref_entropy(ref_marginal(cells, (1,))), success)
        report = oracle.verify_chain_entropy_bound(protocol, n, k, 3)  # a mutant of the check is seen
        if (report.lhs, report.details["h_messages"], report.details["success"]) != expected:
            return protocol.name
    return None


class TestForwardPass:
    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 2)])
    def test_matches_scalar_engine(self, n, k):
        for protocol in _pass_subjects(n, k):
            assert _fold(protocol, n, k, 3) == _engine_runs(protocol, n, k, 3), protocol.name

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 2)])
    def test_chain_accounting_matches_scalar_engine(self, n, k):
        assert _accounting_miss(n, k) is None

    @pytest.mark.parametrize("name,old,new", [
        # answer weights swapped in the fan-out: at k = 1 only the success can see it
        ("_final_boards", "child_key, a0, a1", "child_key, a1, a0"),
        # class sums per final board: h becomes H(board)
        ("verify_chain_entropy_bound", "class_sums.get(key) or class_sums.setdefault(key,",
         "class_sums.get((key, board.indices)) or class_sums.setdefault((key, board.indices),"),
        # the group size dropped from the tally: every string counts under answer 0
        ("_final_boards", "len(rows) - ones", "len(strings) - ones"),
    ])
    def test_accounting_identity_sees_a_fault(self, monkeypatch, name, old, new):
        mutate(monkeypatch, oracle, name, old, new)
        assert _accounting_miss(4, 2) is not None

    @pytest.mark.parametrize("break_", ["size", "length", "output"])
    def test_contract_checked_on_both_paths(self, break_):
        p = ProtocolSpec(
            name="broken", n=6 if break_ == "size" else 4, k=1, message_lengths=(1,),
            message_fn=lambda i, string, board, shared: BitString("10" if break_ == "length" else "1"),
            decode_fn=lambda board, shared: 2 if break_ == "output" else 0,
        )
        inst = ChainInstance(4, 1, (BitString("1100"),), (1,), 1)
        with pytest.raises(ProtocolContractError):
            run_chain_protocol(p, inst, SharedRandomness(0))
        with pytest.raises(ProtocolContractError):
            verify_chain_entropy_bound(p, 4, 1)

    def test_chain_accounting_builds_no_table(self):
        # 7,200 final boards at n=6, k=2, t=6: read through a joint table, the check
        # peaked at about 3.0 MB; as count pairs it holds one player's boards
        # and two histograms, about 0.3 MB
        balanced_strings(6)
        tracemalloc.start()
        try:
            verify_chain_entropy_bound(truncation_protocol(6, 2, 6), 6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestPosteriorAnswerEntropy:
    def test_no_message_is_uniform(self):
        assert verify_chain_entropy_bound(constant_protocol(4, 1), 4, 1).lhs == pytest.approx(1.0, abs=TOL)

    def test_trivial_forward_reveals_answer(self):
        assert verify_chain_entropy_bound(trivial_forward_protocol(4, 1), 4, 1).lhs == pytest.approx(0.0, abs=TOL)

    def test_truncation_matches_direct_slice_computation(self):
        value = verify_chain_entropy_bound(truncation_protocol(4, 1, 2), 4, 1).lhs
        assert 0 < value < 1

        # independent recomputation: raw counting over the 24-point support
        slices = defaultdict(Counter)
        for y in balanced_strings(4):
            for sigma in range(1, 5):
                z = y.bit(sigma)
                transcript = (y.bits[:2], sigma)
                slices[transcript][z] += 1
        total = sum(sum(c.values()) for c in slices.values())
        expected = 0.0
        for counter in slices.values():
            weight = sum(counter.values())
            h = 0.0
            for count in counter.values():
                p = count / weight
                h -= p * math.log2(p)
            expected += (weight / total) * h
        assert value == pytest.approx(expected, abs=TOL)

    def test_monotone_in_truncation_length(self):
        values = [verify_chain_entropy_bound(truncation_protocol(4, 1, t), 4, 1).lhs for t in range(5)]
        for a, b in zip(values, values[1:]):
            assert b <= a + TOL


class TestChainEntropyBound:
    def test_no_message_protocol(self):
        report = verify_chain_entropy_bound(constant_protocol(4, 1), 4, 1)
        assert report.passed
        assert report.lhs == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("t", range(5))
    def test_truncation_family(self, t):
        report = verify_chain_entropy_bound(truncation_protocol(4, 1, t), 4, 1)
        assert report.passed
        assert report.details["stated_pass"] and report.details["proof_pass"]

    def test_random_protocols_n6_k2_sample(self):
        for seed in range(5):
            protocol = random_chain_protocol(6, 2, 3, seed)
            report = verify_chain_entropy_bound(protocol, 6, 2)
            assert report.passed

    def test_fano_fields_for_perfect_protocol(self):
        report = verify_chain_entropy_bound(trivial_forward_protocol(4, 1), 4, 1)
        assert report.details["success"] == 1
        assert report.details["fano_ceiling"] == 0.0
        assert report.details["fano_pass"] is True

    def test_fano_ceiling_for_truncation(self):
        report = verify_chain_entropy_bound(truncation_protocol(4, 1, 2), 4, 1)
        assert report.details["success"] == Fraction(3, 4)
        assert report.details["fano_pass"] is True

    def test_side_channel_decoder_gains_nothing_over_its_board(self):
        # the decoder reads a string stashed by the last message call, not the
        # board; the enumeration decodes each board once, so the stash cannot
        # carry the string of the support point being scored
        stash = {}

        def message(i, string, board, shared):
            stash["string"] = string
            return BitString(())

        p = ProtocolSpec(
            name="side-channel", n=4, k=1, message_lengths=(0,),
            message_fn=message, decode_fn=lambda board, shared: stash["string"].bit(board.index(1)),
        )
        report = verify_chain_entropy_bound(p, 4, 1)
        assert report.details["success"] == Fraction(1, 2)
        assert report.lhs == 1.0
        assert _fano_companion(report) is None

    def test_exact_success_via_oracle(self):
        assert verify_chain_entropy_bound(truncation_protocol(4, 1, 2), 4, 1).details["success"] == Fraction(3, 4)
        assert verify_chain_entropy_bound(trivial_forward_protocol(4, 2), 4, 2).details["success"] == 1


class TestEntropyBoundReport:
    """One builder serves chain accounting and both biased-index bounds."""

    def test_three_checks_share_one_detail_schema(self):
        messages = truncation_message_function(4, 1)
        plain = biased_report(4, 0, messages, 1)
        aug = biased_report(4, 0, messages, 1, aug=True)
        chain = verify_chain_entropy_bound(truncation_protocol(4, 1, 2), 4, 1)
        keys = {"rhs_stated", "stated_pass", "proof_pass", "prior_entropy", "h_messages",
                "slack_proof", "slack_stated", "vacuous"}
        assert set(plain.details) == set(aug.details) == keys
        assert set(chain.details) == keys | {"success", "fano_ceiling", "fano_pass"}

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 1), (6, 2)])
    def test_chain_verdict_is_the_proof_form(self, n, k):
        # the proof form lies above the stated one by (10h + 8k log2 n)/n, so it decides alone
        subjects = [truncation_protocol(n, k, t) for t in range(n + 1)]
        subjects += [random_chain_protocol(n, k, 3, seed) for seed in range(3)]
        for protocol in subjects:
            report = verify_chain_entropy_bound(protocol, n, k)
            assert report.passed == report.details["proof_pass"]
            assert report.details["rhs_stated"] < report.rhs

    def test_default_suite_entropy_bounds_are_all_vacuous(self):
        checks = ("biased-index-entropy-bound", "augmented-index-entropy-bound", "chain-entropy-accounting")
        reports = [r for r in run_suite("default", seed=3) if r.check in checks]
        assert len(reports) == 150
        assert all(r.rhs <= 0 and r.details["vacuous"] is True for r in reports)

    def test_builder_fails_where_the_bound_bites(self):
        # at n = 64 a one-bit message that fixes the answer leaves lhs 0 below
        # rhs = 1 - (2/64)(1 + 2 log2 64) = 19/32
        lhs, h = binary_slice_entropies({}, Counter([(1, 0), (0, 1)]), (1, 1))
        assert (lhs, h) == (0.0, 1.0)
        report = _entropy_bound_report("hand-built", {"n": 64}, lhs, h, 1.0, 1, 2)
        assert (report.lhs, report.rhs) == (0.0, 0.59375)
        assert report.passed is False
        assert report.details["vacuous"] is False

    @pytest.mark.parametrize("build", [
        lambda: random_chain_protocol(4, 1, -1, 0),
        lambda: suite_chain_entropy(max_message_bits=-1),
        lambda: truncation_message_function(4, -1),
        lambda: random_message_function(4, -1, 0),
    ], ids=["random-protocol", "chain-suite", "truncation-ids", "random-ids"])
    def test_negative_message_length_rejected(self, build):
        with pytest.raises(InvalidParameterError, match=">= 0"):
            build()


class TestBiasedIndexBound:
    def test_empty_message_leaves_prior_entropy(self):
        messages = truncation_message_function(4, 0)
        for theta in (0, Fraction(1, 6), Fraction(-1, 6)):
            report = biased_report(4, theta, messages, 0)
            assert report.passed
            assert report.lhs == pytest.approx(report.details["prior_entropy"], abs=TOL)

    def test_full_string_message_pins_answer(self):
        messages, s = full_string_message_function(4)
        report = biased_report(4, 0, messages, s)
        assert report.passed
        assert report.lhs == pytest.approx(0.0, abs=TOL)
        assert report.rhs <= 0

    def test_random_functions_proof_form(self):
        for n in (4, 6):
            for theta in bias_grid(n):
                for seed in range(3):
                    messages = random_message_function(n, 2, seed)
                    report = biased_report(n, theta, messages, 2)
                    assert report.passed, (n, theta, seed)

    def test_off_grid_bias_holds(self):
        # the direct law takes any |theta| <= 1/2, on the grid or off it
        report = biased_report(4, Fraction(1, 5), truncation_message_function(4, 1), 1)
        assert report.passed
        with pytest.raises(InvalidParameterError):
            biased_report(4, Fraction(3, 5), truncation_message_function(4, 1), 1)

    def test_message_function_determinism(self):
        a = random_message_function(4, 2, 9)
        assert a == random_message_function(4, 2, 9)
        assert a != random_message_function(4, 2, 10)

    def test_full_string_injective(self):
        messages, s = full_string_message_function(6)
        assert len(set(messages)) == len(messages) == 20
        assert s == 5 and max(messages) < 2**s

    def test_truncation_ids_are_leading_bits(self):
        # 0011 0101 0110 1001 1010 1100
        assert truncation_message_function(4, 2) == [0, 1, 1, 2, 2, 3]

    def test_budget_checked_before_any_string(self):
        with pytest.raises(ResourceLimitError) as err:
            biased_report(22, 0, [], 1)
        assert err.value.required == 15_519_504
        assert err.value.budget == DEFAULT_ENUMERATION_BUDGET

    @pytest.mark.parametrize("aug", [False, True], ids=["verify_biased_index_bound", "verify_aug_biased_index_bound"])
    @pytest.mark.parametrize("fault", ["too-few", "too-many", "negative", "too-wide", "not-int"])
    def test_message_ids_outside_contract_rejected(self, aug, fault):
        messages = truncation_message_function(4, 2)
        messages = {
            "too-few": messages[:-1],
            "too-many": messages + [0],
            "negative": [-1] + messages[1:],
            "too-wide": messages[:-1] + [4],
            "not-int": [0.5] + messages[1:],
        }[fault]
        with pytest.raises(ProtocolContractError):
            biased_report(4, 0, messages, 2, aug)

    def test_suite_builds_no_bitstring(self, monkeypatch):
        balanced_strings(4)
        built = []
        real = BitString.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(BitString, "__post_init__", counted)
        reports = suite_biased_index(ns=(4,), functions=2) + suite_biased_index(ns=(4,), functions=2, aug=True)
        assert len(reports) == 2 * 5 * (3 * 3 + 1)
        assert built == []


class TestAugBiasedIndexBound:
    def test_empty_message_unbiased_matches_direct_computation(self):
        report = biased_report(4, 0, truncation_message_function(4, 0), 0, aug=True)
        assert report.passed

        # independent recomputation of H(answer | index, prefix) at theta=0:
        # uniform weights over the 24-point support, plain counting
        cells = defaultdict(Counter)
        for y in balanced_strings(4):
            for rho in range(1, 5):
                cells[(rho, y.bits[:rho - 1])][y.bit(rho)] += 1
        total = sum(sum(c.values()) for c in cells.values())
        expected = 0.0
        for counter in cells.values():
            weight = sum(counter.values())
            h = 0.0
            for count in counter.values():
                p = count / weight
                h -= p * math.log2(p)
            expected += (weight / total) * h
        assert report.lhs == pytest.approx(expected, abs=TOL)
        # conditioning on the prefix lowers entropy below the prior; the
        # recorded slack absorbs it
        assert report.lhs < report.details["prior_entropy"]
        assert report.details["slack_proof"] >= 0

    def test_full_string_message(self):
        messages, s = full_string_message_function(4)
        report = biased_report(4, Fraction(1, 6), messages, s, aug=True)
        assert report.passed
        assert report.lhs == pytest.approx(0.0, abs=TOL)

    def test_random_functions_proof_form(self):
        for theta in bias_grid(4):
            for seed in range(3):
                messages = random_message_function(4, 2, seed)
                report = biased_report(4, theta, messages, 2, aug=True)
                assert report.passed, (theta, seed)


class TestEntropyGivenPool:
    def test_unbiased_n4(self):
        report = verify_entropy_given_pool(4, 0)
        assert report.passed
        assert report.lhs == pytest.approx(math.log2(6), abs=TOL)
        assert report.rhs == pytest.approx(0.0, abs=TOL)

    def test_half_bias_vacuous(self):
        report = verify_entropy_given_pool(4, Fraction(1, 2))
        assert report.passed
        assert (report.relation, report.lhs) == (">=", 0.0)
        assert report.details["vacuous"] is True
        assert report.rhs == pytest.approx(-2 * math.log2(4))

    def test_nonpositive_rhs_labelled_vacuous(self):
        # rhs = 4 - 2 log2 4 = 0 at n=4, theta=0: no string law can fail it
        assert verify_entropy_given_pool(4, 0).details["vacuous"] is True
        assert verify_entropy_given_pool(64, 0).details["vacuous"] is False

    def test_negative_bias_mirrors_positive(self):
        pos = verify_entropy_given_pool(8, Fraction(1, 6))
        neg = verify_entropy_given_pool(8, Fraction(-1, 6))
        assert pos.lhs == neg.lhs
        assert pos.rhs == neg.rhs

    @pytest.mark.parametrize("n", [5, 0])
    def test_odd_or_too_small_n_rejected(self, n):
        # no balanced string exists at odd n; n = 0 has no log2 n
        with pytest.raises(InvalidParameterError):
            verify_entropy_given_pool(n, 0)

    def test_sweep_small(self):
        checks, failures, min_slack = sweep_entropy_given_pool(64)
        assert failures == 0
        assert checks == sum(n // 2 for n in range(2, 65, 2))
        assert min_slack > 0

    def test_sweep_that_checks_nothing_is_refused(self):
        assert sweep_entropy_given_pool(2)[:2] == (1, 0)
        for max_n in (1, 0, -4):
            with pytest.raises(InvalidParameterError):
                sweep_entropy_given_pool(max_n)


class TestMajorityOracles:
    def test_single_bit_block(self):
        assert exact_majority_success(1) == 1

    def test_block_four(self):
        assert exact_majority_success(4) == Fraction(11, 16)

    def test_block_64_value_and_floor(self):
        value = exact_majority_success(64)
        assert float(value) == pytest.approx(0.5499, abs=5e-4)
        assert value >= Fraction(1, 2) + Fraction(1, 8) * Fraction(1, 8)

    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_formula_equals_enumeration(self, block):
        assert exact_majority_success(block) == enumerated_majority_success(8, block)

    def test_enumeration_multi_block(self):
        assert exact_majority_success(2) == enumerated_majority_success(6, 2)

    def test_weakly_decreasing_in_block_size(self):
        values = [exact_majority_success(b) for b in (1, 2, 4, 8, 16, 32, 64)]
        for a, b in zip(values, values[1:]):
            assert b <= a

    def test_vote_oracle_small_cases(self):
        q = Fraction(11, 16)
        assert majority_vote_success(1, q) == q
        assert majority_vote_success(3, q) == 3 * q**2 * (1 - q) + q**3
        # even k: ties split evenly
        assert majority_vote_success(2, q) == q**2 + q * (1 - q)

    def test_vote_oracle_unbiased_guess(self):
        assert majority_vote_success(9, Fraction(1, 2)) == Fraction(1, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_vote_oracle_without_guesses_rejected(self, k):
        with pytest.raises(InvalidParameterError):
            majority_vote_success(k, Fraction(11, 16))

    @pytest.mark.parametrize("per_guess", [Fraction(3, 2), Fraction(-1, 4)])
    def test_vote_oracle_guess_outside_unit_interval_rejected(self, per_guess):
        with pytest.raises(InvalidParameterError):
            majority_vote_success(3, per_guess)

    @pytest.mark.parametrize("n", [0, -2])
    def test_enumeration_without_positions_rejected(self, n):
        with pytest.raises(InvalidParameterError):
            enumerated_majority_success(n, 2)

    def test_enumeration_over_budget_refused_before_any_encode(self, monkeypatch):
        import chainlab.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "index_majority_encode", lambda *args: pytest.fail("encoded"))
        with pytest.raises(ResourceLimitError) as err:
            enumerated_majority_success(24, 4)
        assert err.value.required == 2**24 * 24


class TestConditionalIndependence:
    @pytest.mark.parametrize("theta", [0, Fraction(1, 2), Fraction(1, 6), Fraction(-1, 6)])
    def test_sampled_law_matches_the_support(self, theta):
        report = verify_conditional_independence(4, theta, trials=20000, seed=2)
        assert (report.rhs, report.relation, report.mode) == (5, "<=", "float")
        assert report.lhs <= 5
        assert report.details == {"cells": len(enumerate_support(4, theta, "structured").entries),
                                  "outside_support": 0}
        assert report.passed

    def test_with_empirical_check(self):
        report = verify_conditional_independence(4, Fraction(1, 6), trials=30000, seed=1)
        assert report.passed
        assert report.details["outside_support"] == 0

    def test_no_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_conditional_independence(4, 0, trials=0)
