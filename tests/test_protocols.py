import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from chainlab import (
    BitString,
    ChainInstance,
    InvalidParameterError,
    ProtocolContractError,
    ProtocolSpec,
    SharedRandomness,
    balanced_strings,
    build_protocol,
    chained_majority_protocol,
    index_majority_decode,
    index_majority_encode,
    run_chain_protocol,
    sampled_bits_protocol,
    trivial_forward_protocol,
    truncation_protocol,
)
from chainlab import protocols
from chainlab.montecarlo import chain_instances, sample_chain_batch
from chainlab.oracle import _final_boards
from chainlab.protocols import Board

from util import chi2_quantile, chi2_stat, constant_protocol, mutate


def sampled_instances(n, k, count, seed):
    """`count` instances of the hard distribution from the batch sampler."""
    _, sigma, strings = sample_chain_batch(np.random.default_rng(seed), count, n, k)
    return chain_instances(strings, sigma)


def all_instances(n, k):
    strings = balanced_strings(n)
    for z in (0, 1):
        valid = [(y, s) for y in strings for s in range(1, n + 1) if y.bit(s) == z]
        for combo in product(valid, repeat=k):
            yield ChainInstance(
                n=n, k=k,
                strings=tuple(y for y, _ in combo),
                indices=tuple(s for _, s in combo),
                answer=z,
            )


class TestSharedRandomness:
    def test_same_label_same_values(self):
        r = SharedRandomness(42)
        assert r.bits("a", 16) == r.bits("a", 16)
        assert r.permutation("p", 8) == r.permutation("p", 8)

    def test_labels_are_independent_streams(self):
        r = SharedRandomness(42)
        assert r.bits("a", 32) != r.bits("b", 32)

    def test_same_seed_across_instances(self):
        assert SharedRandomness(7).permutation("x", 6) == SharedRandomness(7).permutation("x", 6)

    def test_permutation_is_permutation(self):
        perm = SharedRandomness(1).permutation("x", 9)
        assert sorted(perm) == list(range(1, 10))

    def test_positions_sorted_distinct(self):
        pos = SharedRandomness(1).positions("x", 4, 10)
        assert list(pos) == sorted(set(pos))
        assert all(1 <= p <= 10 for p in pos)


class TestEngine:
    def test_trivial_forward_always_correct(self):
        p = trivial_forward_protocol(6, 2)
        for inst in sampled_instances(6, 2, 50, seed=0):
            result = run_chain_protocol(p, inst, SharedRandomness(1))
            assert result.correct
            assert sum(len(m) for m in result.board.messages) == sum(p.message_lengths) == 12

    def test_trivial_forward_board_message(self):
        inst = ChainInstance(2, 1, (BitString("10"),), (1,), 1)
        result = run_chain_protocol(trivial_forward_protocol(2, 1), inst, SharedRandomness(0))
        assert result.board.messages == (BitString("10"),)
        assert result.board.message(1) == BitString("10")

    def test_last_only_mode(self):
        p = trivial_forward_protocol(4, 3, mode="last-only")
        assert p.message_lengths == (0, 0, 4)
        for inst in sampled_instances(4, 3, 20, seed=1):
            assert run_chain_protocol(p, inst, SharedRandomness(2)).correct

    def test_declared_length_enforced(self):
        broken = ProtocolSpec(
            name="broken", n=2, k=1, message_lengths=(2,),
            message_fn=lambda i, string, board, shared: BitString("1"),
            decode_fn=lambda board, shared: 0,
        )
        inst = ChainInstance(2, 1, (BitString("10"),), (1,), 1)
        with pytest.raises(ProtocolContractError):
            run_chain_protocol(broken, inst, SharedRandomness(0))

    def test_size_mismatch_rejected(self):
        p = trivial_forward_protocol(4, 1)
        inst = ChainInstance(2, 1, (BitString("10"),), (1,), 1)
        with pytest.raises(ProtocolContractError):
            run_chain_protocol(p, inst, SharedRandomness(0))

    def test_indices_revealed_in_order(self):
        inst = next(all_instances(4, 2))
        result = run_chain_protocol(truncation_protocol(4, 2, 2), inst, SharedRandomness(0))
        assert result.board.indices == inst.indices
        assert [result.board.index(i) for i in (1, 2)] == list(inst.indices)

    @pytest.mark.parametrize("build", [
        lambda: truncation_protocol(4, 2, 2),
        lambda: sampled_bits_protocol(4, 2, 2),
        lambda: chained_majority_protocol(4, 2, 2),
        lambda: trivial_forward_protocol(4, 2),
    ])
    def test_one_way_causality_exhaustive(self, build):
        # player 1's message may depend only on its own string (the board is
        # empty before it): perturbing (X_2, sigma_2) or z must never change M_1
        p = build()
        shared = SharedRandomness(9)
        first_message = {}
        for inst in all_instances(4, 2):
            result = run_chain_protocol(p, inst, shared)
            key = inst.strings[0]
            m1 = result.board.messages[0]
            if key in first_message:
                assert first_message[key] == m1
            else:
                first_message[key] = m1

    def test_board_key_is_hashable_view(self):
        board = Board((BitString("10"),), (2,))
        assert board.key() == (((1, 0),), (2,))
        hash(board.key())

    @pytest.mark.parametrize("i", [0, -1, 2])
    def test_board_lookup_outside_players_raises(self, i):
        # a bare tuple lookup would return the last entry at i = 0 and -1
        board = Board((BitString("10"),), (2,))
        for read in (board.message, board.index):
            with pytest.raises(KeyError):
                read(i)

    def test_board_fingerprint_text(self):
        board = Board((BitString("10"), BitString(())), (2, 3))
        assert board.fingerprint() == "M1:10;M2:;index1:2;index2:3"
        assert Board((BitString("1"),), (2,)).fingerprint() == "M1:1;index1:2"

    def test_each_player_sees_exactly_the_earlier_players(self):
        seen = []

        def message(i, string, board, shared):
            seen.append((i, string, board))
            return BitString(())

        def decode(board, shared):
            seen.append(("decode", None, board))
            return 0

        p = ProtocolSpec(
            name="recorder", n=4, k=3, message_lengths=(0, 0, 0),
            message_fn=message, decode_fn=decode,
        )
        inst = next(all_instances(4, 3))
        run_chain_protocol(p, inst, SharedRandomness(0))
        assert [entry[0] for entry in seen] == [1, 2, 3, "decode"]
        for spoken, (who, string, board) in enumerate(seen):
            if who != "decode":
                assert string == inst.strings[who - 1]
            assert len(board.messages) == spoken
            assert board.indices == inst.indices[:spoken]

    def test_message_lengths_constant_across_inputs(self):
        for p in (
            truncation_protocol(4, 2, 3),
            sampled_bits_protocol(4, 2, 1),
            chained_majority_protocol(4, 2, 4),
        ):
            for inst in all_instances(4, 2):
                result = run_chain_protocol(p, inst, SharedRandomness(3))
                lengths = tuple(len(m) for m in result.board.messages)
                assert lengths == p.message_lengths


class TestIndexMajorityCoding:
    def test_plain_majority(self):
        out = index_majority_encode(BitString("0001"), BitString("0000"), (1, 2, 3, 4), 4)
        assert out == BitString("0")

    def test_mask_flip(self):
        out = index_majority_encode(BitString("0001"), BitString("1111"), (1, 2, 3, 4), 4)
        assert out == BitString("1")

    def test_block_size_one_is_identity_scatter(self):
        x, mask = BitString("0110"), BitString("0101")
        perm = (3, 1, 4, 2)
        out = index_majority_encode(x, mask, perm, 1)
        for i in range(1, 5):
            assert out.bit(perm[i - 1]) == x.bit(i) ^ mask.bit(i)

    def test_tie_goes_to_zero(self):
        out = index_majority_encode(BitString("0110"), BitString("0000"), (1, 2, 3, 4), 4)
        assert out == BitString("0")

    def test_decode_block_size_one_recovers_bit(self):
        rng = random.Random(3)
        for _ in range(50):
            bits = tuple(rng.randrange(2) for _ in range(8))
            x = BitString(bits)
            mask = BitString(tuple(rng.randrange(2) for _ in range(8)))
            perm = tuple(rng.sample(range(1, 9), 8))
            summary = index_majority_encode(x, mask, perm, 1)
            for sigma in range(1, 9):
                assert index_majority_decode(summary, sigma, mask, perm, 1) == x.bit(sigma)

    def test_decode_single_block_returns_majority(self):
        x = BitString("0111")
        summary = index_majority_encode(x, BitString("0000"), (1, 2, 3, 4), 4)
        assert index_majority_decode(summary, 2, BitString("0000"), (1, 2, 3, 4), 4) == 1

    def test_block_size_must_divide(self):
        with pytest.raises(InvalidParameterError):
            index_majority_encode(BitString("0110"), BitString("0000"), (1, 2, 3, 4), 3)

    def test_decode_length_check(self):
        with pytest.raises(InvalidParameterError):
            index_majority_decode(BitString("01"), 1, BitString("0000"), (1, 2, 3, 4), 4)

    def test_uniformized_string_and_index_are_uniform(self):
        # with shared mask and permutation, the randomized string is uniform
        # and the permuted index is uniform, for any fixed input
        x = BitString("0011")
        sigma = 2
        draws = 100000
        y_counts: Counter = Counter()
        pos_counts: Counter = Counter()
        for seed in range(draws):
            shared = SharedRandomness(seed)
            mask = shared.bits("majority/mask/1", 4)
            perm = shared.permutation("majority/perm/1", 4)
            y = index_majority_encode(x, mask, perm, 1)
            y_counts[y.text] += 1
            pos_counts[perm[sigma - 1]] += 1
        uniform_y = {key: 1 / 16 for key in y_counts}
        assert len(y_counts) == 16
        assert chi2_stat(y_counts, uniform_y, draws) <= chi2_quantile(15)
        uniform_pos = {key: 1 / 4 for key in pos_counts}
        assert chi2_stat(pos_counts, uniform_pos, draws) <= chi2_quantile(3)


class TestChainedMajority:
    def test_total_bits(self):
        assert sum(chained_majority_protocol(16, 2, 4).message_lengths) == 8

    def test_block_one_always_correct(self):
        p = chained_majority_protocol(4, 2, 1)
        for inst in all_instances(4, 2):
            assert run_chain_protocol(p, inst, SharedRandomness(5)).correct

    def test_k1_matches_index_majority_run_for_run(self):
        chained = chained_majority_protocol(8, 1, 4)
        single = build_protocol("index-majority", 8, 1, {"B": 4})
        for seed, inst in enumerate(sampled_instances(8, 1, 40, seed=4)):
            a = run_chain_protocol(chained, inst, SharedRandomness(seed))
            b = run_chain_protocol(single, inst, SharedRandomness(seed))
            assert a.output == b.output
            assert a.board.messages == b.board.messages

    def test_shared_randomness_derived_once_per_run(self, monkeypatch):
        n, k = 16, 3
        labels = []
        stream = SharedRandomness.stream
        monkeypatch.setattr(SharedRandomness, "stream",
                            lambda self, label: labels.append(label) or stream(self, label))
        p = chained_majority_protocol(n, k, 4)
        inst = sampled_instances(n, k, 1, seed=2)[0]
        boards = {}
        for seed in (1, 2, 1):
            labels.clear()
            board = run_chain_protocol(p, inst, SharedRandomness(seed)).board
            assert len(labels) <= 2 * k + 1
            assert boards.setdefault(seed, board) == board
        assert boards[1].messages != boards[2].messages
        assert run_chain_protocol(chained_majority_protocol(n, k, 4), inst, SharedRandomness(2)).board == boards[2]

    def test_batch_kernel_only_up_to_block_size_64(self):
        assert chained_majority_protocol(64, 3, 64).simulator == "majority"
        assert chained_majority_protocol(128, 3, 128).simulator is None
        assert build_protocol("index-majority", 128, 1, {"B": 128}).simulator is None


class TestTruncation:
    def test_full_length_always_correct(self):
        p = truncation_protocol(4, 2, 4)
        for inst in all_instances(4, 2):
            assert run_chain_protocol(p, inst, SharedRandomness(0)).correct

    def test_zero_length_outputs_zero(self):
        p = truncation_protocol(4, 1, 0)
        for inst in all_instances(4, 1):
            assert run_chain_protocol(p, inst, SharedRandomness(0)).output == 0

    def test_exact_success_by_exhaustion(self):
        # n=4, k=1, t=2: correct when sigma <= 2, else outputs 0 (right for z=0)
        hits = total = 0
        p = truncation_protocol(4, 1, 2)
        for inst in all_instances(4, 1):
            hits += run_chain_protocol(p, inst, SharedRandomness(0)).correct
            total += 1
        # independent count: support is uniform, so success = hits/total
        expected_hits = sum(
            1 if inst.indices[0] <= 2 else (inst.answer == 0)
            for inst in all_instances(4, 1)
        )
        assert hits == expected_hits
        assert math.isclose(hits / total, 3 / 4)

    def test_parameter_range(self):
        with pytest.raises(InvalidParameterError):
            truncation_protocol(4, 1, 5)


def reference_truncation_decode(board, k, t):
    """Truncation's decoder through the checked accessors: the first of
    players k, 1..k-1 whose index lies in its sent prefix, else 0."""
    for i in (k, *range(1, k)):
        sigma = board.index(i)
        if sigma <= t:
            return board.message(i).bit(sigma)
    return 0


def every_truncation_board(n, k, t):
    """Every final board whose messages are t-bit prefixes of balanced
    strings, with any indices, including boards of probability 0: on those
    two sent prefixes may disagree at their indices, so the order the
    decoder reads them in shows."""
    entries = [(BitString(bits), sigma) for bits in sorted({y.bits[:t] for y in balanced_strings(n)})
               for sigma in range(1, n + 1)]
    for combo in product(entries, repeat=k):
        yield Board(tuple(m for m, _ in combo), tuple(s for _, s in combo))


TRUNCATION_CLOSURE_CASES = [(6, k, t) for k in (1, 2) for t in range(7)] + [(4, 3, t) for t in range(5)]


class TestTruncationClosures:
    """The closures index the board's tuples directly and copy checked bits;
    they must agree with readers through the checked accessors."""

    @staticmethod
    def decoder_mismatches(n, k, t, boards):
        p = protocols.truncation_protocol(n, k, t)
        shared = SharedRandomness(0)
        return sum(p.decode_fn(board, shared) != reference_truncation_decode(board, k, t) for board in boards)

    @pytest.mark.parametrize("n,k,t", TRUNCATION_CLOSURE_CASES)
    def test_decoder_matches_the_accessor_reference(self, n, k, t):
        p = truncation_protocol(n, k, t)
        finals = [board for board, *_ in _final_boards(p, n, k, SharedRandomness(0))]
        assert finals and self.decoder_mismatches(n, k, t, finals) == 0
        assert self.decoder_mismatches(n, k, t, every_truncation_board(n, k, t)) == 0

    @pytest.mark.parametrize("n,k,t", TRUNCATION_CLOSURE_CASES)
    def test_message_is_the_validated_prefix(self, n, k, t):
        p = truncation_protocol(n, k, t)
        for y in balanced_strings(n):
            for i in range(1, k + 1):
                message = p.message_fn(i, y, Board(), SharedRandomness(0))
                assert type(message) is BitString and message == BitString(y.bits[:t])

    @pytest.mark.parametrize("n,k,t", [(n, k, t) for n, k, t in TRUNCATION_CLOSURE_CASES if k >= 2 and t > 0])
    def test_decoder_equivalence_sees_instance_one_read_first(self, monkeypatch, n, k, t):
        # not on the final boards alone: on a board of positive weight every
        # prefix that holds its index holds the answer there, so any order
        # reads the same bit
        mutate(monkeypatch, protocols, "truncation_protocol",
               "order = (k - 1, *range(k - 1))", "order = tuple(range(k))")
        assert self.decoder_mismatches(n, k, t, every_truncation_board(n, k, t)) > 0


class TestSampledBits:
    def test_full_sampling_always_correct(self):
        p = sampled_bits_protocol(4, 2, 4)
        for inst in all_instances(4, 2):
            assert run_chain_protocol(p, inst, SharedRandomness(6)).correct

    def test_zero_sampling_is_coin(self):
        p = sampled_bits_protocol(4, 1, 0)
        outputs = {
            run_chain_protocol(p, inst, SharedRandomness(seed)).output
            for inst in all_instances(4, 1)
            for seed in range(8)
        }
        assert outputs == {0, 1}

    def test_hit_probability_formula_brute_force(self):
        # engine-independent check of the formula 1 - (1 - m/n)^k used as the
        # Monte Carlo oracle: count position-set choices missing every index
        n, k, m = 4, 2, 1
        from itertools import combinations

        sets = list(combinations(range(1, n + 1), m))
        misses = 0
        total = 0
        for sigma in product(range(1, n + 1), repeat=k):
            for choice in product(sets, repeat=k):
                total += 1
                misses += all(sigma[i] not in choice[i] for i in range(k))
        assert misses / total == (1 - m / n) ** k


class TestConstantProtocol:
    def test_zero_bits_and_fixed_output(self):
        p = constant_protocol(4, 2, 0)
        assert p.message_lengths == (0, 0)
        for inst in all_instances(4, 2):
            result = run_chain_protocol(p, inst, SharedRandomness(0))
            assert result.output == 0
            assert result.correct == (inst.answer == 0)


class TestRegistry:
    def test_build_each(self):
        assert build_protocol("trivial-forward", 4, 2, {}).name == "trivial-forward"
        assert build_protocol("sampled-bits", 4, 2, {"m": 2}).name == "sampled-bits"
        assert build_protocol("index-majority", 4, 1, {"B": 2}).name == "index-majority"
        assert build_protocol("chained-majority", 4, 2, {"B": 2}).name == "chained-majority"
        assert build_protocol("truncation", 4, 2, {"t": 1}).name == "truncation"

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            build_protocol("nope", 4, 1, {})

    def test_unknown_param(self):
        with pytest.raises(InvalidParameterError):
            build_protocol("truncation", 4, 1, {"t": 1, "x": 2})

    def test_index_majority_requires_k1(self):
        with pytest.raises(InvalidParameterError):
            build_protocol("index-majority", 4, 2, {"B": 2})

    @pytest.mark.parametrize("params", [{}, {"B": "two"}, {"B": "1.5"}, {"B": 1.5}, {"B": True}, {"B": None}],
                             ids=["missing", "text", "decimal-text", "float", "bool", "none"])
    def test_index_majority_at_k2_names_k_before_a_bad_block_size(self, params):
        with pytest.raises(InvalidParameterError, match="single-instance protocol, got k=2"):
            build_protocol("index-majority", 4, 2, params)

    def test_missing_required_param(self):
        with pytest.raises(InvalidParameterError):
            build_protocol("chained-majority", 4, 2, {})
