from itertools import permutations

import pytest

from chainlab import (
    BalancedString,
    BitString,
    ChainInstance,
    InvalidParameterError,
    balanced_strings,
)

from util import validate_instance


class TestBitString:
    def test_bit_at_reads_1_based(self):
        x = BitString("0110")
        assert x.bit(2) == 1
        assert x.bit(1) == 0

    def test_bit_at_out_of_range(self):
        with pytest.raises(IndexError):
            BitString("1").bit(2)
        with pytest.raises(IndexError):
            BitString("1").bit(0)

    def test_rejects_non_bits(self):
        with pytest.raises(InvalidParameterError):
            BitString((0, 2))

    def test_accepted_and_rejected_bits(self):
        for bits, expected in (("0110", (0, 1, 1, 0)), ((True, False), (1, 0)), ((1.0, 0), (1, 0)), ((), ())):
            x = BitString(bits)
            assert x.bits == expected and all(type(b) is int for b in x.bits)
        for bits in ((0, 2), (1, -1), "012"):
            with pytest.raises(InvalidParameterError, match="bits must be 0 or 1"):
                BitString(bits)

    def test_text_round_trip(self):
        assert BitString("10011").text == "10011"

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_prefix_bit_suffix_reconstructs(self, n):
        # the augmented bound's prefix before index pos is bits[: pos - 1],
        # so the 1-based bit(pos) must be the bit right after it
        for x in balanced_strings(n):
            for pos in range(1, n + 1):
                rebuilt = x.bits[: pos - 1] + (x.bit(pos),) + x.bits[pos:]
                assert rebuilt == x.bits


class TestBalancedString:
    def test_accepts_exactly_half_ones(self):
        assert BalancedString("0110").ones() == 2

    def test_rejects_unbalanced(self):
        with pytest.raises(InvalidParameterError):
            BalancedString("0111")

    def test_rejects_odd_length(self):
        with pytest.raises(InvalidParameterError):
            BalancedString("011")

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_popcount_invariant(self, n):
        for s in balanced_strings(n):
            assert s.ones() == n // 2


class TestEnumerateBalanced:
    def test_n2(self):
        assert [s.text for s in balanced_strings(2)] == ["01", "10"]

    def test_n4_count_and_first(self):
        strings = [s.text for s in balanced_strings(4)]
        assert len(strings) == 6
        assert strings[0] == "0011"
        assert strings == sorted(strings)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            balanced_strings(3)

    def test_all_distinct_lexicographic(self):
        strings = [s.text for s in balanced_strings(6)]
        assert len(strings) == 20 == len(set(strings))
        assert strings == sorted(strings)


class TestChainInstance:
    def test_validate_true(self):
        inst = ChainInstance(2, 1, (BitString("10"),), (1,), 1)
        assert validate_instance(inst)

    def test_validate_false_on_wrong_bit(self):
        inst = ChainInstance(2, 1, (BitString("10"),), (2,), 1)
        assert not validate_instance(inst)

    def test_validate_k2(self):
        inst = ChainInstance(2, 2, (BitString("10"), BitString("01")), (1, 2), 1)
        assert validate_instance(inst)

    def test_validate_false_on_unbalanced(self):
        inst = ChainInstance(4, 1, (BitString("1110"),), (1,), 1)
        assert not validate_instance(inst)

    def test_validate_invariant_under_pair_permutation(self):
        strings = (BitString("1010"), BitString("0110"), BitString("1100"))
        indices = (1, 2, 2)
        for order in permutations(range(3)):
            inst = ChainInstance(
                4, 3,
                tuple(strings[i] for i in order),
                tuple(indices[i] for i in order),
                1,
            )
            assert validate_instance(inst)

    def test_rejects_odd_n(self):
        with pytest.raises(InvalidParameterError):
            ChainInstance(3, 1, (BitString("101"),), (1,), 1)

    def test_rejects_index_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            ChainInstance(2, 1, (BitString("10"),), (3,), 1)
