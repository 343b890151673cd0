import json
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainlab import (
    BalancedString,
    BitString,
    ChainInstance,
    InvalidParameterError,
    enumerate_balanced,
    instance_from_json,
    instance_to_json,
    validate_instance,
)


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

    def test_prefix_examples(self):
        x = BitString("0110")
        assert x.prefix(3) == BitString("01")
        assert x.prefix(1) == BitString("")
        assert x.prefix(4) == BitString("011")

    def test_prefix_out_of_range(self):
        with pytest.raises(IndexError):
            BitString("0110").prefix(5)

    def test_rejects_non_bits(self):
        with pytest.raises(InvalidParameterError):
            BitString((0, 2))

    def test_text_round_trip(self):
        assert BitString.from_text("10011").text == "10011"

    def test_xor(self):
        assert BitString("0110") ^ BitString("1111") == BitString("1001")

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_prefix_bit_suffix_reconstructs(self, n):
        for x in enumerate_balanced(n):
            for pos in range(1, n + 1):
                rebuilt = x.prefix(pos).bits + (x.bit(pos),) + x.bits[pos:]
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
        for s in enumerate_balanced(n):
            assert s.ones() == n // 2


class TestEnumerateBalanced:
    def test_n2(self):
        assert [s.text for s in enumerate_balanced(2)] == ["01", "10"]

    def test_n4_count_and_first(self):
        strings = [s.text for s in enumerate_balanced(4)]
        assert len(strings) == 6
        assert strings[0] == "0011"
        assert strings == sorted(strings)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_balanced(3))

    def test_all_distinct_lexicographic(self):
        strings = [s.text for s in enumerate_balanced(6)]
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

    def test_prefix_for(self):
        inst = ChainInstance(4, 1, (BitString("0110"),), (3,), 1)
        assert inst.prefix_for(1) == BitString("01")


class TestInstanceJson:
    def test_round_trip(self):
        inst = ChainInstance(4, 2, (BitString("0110"), BitString("1010")), (2, 1), 1)
        text = instance_to_json(inst)
        data = json.loads(text)
        assert data == {
            "n": 4, "k": 2, "z": 1,
            "strings": ["0110", "1010"], "indices": [2, 1],
        }
        assert instance_from_json(text) == inst

    def test_missing_field(self):
        with pytest.raises(InvalidParameterError):
            instance_from_json('{"n": 2, "k": 1}')

    @given(st.data())
    def test_round_trip_sampled(self, data):
        n = data.draw(st.integers(1, 6)) * 2
        k = data.draw(st.integers(1, 4))
        strings = tuple(
            BitString(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))) for _ in range(k)
        )
        indices = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
        inst = ChainInstance(n, k, strings, indices, data.draw(st.integers(0, 1)))
        assert instance_from_json(instance_to_json(inst)) == inst
