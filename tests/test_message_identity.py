"""Message-id tables are identical to the per-string tables they replace.

The reference is the earlier formulation, kept verbatim: a message function
is a closure from each balanced string to a validated BitString, the
biased-index joint table calls it once per string, and the direct table
weighs a cell with indexed bit w by (q +- 2p) |valid_(1-w)|. Every report
must be equal and serialize the same. The direct table must have the same
exact entries; its integer weights now differ by the constant C(n, n/2) n/2.
"""
import math
import random
from fractions import Fraction

import pytest

from chainlab import (
    BitString,
    JointTable,
    ProtocolContractError,
    bias_grid,
    verify_aug_biased_index_bound,
    verify_biased_index_bound,
)
from chainlab import oracle
from chainlab.distributions import enumerate_support
from chainlab.model import BalancedString, balanced_strings
from chainlab.oracle import full_string_message_function, random_message_function, truncation_message_function
from chainlab.protocols import derive_seed


def ref_biased_joint(n, theta, message_fn, s, with_prefix):
    # integer weights over a common denominator: (q +- 2p) per (y, rho) cell
    p, q = theta.numerator, theta.denominator
    weight_of_bit = (q - 2 * p, q + 2 * p)
    weights = {}
    for y in balanced_strings(n):
        message = message_fn(y)
        if not isinstance(message, BitString) or len(message) != s:
            raise ProtocolContractError(
                f"message function must emit {s} bits, got {message!r} for '{y.text}'"
            )
        m, bits = message.bits, y.bits
        for rho, w in enumerate(bits, 1):
            weight = weight_of_bit[w]
            if weight == 0:
                continue
            key = (w, m, rho, bits[: rho - 1]) if with_prefix else (w, m, rho)
            weights[key] = weights.get(key, 0) + weight
    labels = ("answer", "message", "index", "prefix") if with_prefix else ("answer", "message", "index")
    return JointTable.from_weights(labels, weights)


def ref_direct_table(n, theta):
    """Each answer bit w gets mass p_w, shared equally by the cells whose
    indexed bit is w. With theta = p/q, over the common denominator
    2q |valid_0| |valid_1| a cell with bit w weighs (q +- 2p) |valid_(1-w)|."""
    strings = balanced_strings(n)
    valid = {
        w: [(y, rho) for y in strings for rho in range(1, n + 1) if y.bit(rho) == w]
        for w in (0, 1)
    }
    p, q = theta.numerator, theta.denominator
    table = {}
    for w, sign in ((0, -1), (1, 1)):
        weight = (q + sign * 2 * p) * len(valid[1 - w])
        for key in valid[w]:
            table[key] = weight
    return table


def ref_random_message_function(n, s, seed):
    """A uniformly random function from balanced strings to s-bit messages,
    materialized from a seeded stream."""
    rng = random.Random(derive_seed("message-fn", n, s, seed))
    table = {
        y: BitString(tuple(rng.randrange(2) for _ in range(s)))
        for y in balanced_strings(n)
    }
    return lambda y: table[y]


def ref_truncation_message_function(s):
    return lambda y: BitString(y.bits[:s])


def ref_full_string_message_function(n):
    """An injective message function (the string's rank, binary-coded) and
    its message length."""
    ranks = {y: i for i, y in enumerate(balanced_strings(n))}
    s = max(1, math.ceil(math.log2(len(ranks))))
    def encode(y: BalancedString) -> BitString:
        r = ranks[y]
        return BitString(tuple((r >> (s - 1 - j)) & 1 for j in range(s)))
    return encode, s


def dropped_last_draw(n, s, seed):
    """Random ids that stop one draw short: the last id's last bit is 0."""
    draw = random.Random(derive_seed("message-fn", n, s, seed)).randrange
    count = math.comb(n, n // 2)
    bits = [draw(2) for _ in range(count * s - 1)] + [0]
    return [int("".join(map(str, bits[r * s:(r + 1) * s])), 2) for r in range(count)]


def cases(n):
    """(theta, label, s, reference function, ids) over the bias grid, s in
    {1, 2, 3}, random seeds 0-2, truncation and full-string."""
    full_fn, full_s = ref_full_string_message_function(n)
    full, s_full = full_string_message_function(n)
    assert s_full == full_s
    for theta in bias_grid(n):
        for s in (1, 2, 3):
            for seed in range(3):
                yield theta, f"random-{seed}", s, ref_random_message_function(n, s, seed), random_message_function(n, s, seed)
            yield theta, "truncation", s, ref_truncation_message_function(s), truncation_message_function(n, s)
        yield theta, "full-string", full_s, full_fn, full


def reference_report(monkeypatch, verify, n, theta, message_fn, s):
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_biased_joint", ref_biased_joint)
        return verify(n, theta, message_fn, s)


@pytest.mark.parametrize("verify", [verify_biased_index_bound, verify_aug_biased_index_bound])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_reports_match_per_string_tables(monkeypatch, verify, n):
    checked = 0
    for theta, label, s, ref_fn, ids in cases(n):
        expected = reference_report(monkeypatch, verify, n, theta, ref_fn, s)
        report = verify(n, theta, ids, s)
        assert report == expected, (n, theta, label, s)
        assert report.to_json_dict() == expected.to_json_dict()
        checked += 1
    assert checked == len(bias_grid(n)) * (3 * 4 + 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_direct_table_entries_match(n):
    for theta in bias_grid(n):
        reference = JointTable.from_weights(("string", "index"), ref_direct_table(n, Fraction(theta)))
        assert enumerate_support(n, theta, "direct").entries == reference.entries, (n, theta)


def test_identity_sees_a_dropped_draw(monkeypatch):
    def differs(n, theta, label, s, ref_fn, ids):
        mutant = dropped_last_draw(n, s, int(label.removeprefix("random-")))
        assert mutant[:-1] == ids[:-1]
        expected = reference_report(monkeypatch, verify_biased_index_bound, n, theta, ref_fn, s)
        return verify_biased_index_bound(n, theta, mutant, s) != expected

    assert any(differs(n, *case) for n in (4, 6, 8) for case in cases(n) if case[1].startswith("random-"))
