"""Message-id tables are identical to the per-string tables they replace.

The reference is the earlier formulation, kept verbatim: a message function
is a closure from each balanced string to a validated BitString, the
biased-index joint table calls it once per string and weighs each cell by
theta as it goes (no bias-free tally, no slice count pairs), and its two
entropies come from conditional_entropy and entropy of its marginal. The
direct table weighs a cell with indexed bit w by (q +- 2p) |valid_(1-w)|.
Every report must be equal and serialize the same. The direct table must
have the same exact entries; its integer weights now differ by the constant
C(n, n/2) n/2.

The suite tallies each message function once for the whole bias grid; each
of its reports must equal the public verify_*_bound call it stands for, and
it must hold no more memory than those calls made one at a time. Every
balanced string has n/2 cells under each answer, so H(message) must not
depend on theta.
"""
import gc
import inspect
import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from chainlab import (
    BitString,
    JointTable,
    ProtocolContractError,
    bias_grid,
    conditional_entropy,
    entropy,
    verify_aug_biased_index_bound,
    verify_biased_index_bound,
)
from chainlab import oracle
from chainlab.distributions import enumerate_support
from chainlab.experiments import suite_biased_index
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
    """The report with every step replaced: the tally step and the answer
    weights only pass their arguments on, and the entropies are read from
    the whole table, built per string at theta."""
    def tally(n, message_fn, s, with_prefix):
        return (n, message_fn, s, with_prefix), None

    def entropies(args, _, theta):
        joint = ref_biased_joint(args[0], theta, *args[1:])
        return conditional_entropy(joint, "answer", joint.labels[1:]), entropy(joint.marginal(("message",)))

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_biased_tally", tally)
        patched.setattr(oracle, "cell_weights", lambda theta: theta)
        patched.setattr(oracle, "binary_slice_entropies", entropies)
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


# ---------------------------------------------------------------------------
# the suite path: one tally per message function, weighted per theta

SUITE_CASES = dict(lengths=(1, 2, 3), functions=2, seed=5)


def public_reports(n, aug, theta=None, lengths=(1, 2, 3), functions=2, seed=5):
    """What suite_biased_index stands for: one public call per (theta, s,
    function), in the suite's order, each labelled with its function."""
    verify = verify_aug_biased_index_bound if aug else verify_biased_index_bound
    full, full_s = full_string_message_function(n)
    reports = []

    def add(kind, messages, s):
        report = verify(n, t, messages, s)
        reports.append(replace(report, params={**report.params, "message_function": kind}))

    for t in bias_grid(n) if theta is None else [theta]:
        for s in lengths:
            for j in range(functions):
                add(f"random-{j}", random_message_function(n, s, seed + j), s)
            add("truncation", truncation_message_function(n, s), s)
        add("full-string", full, full_s)
    return reports


def suite_mismatches(n, aug, theta=None, tally=None):
    """How many suite reports differ from their public call (a length
    difference counts as every report); `tally`, if given, replaces the
    tally step in the suite run only."""
    public = public_reports(n, aug, theta, **SUITE_CASES)
    with pytest.MonkeyPatch.context() as patched:
        if tally is not None:
            patched.setattr(oracle, "_biased_tally", tally)
        suite = suite_biased_index(ns=(n,), aug=aug, theta=theta, **SUITE_CASES)
    if len(suite) != len(public):
        return max(len(suite), len(public))
    return sum(a != b or a.to_json_dict() != b.to_json_dict() for a, b in zip(suite, public))


def grid_and_one_theta(n):
    return [None, bias_grid(n)[-2]]


@pytest.mark.parametrize("aug", [False, True])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_suite_reports_equal_the_public_calls(n, aug):
    for theta in grid_and_one_theta(n):
        assert suite_mismatches(n, aug, theta) == 0, (n, aug, theta)
    per_theta = len(SUITE_CASES["lengths"]) * (SUITE_CASES["functions"] + 1) + 1
    assert len(suite_biased_index(ns=(n,), aug=aug, **SUITE_CASES)) == len(bias_grid(n)) * per_theta


def tally_reused_across_s(real, per_s):
    """A faulty tally step: the k-th message function of the first s is
    tallied, and that tally is handed out again for the k-th of every later s."""
    first = []
    calls = itertools.count()

    def tally(n, messages, s, with_prefix):
        if isinstance(messages, range):  # the full-string function, tallied once anyway
            return real(n, messages, s, with_prefix)
        k = next(calls)
        if k < per_s:
            first.append(real(n, messages, s, with_prefix))
        return first[k % per_s]

    return tally


@pytest.mark.parametrize("aug", [False, True])
def test_suite_identity_sees_a_tally_reused_across_s(aug):
    per_s = SUITE_CASES["functions"] + 1
    for n in (4, 6, 8):
        for theta in grid_and_one_theta(n):
            assert suite_mismatches(n, aug, theta, tally_reused_across_s(oracle._biased_tally, per_s)) > 0, (n, theta)


def test_suite_identity_sees_the_plain_tally_in_the_augmented_check():
    real = oracle._biased_tally
    plain = lambda n, messages, s, with_prefix: real(n, messages, s, False)
    for n in (4, 6, 8):
        for theta in grid_and_one_theta(n):
            assert suite_mismatches(n, True, theta, plain) > 0, (n, theta)


def traced_peak(run):
    gc.collect()  # also empties the free lists, which tracemalloc counts as allocated
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suite_holds_one_tally_at_a_time():
    # eleven augmented tallies at n=10 (2520 cells each) held at once would
    # about double the peak of one public call at a time
    cases = dict(lengths=(1,), functions=10, seed=0)
    balanced_strings(10)
    suite = traced_peak(lambda: suite_biased_index(ns=(10,), aug=True, **cases))
    public = traced_peak(lambda: public_reports(10, True, **cases))
    assert suite <= 1.1 * public


# ---------------------------------------------------------------------------
# H(message) does not depend on theta


def balance_misses(n, aug, mutant=None):
    """(tallies, reports) of the suite at n that break the balance of its
    strings. A tally breaks it when a message id's count pair is not n/2
    cells per string under each answer; a report, when its h_messages is
    not the entropy of the id histogram, which does not depend on theta.
    `mutant` = (old, new) rewrites the tally's source for the suite run."""
    real = oracle._biased_tally
    if mutant is not None:
        source = inspect.getsource(real)
        assert source.count(mutant[0]) == 1
        namespace = dict(vars(oracle))
        exec(source.replace(*mutant), namespace)
        real = namespace["_biased_tally"]
    tallies = []

    def recorded(n, messages, s, with_prefix):
        tallies.append((messages, real(n, messages, s, with_prefix)))
        return tallies[-1][1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(oracle, "_biased_tally", recorded)
        suite = suite_biased_index(ns=(n,), aug=aug, **SUITE_CASES)
    assert len(suite) == len(bias_grid(n)) * len(tallies)
    tally_misses = report_misses = 0
    for j, (messages, (_, classes)) in enumerate(tallies):
        histogram = Counter(messages)
        tally_misses += classes != Counter((n // 2 * c, n // 2 * c) for c in histogram.values())
        h = entropy(JointTable.from_weights(("message",), {(m,): c for m, c in histogram.items()}))
        # the suite files one report per message function in each theta's row
        report_misses += sum(report.details["h_messages"] != h for report in suite[j::len(tallies)])
    return tally_misses, report_misses


@pytest.mark.parametrize("aug", [False, True])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_message_entropy_does_not_depend_on_theta(n, aug):
    assert balance_misses(n, aug) == (0, 0)


@pytest.mark.parametrize("aug", [False, True])
def test_balance_sees_one_answer_counted_twice(aug):
    # every answer-1 cell counted twice scales each message's mass by the
    # same factor, so H(message) is unchanged and only the count pairs show it
    every_string = ("message_pair[w] += 1", "message_pair[w] += 1 + w")
    # the answer-1 cells of the first string's message counted twice tilt
    # H(message) with theta
    first_message = ("message_pair[w] += 1", "message_pair[w] += 1 + (w and m == messages[0])")
    for n in (4, 6, 8):
        assert balance_misses(n, aug, every_string)[0] > 0, n
        assert balance_misses(n, aug, first_message)[1] > 0, n
