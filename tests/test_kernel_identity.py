"""Fast kernels are identical to the reference formulations they replace.

The entropy reference is the Fraction formulation in `util` (ref_entropy,
ref_conditional_entropy, ref_marginal). A joint table's exact entries must
equal its Fraction cells, the binary-answer slice function must equal the
reference's H(answer | message, slice) and H(message) on the table it
stands for, and each mutant of it must miss somewhere. Every comparison is
float `==`, not approx.

The block-majority reference draws every block word of a batch as one run of
raw outputs, reads bit 0 of each, then draws the tie coins at even k (at odd
k no vote ties and no coin is drawn). The kernel, which
draws and decodes pass by pass, must give the same success count and leave
the generator in the same state at any pass size, and each mutant of its
decoding must miss one or the other somewhere on the grid.

The string-path reference selects a row's lowest keys by `argpartition` and a
scatter. The threshold sampler must give the same arrays and leave the
generator in the same state, and a mutant of its comparison must miss.

The truncation and sampled-bits batches never build strings: they skip the
string keys in the stream. Skipping N outputs must leave the generator as
`random(N)` does, with or without a pending 32-bit half-word, and a batch
must give the string path's success count (the sampler plus string-reading
kernels) and final generator state. The sampled-bits reference reads the
strings as truncation's does at t = m, the published sets all relabelled to
{1..m}, and falls back on one coin per trial.
"""
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from chainlab import InvalidParameterError, JointTable, binary_entropy
from chainlab.info_theory import binary_entropy_ratio
from chainlab import info_theory, montecarlo
from chainlab.montecarlo import CHUNK_CELLS, MAJORITY_CELLS, _batch_rng

from util import mutate, ref_cells, ref_conditional_entropy, ref_entropy, ref_marginal, ref_term_bits


def ref_binary_entropy(x):
    return ref_term_bits(x) + ref_term_bits(1 - x)


@st.composite
def weighted_tables(draw):
    """Integer weights over 2-4 variables with alphabets of 1-3 values; many
    cells are zero."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    cells = list(product(*(range(s) for s in sizes)))
    weight = st.one_of(st.just(0), st.integers(1, 12), st.integers(1, 10**9))
    weights = dict(zip(cells, draw(st.lists(weight, min_size=len(cells), max_size=len(cells)))))
    if not any(weights.values()):
        weights[draw(st.sampled_from(cells))] = draw(st.integers(1, 10**9))
    return tuple(f"v{i}" for i in range(len(sizes))), weights


@given(weighted_tables())
def test_joint_table_kernel_is_bit_identical(case):
    labels, weights = case
    assert JointTable.from_weights(labels, weights).entries == ref_cells(weights)


@given(st.integers(1, 10**12).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b))))
def test_binary_entropy_is_bit_identical(ab):
    a, b = ab
    expected = ref_binary_entropy(Fraction(a, b))
    assert binary_entropy(Fraction(a, b)) == expected
    assert binary_entropy_ratio(a, b) == expected
    assert binary_entropy_ratio(3 * a, 3 * b) == expected


@pytest.mark.parametrize("weights", [{(0, 0): 3, (1, 0): -1}, {(0, 0): 0}, {(0, 0): 1.5}])
def test_bad_weights_rejected(weights):
    with pytest.raises(InvalidParameterError):
        JointTable.from_weights(("x", "y"), weights)


def test_binary_entropy_ratio_domain():
    with pytest.raises(InvalidParameterError):
        binary_entropy_ratio(3, 2)


COUNT = st.one_of(st.just(0), st.integers(1, 12), st.integers(1, 10**9))


@st.composite
def binary_answer_tables(draw):
    """1-3 messages, each with 1-3 slices' (answer 0, answer 1) count pairs,
    and two answer weights; counts and weights may be 0 (a weight is 0 at
    theta = +-1/2) and run up to 1e9, so one-sided slices are common."""
    messages = draw(st.lists(st.lists(st.lists(COUNT, min_size=2, max_size=2), min_size=1, max_size=3),
                             min_size=1, max_size=3))
    weights = draw(st.tuples(COUNT, COUNT).filter(any))
    z = weights.index(max(weights))
    if not any(pair[z] for row in messages for pair in row):
        messages[0][0][z] = draw(st.integers(1, 10**9))
    return messages, weights


def slice_identity_holds(case):
    """Whether the slice function, given the two-sided slices' count pairs
    and every message's pair, equals the reference on the weighted table."""
    messages, weights = case
    cells = ref_cells({(z, m, j): pair[z] * weights[z]
                       for m, row in enumerate(messages) for j, pair in enumerate(row) for z in (0, 1)})
    slices = Counter((c0, c1) for row in messages for c0, c1 in row if c0 and c1)
    classes = Counter((sum(c0 for c0, _ in row), sum(c1 for _, c1 in row)) for row in messages)
    expected = (ref_conditional_entropy(cells, 0, (1, 2)), ref_entropy(ref_marginal(cells, (1,))))
    return info_theory.binary_slice_entropies(slices, classes, weights) == expected


@given(binary_answer_tables())
def test_binary_slice_entropies_are_bit_identical(case):
    assert slice_identity_holds(case)


@pytest.mark.parametrize("old,new", [
    # the answer weights swapped
    ("_slice_terms((a0 * c0, a1 * c1), a0 * c0 + a1 * c1, total)",
     "_slice_terms((a1 * c0, a0 * c1), a1 * c0 + a0 * c1, total)"),
    # each share taken over the two-sided slices, after the one-sided ones are dropped
    ("a0 * c0 + a1 * c1, total)))", "a0 * c0 + a1 * c1, sum((a0 * x + a1 * y) * j for (x, y), j in slices.items()))))"),
], ids=["swapped-weights", "share-of-two-sided-slices"])
def test_slice_identity_sees_a_mutant(monkeypatch, old, new):
    mutate(monkeypatch, info_theory, "binary_slice_entropies", old, new)
    # find raises NoSuchExample if the mutant meets the identity on every table it tries
    find(binary_answer_tables(), lambda case: not slice_identity_holds(case))


def ref_majority_batch(rng, count, k, block_size):
    b = block_size
    words = rng.bit_generator.random_raw(count * k).reshape(count, k)
    if b < 64:
        words &= np.uint64((1 << b) - 1)
    majority = np.bitwise_count(words).astype(np.int64) * 2 > b
    first = (words & np.uint64(1)).astype(bool)
    n_right = (majority == first).sum(axis=1)
    wins = int((2 * n_right > k).sum())
    if k % 2:
        return wins
    coin = rng.integers(0, 2, size=count, dtype=np.int64)
    return wins + int(coin[2 * n_right == k].sum())


# odd count * k, B = 1, blocks either side of 32 bits, B = 64 (no mask), one
# pass, a ragged last pass, a batch of passes and the tally dtypes either side
# of k = 256
MAJORITY_GRID = [(count, k, seed) for count in (1, 7, 1000, 4999, 1 << 16) for k in (1, 2, 3, 7, 25)
                 for seed in (0, 5)]
MAJORITY_GRID += [(count, k, seed) for count in (7, 1001) for k in (255, 256, 300) for seed in (0, 5)]
# exactly one pass, and one pass plus one row
MAJORITY_GRID += [(rows + extra, k, seed) for k in (3, 25) for rows in [MAJORITY_CELLS // k]
                  for extra in (0, 1) for seed in (0, 5)]
BLOCK_SIZES = (1, 2, 3, 4, 16, 31, 32, 33, 63, 64)


def majority_miss(block_sizes=BLOCK_SIZES, grid=MAJORITY_GRID):
    """The first (B, count, k, seed) where the kernel misses the reference's
    count or final generator state, or None."""
    for b in block_sizes:
        for count, k, seed in grid:
            ref_rng, rng = _batch_rng(seed, 3), _batch_rng(seed, 3)
            if (montecarlo._majority_batch(rng, count, k, b) != ref_majority_batch(ref_rng, count, k, b)
                    or rng.bit_generator.state != ref_rng.bit_generator.state):
                return b, count, k, seed
    return None


@pytest.mark.parametrize("b", BLOCK_SIZES)
def test_majority_kernel_matches_one_raw_draw(b):
    assert majority_miss((b,)) is None


def test_majority_count_does_not_depend_on_the_pass_size(monkeypatch):
    # 7 cells per pass: passes of one row for k >= 4, and odd cell counts
    monkeypatch.setattr(montecarlo, "MAJORITY_CELLS", 7)
    assert majority_miss((3, 64), [cell for cell in MAJORITY_GRID if cell[0] * cell[1] <= 5000 * 25]) is None


@pytest.mark.parametrize("old,new", [
    ("> block_size // 2", ">= block_size // 2"),
    ("words &= mask", "pass"),
    (" + int(coin[2 * n_right == k].sum())", ""),
], ids=["ties-to-one", "unmasked-block", "no-tie-coin"])
def test_majority_identity_sees_a_mutant(monkeypatch, old, new):
    mutate(monkeypatch, montecarlo, "_majority_batch", old, new)
    assert majority_miss() is not None


@pytest.mark.parametrize("k", [2, 256])
def test_majority_identity_sees_a_dropped_tie_coin_at_even_k(monkeypatch, k):
    mutate(monkeypatch, montecarlo, "_majority_batch", " + int(coin[2 * n_right == k].sum())", "")
    assert majority_miss(grid=[cell for cell in MAJORITY_GRID if cell[1] == k]) is not None


def test_majority_kernel_draws_no_tie_coin_at_odd_k():
    # at odd k the stream ends with the block words
    for count, k, seed in [(7, 3, 0), (1001, 25, 5), (7, 255, 0)]:
        rng, words = _batch_rng(seed, 3), _batch_rng(seed, 3)
        montecarlo._majority_batch(rng, count, k, 16)
        words.bit_generator.advance(count * k)
        assert rng.bit_generator.state == words.bit_generator.state


def ref_lowest(keys, size):
    mask = np.zeros(keys.shape, dtype=bool)
    if size:
        count, k, _ = keys.shape
        chosen = np.argpartition(keys, size - 1, axis=-1)[..., :size]
        mask[np.arange(count)[:, None, None], np.arange(k)[:, None], chosen] = True
    return mask


def ref_sample_chain_batch(rng, count, n, k):
    answer = rng.integers(0, 2, size=count)
    sigma = rng.integers(1, n + 1, size=(count, k))
    keys = rng.random((count, k, n))
    keys[np.arange(count)[:, None], np.arange(k), sigma - 1] = np.where(answer, -1.0, 2.0)[:, None]
    return answer, sigma, ref_lowest(keys, n // 2)


def ref_first_readable(readable):
    """Per trial, whether any instance is readable and the 0-based player the
    decoder reads: instance k first, then 1..k-1 (player k-1 when none is)."""
    k = readable.shape[1]
    order = np.concatenate((readable[:, -1:], readable[:, :-1]), axis=1)
    return order.any(axis=1), (order.argmax(axis=1) - 1) % k


def ref_truncation_kernel(rng, strings, sigma, t):
    count = len(sigma)
    if t == 0:
        return np.zeros(count, dtype=np.int64)
    hit, player = ref_first_readable(sigma <= t)
    rows = np.arange(count)
    messages = strings[..., :t]
    bit = messages[rows, player, np.minimum(sigma[rows, player], t) - 1]
    return np.where(hit, bit, 0)


def ref_sampled_bits_kernel(rng, strings, sigma, m):
    """Every published set {1..m}: the truncation reference at t = m where it
    reads a string, else one coin per trial."""
    coin = rng.integers(0, 2, size=len(sigma))
    hit, _ = ref_first_readable(sigma <= m)
    return np.where(hit, ref_truncation_kernel(rng, strings, sigma, m), coin)


STRING_GRID = [(count, n, k) for n in range(2, 129, 2) for k in (1, 2, 3, 25) for count in (1, 5, 37, 300)]


def same(got, expected):
    return got.dtype == expected.dtype and np.array_equal(got, expected)


def string_path_miss():
    """The first grid cell (count, n, k) where the sampler misses the
    reference's arrays or final generator state; None when there is none."""
    for count, n, k in STRING_GRID:
        ref_rng, rng = _batch_rng(n, k), _batch_rng(n, k)
        expected = ref_sample_chain_batch(ref_rng, count, n, k)
        drawn = montecarlo.sample_chain_batch(rng, count, n, k)
        if not all(map(same, drawn, expected)) or rng.bit_generator.state != ref_rng.bit_generator.state:
            return count, n, k
    return None


def test_string_path_matches_argpartition_and_scatter():
    assert string_path_miss() is None


def test_string_path_identity_sees_a_strict_threshold(monkeypatch):
    # one fewer one per string: the keys strictly below the row's (n/2)-th smallest
    mutate(monkeypatch, montecarlo, "sample_chain_batch", "[..., :n // 2]", "[..., :n // 2 - 1]")
    assert string_path_miss() is not None


def skip_miss():
    """The first (n, count, pending) where skipping `count` outputs leaves the
    generator other than `random(count)` does: its state, then its next
    double, bit and index draws; None when there is none."""
    for n, count in product((2, 6, 64), (0, 1, 7, 8000)):
        for pending in (False, True):
            ref_rng, rng = _batch_rng(n, count), _batch_rng(n, count)
            for generator in (ref_rng, rng):
                # an odd number of 32-bit draws leaves a half-word pending
                generator.integers(0, 2, size=3 if pending else 2)
            assert ref_rng.bit_generator.state["has_uint32"] == pending
            ref_rng.random(count)
            montecarlo._skip_outputs(rng, count)
            after = [(generator.bit_generator.state, generator.random(), generator.integers(0, 2),
                      generator.integers(1, n + 1), generator.bit_generator.state) for generator in (ref_rng, rng)]
            if after[0] != after[1]:
                return n, count, pending
    return None


def test_skip_leaves_the_generator_as_random_does():
    assert skip_miss() is None


def test_skip_identity_sees_a_plain_advance(monkeypatch):
    mutate(monkeypatch, montecarlo, "_skip_outputs", "bit_generator.state = state", "pass")
    assert skip_miss() is not None


REF_KERNELS = {"truncation": (ref_truncation_kernel, "t"), "sampled-bits": (ref_sampled_bits_kernel, "m")}


def ref_batch_successes(tag, n, k, param, seed, batch_index, count):
    """The string path: every chunk's strings sampled, then decoded by a
    string-reading kernel. Returns the count and the final generator state."""
    rng = _batch_rng(seed, batch_index)
    kernel = REF_KERNELS[tag][0]
    chunk = max(1, CHUNK_CELLS // (k * n))
    successes = 0
    for start in range(0, count, chunk):
        answer, sigma, strings = montecarlo.sample_chain_batch(rng, min(chunk, count - start), n, k)
        successes += int((kernel(rng, strings, sigma, param) == answer).sum())
    return successes, rng.bit_generator.state


# chunk rows c (CHUNK_CELLS // (k * n)) with c odd, c * k odd (n=64, k=25: 5
# rows, 125 indices), c * (k + 1) odd (n=64, k=24: a half-word pending after
# the indices of every other chunk), one-row chunks, index draws with
# rejection (n=6, 10), one ragged last chunk and a single trial
BATCH_GRID = [(n, k, count) for n, k in ((64, 25), (64, 24), (6, 3), (10, 7), (128, 64), (2, 1))
              for count in (1, 37, 1001)]


def batch_miss(monkeypatch, tags=tuple(REF_KERNELS)):
    """The first (tag, n, k, count, param) where `_batch_successes` misses the
    string path's count or final generator state, or None."""
    made = []
    monkeypatch.setattr(montecarlo, "_batch_rng", lambda *key: made.append(_batch_rng(*key)) or made[-1])
    for tag in tags:
        for n, k, count in BATCH_GRID:
            for param in sorted({0, 1, n // 2, n}):
                seed = n + k + param
                got = montecarlo._batch_successes(tag, n, k, {REF_KERNELS[tag][1]: param}, seed, 2, count)
                if (got, made[-1].bit_generator.state) != ref_batch_successes(tag, n, k, param, seed, 2, count):
                    return tag, n, k, count, param
    return None


def test_batches_match_the_string_path(monkeypatch):
    assert batch_miss(monkeypatch) is None


@pytest.mark.parametrize("tag", sorted(REF_KERNELS))
def test_batch_identity_sees_a_plain_advance(monkeypatch, tag):
    mutate(monkeypatch, montecarlo, "_skip_outputs", "bit_generator.state = state", "pass")
    assert batch_miss(monkeypatch, (tag,)) is not None


@pytest.mark.parametrize("tag,name,old,new", [
    ("truncation", "truncation_kernel", "sigma <= t", "sigma < t"),
    ("sampled-bits", "sampled_bits_kernel", "(sigma <= m)", "(sigma <= m + 1)"),
], ids=["strict-prefix", "one-extra-published"])
def test_batch_identity_sees_a_kernel_mutant(monkeypatch, tag, name, old, new):
    mutate(monkeypatch, montecarlo, name, old, new)
    monkeypatch.setitem(montecarlo.KERNELS, tag, getattr(montecarlo, name))
    assert batch_miss(monkeypatch, (tag,)) is not None
