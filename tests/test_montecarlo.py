import concurrent.futures
import copy
import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import chainlab
import chainlab.montecarlo as montecarlo_module
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
from chainlab.montecarlo import (
    VECTOR_BATCH,
    MonteCarloEstimate,
    _batch_rng,
    _lowest,
    _majority_batch,
    chain_instances,
    montecarlo_success_by_name,
    sample_chain_batch,
    sampled_bits_kernel,
    truncation_kernel,
)
from chainlab.model import ChainInstance, balanced_strings
from chainlab.protocols import SharedRandomness, run_chain_protocol

from util import constant_protocol, mutate


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
        a = montecarlo_success(constant_protocol(4, 1, 0), 4, 1, 5000, seed=11)
        b = montecarlo_success(constant_protocol(4, 1, 0), 4, 1, 5000, seed=11)
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

    @pytest.mark.parametrize("protocol", [truncation_protocol(4, 2, 1), sampled_bits_protocol(4, 2, 1)])
    def test_worker_count_does_not_change_kernel_counts(self, protocol):
        # two batches, so two workers start a pool
        trials = VECTOR_BATCH + 1000
        one = montecarlo_success(protocol, 4, 2, trials, seed=5, workers=1)
        two = montecarlo_success(protocol, 4, 2, trials, seed=5, workers=2)
        assert one == two

    def test_engine_batches_ignore_the_worker_count(self, monkeypatch):
        # protocol closures cannot be pickled: engine batches stay in this process
        monkeypatch.setattr(montecarlo_module, "VECTOR_BATCH", 500)
        protocol = trivial_forward_protocol(4, 2)
        one = montecarlo_success(protocol, 4, 2, 1200, seed=5, workers=1)
        two = montecarlo_success(protocol, 4, 2, 1200, seed=5, workers=2)
        assert one == two

    def test_default_workers_are_the_cores_this_process_may_use(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a process bound to one core")

        monkeypatch.setattr(montecarlo_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        protocol = truncation_protocol(4, 2, 1)
        assert montecarlo_success(protocol, 4, 2, VECTOR_BATCH + 1, seed=5) == montecarlo_success(
            protocol, 4, 2, VECTOR_BATCH + 1, seed=5, workers=1)

    def test_odd_n_is_refused_on_every_path(self):
        for protocol in (truncation_protocol(3, 1, 1), chained_majority_protocol(3, 1, 1), constant_protocol(3, 1)):
            with pytest.raises(InvalidParameterError):
                montecarlo_success(protocol, 3, 1, 10, seed=0)

    def test_import_does_not_load_numpy_random(self):
        # importing numpy.random costs about 5 ms and 2.6 MB; only a batch kernel run needs it
        src = str(Path(chainlab.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import chainlab; print('numpy.random' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "False"


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
        slow = montecarlo_success(replace(p, simulator=None), 8, 3, 20000, seed=21)
        assert within_5se(slow.estimate, exact, slow.trials)

    def test_truncation_on_the_engine_and_on_its_kernel(self):
        # success = 1 - (1 - t/n)^k / 2: the answer is read unless no index lands in a prefix
        exact = 1 - (1 - 2 / 8) ** 3 / 2
        kernel = truncation_protocol(8, 3, 2)
        for protocol in (kernel, replace(kernel, simulator=None)):
            est = montecarlo_success(protocol, 8, 3, 20000, seed=31)
            assert within_5se(est.estimate, exact, est.trials)

    def test_chained_majority_beyond_the_kernel_runs_on_the_engine(self):
        exact = float(majority_vote_success(3, exact_majority_success(128)))
        est = montecarlo_success(chained_majority_protocol(128, 3, 128), 128, 3, 1500, seed=8)
        assert within_5se(est.estimate, exact, est.trials)

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

    def test_majority_guess_at_bit_zero_is_exact(self):
        # the kernel reads bit 0 of a uniform block for a uniform position:
        # over every block of B bits, both are right equally often
        for b in range(1, 13):
            blocks = [(word.bit_count() > b // 2, word) for word in range(1 << b)]
            at_zero = Fraction(sum(majority == word & 1 for majority, word in blocks), 1 << b)
            anywhere = Fraction(sum(majority == word >> pos & 1 for majority, word in blocks for pos in range(b)),
                                b << b)
            assert at_zero == anywhere == exact_majority_success(b), b

    def test_chained_majority_block_one_perfect(self):
        est = montecarlo_success(chained_majority_protocol(16, 2, 1), 16, 2, 2000, seed=4)
        assert est.estimate == 1.0


class PublishedPositions(SharedRandomness):
    """Shared randomness that hands sampled-bits the given published sets
    (one bool row of positions per player) and fallback coin, so the engine
    runs on chosen randomness."""

    def __init__(self, published, coin):
        object.__setattr__(self, "published", published)
        object.__setattr__(self, "fallback", int(coin))

    def positions(self, label, count, n):
        row = self.published[int(label.rsplit("/", 1)[1]) - 1]
        assert len(row) == n and np.count_nonzero(row) == count
        return tuple(int(p) + 1 for p in np.flatnonzero(row))

    def coin(self, label):
        return self.fallback


class TiedKeys:
    """A generator whose uniform keys are 0 or 1, so most rows hold ties
    (the sampler's forced keys, -1 and 2, stay unique); its other draws are
    `rng`'s."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        return self.rng.integers(0, 2, size=shape).astype(float)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


class Coins:
    """A generator whose only draw is the given array of coins."""

    def __init__(self, coins):
        self.coins = coins

    def integers(self, low, high, size):
        assert (low, high, size) == (0, 2, len(self.coins))
        return self.coins


def first_positions(k, n, m):
    """Every player's published set fixed to {1..m}, as the shim's rows."""
    return np.broadcast_to(np.arange(n) < m, (k, n))


def sampled_bits_on_the_engine(rng, strings, sigma, m):
    """`sampled_bits_protocol` on the engine, row by row, with every
    published set {1..m} and the coins that `sampled_bits_kernel` draws next
    from `rng`."""
    _, k, n = strings.shape
    coins = copy.deepcopy(rng).integers(0, 2, size=len(sigma))
    protocol, published = sampled_bits_protocol(n, k, m), first_positions(k, n, m)
    return [run_chain_protocol(protocol, inst, PublishedPositions(published, coin)).output
            for inst, coin in zip(chain_instances(strings, sigma), coins)]


def sampled_bits_success(n, k, m, choices):
    """Exact success of `sampled_bits_protocol` on the engine: uniform over
    every chain instance, every tuple of published sets in `choices` and the
    fallback coin."""
    protocol = sampled_bits_protocol(n, k, m)
    instances = [ChainInstance(n, k, strings, sigma, z)
                 for z in (0, 1) for sigma in product(range(1, n + 1), repeat=k)
                 for strings in product(*([y for y in balanced_strings(n) if y.bit(s) == z] for s in sigma))]
    right = total = 0
    for published in choices:
        for coin in (0, 1):
            shared = PublishedPositions(published, coin)
            right += sum(run_chain_protocol(protocol, inst, shared).output == inst.answer for inst in instances)
            total += len(instances)
    return Fraction(right, total)


def sampled_bits_kernel_success(n, k, m):
    """Exact success of `sampled_bits_kernel`: uniform over the answer, the
    indices and the coin. The kernel reads no string, and every (answer,
    indices) cell holds the same number of instances."""
    cells = [(z, sigma, coin) for z in (0, 1) for sigma in product(range(1, n + 1), repeat=k) for coin in (0, 1)]
    answer, sigma, coins = (np.array(column) for column in zip(*cells))
    outputs = montecarlo_module.sampled_bits_kernel(Coins(coins), answer, sigma, n, m)
    return Fraction(int((outputs == answer).sum()), len(cells))


class TestBatchKernels:
    @pytest.mark.parametrize("n,k", [(2, 1), (4, 3), (8, 2), (64, 25)])
    def test_sampled_rows_are_balanced_with_the_answer_at_the_index(self, n, k):
        answer, sigma, strings = sample_chain_batch(np.random.default_rng(n * k), 300, n, k)
        assert strings.shape == (300, k, n) and sigma.shape == (300, k) and answer.shape == (300,)
        assert (strings.sum(axis=-1) == n // 2).all()
        assert ((1 <= sigma) & (sigma <= n)).all()
        indexed = np.take_along_axis(strings, sigma[..., None] - 1, axis=-1)[..., 0]
        assert (indexed == answer[:, None]).all()

    def test_sampler_is_uniform_over_the_support(self):
        # at n=4, k=1 the support has 24 (z, index, string) cells of mass 1/24 each
        count = 48000
        answer, sigma, strings = sample_chain_batch(np.random.default_rng(4), count, 4, 1)
        cells = Counter(zip(answer.tolist(), sigma[:, 0].tolist(), map(bytes, strings[:, 0])))
        assert len(cells) == 24
        p = 1 / 24
        assert all(abs(c / count - p) <= 5 * math.sqrt(p * (1 - p) / count) for c in cells.values())

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_truncation_kernel_matches_the_engine_row_by_row(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        answer, sigma, strings = sample_chain_batch(rng, 200, n, k)
        for t in sorted({0, 1, n // 2, n}):
            protocol = truncation_protocol(n, k, t)
            expected = [run_chain_protocol(protocol, inst, SharedRandomness(0)).output
                        for inst in chain_instances(strings, sigma)]
            assert truncation_kernel(rng, answer, sigma, n, t).tolist() == expected

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 3), (8, 2)])
    def test_sampled_bits_kernel_matches_the_engine_row_by_row(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        answer, sigma, strings = sample_chain_batch(rng, 200, n, k)
        for m in sorted({0, 1, n // 2, n}):
            expected = sampled_bits_on_the_engine(rng, strings, sigma, m)
            assert sampled_bits_kernel(rng, answer, sigma, n, m).tolist() == expected

    def test_tied_keys_go_to_the_lower_positions(self):
        keys = np.random.default_rng(3).integers(0, 3, size=(40, 3, 8)).astype(float)
        for size in range(9):
            mask = _lowest(keys, size)
            assert (mask.sum(axis=-1) == size).all()
            for row, chosen in zip(keys.reshape(-1, 8), mask.reshape(-1, 8)):
                stable = sorted(range(8), key=lambda j: (row[j], j))
                assert np.flatnonzero(chosen).tolist() == sorted(stable[:size])
        # with that rule the sampler's rows stay balanced under ties
        for n, k in ((4, 3), (8, 2)):
            answer, sigma, strings = sample_chain_batch(TiedKeys(np.random.default_rng(n + k)), 200, n, k)
            assert (strings.sum(axis=-1) == n // 2).all()
            assert (np.take_along_axis(strings, sigma[..., None] - 1, axis=-1)[..., 0] == answer[:, None]).all()

    @pytest.mark.parametrize("k", [1, 2])
    def test_sampled_bits_exact_law_is_the_first_positions_law(self, k):
        # relabelling a player's positions turns its published set into
        # {1..m}: every choice of sets, the sets {1..m}, the kernel and the
        # closed form all give the same exact success
        n = 4
        for m in range(n + 1):
            every_set = sampled_bits_success(n, k, m, product(
                *[[np.isin(np.arange(n), chosen) for chosen in combinations(range(n), m)]] * k))
            closed_form = 1 - (1 - Fraction(m, n)) ** k / 2
            assert every_set == sampled_bits_success(n, k, m, [first_positions(k, n, m)]) == closed_form, m
            assert sampled_bits_kernel_success(n, k, m) == closed_form, m

    def test_sampled_bits_exact_law_sees_a_strict_publish(self, monkeypatch):
        mutate(monkeypatch, montecarlo_module, "sampled_bits_kernel", "sigma <= m", "sigma < m")
        assert any(sampled_bits_kernel_success(4, k, m) != 1 - (1 - Fraction(m, 4)) ** k / 2
                   for k in (1, 2) for m in range(5))

    def test_sampled_bits_kernel_extremes_match_the_closed_form(self):
        # success = 1/2 + (1/2)(1 - (1 - m/n)^k): 1 at m=n, 1/2 at m=0
        count = 40000
        rng = np.random.default_rng(6)
        answer, sigma, _ = sample_chain_batch(rng, count, 8, 2)
        assert (sampled_bits_kernel(rng, answer, sigma, 8, 8) == answer).all()
        right = int((sampled_bits_kernel(rng, answer, sigma, 8, 0) == answer).sum())
        assert within_5se(right / count, 0.5, count)

    def test_majority_batch_peak_memory(self):
        # a batch holds its per-trial tallies and coins (0.5 MB each) and the
        # arrays of one pass of MAJORITY_CELLS cells, whatever k is
        for k in (25, 400):
            tracemalloc.start()
            try:
                _majority_batch(_batch_rng(7, 0), VECTOR_BATCH, k, 64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20, k


class TestByName:
    def test_by_name_matches_spec_object(self):
        by_name = montecarlo_success_by_name("index-majority", 64, 1, {"B": 4}, 50000, 17)
        explicit = montecarlo_success(build_protocol("index-majority", 64, 1, {"B": 4}), 64, 1, 50000, 17)
        assert by_name == explicit
