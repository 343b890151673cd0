"""Reproducible Monte Carlo estimation of protocol success.

Every protocol runs through one batch loop. Trials are processed in batches
of VECTOR_BATCH, and batch b draws all its randomness from one stream derived
from (master seed, b), so the success count for given (parameters, seed) does
not depend on how the batches are scheduled: `workers` changes the speed of
the kernel protocols, never a result. The batch layout is part of the
determinism contract: the same seed always reproduces the same count.

A batch samples instances of the hard distribution as arrays (answer bits,
indices, strings as bits) in chunks of about CHUNK_CELLS string bits, in
order, which bounds memory whatever the batch size, and decodes each chunk
with the kernel of the protocol's simulator tag (`ProtocolSpec.simulator`):

- "truncation" and "sampled-bits": numpy kernels that decode in the order
  the scalar protocol does, reading from the strings only the indexed cell
  of the player the decoder reads.
- none: `engine_kernel` runs the engine on each row, in the calling process
  (protocol functions are closures and cannot be pickled). It is the
  reference the numpy kernels are tested against.
- "majority" (chained-majority with B <= 64): `_majority_batch` draws the
  protocol's reduced form, without strings: one raw 64-bit output per block
  word, read at bit 0, drawn and decoded a pass of MAJORITY_CELLS (trial,
  player) cells at a time, so its memory does not grow with k.

Both string-path stages select by comparing keys, not by sorting them. A
string's ones are the keys at or below its row's (n/2)-th smallest
(`_lowest`), and a sampled-bits index is published iff fewer than m keys of
its row rank below its own. Both break ties alike: of two equal keys, the one
at the lower position ranks lower. Uniform double keys tie with probability
about n^2 / 2^54 per row; barring such a tie, the draws, counts and report
digests are those of the `argpartition` selection and message gather these
stages replaced.

numpy is imported by the first batch, not by the package: every function
that uses arrays imports it in its own body, and the process pool's module
is imported only when a pool starts.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .distributions import check_budget
from .errors import InvalidParameterError
from .model import BitString, ChainInstance
from .protocols import ProtocolSpec, SharedRandomness, build_protocol, check_size, run_chain_protocol

VECTOR_BATCH = 1 << 16

CHUNK_CELLS = 1 << 13

# (trial, player) cells per pass of `_majority_batch`: its arrays stay in cache
MAJORITY_CELLS = 1 << 15

@dataclass(frozen=True)
class MonteCarloEstimate:
    successes: int
    trials: int
    estimate: float
    ci_halfwidth: float
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "MonteCarloEstimate":
        p = successes / trials
        return cls(
            successes=successes,
            trials=trials,
            estimate=p,
            ci_halfwidth=1.96 * math.sqrt(p * (1 - p) / trials),
            seed=seed,
        )


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))))


def _lowest(keys: np.ndarray, size: int) -> np.ndarray:
    """Mask of the `size` smallest keys of each row (last axis) of a 3-d
    array: exactly `size` per row, keys tied with the row's `size`-th
    smallest going to the lower positions. The mask holds the keys at or
    below that threshold; only a tie at the threshold gives a row more than
    `size`, and only such rows are selected again, in a stable order."""
    import numpy as np

    if not size:
        return np.zeros(keys.shape, dtype=bool)
    count, k, n = keys.shape
    mask = keys <= np.partition(keys, size - 1, axis=-1)[..., size - 1:size]
    if np.count_nonzero(mask) != count * k * size:
        tied = np.count_nonzero(mask, axis=-1) > size
        chosen = np.argsort(keys[tied], axis=-1, kind="stable")[:, :size]
        rows = np.zeros((len(chosen), n), dtype=bool)
        np.put_along_axis(rows, chosen, True, axis=-1)
        mask[tied] = rows
    return mask


def sample_chain_batch(
    rng: np.random.Generator, count: int, n: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` instances of the hard distribution as arrays: answer bits z
    `(count,)`, 1-based indices `(count, k)` and strings `(count, k, n)` bool.

    The law: z is a uniform bit; given z, the k (string, index) pairs are
    independent, each index uniform on 1..n and each string uniform among the
    balanced strings with bit z at its index. Each position gets a uniform
    random key, the indexed one forced below (z=1) or above (z=0) all others;
    the n/2 lowest keys are the ones. So every string is balanced with bit z
    at its index, and its other n/2 - z ones are a uniform subset of the
    other n - 1 positions.
    """
    import numpy as np

    answer = rng.integers(0, 2, size=count)
    sigma = rng.integers(1, n + 1, size=(count, k))
    keys = rng.random((count, k, n))
    keys[np.arange(count)[:, None], np.arange(k), sigma - 1] = np.where(answer, -1.0, 2.0)[:, None]
    return answer, sigma, _lowest(keys, n // 2)


def _first_readable(readable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, whether any instance is readable and the 0-based player the
    decoder reads: instance k first, then 1..k-1 (player k-1 when none is)."""
    import numpy as np

    k = readable.shape[1]
    order = np.concatenate((readable[:, -1:], readable[:, :-1]), axis=1)
    return order.any(axis=1), (order.argmax(axis=1) - 1) % k


def truncation_kernel(rng: np.random.Generator, strings: np.ndarray, sigma: np.ndarray, t: int) -> np.ndarray:
    """Decoder outputs of `truncation_protocol` on a batch: every player sends
    its first t bits; the decoder reads the first index inside a sent prefix,
    else outputs 0. Draws nothing from `rng`."""
    import numpy as np

    count = len(sigma)
    if t == 0:
        return np.zeros(count, dtype=np.int64)
    hit, player = _first_readable(sigma <= t)
    rows = np.arange(count)
    messages = strings[..., :t]
    bit = messages[rows, player, np.minimum(sigma[rows, player], t) - 1]
    return np.where(hit, bit, 0)


def sampled_bits_kernel(rng: np.random.Generator, strings: np.ndarray, sigma: np.ndarray, m: int) -> np.ndarray:
    """Decoder outputs of `sampled_bits_protocol` on a batch: every (trial,
    player) publishes its bits at the m positions of its lowest keys (`_lowest`
    of one uniform key per position, drawn from `rng`), in position order; the
    decoder reads the first index among its player's positions, else one coin
    per trial, also drawn from `rng`.

    The index is published iff fewer than m keys of its row rank below the
    index's key: keys strictly below it, plus keys equal to it at a lower
    position (`_lowest`'s tie rule), counted only when some row holds such a
    tie. A published index's message bit sits at its rank among the published
    positions, which is the string's bit at the index, so no message is built."""
    import numpy as np

    count, k, n = strings.shape
    keys = rng.random((count, k, n))
    coin = rng.integers(0, 2, size=count)
    if m == 0:
        return coin
    rows = np.arange(count)
    key = keys[rows[:, None], np.arange(k), sigma - 1][..., None]
    rank = (keys < key).sum(axis=-1)
    tied = keys == key
    if np.count_nonzero(tied) != count * k:
        rank += (tied & (np.arange(n) < sigma[..., None] - 1)).sum(axis=-1)
    hit, player = _first_readable(rank < m)
    return np.where(hit, strings[rows, player, sigma[rows, player] - 1], coin)


def _majority_batch(rng: np.random.Generator, count: int, k: int, block_size: int) -> int:
    """Success count for one batch of the block-majority family, drawn in
    its reduced form, without strings.

    The reduced form is exact. A player XORs its string with a uniform
    shared mask, so the masked string is uniform over all n-bit strings
    whatever the input (string, index); the shared uniform permutation then
    sends the index to a uniform position, independent of the masked bits.
    The decoder undoes the mask, so a guess is right iff the majority bit
    (ties to 0) of the block holding that position equals the masked bit
    there: a uniform B-bit block read at a uniform position. The bits of a
    uniform block are exchangeable, so (bit at a uniform position, popcount)
    has the law of (bit 0, popcount), and the kernel reads bit 0: no position
    is drawn. Each player has its own mask and permutation, so the k guesses
    are independent. Ties in the final vote are right with probability
    exactly 1/2, sampled as one coin per trial; at odd k no vote ties and
    no coin is drawn. Tests check this against the engine (B > 64 has no
    kernel), the exact oracle and an enumeration of every block of up to
    12 bits.

    The batch stream holds count * k raw 64-bit outputs, one block word per
    (trial, player) cell masked to its low B bits, then, at even k only, the
    coins of `rng.integers(0, 2, size=count, dtype=np.int64)`. The words are
    drawn and decoded a pass of MAJORITY_CELLS cells at a time, so the
    layout does not depend on the pass size.
    """
    import numpy as np

    rows = max(1, MAJORITY_CELLS // k)
    mask = np.uint64((1 << block_size) - 1)
    n_right = np.empty(count, dtype=np.uint8 if k < 256 else np.int64)
    for start in range(0, count, rows):
        words = rng.bit_generator.random_raw(min(rows, count - start) * k).reshape(-1, k)
        if block_size < 64:
            words &= mask
        right = (np.bitwise_count(words) > block_size // 2) == (words & np.uint64(1)).astype(bool)
        np.einsum("ij->i", right.view(np.uint8), dtype=n_right.dtype, out=n_right[start:start + len(words)])
    n_right = n_right.astype(np.int64)
    wins = int((2 * n_right > k).sum())
    if k % 2:
        return wins
    coin = rng.integers(0, 2, size=count, dtype=np.int64)
    return wins + int(coin[2 * n_right == k].sum())


def chain_instances(strings: np.ndarray, sigma: np.ndarray) -> list[ChainInstance]:
    """The rows of a sampled batch as engine instances; each answer is the
    first string's indexed bit, which every sampled row shares."""
    import numpy as np

    _, k, n = strings.shape
    return [ChainInstance(n, k, tuple(map(BitString, rows)), indices, rows[0][indices[0] - 1])
            for rows, indices in zip(strings.astype(np.int8).tolist(), sigma.tolist())]


def engine_kernel(rng: np.random.Generator, strings: np.ndarray, sigma: np.ndarray,
                  protocol: ProtocolSpec) -> np.ndarray:
    """Decoder outputs of any protocol on a batch: `run_chain_protocol` on
    each row, with one shared-randomness seed per row drawn from `rng`."""
    import numpy as np

    seeds = rng.integers(0, 1 << 63, size=len(sigma)).tolist()
    return np.array([run_chain_protocol(protocol, inst, SharedRandomness(shared)).output
                     for inst, shared in zip(chain_instances(strings, sigma), seeds)])


# keyed by `ProtocolSpec.simulator`; "majority" draws no instances (`_majority_batch`)
KERNELS = {None: engine_kernel, "truncation": truncation_kernel, "sampled-bits": sampled_bits_kernel}


def _batch_successes(tag: str | None, n: int, k: int, params: dict, seed: int, batch_index: int, count: int) -> int:
    """Success count of one batch, drawn from the stream of (seed, batch_index)."""
    rng = _batch_rng(seed, batch_index)
    if tag == "majority":
        return _majority_batch(rng, count, k, int(params["B"]))
    kernel = KERNELS[tag]
    chunk = max(1, CHUNK_CELLS // (k * n))
    successes = 0
    for start in range(0, count, chunk):
        answer, sigma, strings = sample_chain_batch(rng, min(chunk, count - start), n, k)
        successes += int((kernel(rng, strings, sigma, **params) == answer).sum())
    return successes


def montecarlo_success(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> MonteCarloEstimate:
    """Estimate a protocol's success probability over the hard distribution.
    A trial's k * n string cells count against the enumeration budget before
    any draw; the majority kernel draws no strings and is exempt. `workers`
    defaults to every core this process may run on; a count below 1 is
    refused, not clamped."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    check_size(protocol, n, k)
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"n must be even and >= 2, got {n}")
    tag = protocol.simulator
    if tag != "majority":
        check_budget("one Monte Carlo trial", k * n, "string cells")
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    params = protocol.params if tag else {"protocol": protocol}
    tasks = [(tag, n, k, params, seed, index, min(VECTOR_BATCH, trials - start))
             for index, start in enumerate(range(0, trials, VECTOR_BATCH))]
    if tag and workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # imported once before the workers fork, which then inherit it: a
        # worker that imports numpy itself starts its first batch later
        import numpy

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            successes = sum(pool.map(_batch_successes, *zip(*tasks)))
    else:
        successes = sum(_batch_successes(*task) for task in tasks)
    return MonteCarloEstimate.from_counts(successes, trials, seed)


def montecarlo_success_by_name(
    name: str,
    n: int,
    k: int,
    params: dict,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> MonteCarloEstimate:
    """`montecarlo_success` of a registered protocol. Every trial holds k
    indices (k block words for the majority kernel), so k counts against the
    enumeration budget before the protocol and its k declared lengths are built."""
    check_budget("one Monte Carlo trial", k, "players")
    return montecarlo_success(build_protocol(name, n, k, params), n, k, trials, seed, workers=workers)
