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

- "truncation" and "sampled-bits": numpy kernels that compute the messages
  from the strings and decode them in the order the scalar protocol does.
- none: `engine_kernel` runs the engine on each row, in the calling process
  (protocol functions are closures and cannot be pickled). It is the
  reference the numpy kernels are tested against.
- "majority" (chained-majority with B <= 64): `_majority_batch` draws the
  protocol's reduced form, without strings: one raw 64-bit output per block
  word, decoded in passes of MAJORITY_ROWS trials, so a batch holds its
  words and positions and little else.

`numpy.random` is imported by the first batch, not by the package.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import check_budget
from .errors import InvalidParameterError
from .model import BitString, ChainInstance
from .protocols import ProtocolSpec, SharedRandomness, build_protocol, check_size, run_chain_protocol

VECTOR_BATCH = 1 << 16

CHUNK_CELLS = 1 << 13

# trials per decoding pass of `_majority_batch`: its word arrays stay in cache
MAJORITY_ROWS = 1 << 11

WORKERS_ENV = "CHAINLAB_WORKERS"


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


def resolve_workers(workers: int | None = None) -> int:
    """Worker processes for the batch kernels: `workers`, else $CHAINLAB_WORKERS,
    else every core. A count below 1 is refused, not clamped."""
    source = "workers"
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return os.cpu_count() or 1
        source = WORKERS_ENV
        try:
            workers = int(env)
        except ValueError:
            raise InvalidParameterError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 1:
        raise InvalidParameterError(f"{source} must be >= 1, got {workers}")
    return workers


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))))


def _lowest(keys: np.ndarray, size: int) -> np.ndarray:
    """Mask of the `size` smallest keys of each row (last axis) of a 3-d
    array: exactly `size` per row, ties or not."""
    mask = np.zeros(keys.shape, dtype=bool)
    if size:
        count, k, _ = keys.shape
        chosen = np.argpartition(keys, size - 1, axis=-1)[..., :size]
        mask[np.arange(count)[:, None, None], np.arange(k)[:, None], chosen] = True
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
    answer = rng.integers(0, 2, size=count)
    sigma = rng.integers(1, n + 1, size=(count, k))
    keys = rng.random((count, k, n))
    keys[np.arange(count)[:, None], np.arange(k), sigma - 1] = np.where(answer, -1.0, 2.0)[:, None]
    return answer, sigma, _lowest(keys, n // 2)


def _first_readable(readable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, whether any instance is readable and the 0-based player the
    decoder reads: instance k first, then 1..k-1 (player k-1 when none is)."""
    k = readable.shape[1]
    order = np.concatenate((readable[:, -1:], readable[:, :-1]), axis=1)
    return order.any(axis=1), (order.argmax(axis=1) - 1) % k


def truncation_kernel(rng: np.random.Generator, strings: np.ndarray, sigma: np.ndarray, t: int) -> np.ndarray:
    """Decoder outputs of `truncation_protocol` on a batch: every player sends
    its first t bits; the decoder reads the first index inside a sent prefix,
    else outputs 0. Draws nothing from `rng`."""
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
    player) publishes its bits at m distinct positions drawn from `rng`, in
    position order; the decoder reads the first index among its player's
    positions, else one coin per trial, also drawn from `rng`."""
    count, k, n = strings.shape
    published = _lowest(rng.random((count, k, n)), m)
    coin = rng.integers(0, 2, size=count)
    if m == 0:
        return coin
    rows = np.arange(count)
    messages = strings[published].reshape(count, k, m)
    hit, player = _first_readable(published[rows[:, None], np.arange(k), sigma - 1])
    # the decoder's bit sits at the rank of the index among the published positions
    slot = published[rows, player].cumsum(axis=-1)[rows, sigma[rows, player] - 1] - 1
    bit = messages[rows, player, np.maximum(slot, 0)]
    return np.where(hit, bit, coin)


def _majority_batch(rng: np.random.Generator, count: int, k: int, block_size: int) -> int:
    """Success count for one batch of the block-majority family, drawn in
    its reduced form, without strings.

    The reduced form is exact. A player XORs its string with a uniform
    shared mask, so the masked string is uniform over all n-bit strings
    whatever the input (string, index); the shared uniform permutation then
    sends the index to a uniform position, independent of the masked bits.
    The decoder undoes the mask, so a guess is right iff the majority bit
    (ties to 0) of the block holding that position equals the masked bit
    there: each guess is a uniform B-bit block read at a uniform position.
    Each player has its own mask and permutation, so the k guesses are
    independent. Ties in the final vote are right with probability exactly
    1/2, sampled as one coin per trial. Tests check this against the engine
    (B > 64 has no kernel) and the exact oracle.

    The block words are the draws of `rng.integers(0, 1 << 32, size=(count,
    k, 2), dtype=np.uint64)` joined as `first << 32 | second`, taken from one
    raw 64-bit output each. PCG64 serves a 32-bit draw as the low half of a
    64-bit output and buffers the high half for the next one, so each word is
    its raw output rotated by 32 bits; count * k * 2 halves leave nothing
    buffered, so the positions and coins drawn next are unchanged too. The
    golden digest of `simulate-chained-majority` pins the counts: a numpy
    release that serves the halves in another order turns it red. After the
    draws, the words are decoded in passes of MAJORITY_ROWS trials.
    """
    b = block_size
    raw = rng.bit_generator.random_raw(count * k).reshape(count, k)
    pos = rng.integers(0, b, size=(count, k), dtype=np.uint64)
    coin = rng.integers(0, 2, size=count, dtype=np.int64)
    half = np.uint64(32)
    successes = 0
    for start in range(0, count, MAJORITY_ROWS):
        rows = slice(start, start + MAJORITY_ROWS)
        words = (raw[rows] << half) | (raw[rows] >> half)
        if b < 64:
            words &= np.uint64((1 << b) - 1)
        majority = np.bitwise_count(words) > b // 2
        words >>= pos[rows]
        n_right = (majority == (words & np.uint64(1)).astype(bool)).sum(axis=1)
        successes += int((2 * n_right > k).sum()) + int(coin[rows][2 * n_right == k].sum())
    return successes


def chain_instances(strings: np.ndarray, sigma: np.ndarray) -> list[ChainInstance]:
    """The rows of a sampled batch as engine instances; each answer is the
    first string's indexed bit, which every sampled row shares."""
    _, k, n = strings.shape
    return [ChainInstance(n, k, tuple(map(BitString, rows)), indices, rows[0][indices[0] - 1])
            for rows, indices in zip(strings.astype(np.int8).tolist(), sigma.tolist())]


def engine_kernel(rng: np.random.Generator, strings: np.ndarray, sigma: np.ndarray,
                  protocol: ProtocolSpec) -> np.ndarray:
    """Decoder outputs of any protocol on a batch: `run_chain_protocol` on
    each row, with one shared-randomness seed per row drawn from `rng`."""
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
    any draw; the majority kernel draws no strings and is exempt."""
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
    workers = resolve_workers(workers)
    params = protocol.params if tag else {"protocol": protocol}
    tasks = [(tag, n, k, params, seed, index, min(VECTOR_BATCH, trials - start))
             for index, start in enumerate(range(0, trials, VECTOR_BATCH))]
    if tag and workers > 1 and len(tasks) > 1:
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
