"""Reproducible Monte Carlo estimation of protocol success.

Protocols built with a vectorized simulator tag run as numpy batch kernels:
trials are processed in fixed-size batches, and batch b draws its randomness
from a stream derived from (master seed, b), so results are byte-identical
for a given (parameters, seed) regardless of how batches are scheduled
across workers. The batch layout is part of the determinism contract: the
same seed always reproduces the same success count.

Anything else executes the generic engine trial by trial in one process;
trial t derives its instance and shared-randomness streams from
(master seed, t). Worker processes speed up only the vectorized path.
"""
from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import sample_chain
from .errors import InvalidParameterError, ProtocolContractError
from .protocols import ProtocolSpec, SharedRandomness, build_protocol, derive_seed, run_chain_protocol

VECTOR_BATCH = 1 << 16

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
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidParameterError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))))


def _majority_batch(seed: int, batch_index: int, count: int, k: int, block_size: int) -> int:
    """Success count for one batch of the block-majority family.

    The shared mask and permutation make every instance's guess event
    equivalent to: draw a uniform block of B bits and a uniform position in
    it; the guess is right iff the block's majority bit (ties to 0) matches
    the indexed bit. Ties in the final vote are right with probability
    exactly 1/2, sampled as one coin per trial. This reduced form is
    distributionally identical to executing the protocol on instances drawn
    from the hard distribution; the agreement is covered by tests against
    the generic engine and the exact oracle.
    """
    rng = _batch_rng(seed, batch_index)
    b = block_size
    halves = rng.integers(0, 1 << 32, size=(count, k, 2), dtype=np.uint64)
    words = (halves[..., 0] << np.uint64(32)) | halves[..., 1]
    if b < 64:
        words &= np.uint64((1 << b) - 1)
    pos = rng.integers(0, b, size=(count, k), dtype=np.uint64)
    coin = rng.integers(0, 2, size=count, dtype=np.int64)
    majority = np.bitwise_count(words).astype(np.int64) * 2 > b
    indexed = ((words >> pos) & np.uint64(1)).astype(bool)
    n_right = (majority == indexed).sum(axis=1)
    wins = int((2 * n_right > k).sum())
    ties = int(coin[2 * n_right == k].sum())
    return wins + ties


def _vectorized_successes(protocol: ProtocolSpec, trials: int, seed: int, workers: int) -> int:
    block_size = int(protocol.params["B"])
    batches = []
    index = 0
    remaining = trials
    while remaining > 0:
        count = min(VECTOR_BATCH, remaining)
        batches.append((seed, index, count, protocol.k, block_size))
        index += 1
        remaining -= count
    if workers > 1 and len(batches) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(_majority_batch, *zip(*batches)))
    return sum(_majority_batch(*task) for task in batches)


def _generic_successes(protocol: ProtocolSpec, n: int, k: int, trials: int, seed: int) -> int:
    successes = 0
    for t in range(trials):
        rng = random.Random(derive_seed("mc-instance", seed, t))
        inst = sample_chain(n, k, rng)
        shared = SharedRandomness(derive_seed("mc-shared", seed, t))
        successes += run_chain_protocol(protocol, inst, shared).correct
    return successes


def montecarlo_success(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> MonteCarloEstimate:
    """Estimate a protocol's success probability over the hard distribution."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if protocol.n != n or protocol.k != k:
        raise ProtocolContractError(
            f"protocol declared for (n={protocol.n}, k={protocol.k}), requested (n={n}, k={k})"
        )
    if protocol.simulator == "majority" and int(protocol.params["B"]) <= 64:
        successes = _vectorized_successes(protocol, trials, seed, resolve_workers(workers))
    else:
        successes = _generic_successes(protocol, n, k, trials, seed)
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
    return montecarlo_success(build_protocol(name, n, k, params), n, k, trials, seed, workers=workers)
