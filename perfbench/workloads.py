"""The four workloads: how each builds its inputs from the seed, runs one
repetition through chainlab's public functions, and scores the outputs.

Why each workload exists, and which ROADMAP item should move it, is in
README.md next to this file.

A repetition runs every call of the workload once, closed loop (each call
starts when the previous one returns), then serializes all outputs with
`chainlab.experiments.emit_report`. Every repetition of a run uses the same
inputs, so every repetition must emit the same bytes.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

import chainlab.experiments as experiments
import chainlab.montecarlo as montecarlo
import chainlab.oracle as oracle
import chainlab.protocols as protocols
from chainlab.distributions import bias_grid

# Sizes that set each workload's character.
ENTROPY_NS = (6, 8)
ENTROPY_LENGTHS = (1, 2, 3)
ENTROPY_FUNCTIONS = {6: 4, 8: 2}  # random message functions per (n, theta, length)
POOL_SWEEP_MAX_N = 256
BINOMIAL_SWEEP = (128, 16)  # max_p, q points per p
CHAIN_N, CHAIN_K, CHAIN_RANDOM_PROTOCOLS, CHAIN_MAX_BITS = 6, 2, 3, 3
MC_N, MC_K = 64, 25
GENERIC_PROTOCOLS = (("sampled-bits", {"m": 8}), ("truncation", {"t": 8}))
GENERIC_TRIALS = 500
VECTOR_B, VECTOR_TRIALS, VECTOR_WORKERS = 64, 4_000_000, 2

Z_LIMIT = 5  # an estimate further than this many standard errors from its oracle fails


@dataclass(frozen=True)
class Call:
    """One call into chainlab and what its output must satisfy."""

    kind: str  # "suite", "pool-sweep", "binomial-sweep" or "mc"
    span: str  # span name in the traced run
    run: Callable[[], Any]
    expected: int  # operations the call must complete
    oracle: Fraction | None = None  # exact success probability of an "mc" call
    check: str | None = None  # a "suite" call's operations: one per report of this check
    batches: int = 0  # batches an "mc" call hands the vector kernel, from its batch layout


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


# ---------------------------------------------------------------------------
# input builders: seed -> calls


def _verify_entropy(seed: int) -> list[Call]:
    calls = []
    seeds = iter(_seeds(seed, 2 * len(ENTROPY_NS)))
    for n in ENTROPY_NS:
        functions = ENTROPY_FUNCTIONS[n]
        expected = len(bias_grid(n)) * (len(ENTROPY_LENGTHS) * (functions + 1) + 1)
        for aug, name, check in ((False, "biased-index-bound", "biased-index-entropy-bound"),
                                 (True, "aug-biased-index-bound", "augmented-index-entropy-bound")):
            kwargs = dict(ns=(n,), lengths=ENTROPY_LENGTHS, functions=functions, seed=next(seeds), aug=aug)
            calls.append(Call("suite", f"experiments.suite.{name}",
                              lambda kw=kwargs: experiments.suite_biased_index(**kw), expected, check=check))
    max_n = POOL_SWEEP_MAX_N
    calls.append(Call("pool-sweep", "experiments.suite.entropy-pool-sweep",
                      lambda: oracle.sweep_entropy_given_pool(max_n),
                      sum(n // 2 for n in range(2, max_n + 1, 2))))
    max_p, points = BINOMIAL_SWEEP
    calls.append(Call("binomial-sweep", "experiments.suite.binomial-bounds-sweep",
                      lambda: experiments.sweep_binomial_bounds(max_p, points),
                      sum(_q_points(p, points) for p in range(2, max_p + 1))))
    return calls


def _q_points(p: int, points: int) -> int:
    """How many q the binomial sweep checks at p: every q below p, or `points` spread evenly."""
    if p - 1 <= points:
        return p - 1
    return len({round(1 + (p - 2) * j / (points - 1)) for j in range(points)})


def _exact_enum(seed: int) -> list[Call]:
    (suite_seed,) = _seeds(seed, 1)
    kwargs = dict(ns=(CHAIN_N,), ks=(CHAIN_K,), random_protocols=CHAIN_RANDOM_PROTOCOLS,
                  max_message_bits=CHAIN_MAX_BITS, seed=suite_seed)
    # one operation per protocol (truncation t = 0..n plus the random ones):
    # its accounting check, and the estimator-ceiling check that follows it
    # when the protocol beats even odds, so the count does not depend on the seed
    return [Call("suite", "experiments.suite.chain-entropy",
                 lambda: experiments.suite_chain_entropy(**kwargs),
                 CHAIN_N + 1 + CHAIN_RANDOM_PROTOCOLS, check="chain-entropy-accounting")]


def _first_bit_oracle(name: str, params: dict) -> Fraction:
    """Success of sampled-bits (m) and truncation (t) on the chained input: the
    answer is read unless no instance's index lands among the published
    positions, and a fallback guess is right half the time."""
    covered = Fraction(params.get("m", params.get("t")), MC_N)
    return 1 - (1 - covered) ** MC_K / 2


def _mc_call(protocol, trials: int, seed: int, workers: int, exact: Fraction) -> Call:
    """`run(w)` repeats the call with w workers; the result must not change."""
    # protocols tagged with a vectorized simulator run as numpy batch kernels
    batches = math.ceil(trials / montecarlo.VECTOR_BATCH) if protocol.simulator else 0
    return Call("mc", "montecarlo",
                lambda w=workers: montecarlo.montecarlo_success(protocol, MC_N, MC_K, trials, seed, workers=w),
                trials, exact, batches=batches)


def _mc_generic(seed: int) -> list[Call]:
    return [
        _mc_call(protocols.build_protocol(name, MC_N, MC_K, params), GENERIC_TRIALS, mc_seed, 1,
                 _first_bit_oracle(name, params))
        for (name, params), mc_seed in zip(GENERIC_PROTOCOLS, _seeds(seed, len(GENERIC_PROTOCOLS)))
    ]


def _mc_vector(seed: int) -> list[Call]:
    protocol = protocols.build_protocol("chained-majority", MC_N, MC_K, {"B": VECTOR_B})
    exact = oracle.majority_vote_success(MC_K, oracle.exact_majority_success(VECTOR_B))
    (mc_seed,) = _seeds(seed, 1)
    return [_mc_call(protocol, VECTOR_TRIALS, mc_seed, vector_workers(), exact)]


def vector_workers() -> int:
    return min(VECTOR_WORKERS, nproc())


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Call]]
    workers: int  # passed to every montecarlo call; recorded with every result


WORKLOADS = {
    "verify-entropy": Workload("verify-entropy", _verify_entropy, 1),
    "exact-enum": Workload("exact-enum", _exact_enum, 1),
    "mc-generic": Workload("mc-generic", _mc_generic, 1),
    "mc-vector": Workload("mc-vector", _mc_vector, vector_workers()),
}


# ---------------------------------------------------------------------------
# scoring: outputs -> (attempted, failed) operations


def within_limit(successes: int, trials: int, exact: Fraction) -> bool:
    p = float(exact)
    return abs(successes / trials - p) <= Z_LIMIT * math.sqrt(p * (1 - p) / trials)


def holds(report) -> bool:
    """A check passes when its verdict is True and every value the benchmark
    knows independently of chainlab matches:
    - truncation at t on the chained input succeeds with probability exactly
      1 - (1 - t/n)^k / 2 (the answer is read unless no index is at most t);
    - an injective (full-string) message leaves no answer entropy."""
    if report.passed is not True:
        return False
    params = report.params
    if report.check == "chain-entropy-accounting" and params["protocol"] == "truncation":
        covered = Fraction(params["protocol_params"]["t"], params["n"])
        return report.details["success"] == 1 - (1 - covered) ** params["k"] / 2
    if params.get("message_function") == "full-string":
        return abs(report.lhs) <= report.tolerance
    return True


def score(call: Call, result) -> tuple[int, int]:
    """Operations attempted and failed by one call. A call that raised fails
    every operation it was meant to do; one that did fewer than expected
    fails the missing ones."""
    if isinstance(result, Exception):
        return call.expected, call.expected
    if call.kind == "mc":
        ok = result.trials == call.expected and within_limit(result.successes, result.trials, call.oracle)
        return call.expected, 0 if ok else call.expected
    if call.kind == "suite":
        # a report of another check belongs to the operation it follows
        ops: list[bool] = []
        for report in result:
            if report.check == call.check or not ops:
                ops.append(holds(report))
            else:
                ops[-1] = ops[-1] and holds(report)
        missing = max(0, call.expected - len(ops))
        return len(ops) + missing, ops.count(False) + missing
    if call.kind == "pool-sweep":
        done, failed, _ = result
    else:
        done, failed = result["checks"], result["corrected_failures"]
    missing = max(0, call.expected - done)
    return done + missing, failed + missing


def score_rep(calls: list[Call], results: list, report: bytes, reference: bytes) -> tuple[int, int]:
    """A repetition whose report bytes differ from the reference run's fails
    all of its operations: same inputs must give the same bytes."""
    attempted = failed = 0
    for call, result in zip(calls, results):
        a, f = score(call, result)
        attempted += a
        failed += f
    return attempted, attempted if report != reference else failed


# ---------------------------------------------------------------------------
# one repetition


def run_calls(calls: list[Call], tracer) -> tuple[list, list[float]]:
    """Outputs of each call, and each call's wall time."""
    results, seconds = [], []
    for call in calls:
        with tracer.span(call.span):
            start = perf_counter()
            try:
                results.append(call.run())
            except Exception as exc:  # a raising call is a failed operation, not a crashed benchmark
                results.append(exc)
            seconds.append(perf_counter() - start)
    return results, seconds


def emit(workload: str, seed: int, results: list, tracer) -> bytes:
    """Serialize every output the way the CLI does (`emit_report`)."""
    with tracer.span("report.emit"):
        payload = {"workload": workload, "seed": seed, "calls": [_jsonable(r) for r in results]}
        return experiments.emit_report(payload)


def _jsonable(result) -> Any:
    if isinstance(result, Exception):
        return {"error": repr(result)}
    if isinstance(result, list):
        return [report.to_json_dict() for report in result]
    if isinstance(result, montecarlo.MonteCarloEstimate):
        return {"successes": result.successes, "trials": result.trials, "estimate": result.estimate,
                "ci_halfwidth": result.ci_halfwidth, "seed": result.seed}
    return result
