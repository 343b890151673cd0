"""Exact brute-force verification of the quantitative claims.

Every check here is an independent route to a number the rest of the package
also produces: support tables are rebuilt from their defining processes,
protocol success probabilities are enumerated point by point, and entropy
bounds are evaluated from exact slice count pairs: those of the final
boards (chain accounting) or bias-free ones weighted per theta (biased
index). Checks compare in exact rationals wherever both sides are rational
and use the 1e-9 bit tolerance where a side is an entropy. The one sampled
check, the structured sampler against its exact table, allows 5 standard
errors per cell.
"""
from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .distributions import (
    bias,
    cell_weights,
    check_budget,
    enumerate_support,
    sample_biased_structured,
    structured_pool_size,
)
from .errors import InvalidParameterError, ProtocolContractError
from .info_theory import (
    ENTROPY_TOLERANCE,
    binary_entropy,
    binary_entropy_ratio,
    binary_slice_entropies,
    log_binomial,
    total_variation,
)
from .model import BitString, balanced_strings
from .protocols import (
    Board,
    ProtocolSpec,
    SharedRandomness,
    check_size,
    decoder_output,
    derive_seed,
    index_majority_decode,
    index_majority_encode,
    player_message,
)
from .report import VerificationReport


# ---------------------------------------------------------------------------
# distribution checks


def verify_distribution_identity(n: int, theta) -> VerificationReport:
    """Exact total-variation distance between the two biased-index formulations."""
    theta = bias(theta)
    direct = enumerate_support(n, theta, "direct")
    structured = enumerate_support(n, theta, "structured")
    distance = total_variation(direct, structured)
    return VerificationReport(
        check="distribution-identity",
        params={"n": n, "theta": theta},
        lhs=distance,
        rhs=Fraction(0),
        relation="==",
        passed=distance == 0,
        tolerance=0,
        mode="exact",
        details={"support_direct": len(direct.weights), "support_structured": len(structured.weights)},
    )


def verify_conditional_independence(n: int, theta, trials: int, seed: int = 0) -> VerificationReport:
    """Check that the structured sampler draws the structured law, under which
    string and index are independent given the pool: the (string, index)
    frequencies of `trials` draws against the exact structured table. The
    worst cell deviation, in standard errors, must be at most 5, and no draw
    may fall outside the support.

    n <= 8 is a statistical limit, not a budget: at n=12, 20000 draws put 1.8
    expected draws in each of 11,088 cells, too few for the 5-SE rule, and a
    correct sampler fails it on about half of all seeds.
    """
    if n > 8:
        raise InvalidParameterError(f"independence check needs n <= 8, got n={n}: larger n leaves too few "
                                    "expected draws per cell for the 5-SE rule, which a correct sampler then fails")
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    import numpy as np

    theta = Fraction(theta)
    exact = enumerate_support(n, theta, "structured").entries
    rng = np.random.default_rng(derive_seed("cond-indep", n, theta, seed))
    strings, indices = sample_biased_structured(rng, trials, n, theta)
    # a (string, index) cell as one integer: the string's bits, first most
    # significant, times n plus the 0-based index
    cells, counts = np.unique((strings @ (1 << np.arange(n - 1, -1, -1))) * n + indices - 1, return_counts=True)
    tally = dict(zip(cells.tolist(), counts.tolist()))
    outside = trials
    worst = 0.0
    for (y, rho), p in exact.items():
        count = tally.get(int(y.text, 2) * n + rho - 1, 0)
        outside -= count
        pf = float(p)
        se = math.sqrt(pf * (1 - pf) / trials)
        if se:
            worst = max(worst, abs(count / trials - pf) / se)
    return VerificationReport(
        check="conditional-independence",
        params={"n": n, "theta": theta, "trials": trials, "seed": seed},
        lhs=worst,
        rhs=5,
        relation="<=",
        passed=worst <= 5 and outside == 0,
        tolerance=0,
        mode="float",
        details={"cells": len(exact), "outside_support": outside},
    )


# ---------------------------------------------------------------------------
# entropy bounds


def _entropy_bound_report(
    check: str, params: dict, lhs: float, h: float, prior: float, k: int, stated_coeff: int
) -> VerificationReport:
    """The answer-entropy bound on lhs = H(answer | everything the decoder
    sees) and h = H(messages) of an exact table, with n = params["n"].

    The proof-chain form prior - (2/n)(h + 2k log2 n) is the rhs and alone
    decides `passed`; the stated form prior - (stated_coeff/n)(h + k log2 n)
    is recorded. `vacuous` marks rhs <= 0, where no table can fail.
    """
    n = params["n"]
    log_n = math.log2(n)
    rhs = prior - (2 / n) * (h + 2 * k * log_n)
    rhs_stated = prior - (stated_coeff / n) * (h + k * log_n)
    proof_pass = lhs >= rhs - ENTROPY_TOLERANCE
    return VerificationReport(
        check=check,
        params=params,
        lhs=lhs,
        rhs=rhs,
        relation=">=",
        passed=proof_pass,
        tolerance=ENTROPY_TOLERANCE,
        mode="float",
        details={
            "rhs_stated": rhs_stated,
            "stated_pass": lhs >= rhs_stated - ENTROPY_TOLERANCE,
            "proof_pass": proof_pass,
            "prior_entropy": prior,
            "h_messages": h,
            "slack_proof": lhs - rhs,
            "slack_stated": lhs - rhs_stated,
            "vacuous": rhs <= 0,
        },
    )


# ---------------------------------------------------------------------------
# exact protocol enumeration


def _message_calls(n: int, lengths: tuple[int, ...]) -> int:
    """Upper bound on the message calls of `_final_boards`: every balanced
    string is tried on every board its player can see, and player i's
    message and index multiply the boards by at most min(2^L_i, C(n, n/2)) * n."""
    strings = math.comb(n, n // 2)
    boards = 1
    calls = 0
    for length in lengths:
        calls += strings * boards
        boards *= min(2**length, strings) * n
    return calls


def _final_boards(protocol: ProtocolSpec, n: int, k: int, shared: SharedRandomness) -> Iterator[tuple]:
    """Each final board of positive probability once, as (board, its messages'
    bit tuples, weight under answer 0, weight under answer 1), with the
    protocol made deterministic by `shared`. A weight counts the (strings,
    indices) prefixes that lead to the board under that answer.

    Built one player at a time: a message depends only on its sender's string
    and the board so far, so one message call per (board, string) serves
    every support point that shares them, under both answers. The strings are
    grouped by message, and player i's index sigma splits a group whose
    strings hold `ones` 1s at sigma into weights w0 * (group size - ones) and
    w1 * ones. The last player's boards are yielded as they are made."""
    check_size(protocol, n, k)
    check_budget("joint enumeration", _message_calls(n, protocol.message_lengths), "message calls")
    strings = balanced_strings(n)

    def children(i: int, board: Board, key: tuple, w0: int, w1: int) -> Iterator[tuple]:
        groups: dict[tuple, list] = {}  # message bits -> [message, bits of each string that sends it...]
        for y in strings:
            message = player_message(protocol, i, y, board, shared)
            (groups.get(message.bits) or groups.setdefault(message.bits, [message])).append(y.bits)
        for bits, (message, *rows) in groups.items():
            messages, child_key = board.messages + (message,), key + (bits,)
            for sigma, ones in enumerate(map(sum, zip(*rows)), 1):
                a0, a1 = w0 * (len(rows) - ones), w1 * ones
                if a0 or a1:
                    yield Board(messages, board.indices + (sigma,)), child_key, a0, a1

    boards = [(Board(), (), 1, 1)]
    for i in range(1, k):
        boards = [child for parent in boards for child in children(i, *parent)]
    for parent in boards:
        yield from children(k, *parent)


def verify_chain_entropy_bound(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    shared_seed: int = 0,
) -> VerificationReport:
    """Answer-entropy accounting for a chained run: H(answer | board) against
    the bound 1 - (2/n)(H(messages) + 2k log n), with the stated form
    1 - (12/n)(H(messages) + k log n) recorded (see _entropy_bound_report).
    The exact success probability and the estimator-entropy ceiling
    H2(success) are recorded so callers can also assert the upper direction
    for better-than-even protocols.

    Both entropies are read from the final boards of _final_boards, with no
    table built: each board is a slice with its (answer 0, answer 1) weight
    pair, and a message tuple's pair sums its boards'.
    """
    shared = SharedRandomness(shared_seed)
    slices: Counter = Counter()
    class_sums: dict[tuple, list[int]] = {}
    hits = total = 0
    for board, key, a0, a1 in _final_boards(protocol, n, k, shared):
        hits += (a0, a1)[decoder_output(protocol, board, shared)]
        total += a0 + a1
        if a0 and a1:
            slices[a0, a1] += 1
        pair = class_sums.get(key) or class_sums.setdefault(key, [0, 0])
        pair[0] += a0
        pair[1] += a1
    lhs, h = binary_slice_entropies(slices, Counter(map(tuple, class_sums.values())), (1, 1))
    success = Fraction(hits, total)
    params = {"protocol": protocol.name, "protocol_params": dict(protocol.params), "n": n, "k": k, "seed": shared_seed}
    report = _entropy_bound_report("chain-entropy-accounting", params, lhs, h, 1.0, k, 12)
    ceiling = binary_entropy(success) if success > Fraction(1, 2) else None
    fano_pass = None if ceiling is None else report.lhs <= ceiling + ENTROPY_TOLERANCE
    details = {**report.details, "success": success, "fano_ceiling": ceiling, "fano_pass": fano_pass}
    return replace(report, details=details)


# ---------------------------------------------------------------------------
# biased index bounds


def _biased_tally(n: int, messages: Sequence[int], s: int, with_prefix: bool) -> tuple[Counter, Counter]:
    """The bias-free step of a biased-index table: each (string, index) cell
    counted under its answer bit in its slice (message, index[, prefix]).
    Returns binary_slice_entropies' (slices, classes) count-pair histograms,
    the classes being the message ids. messages[r] is the id of the r-th
    string of balanced_strings(n)."""
    check_budget("biased-index enumeration", math.comb(n, n // 2) * n, "points")
    strings = balanced_strings(n)
    if s < 0 or len(messages) != len(strings) or not all(isinstance(m, int) and 0 <= m < 2**s for m in messages):
        raise ProtocolContractError(f"need one message id in [0, 2^{s}) per balanced string of length {n}")
    counts: dict[tuple, list[int]] = {}
    classes: dict[int, list[int]] = {}
    for y, m in zip(strings, messages):
        bits = y.bits
        message_pair = classes.setdefault(m, [0, 0])
        for rho, w in enumerate(bits, 1):
            key = (m, rho, bits[: rho - 1]) if with_prefix else (m, rho)
            (counts.get(key) or counts.setdefault(key, [0, 0]))[w] += 1
            message_pair[w] += 1
    return Counter((c0, c1) for c0, c1 in counts.values() if c0 and c1), Counter(map(tuple, classes.values()))


def biased_index_bound_reports(
    n: int, thetas: Sequence, messages: Sequence[int], s: int, aug: bool = False
) -> list[VerificationReport]:
    """H(answer | message, index), or with `aug` H(answer | message, index,
    prefix before the index), against both printed variants of the
    single-message entropy bound, for each theta of `thetas` in order;
    `passed` reflects the proof-chain variant (prior - (2/n)(H(message) +
    2 log n)), the stated variant is recorded. `messages` holds one id in
    [0, 2^s) per string of balanced_strings(n), in rank order; any other
    length or id raises ProtocolContractError. The ids are checked and
    tallied once, then weighted per theta."""
    thetas = [bias(t) for t in thetas]
    slices, classes = _biased_tally(n, messages, s, with_prefix=aug)
    check = "augmented-index-entropy-bound" if aug else "biased-index-entropy-bound"
    return [
        _entropy_bound_report(check, {"n": n, "theta": t, "message_bits": s},
                              *binary_slice_entropies(slices, classes, cell_weights(t)),
                              binary_entropy(Fraction(1, 2) + t), 1, 2)
        for t in thetas
    ]


def verify_entropy_given_pool(n: int, theta) -> VerificationReport:
    """Exact check that the string keeps large entropy given the support set:
    log2 C(b, n/2) >= b * H2(1/2 + |theta|) - 2 log2 n, with b the pool size.

    Negative biases use the mirrored construction, which swaps bit roles but
    leaves both sides unchanged. `vacuous` marks a right side <= 0, which no
    string law can fail; at |theta| = 1/2 it is -2 log2 n.
    """
    theta = bias(theta)
    b = structured_pool_size(n, theta)
    lhs = log_binomial(b, n // 2)
    rhs = b * binary_entropy(Fraction(1, 2) + abs(theta)) - 2 * math.log2(n)
    return VerificationReport(
        check="restricted-support-entropy",
        params={"n": n, "theta": theta, "pool_size": b},
        lhs=lhs,
        rhs=rhs,
        relation=">=",
        passed=lhs >= rhs - ENTROPY_TOLERANCE,
        tolerance=ENTROPY_TOLERANCE,
        mode="float",
        details={"vacuous": rhs <= 0, "slack": lhs - rhs},
    )


def sweep_entropy_given_pool(max_n: int) -> tuple[int, int, float]:
    """Run the restricted-support entropy check for every even n <= max_n and
    every realizable bias below 1/2 (positive branch; the negative branch is
    the identical computation). Returns (checks, failures, min slack).

    Uses an incrementally updated exact binomial per n to stay fast.
    """
    if max_n < 2:
        raise InvalidParameterError(f"the sweep needs max_n >= 2, got {max_n}")
    checks = failures = 0
    min_slack = math.inf
    for n in range(2, max_n + 1, 2):
        half = n // 2
        log_n2 = 2 * math.log2(n)
        coeff = 1  # C(b, half) at b = half
        for b in range(half, n + 1):
            if b > half:
                coeff = coeff * b // (b - half)
            if b == half:
                continue  # |theta| = 1/2 is the vacuous case
            lhs = math.log2(coeff)
            rhs = b * binary_entropy_ratio(n, 2 * b) - log_n2  # 1/2 + theta = n/2b at theta = (n-b)/2b
            slack = lhs - rhs
            checks += 1
            min_slack = min(min_slack, slack)
            if lhs < rhs - ENTROPY_TOLERANCE:
                failures += 1
    return checks, failures, min_slack


# ---------------------------------------------------------------------------
# block-majority protocol oracles


def exact_majority_success(block_size: int) -> Fraction:
    """Exact success of the block-majority protocol on uniform inputs:
    1/2 + E|Binomial(B, 1/2) - B/2| / B."""
    if block_size < 1:
        raise InvalidParameterError(f"block size must be >= 1, got {block_size}")
    b = block_size
    twice_expected = sum(math.comb(b, i) * abs(2 * i - b) for i in range(b + 1))
    return Fraction(1, 2) + Fraction(twice_expected, 2 ** (b + 1) * b)


def enumerated_majority_success(n: int, block_size: int) -> Fraction:
    """The same success probability by exhaustive enumeration of all strings
    and positions, exercising the real encode/decode path (no mask, identity
    permutation realizes the uniform-input law)."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if block_size < 1 or n % block_size != 0:
        raise InvalidParameterError(f"block size {block_size} must divide n={n}")
    check_budget("majority enumeration", 2**n * n, "points")
    mask = BitString((0,) * n)
    identity = tuple(range(1, n + 1))
    hits = 0
    for bits in product((0, 1), repeat=n):
        summary = index_majority_encode(BitString(bits), mask, identity, block_size)
        for pos in range(1, n + 1):
            guess = index_majority_decode(summary, pos, mask, identity, block_size)
            hits += guess == bits[pos - 1]
    return Fraction(hits, 2**n * n)


def majority_vote_success(k: int, per_guess: Fraction) -> Fraction:
    """Success of a majority vote over k independent guesses, ties decided by
    a fair coin; the exact convolution oracle for the chained protocol."""
    q = Fraction(per_guess)
    if k < 1 or not 0 <= q <= 1:
        raise InvalidParameterError(f"need k >= 1 and per_guess in [0, 1], got k={k}, per_guess={q}")
    total = Fraction(0)
    for j in range(k + 1):
        term = math.comb(k, j) * q**j * (1 - q) ** (k - j)
        if 2 * j > k:
            total += term
        elif 2 * j == k:
            total += Fraction(term, 2)
    return total


# ---------------------------------------------------------------------------
# randomized test subjects


def random_message_function(n: int, s: int, seed: int) -> list[int]:
    """A uniformly random s-bit message id per string of balanced_strings(n),
    in rank order, drawn bit by bit from a seeded stream, first draw most
    significant."""
    if s < 0:
        raise InvalidParameterError(f"message length s must be >= 0, got {s}")
    draw = random.Random(derive_seed("message-fn", n, s, seed)).randrange
    return [sum(draw(2) << j for j in range(s - 1, -1, -1)) for _ in range(math.comb(n, n // 2))]


def truncation_message_function(n: int, s: int) -> list[int]:
    """The first s bits of each string of balanced_strings(n), as ids in rank order."""
    if s < 0:
        raise InvalidParameterError(f"message length s must be >= 0, got {s}")
    return [int(y.text[:s] or "0", 2) for y in balanced_strings(n)]


def full_string_message_function(n: int) -> tuple[range, int]:
    """An injective message function, each string's rank in
    balanced_strings(n) as its id, and its message length."""
    count = math.comb(n, n // 2)
    return range(count), max(1, math.ceil(math.log2(count)))


def _hash_bits(label: str, count: int) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode()).digest()
    needed = (count + 7) // 8
    while len(digest) < needed:
        digest += hashlib.sha256(digest).digest()
    return tuple((digest[j // 8] >> (j % 8)) & 1 for j in range(count))


def random_chain_protocol(n: int, k: int, max_message_bits: int, seed: int) -> ProtocolSpec:
    """A uniformly random deterministic protocol: each player's message is a
    random function of its private string and the board so far, realized
    lazily through a keyed hash; the decoder is a random function of the
    final board, which holds its index."""
    if max_message_bits < 0:
        raise InvalidParameterError(f"max_message_bits must be >= 0, got {max_message_bits}")
    rng = random.Random(derive_seed("random-protocol-lengths", n, k, max_message_bits, seed))
    lengths = tuple(rng.randint(0, max_message_bits) for _ in range(k))

    def message(i: int, string: BitString, board: Board, shared: SharedRandomness) -> BitString:
        label = f"rnd-msg|{seed}|{i}|{string.text}|{board.fingerprint()}"
        return BitString(_hash_bits(label, lengths[i - 1]))

    def decode(board: Board, shared: SharedRandomness) -> int:
        label = f"rnd-dec|{seed}|{board.index(k)}|{board.fingerprint()}"
        return _hash_bits(label, 1)[0]

    return ProtocolSpec(
        name="random-protocol", n=n, k=k, message_lengths=lengths,
        message_fn=message, decode_fn=decode, params={"seed": seed, "max_bits": max_message_bits},
    )
