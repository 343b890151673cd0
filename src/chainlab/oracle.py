"""Exact brute-force verification of the quantitative claims.

Every check here is an independent route to a number the rest of the package
also produces: support tables are rebuilt from their defining processes,
protocol success probabilities are enumerated point by point, and entropy
bounds are evaluated from exact joint tables. Checks compare in exact
rationals wherever both sides are rational and use the 1e-9 bit tolerance
where a side is an entropy.
"""
from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product
from typing import Any, Callable, Iterator, Mapping

from .distributions import (
    DEFAULT_ENUMERATION_BUDGET,
    BiasParam,
    enumerate_support,
    sample_biased_structured,
    structured_bits,
    structured_pool_size,
)
from .errors import InvalidParameterError, ProtocolContractError, ResourceLimitError
from .info_theory import (
    ENTROPY_TOLERANCE,
    JointTable,
    binary_entropy,
    binary_entropy_ratio,
    conditional_entropy,
    entropy,
    log_binomial,
)
from .model import BalancedString, BitString, ChainInstance, balanced_strings, enumerate_balanced
from .protocols import (
    Board,
    DecodeView,
    PlayerView,
    ProtocolSpec,
    SharedRandomness,
    derive_seed,
    index_majority_decode,
    index_majority_encode,
    run_chain_protocol,
)
from .report import VerificationReport

MessageFunction = Callable[[BalancedString], BitString]


# ---------------------------------------------------------------------------
# distribution checks


def verify_distribution_identity(n: int, theta, budget: int = DEFAULT_ENUMERATION_BUDGET) -> VerificationReport:
    """Exact total-variation distance between the two biased-index formulations."""
    if n > 10:
        raise InvalidParameterError(f"identity check is exact-enumeration only, n={n} > 10")
    theta = BiasParam(Fraction(theta)).theta
    direct = enumerate_support(n, theta, "direct", budget=budget)
    structured = enumerate_support(n, theta, "structured", budget=budget)
    distance = direct.tv_distance(structured)
    return VerificationReport(
        check="distribution-identity",
        params={"n": n, "theta": theta},
        lhs=distance,
        rhs=Fraction(0),
        relation="==",
        passed=distance == 0,
        tolerance=0,
        mode="exact",
        details={"support_direct": len(direct.entries), "support_structured": len(structured.entries)},
    )


def factorizes(joint: Mapping[tuple[Any, Any], int]) -> bool:
    """True iff an integer-weight law over pairs (a, b) equals the product of
    its two marginals, compared exactly over every (a, b) combination."""
    total = sum(joint.values())
    left: dict = {}
    right: dict = {}
    for (a, b), w in joint.items():
        left[a] = left.get(a, 0) + w
        right[b] = right.get(b, 0) + w
    return all(
        joint.get((a, b), 0) * total == wa * wb
        for a, wa in left.items()
        for b, wb in right.items()
    )


def verify_conditional_independence(n: int, theta, trials: int = 0, seed: int = 0) -> VerificationReport:
    """Factorization checks on the structured support and the chained input.

    Exact part: for every fixed support set, the conditional (string, index)
    law must equal the product of its marginals, in rationals; likewise the
    two (string, index) pairs of the k=2 chained input given the answer bit,
    taken from the enumerated chained support. If trials > 0,
    structured-sampler frequencies are additionally compared to the exact
    table within five standard errors per cell.
    """
    if n > 8:
        raise InvalidParameterError(f"independence check is exact-enumeration only, n={n} > 8")
    theta = Fraction(theta)
    b = structured_pool_size(n, theta)
    structured_ok = True
    for pool in combinations(range(1, n + 1), b):
        joint: dict[tuple, int] = {}
        for chosen in combinations(pool, n // 2):
            bits = structured_bits(n, set(chosen), theta)
            for rho in pool:
                joint[(bits, rho)] = joint.get((bits, rho), 0) + 1
        structured_ok = structured_ok and factorizes(joint)

    pairs_by_answer: dict[int, dict[tuple, int]] = {0: {}, 1: {}}
    for z, strings, indices in _chain_support(n, 2):
        key = ((strings[0].bits, indices[0]), (strings[1].bits, indices[1]))
        pairs_by_answer[z][key] = pairs_by_answer[z].get(key, 0) + 1
    chain_ok = all(factorizes(joint) for joint in pairs_by_answer.values())

    details: dict = {"structured_factorizes": structured_ok, "chain_pairs_factorize": chain_ok}
    empirical_ok = None
    if trials > 0:
        exact = enumerate_support(n, theta, "structured").as_dict()
        rng = random.Random(derive_seed("cond-indep", n, theta, seed))
        counts: dict[tuple, int] = {}
        for _ in range(trials):
            s = sample_biased_structured(n, theta, rng)
            key = (s.string, s.index)
            counts[key] = counts.get(key, 0) + 1
        empirical_ok = True
        worst = 0.0
        for key, p in exact.items():
            pf = float(p)
            se = math.sqrt(pf * (1 - pf) / trials)
            dev = abs(counts.get(key, 0) / trials - pf)
            worst = max(worst, dev / se if se else 0.0)
            if se and dev > 5 * se:
                empirical_ok = False
        details["empirical_within_5se"] = empirical_ok
        details["worst_deviation_se"] = worst
    passed = structured_ok and chain_ok and (empirical_ok is not False)
    return VerificationReport(
        check="conditional-independence",
        params={"n": n, "theta": theta, "trials": trials, "seed": seed},
        lhs="factorizes",
        rhs="product of marginals",
        relation="==",
        passed=passed,
        tolerance=0,
        mode="exact",
        details=details,
    )


# ---------------------------------------------------------------------------
# exact protocol enumeration


def chain_support_size(n: int, k: int) -> int:
    per_answer = math.comb(n, n // 2) * (n // 2)
    return 2 * per_answer**k


def _chain_support(n: int, k: int) -> Iterator[tuple[int, tuple, tuple]]:
    """All (answer, strings, indices) with positive probability; uniform weight each."""
    strings = list(enumerate_balanced(n))
    for z in (0, 1):
        valid = [(y, s) for y in strings for s in range(1, n + 1) if y.bit(s) == z]
        for combo in product(valid, repeat=k):
            yield z, tuple(y for y, _ in combo), tuple(s for _, s in combo)


_JOINT_LABELS = ("answer", "messages", "reveals")


def _support_runs(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    shared_seed: int,
    aug: bool,
    budget: int,
) -> tuple[dict[tuple, int], Fraction]:
    """One engine run per support point, in one pass: the integer weights of
    (answer, board) outcomes, keyed as _JOINT_LABELS, and the exact success
    probability."""
    required = chain_support_size(n, k)
    if required > budget:
        raise ResourceLimitError(
            f"joint enumeration needs {required} support points, budget is {budget}",
            required=required,
            budget=budget,
        )
    shared = SharedRandomness(shared_seed)
    weights: dict[tuple, int] = {}
    hits = 0
    for z, strs, idxs in _chain_support(n, k):
        inst = ChainInstance(n=n, k=k, strings=strs, indices=idxs, answer=z)
        result = run_chain_protocol(protocol, inst, shared, aug)
        key = (z, *result.board.key())
        weights[key] = weights.get(key, 0) + 1
        hits += result.correct
    return weights, Fraction(hits, required)


def enumerate_joint(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    shared_seed: int = 0,
    aug: bool = False,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> JointTable:
    """Exact joint law of (answer, board) under the hard distribution, with
    the protocol made deterministic by fixing its shared seed."""
    weights, _ = _support_runs(protocol, n, k, shared_seed, aug, budget)
    return JointTable.from_weights(_JOINT_LABELS, weights)


def posterior_answer_entropy(joint: JointTable) -> float:
    """H(answer | board) from an enumerated joint table."""
    return conditional_entropy(joint, "answer", ("messages", "reveals"))


def exact_protocol_success(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    shared_seed: int = 0,
    aug: bool = False,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Fraction:
    """Exact success probability under the hard distribution at a fixed shared seed."""
    _, success = _support_runs(protocol, n, k, shared_seed, aug, budget)
    return success


def verify_chain_entropy_bound(
    protocol: ProtocolSpec,
    n: int,
    k: int,
    shared_seed: int = 0,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Answer-entropy accounting for a chained run.

    Checks H(answer | transcript) against both printed variants of the lower
    bound: the stated form 1 - (12/n)(H(messages) + k log n) and the
    proof-chain form 1 - (2/n)(H(messages) + 2k log n). `passed` requires
    both (the proof form implies the stated one). The exact success
    probability and the estimator-entropy ceiling H2(success) are recorded so
    callers can also assert the upper direction for better-than-even
    protocols.
    """
    weights, success = _support_runs(protocol, n, k, shared_seed, False, budget)
    joint = JointTable.from_weights(_JOINT_LABELS, weights)
    lhs = posterior_answer_entropy(joint)
    h_messages = entropy(joint.marginal(("messages",)))
    log_n = math.log2(n)
    rhs_stated = 1 - (12 / n) * (h_messages + k * log_n)
    rhs_proof = 1 - (2 / n) * (h_messages + 2 * k * log_n)
    stated_pass = lhs >= rhs_stated - ENTROPY_TOLERANCE
    proof_pass = lhs >= rhs_proof - ENTROPY_TOLERANCE
    fano_ceiling = None
    fano_pass = None
    if success > Fraction(1, 2):
        fano_ceiling = binary_entropy(success)
        fano_pass = lhs <= fano_ceiling + ENTROPY_TOLERANCE
    return VerificationReport(
        check="chain-entropy-accounting",
        params={"protocol": protocol.name, "protocol_params": dict(protocol.params),
                "n": n, "k": k, "seed": shared_seed},
        lhs=lhs,
        rhs=max(rhs_stated, rhs_proof),
        relation=">=",
        passed=stated_pass and proof_pass,
        tolerance=ENTROPY_TOLERANCE,
        mode="float",
        details={
            "rhs_stated": rhs_stated,
            "rhs_proof": rhs_proof,
            "stated_pass": stated_pass,
            "proof_pass": proof_pass,
            "h_messages": h_messages,
            "success": success,
            "fano_ceiling": fano_ceiling,
            "fano_pass": fano_pass,
        },
    )


# ---------------------------------------------------------------------------
# biased index bounds


def _biased_joint(n: int, theta: Fraction, message_fn: MessageFunction, s: int, with_prefix: bool) -> JointTable:
    # integer weights over a common denominator: (q +- 2p) per (y, rho) cell
    p, q = theta.numerator, theta.denominator
    weight_of_bit = (q - 2 * p, q + 2 * p)
    weights: dict[tuple, int] = {}
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


def _biased_bound_report(
    check: str, n: int, theta, message_fn: MessageFunction, s: int, with_prefix: bool
) -> VerificationReport:
    theta = BiasParam(Fraction(theta)).theta
    structured_pool_size(n, theta)  # grid precondition
    joint = _biased_joint(n, theta, message_fn, s, with_prefix)
    given = ("message", "index", "prefix") if with_prefix else ("message", "index")
    lhs = conditional_entropy(joint, "answer", given)
    h_message = entropy(joint.marginal(("message",)))
    prior = binary_entropy(Fraction(1, 2) + theta)
    log_n = math.log2(n)
    rhs_stated = prior - (2 / n) * (h_message + log_n)
    rhs_proof = prior - (2 / n) * (h_message + 2 * log_n)
    stated_pass = lhs >= rhs_stated - ENTROPY_TOLERANCE
    proof_pass = lhs >= rhs_proof - ENTROPY_TOLERANCE
    return VerificationReport(
        check=check,
        params={"n": n, "theta": theta, "message_bits": s},
        lhs=lhs,
        rhs=rhs_proof,
        relation=">=",
        passed=proof_pass,
        tolerance=ENTROPY_TOLERANCE,
        mode="float",
        details={
            "rhs_stated": rhs_stated,
            "stated_pass": stated_pass,
            "proof_pass": proof_pass,
            "prior_entropy": prior,
            "h_message": h_message,
            "slack_proof": lhs - rhs_proof,
            "slack_stated": lhs - rhs_stated,
        },
    )


def verify_biased_index_bound(n: int, theta, message_fn: MessageFunction, s: int) -> VerificationReport:
    """Check H(answer | message, index) against both printed variants of the
    single-message entropy bound; `passed` reflects the proof-chain variant
    (prior - (2/n)(H(message) + 2 log n)), the stated variant is recorded."""
    return _biased_bound_report("biased-index-entropy-bound", n, theta, message_fn, s, with_prefix=False)


def verify_aug_biased_index_bound(n: int, theta, message_fn: MessageFunction, s: int) -> VerificationReport:
    """Augmented variant: condition additionally on the prefix before the index."""
    return _biased_bound_report("augmented-index-entropy-bound", n, theta, message_fn, s, with_prefix=True)


def verify_entropy_given_pool(n: int, theta) -> VerificationReport:
    """Exact check that the string keeps large entropy given the support set:
    log2 C(b, n/2) >= b * H2(1/2 + |theta|) - 2 log2 n, with b the pool size.

    Negative biases use the mirrored construction, which swaps bit roles but
    leaves both sides unchanged. At |theta| = 1/2 the right side is
    nonpositive and the claim is vacuous; reported as such.
    """
    theta = BiasParam(Fraction(theta)).theta
    b = structured_pool_size(n, theta)
    if abs(theta) == Fraction(1, 2):
        return VerificationReport(
            check="restricted-support-entropy",
            params={"n": n, "theta": theta, "pool_size": b},
            lhs=0.0,
            rhs=None,
            relation="vacuous",
            passed=True,
            tolerance=ENTROPY_TOLERANCE,
            mode="float",
            details={"vacuous": True},
        )
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
        details={"vacuous": False, "slack": lhs - rhs},
    )


def sweep_entropy_given_pool(max_n: int) -> tuple[int, int, float]:
    """Run the restricted-support entropy check for every even n <= max_n and
    every realizable bias below 1/2 (positive branch; the negative branch is
    the identical computation). Returns (checks, failures, min slack).

    Uses an incrementally updated exact binomial per n to stay fast.
    """
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
    if block_size < 1 or n % block_size != 0:
        raise InvalidParameterError(f"block size {block_size} must divide n={n}")
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


def random_message_function(n: int, s: int, seed: int) -> MessageFunction:
    """A uniformly random function from balanced strings to s-bit messages,
    materialized from a seeded stream."""
    rng = random.Random(derive_seed("message-fn", n, s, seed))
    table = {
        y: BitString(tuple(rng.randrange(2) for _ in range(s)))
        for y in balanced_strings(n)
    }
    return lambda y: table[y]


def truncation_message_function(s: int) -> MessageFunction:
    return lambda y: BitString(y.bits[:s])


def full_string_message_function(n: int) -> tuple[MessageFunction, int]:
    """An injective message function (the string's rank, binary-coded) and
    its message length."""
    ranks = {y: i for i, y in enumerate(balanced_strings(n))}
    s = max(1, math.ceil(math.log2(len(ranks))))
    def encode(y: BalancedString) -> BitString:
        r = ranks[y]
        return BitString(tuple((r >> (s - 1 - j)) & 1 for j in range(s)))
    return encode, s


def _hash_bits(label: str, count: int) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode()).digest()
    needed = (count + 7) // 8
    while len(digest) < needed:
        digest += hashlib.sha256(digest).digest()
    return tuple((digest[j // 8] >> (j % 8)) & 1 for j in range(count))


def _board_fingerprint(board: Board) -> str:
    parts = [f"M{p}:{m.text}" for p, m in board.messages]
    for kind, i, value in board.revealed:
        parts.append(f"{kind}{i}:{value.text if isinstance(value, BitString) else value}")
    return ";".join(parts)


def random_chain_protocol(n: int, k: int, max_message_bits: int, seed: int) -> ProtocolSpec:
    """A uniformly random deterministic protocol: each player's message is a
    random function of its private string and the board so far, realized
    lazily through a keyed hash; the decoder is a random function of the
    board and its index."""
    rng = random.Random(derive_seed("random-protocol-lengths", n, k, max_message_bits, seed))
    lengths = tuple(rng.randint(0, max_message_bits) for _ in range(k))

    def message(i: int, view: PlayerView, board: Board, shared: SharedRandomness) -> BitString:
        label = f"rnd-msg|{seed}|{i}|{view.string.text}|{_board_fingerprint(board)}"
        return BitString(_hash_bits(label, lengths[i - 1]))

    def decode(board: Board, view: DecodeView, shared: SharedRandomness) -> int:
        label = f"rnd-dec|{seed}|{view.index}|{_board_fingerprint(board)}"
        return _hash_bits(label, 1)[0]

    return ProtocolSpec(
        name="random-protocol", n=n, k=k, message_lengths=lengths,
        message_fn=message, decode_fn=decode, params={"seed": seed, "max_bits": max_message_bits},
    )
