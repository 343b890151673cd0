"""Entropy kernel: exact finite distributions, conditional entropy, binary
entropy, the estimator bound, exact log-binomials, and two exact binomial
facts (entropy-form coefficient bounds and central anti-concentration).

Probabilities may be exact rationals or floats. Entropies are always computed
in float (logs are transcendental) using exact summation via math.fsum;
comparisons against entropy values use a tolerance of 1e-9 bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError
from .report import VerificationReport

ENTROPY_TOLERANCE = 1e-9

# Rational bracket around pi, tight enough that every exact comparison in
# check_binomial_entropy_bounds is decided (the bounds are never this close).
_PI_LO = Fraction(3141592653589793, 10**15)
_PI_HI = Fraction(3141592653589794, 10**15)


def _term_bits(p) -> float:
    """p * log2(1/p) for a single probability, with 0 log 0 = 0."""
    if p == 0:
        return 0.0
    if isinstance(p, Fraction):
        return float(p) * (math.log2(p.denominator) - math.log2(p.numerator))
    return -p * math.log2(p)


@dataclass(frozen=True)
class FiniteDistribution:
    """A normalized list of nonnegative probabilities."""

    probabilities: tuple

    def __post_init__(self):
        probs = tuple(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if any(p < 0 for p in probs):
            raise InvalidParameterError("probabilities must be nonnegative")
        total = sum(probs)
        if all(isinstance(p, (Fraction, int)) for p in probs):
            if total != 1:
                raise InvalidParameterError(f"probabilities sum to {total}, expected exactly 1")
        elif abs(total - 1) > 1e-12:
            raise InvalidParameterError(f"probabilities sum to {total}, expected 1 within 1e-12")

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution over named variables.

    `entries` maps value tuples (aligned with `labels`) to probabilities.
    """

    labels: tuple[str, ...]
    entries: Mapping[tuple, Any]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "entries", dict(self.entries))
        total = sum(self.entries.values())
        if all(isinstance(p, (Fraction, int)) for p in self.entries.values()):
            if total != 1:
                raise InvalidParameterError(f"joint table sums to {total}, expected exactly 1")
        elif abs(total - 1) > 1e-12:
            raise InvalidParameterError("joint table must be normalized within 1e-12")

    @classmethod
    def from_weights(cls, labels: Sequence[str], weights: Mapping[tuple, int]) -> "JointTable":
        """Build a table from integer weights, normalizing exactly."""
        total = sum(weights.values())
        if total <= 0:
            raise InvalidParameterError("weights must have positive total")
        return cls(tuple(labels), {k: Fraction(w, total) for k, w in weights.items() if w})

    def _positions(self, names: Iterable[str]) -> tuple[int, ...]:
        pos = []
        for name in names:
            if name not in self.labels:
                raise InvalidParameterError(f"unknown variable {name!r}; have {self.labels}")
            pos.append(self.labels.index(name))
        return tuple(pos)

    def marginal(self, names: Sequence[str]) -> "JointTable":
        pos = self._positions(names)
        out: dict[tuple, Any] = {}
        for values, p in self.entries.items():
            key = tuple(values[i] for i in pos)
            out[key] = out.get(key, 0) + p
        return JointTable(tuple(names), out)


def binary_entropy(x) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the 0 log 0 = 0 convention."""
    if x < 0 or x > 1:
        raise InvalidParameterError(f"binary entropy needs x in [0, 1], got {x}")
    if isinstance(x, Fraction):
        return _term_bits(x) + _term_bits(1 - x)
    return _term_bits(float(x)) + _term_bits(1.0 - float(x))


def entropy(dist: FiniteDistribution | JointTable) -> float:
    """Shannon entropy in bits."""
    probabilities = dist.entries.values() if isinstance(dist, JointTable) else dist.probabilities
    return math.fsum(_term_bits(p) for p in probabilities)


def conditional_entropy(table: JointTable, target: str, given: Sequence[str]) -> float:
    """H(target | given) in bits: conditional-slice entropies weighted by slice mass."""
    target_pos = table._positions([target])[0]
    given_pos = table._positions(given)
    slices: dict[tuple, dict] = {}  # given values -> {target value: mass}
    for values, p in table.entries.items():
        cond = slices.setdefault(tuple(values[i] for i in given_pos), {})
        v = values[target_pos]
        cond[v] = cond[v] + p if v in cond else p
    terms = []
    for cond in slices.values():
        weight = sum(cond.values())
        if weight == 0:
            continue
        w = float(weight)
        for p in cond.values():
            terms.append(w * _term_bits(p / weight))
    return math.fsum(terms)


def fano_bound(delta) -> float:
    """Upper bound on H(answer | estimator input) for an estimator with error delta."""
    if delta < 0 or delta >= Fraction(1, 2):
        raise InvalidParameterError(f"estimator error must lie in [0, 1/2), got {delta}")
    return binary_entropy(delta)


def log_binomial(p: int, q: int) -> float:
    """log2 C(p, q) from the exact big-integer binomial (never Stirling)."""
    if q < 0 or q > p:
        raise InvalidParameterError(f"need 0 <= q <= p, got p={p}, q={q}")
    return math.log2(math.comb(p, q))


def _pi_at_least(num: int, den: int):
    """Exact verdict of pi >= num/den through the rational bracket."""
    if _PI_LO.numerator * den >= num * _PI_LO.denominator:
        return True
    if _PI_HI.numerator * den < num * _PI_HI.denominator:
        return False
    return None


def _pi_at_most(num: int, den: int):
    if _PI_HI.numerator * den <= num * _PI_HI.denominator:
        return True
    if _PI_LO.numerator * den > num * _PI_LO.denominator:
        return False
    return None


def _bounds_hold(p: int, q: int, sqrt_numerator: int) -> tuple[bool | None, bool | None]:
    """Exact verdicts for  2^(pH2) sqrt(v/(8 pi q(p-q))) <= C(p, q) <= 2^(pH2) sqrt(v/(2 pi q(p-q))).

    Squaring removes the square roots and 2^(2 p H2(q/p)) is the rational
    p^(2p) / (q^(2q) (p-q)^(2(p-q))), so each side reduces to placing pi
    against a ratio of big integers; pi enters through a rational bracket
    tight enough to always be decisive here. Plain cross-multiplication, no
    gcd normalization: these integers run to tens of kilobits.
    """
    c2 = math.comb(p, q) ** 2
    r2v_num = p ** (2 * p) * sqrt_numerator
    r2v_den = q ** (2 * q) * (p - q) ** (2 * (p - q))
    lower = _pi_at_least(r2v_num, r2v_den * 8 * q * (p - q) * c2)
    upper = _pi_at_most(r2v_num, r2v_den * 2 * q * (p - q) * c2)
    return lower, upper


def check_binomial_entropy_bounds(p: int, q: int) -> VerificationReport:
    """Check the entropy-form binomial coefficient bounds by exact arithmetic.

    The primary check puts p under the square root (the dimensionally
    consistent reading). The printed variant's square-root numerator is bound
    to 2q, matching both in-scope uses of the bound, where q is half the
    ambient string length; its result is recorded but does not drive `pass`.
    """
    if not 1 <= q <= p - 1:
        raise InvalidParameterError(f"need 1 <= q <= p-1, got p={p}, q={q}")
    lower_p, upper_p = _bounds_hold(p, q, p)
    lower_n, upper_n = _bounds_hold(p, q, 2 * q)
    log_c = log_binomial(p, q)
    h_term = p * binary_entropy(Fraction(q, p))
    denom = math.log2(8 * math.pi * q * (p - q))
    lower_log = h_term + 0.5 * (math.log2(p) - denom)
    upper_log = h_term + 0.5 * (math.log2(p) - math.log2(2 * math.pi * q * (p - q)))
    passed = bool(lower_p) and bool(upper_p)
    return VerificationReport(
        check="binomial-entropy-bounds",
        params={"p": p, "q": q},
        lhs=log_c,
        rhs={"lower": lower_log, "upper": upper_log},
        relation="between",
        passed=passed,
        tolerance=None,
        mode="exact",
        details={
            "lower_pass": lower_p,
            "upper_pass": upper_p,
            "printed_form_lower_pass": lower_n,
            "printed_form_upper_pass": upper_n,
            "printed_form_pass": bool(lower_n) and bool(upper_n),
        },
    )


class AnticoncentrationResult(NamedTuple):
    probability: Fraction
    bound: Fraction
    passed: bool


def binomial_anticoncentration(t: int, c) -> AnticoncentrationResult:
    """Exact Pr[|ones - t/2| < c sqrt(t)] for ones ~ Binomial(t, 1/2), vs the 2c bound.

    The event |i - t/2| < c sqrt(t) is decided without floats by comparing
    (2i - t)^2 against 4 c^2 t in exact rationals.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be >= 1, got {t}")
    c = Fraction(c)
    if c < 0:
        raise InvalidParameterError(f"c must be nonnegative, got {c}")
    threshold = 4 * c * c * t
    hits = sum(math.comb(t, i) for i in range(t + 1) if (2 * i - t) ** 2 < threshold)
    probability = Fraction(hits, 2**t)
    bound = 2 * c
    return AnticoncentrationResult(probability, bound, probability <= bound)
