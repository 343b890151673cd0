"""Entropy kernel: exact joint tables, entropy, conditional entropy, binary
entropy, the estimator bound, exact log-binomials, and two exact binomial
facts (entropy-form coefficient bounds and central anti-concentration).

A joint table holds integer weights over an integer total, so a cell's
probability is the exact rational weight/total; marginals and conditional
slices add integers. Entropies are floats (logs are transcendental), and
every term is `_ratio_bits(a, b)` = (a/b) log2(b/a) taken from integers:
int/int true division is correctly rounded, as `float(Fraction(a, b))` is,
and the logs are taken of the gcd-reduced numerator and denominator, as
they are for a Fraction. So each term, and each entropy, is bit-identical
to the one computed from the exact rational probabilities. Terms are summed
by math.fsum, which is correctly rounded whatever their order.
`FiniteDistribution` takes exact rationals or floats. Comparisons against
entropy values use a tolerance of 1e-9 bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError
from .report import VerificationReport

ENTROPY_TOLERANCE = 1e-9

# Rational bracket around pi, tight enough that every exact comparison in
# check_binomial_entropy_bounds is decided (the bounds are never this close).
_PI_LO = Fraction(3141592653589793, 10**15)
_PI_HI = Fraction(3141592653589794, 10**15)


def _ratio_bits(a: int, b: int) -> float:
    """(a/b) log2(b/a) for integers 0 <= a <= b, b >= 1, with 0 log 0 = 0;
    bit-identical to the same term on the reduced rational Fraction(a, b)."""
    if a == 0:
        return 0.0
    g = math.gcd(a, b)
    return (a / b) * (math.log2(b // g) - math.log2(a // g))


def _term_bits(p) -> float:
    """p * log2(1/p) for a single probability, with 0 log 0 = 0."""
    if p == 0:
        return 0.0
    if isinstance(p, Fraction):
        return _ratio_bits(p.numerator, p.denominator)
    return -p * math.log2(p)


def _projector(pos: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The function that picks positions `pos` of a value tuple, as a tuple."""
    if len(pos) == 1:
        (i,) = pos
        return lambda values: (values[i],)
    if not pos:
        return lambda values: ()
    return itemgetter(*pos)


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

    `weights` maps value tuples (aligned with `labels`) to positive integer
    weights, and a cell's probability is its weight over `total`. Build a
    table with `from_weights`, which checks the weights.
    """

    labels: tuple[str, ...]
    weights: Mapping[tuple, int]
    total: int

    @classmethod
    def from_weights(cls, labels: Sequence[str], weights: Mapping[tuple, int]) -> "JointTable":
        """Build a table from nonnegative integer weights; zero cells are dropped."""
        kept = {k: w for k, w in weights.items() if w}
        if kept and min(kept.values()) < 0:
            raise InvalidParameterError("weights must be nonnegative")
        total = sum(kept.values())
        if not isinstance(total, int):
            raise InvalidParameterError("weights must be integers")
        if total <= 0:
            raise InvalidParameterError("weights must have positive total")
        return cls(tuple(labels), kept, total)

    @property
    def entries(self) -> dict[tuple, Fraction]:
        """Each cell's exact probability, weight / total."""
        return {k: Fraction(w, self.total) for k, w in self.weights.items()}

    def _positions(self, names: Iterable[str]) -> tuple[int, ...]:
        pos = []
        for name in names:
            if name not in self.labels:
                raise InvalidParameterError(f"unknown variable {name!r}; have {self.labels}")
            pos.append(self.labels.index(name))
        return tuple(pos)

    def marginal(self, names: Sequence[str]) -> "JointTable":
        key = _projector(self._positions(names))
        out: dict[tuple, int] = {}
        for values, w in self.weights.items():
            k = key(values)
            out[k] = out.get(k, 0) + w
        return JointTable(tuple(names), out, self.total)


def binary_entropy(x) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the 0 log 0 = 0 convention."""
    if x < 0 or x > 1:
        raise InvalidParameterError(f"binary entropy needs x in [0, 1], got {x}")
    if isinstance(x, Fraction):
        return binary_entropy_ratio(x.numerator, x.denominator)
    return _term_bits(float(x)) + _term_bits(1.0 - float(x))


def binary_entropy_ratio(a: int, b: int) -> float:
    """H2(a/b) from integers 0 <= a <= b, b >= 1; equal bit for bit to
    binary_entropy(Fraction(a, b))."""
    if not 0 <= a <= b:
        raise InvalidParameterError(f"binary entropy needs 0 <= a <= b, got a={a}, b={b}")
    return _ratio_bits(a, b) + _ratio_bits(b - a, b)


def entropy(dist: FiniteDistribution | JointTable) -> float:
    """Shannon entropy in bits."""
    if isinstance(dist, JointTable):
        total = dist.total
        return math.fsum(_ratio_bits(w, total) for w in dist.weights.values())
    return math.fsum(_term_bits(p) for p in dist.probabilities)


def conditional_entropy(table: JointTable, target: str, given: Sequence[str]) -> float:
    """H(target | given) in bits: conditional-slice entropies weighted by slice mass."""
    target_pos = table._positions([target])[0]
    key = _projector(table._positions(given))
    slices: dict[tuple, dict] = {}  # given values -> {target value: weight}
    for values, w in table.weights.items():
        cond = slices.setdefault(key(values), {})
        v = values[target_pos]
        cond[v] = cond.get(v, 0) + w
    total = table.total
    terms = []
    for cond in slices.values():
        if len(cond) == 1:
            continue  # the slice fixes the target: its terms are exactly 0.0
        mass = sum(cond.values())
        share = mass / total
        for c in cond.values():
            terms.append(share * _ratio_bits(c, mass))
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
