"""Entropy kernel: exact joint tables, the entropies of a binary-answer
table read from its slice count pairs, binary entropy, exact log-binomials,
and two exact binomial facts (entropy-form coefficient bounds and central
anti-concentration).

A joint table holds integer weights over an integer total, so a cell's
probability is the exact rational weight/total. A binary-answer table whose
two answers weigh its counts by two integers is read from its slice count
pairs alone (binary_slice_entropies), with no table built. Entropies are
floats (logs are transcendental), and every term is `_ratio_bits(a, b)` =
(a/b) log2(b/a) taken from integers: int/int true division is correctly
rounded, as `float(Fraction(a, b))` is, and the logs are taken of the
gcd-reduced numerator and denominator, as they are for a Fraction. So each
term, and each entropy, is bit-identical to the one computed from the exact
rational probabilities. Terms are summed by math.fsum, which is correctly
rounded whatever their order. Distances between tables are exact
rationals. Comparisons against entropy values use a tolerance of 1e-9 bits.

The binomial bound verdicts are exact. Each is decided in floats when its
log2 margin is further from 0 than a derived rounding-error bound (the
adaptive-predicate idiom of Shewchuk, DCG 18(3), 1997), and by big-integer
arithmetic otherwise; pi enters both through the same rational bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError

ENTROPY_TOLERANCE = 1e-9

# Rational bracket around pi, tight enough that every exact comparison in
# binomial_bound_verdicts is decided (the bounds are never this close).
_PI_LO = Fraction(3141592653589793, 10**15)
_PI_HI = Fraction(3141592653589794, 10**15)

# Absolute error bound, per bit of p*log2(p), on each float log2 margin of
# _float_verdicts; derived there, so it is a constant and not a setting.
_MARGIN_ERROR = 2.0**-45

# (_PI_LO, _PI_HI, log2 of each): _float_verdicts takes the logs again only
# when either end of the bracket is no longer the object they were taken of
_pi_logs = (None, None, 0.0, 0.0)


def _ratio_bits(a: int, b: int) -> float:
    """(a/b) log2(b/a) for integers 0 <= a <= b, b >= 1, with 0 log 0 = 0;
    bit-identical to the same term on the reduced rational Fraction(a, b)."""
    if a == 0:
        return 0.0
    g = math.gcd(a, b)
    return (a / b) * (math.log2(b // g) - math.log2(a // g))


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


def binary_entropy(x) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the 0 log 0 = 0 convention."""
    if x < 0 or x > 1:
        raise InvalidParameterError(f"binary entropy needs x in [0, 1], got {x}")
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return binary_entropy_ratio(x.numerator, x.denominator)


def binary_entropy_ratio(a: int, b: int) -> float:
    """H2(a/b) from integers 0 <= a <= b, b >= 1; equal bit for bit to
    binary_entropy(Fraction(a, b))."""
    if not 0 <= a <= b:
        raise InvalidParameterError(f"binary entropy needs 0 <= a <= b, got a={a}, b={b}")
    return _ratio_bits(a, b) + _ratio_bits(b - a, b)


def total_variation(a: JointTable, b: JointTable) -> Fraction:
    """Exact (1/2) sum |P_a - P_b|, cross-multiplying weights by the other table's total."""
    ta, tb = a.total, b.total
    diff = sum(
        abs(a.weights.get(k, 0) * tb - b.weights.get(k, 0) * ta)
        for k in a.weights.keys() | b.weights.keys()
    )
    return Fraction(diff, 2 * ta * tb)


def _slice_terms(cells: Iterable[int], mass: int, total: int) -> Iterator[float]:
    """share * (c/mass) log2(mass/c) per target weight c of a slice of weight `mass`."""
    share = mass / total
    return (share * _ratio_bits(c, mass) for c in cells)


def binary_slice_entropies(
    slices: Mapping[tuple[int, int], int], classes: Mapping[tuple[int, int], int], weights: tuple[int, int]
) -> tuple[float, float]:
    """(H(answer | slice), H(class)) of the binary-answer table whose cell
    (z, slice) weighs weights[z] times the slice's count under answer z.
    `slices` and `classes` map a (count under answer 0, under answer 1) pair
    to how many slices (classes) have it; a class's pair sums its slices'.
    A one-answer slice adds exactly 0.0 and may be left out of `slices`.
    Each term is _ratio_bits of the table's integers, so both values are
    bit-identical to the entropies of its exact rational probabilities."""
    a0, a1 = weights
    masses = [(a0 * c0 + a1 * c1, k) for (c0, c1), k in classes.items()]
    total = sum(mass * k for mass, k in masses)
    h = math.fsum(chain.from_iterable(repeat(_ratio_bits(mass, total), k) for mass, k in masses))
    if not a0 * a1:
        return 0.0, h  # every slice fixes the answer
    return math.fsum(chain.from_iterable(
        repeat(t, k) for (c0, c1), k in slices.items()
        for t in _slice_terms((a0 * c0, a1 * c1), a0 * c0 + a1 * c1, total))), h


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


def _bounds_hold(p: int, q: int, sqrt_numerators: Sequence[int]) -> list[tuple[bool | None, bool | None]]:
    """Exact verdicts for  2^(pH2) sqrt(v/(8 pi q(p-q))) <= C(p, q) <= 2^(pH2) sqrt(v/(2 pi q(p-q))),
    one (lower, upper) pair per square-root numerator v.

    Squaring removes the square roots and 2^(2 p H2(q/p)) is the rational
    p^(2p) / (q^(2q) (p-q)^(2(p-q))), so each side reduces to placing pi
    against a ratio of big integers; pi enters through a rational bracket
    tight enough to always be decisive here. Plain cross-multiplication, no
    gcd normalization: these integers run to tens of kilobits, so they are
    built once for all numerators.
    """
    r2 = p ** (2 * p)
    den = q ** (2 * q) * (p - q) ** (2 * (p - q)) * math.comb(p, q) ** 2 * q * (p - q)
    return [(_pi_at_least(r2 * v, den * 8), _pi_at_most(r2 * v, den * 2)) for v in sqrt_numerators]


class BinomialBoundVerdicts(NamedTuple):
    """Exact verdicts of the entropy-form binomial bounds at one (p, q): the
    lower and upper bound with p under the square root, and with the printed
    variant's 2q there."""

    lower_pass: bool | None
    upper_pass: bool | None
    printed_form_lower_pass: bool | None
    printed_form_upper_pass: bool | None

    @property
    def passed(self) -> bool:
        return bool(self.lower_pass) and bool(self.upper_pass)

    @property
    def printed_form_pass(self) -> bool:
        return bool(self.printed_form_lower_pass) and bool(self.printed_form_upper_pass)


def binomial_bound_verdicts(p: int, q: int) -> BinomialBoundVerdicts:
    """Exact verdicts of the entropy-form binomial coefficient bounds at
    (p, q). The primary bounds put p under the square root (the
    dimensionally consistent reading) and decide `passed`; the printed
    variant binds that numerator to 2q, matching both in-scope uses of the
    bound, where q is half the ambient string length. The verdicts are
    decided in floats where every margin is safely away from 0
    (_float_verdicts), and by _bounds_hold otherwise, so each verdict is the
    exact one and an undecided None can come only from the exact path."""
    if not 1 <= q <= p - 1:
        raise InvalidParameterError(f"need 1 <= q <= p-1, got p={p}, q={q}")
    verdicts = _float_verdicts(p, q)
    if None in verdicts:
        (lower_p, upper_p), (lower_n, upper_n) = _bounds_hold(p, q, (p, 2 * q))
        verdicts = (lower_p, upper_p, lower_n, upper_n)
    return BinomialBoundVerdicts(*verdicts)


def _float_verdicts(p: int, q: int) -> list[bool | None]:
    """The four verdicts of binomial_bound_verdicts(p, q) from float log2
    margins, in its order; None where a margin is too close to 0 to decide.

    With r = p - q and v the square-root numerator, the lower bound holds
    iff pi >= X/8 and the upper iff pi <= X/2, where X = v p^(2p) /
    (q^(2q) r^(2r) C(p, q)^2 q r) (see _bounds_hold). The margins are
    log2(pi_lo) - log2(X/8) and log2(X/2) - log2(pi_hi), at the end of the
    pi bracket that the bound needs; a margin above the error bound E means
    the bound holds, and one below -(E + w) means it fails, where w =
    log2(pi_hi) - log2(pi_lo) moves the margin to the bracket's other end.

    Error bound. With unit roundoff u = 2^-53, correctly rounded int to
    float conversion and + - *, and math.log2 within 1 ulp (for an int past
    the float range CPython adds the exponent to the log2 of the rounded
    mantissa), each log2 of an integer i >= 2 is within 4u relative, and
    each margin is a sum of at most ten terms, each within 6u relative:
    2p log2 p, 2q log2 q, 2r log2 r, 2 log2 C(p, q) (at most 2p), log2 q,
    log2 r, log2 v, the constant 3 or 1, and log2 of a bracket end. Summing
    ten terms in any order adds at most gamma_9 < 9.1u times the sum of
    their sizes (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 4), and with T = p log2 p >= 2 the sizes add up to
    at most 11T. So each margin is within (6u + 9.1u)(11T) < 167uT of the
    exact one, and with w's error (below 7u < 4uT) below 2^8 uT = 2^-45 T,
    which is E = _MARGIN_ERROR * T.
    """
    global _pi_logs
    r = p - q
    log2 = math.log2
    lp, lq, lr = log2(p), log2(q), log2(r)
    err = _MARGIN_ERROR * p * lp
    lo, hi, pi_lo, pi_hi = _pi_logs
    if lo is not _PI_LO or hi is not _PI_HI:
        _pi_logs = lo, hi, pi_lo, pi_hi = _PI_LO, _PI_HI, log2(_PI_LO), log2(_PI_HI)
    fails_below = -(err + (pi_hi - pi_lo))
    # log2 of p^(2p) / (q^(2q) r^(2r) C(p, q)^2 q r)
    base = 2 * (p * lp - q * lq - r * lr - log2(math.comb(p, q))) - lq - lr
    verdicts = []
    for v in (p, 2 * q):
        x = base + log2(v)
        for margin in (pi_lo - (x - 3), (x - 1) - pi_hi):
            verdicts.append(True if margin > err else False if margin < fails_below else None)
    return verdicts


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
