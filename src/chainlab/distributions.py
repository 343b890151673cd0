"""The biased index input: its batch sampler and exact probability tables.

The law has two formulations: the direct one (draw the answer bit, then a
conditioned string/index pair) and the structured one (draw a support set T,
place the half-weight set inside it, draw the index from T). Both have exact
(Y, rho) tables, which must coincide, and the package verifies that they do.
`sample_biased_structured` draws the structured one as arrays from a
caller-supplied numpy Generator, as `montecarlo.sample_chain_batch` does for
the chained input.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import InvalidParameterError, ResourceLimitError
from .info_theory import JointTable
from .model import BalancedString, balanced_strings

DEFAULT_ENUMERATION_BUDGET = 10_000_000


def check_budget(work: str, required: int, unit: str) -> None:
    """Raise ResourceLimitError before an exact enumeration that needs more than the budget."""
    if required > DEFAULT_ENUMERATION_BUDGET:
        message = f"{work} needs {required} {unit}, budget is {DEFAULT_ENUMERATION_BUDGET}"
        raise ResourceLimitError(message, required=required, budget=DEFAULT_ENUMERATION_BUDGET)


def bias(theta) -> Fraction:
    """The answer-bit bias theta as a Fraction (the answer is 1 with
    probability 1/2 + theta), checked to satisfy |theta| <= 1/2."""
    theta = Fraction(theta)
    if abs(theta) > Fraction(1, 2):
        raise InvalidParameterError(f"|theta| must be <= 1/2, got {theta}")
    return theta


def bias_grid(n: int) -> list[Fraction]:
    """All biases realizable by an integer support-set size, sorted ascending.

    Support sets of size b between n/2 and n realize theta = (n-b)/(2b);
    both signs are included.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"n must be even and >= 2, got {n}")
    positive = {Fraction(n - b, 2 * b) for b in range(n // 2, n + 1)}
    return sorted(positive | {-t for t in positive})


def structured_pool_size(n: int, theta) -> int:
    """The support-set size b = n/(1+2|theta|); errors for an odd n or one
    below 2, and off-grid with the nearest grid values."""
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"n must be even and >= 2, got {n}")
    theta = bias(theta)
    b = Fraction(n) / (1 + 2 * abs(theta))
    if b.denominator != 1:
        grid = bias_grid(n)
        below = max((t for t in grid if t < theta), default=grid[0])
        above = min((t for t in grid if t > theta), default=grid[-1])
        raise InvalidParameterError(
            f"theta={theta} is off the bias grid for n={n} "
            f"(n/(1+2|theta|) = {b} is not an integer); nearest grid values: {below}, {above}"
        )
    return int(b)


def sample_biased_structured(
    rng: np.random.Generator, count: int, n: int, theta
) -> tuple[np.ndarray, np.ndarray]:
    """`count` draws of the structured formulation (grid biases only) as
    arrays: strings `(count, n)` bool and 1-based indices `(count,)`.

    Each row orders its positions uniformly at random (argsort of uniform
    keys). The first b positions are the pool, the first n/2 the chosen
    half-set, which takes the biased value (1 for theta >= 0, 0 for
    theta < 0) while all others take the opposite one, and the index is the
    position at a uniform rank in [0, b).
    """
    import numpy as np

    theta = Fraction(theta)
    b = structured_pool_size(n, theta)
    order = np.argsort(rng.random((count, n)), axis=1)
    strings = np.full((count, n), theta < 0)
    np.put_along_axis(strings, order[:, : n // 2], theta >= 0, axis=1)
    indices = np.take_along_axis(order, rng.integers(0, b, size=(count, 1)), axis=1)[:, 0] + 1
    return strings, indices


def pmf_biased_index(n: int, theta, y: BalancedString, rho: int) -> Fraction:
    """Exact probability of (y, rho) under the biased index input distribution."""
    theta = bias(theta)
    if len(y) != n or n % 2 != 0:
        raise InvalidParameterError(f"string length {len(y)} does not match even n={n}")
    if y.ones() != n // 2:
        raise InvalidParameterError(f"'{y.text}' is not balanced")
    if not 1 <= rho <= n:
        raise IndexError(f"index {rho} out of range for n={n}")
    numerator = 1 + 2 * theta if y.bit(rho) == 1 else 1 - 2 * theta
    return Fraction(numerator) / (n * math.comb(n, n // 2))


def cell_weights(theta: Fraction) -> tuple[int, int]:
    """Integer weights, proportional to 1 -+ 2 theta with theta = p/q, of a
    (string, index) cell whose indexed bit is 0 and 1: every balanced string
    has n/2 cells of each bit, so each answer bit's mass is spread evenly."""
    p, q = theta.numerator, theta.denominator
    return q - 2 * p, q + 2 * p


def _direct_table(n: int, theta: Fraction) -> dict[tuple[BalancedString, int], int]:
    weight_of_bit = cell_weights(theta)
    return {(y, rho): weight_of_bit[w] for y in balanced_strings(n) for rho, w in enumerate(y.bits, 1)}


def _structured_table(n: int, theta: Fraction) -> dict[tuple[BalancedString, int], int]:
    """Positions in the chosen half-set take the biased value (1 for
    theta >= 0, 0 for theta < 0), all others the opposite one."""
    b = structured_pool_size(n, theta)
    inside = 1 if theta >= 0 else 0
    weights: dict[tuple[BalancedString, int], int] = {}
    for pool in combinations(range(1, n + 1), b):
        for chosen in map(set, combinations(pool, n // 2)):
            y = BalancedString(tuple(inside if i in chosen else 1 - inside for i in range(1, n + 1)))
            for rho in pool:
                key = (y, rho)
                weights[key] = weights.get(key, 0) + 1
    return weights


def enumerate_support(
    n: int,
    theta,
    variant: str = "direct",
) -> JointTable:
    """Exact (string, index) table of integer weights under either formulation."""
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"n must be even and >= 2, got {n}")
    theta = bias(theta)
    if variant == "direct":
        required = math.comb(n, n // 2) * n
        build = _direct_table
    elif variant == "structured":
        b = structured_pool_size(n, theta)
        required = math.comb(n, b) * math.comb(b, n // 2) * b
        build = _structured_table
    else:
        raise InvalidParameterError(f"variant must be 'direct' or 'structured', got {variant!r}")
    check_budget(f"{variant} enumeration", required, "points")
    return JointTable.from_weights(("string", "index"), build(n, theta))

