"""Ground types: bit strings, balanced strings and chain instances.

Positions are 1-based everywhere in the public API; the leftmost character of
a string literal like "0110" is position 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InvalidParameterError


@dataclass(frozen=True)
class BitString:
    """Immutable sequence of bits.

    Accepts any iterable of 0/1 values, including a text literal such as
    "0110". Zero-length strings are allowed: they occur as empty messages.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        coerced = tuple(map(int, self.bits))
        if coerced.count(0) + coerced.count(1) != len(coerced):
            raise InvalidParameterError(f"bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", coerced)

    @property
    def text(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def bit(self, pos: int) -> int:
        """Bit at 1-based position `pos`."""
        if not 1 <= pos <= len(self.bits):
            raise IndexError(f"position {pos} out of range for length {len(self.bits)}")
        return self.bits[pos - 1]

    def ones(self) -> int:
        return sum(self.bits)

    def prefix(self, length: int) -> BitString:
        """The first `length` bits, 0 <= length <= len(self), as a plain
        BitString (also when called on a subclass). The bits were checked
        when this string was built, so `__post_init__` does not run again."""
        if not 0 <= length <= len(self.bits):
            raise InvalidParameterError(f"prefix length must lie in 0..{len(self.bits)}, got {length}")
        prefix = object.__new__(BitString)
        object.__setattr__(prefix, "bits", self.bits[:length])
        return prefix

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self.text}')"


@dataclass(frozen=True, repr=False)
class BalancedString(BitString):
    """A bit string of even length with exactly half its bits set."""

    def __post_init__(self):
        super().__post_init__()
        n = len(self.bits)
        if n == 0 or n % 2 != 0:
            raise InvalidParameterError(f"balanced strings need even positive length, got {n}")
        if sum(self.bits) != n // 2:
            raise InvalidParameterError(
                f"'{self.text}' has {sum(self.bits)} ones, expected {n // 2}"
            )


@lru_cache(maxsize=8)
def balanced_strings(n: int) -> tuple[BalancedString, ...]:
    """All balanced strings of length n in lexicographic order, built once per n.

    Iterating zero-position combinations in lexicographic order yields the
    strings themselves in lexicographic order (earlier zeros make a smaller
    string). The caller is responsible for keeping C(n, n/2) within budget.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"n must be even and >= 2, got {n}")
    return tuple(BalancedString(tuple(0 if i in zeros else 1 for i in range(n)))
                 for zeros in map(set, combinations(range(n), n // 2)))


@dataclass(frozen=True)
class ChainInstance:
    """k index instances over length-n strings sharing one answer bit.

    Shape constraints (lengths, ranges, parity of n) are enforced at
    construction; the semantic ones (balance, shared answer) are left to
    whoever draws the instance.
    """

    n: int
    k: int
    strings: tuple[BitString, ...]
    indices: tuple[int, ...]
    answer: int

    def __post_init__(self):
        object.__setattr__(self, "strings", tuple(self.strings))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.n < 2 or self.n % 2 != 0:
            raise InvalidParameterError(f"n must be even and >= 2, got {self.n}")
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if len(self.strings) != self.k or len(self.indices) != self.k:
            raise InvalidParameterError("need exactly k strings and k indices")
        if any(len(s) != self.n for s in self.strings):
            raise InvalidParameterError("every string must have length n")
        if any(not 1 <= i <= self.n for i in self.indices):
            raise InvalidParameterError("indices must lie in 1..n")
        if self.answer not in (0, 1):
            raise InvalidParameterError(f"answer must be a bit, got {self.answer}")
