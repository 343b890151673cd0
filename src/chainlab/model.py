"""Ground types: bit strings, problem instances, and the JSON instance format.

Positions are 1-based everywhere in the public API; the leftmost character of
a string literal like "0110" is position 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import InvalidParameterError


@dataclass(frozen=True)
class BitString:
    """Immutable sequence of bits.

    Accepts any iterable of 0/1 values, including a text literal such as
    "0110". Zero-length strings are allowed: they occur as empty messages and
    as the prefix before position 1.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        coerced = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in coerced):
            raise InvalidParameterError(f"bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", coerced)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        return cls(tuple(int(c) for c in text))

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

    def prefix(self, pos: int) -> "BitString":
        """The pos-1 bits strictly before 1-based position `pos`."""
        if not 1 <= pos <= len(self.bits):
            raise IndexError(f"position {pos} out of range for length {len(self.bits)}")
        return BitString(self.bits[: pos - 1])

    def ones(self) -> int:
        return sum(self.bits)

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise InvalidParameterError("xor requires equal lengths")
        return BitString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

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


def enumerate_balanced(n: int) -> Iterator[BalancedString]:
    """All balanced strings of length n in lexicographic order.

    Iterating zero-position combinations in lexicographic order yields the
    strings themselves in lexicographic order (earlier zeros make a smaller
    string). The caller is responsible for keeping C(n, n/2) within budget.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidParameterError(f"n must be even and >= 2, got {n}")
    for zero_positions in combinations(range(n), n // 2):
        zeros = set(zero_positions)
        yield BalancedString(tuple(0 if i in zeros else 1 for i in range(n)))


@dataclass(frozen=True)
class ChainInstance:
    """k index instances over length-n strings sharing one answer bit.

    Shape constraints (lengths, ranges, parity of n) are enforced at
    construction; the semantic constraints (balance, shared answer) are
    checked by `validate_instance` so that files can be loaded and then
    judged rather than rejected while parsing.
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

    def prefix_for(self, i: int) -> BitString:
        """The prefix of string i before its own index (1-based i)."""
        return self.strings[i - 1].prefix(self.indices[i - 1])


def validate_instance(inst: ChainInstance) -> bool:
    """True iff every string is balanced and all indexed bits equal the answer."""
    half = inst.n // 2
    for s, idx in zip(inst.strings, inst.indices):
        if s.ones() != half:
            return False
        if s.bit(idx) != inst.answer:
            return False
    return True


def instance_to_json_dict(inst: ChainInstance) -> dict:
    return {
        "n": inst.n,
        "k": inst.k,
        "z": inst.answer,
        "strings": [s.text for s in inst.strings],
        "indices": list(inst.indices),
    }


def instance_from_json_dict(data: dict) -> ChainInstance:
    try:
        return ChainInstance(
            n=int(data["n"]),
            k=int(data["k"]),
            strings=tuple(BitString.from_text(s) for s in data["strings"]),
            indices=tuple(int(i) for i in data["indices"]),
            answer=int(data["z"]),
        )
    except KeyError as exc:
        raise InvalidParameterError(f"instance file missing field {exc}") from exc


def instance_to_json(inst: ChainInstance) -> str:
    return json.dumps(instance_to_json_dict(inst), sort_keys=True)


def instance_from_json(text: str) -> ChainInstance:
    return instance_from_json_dict(json.loads(text))
