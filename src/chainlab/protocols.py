"""Blackboard execution engine and the concrete one-way protocols.

Players send fixed-length messages in ascending order; after player i's
message, instance i's index is revealed to the board at no cost. A
protocol's `message_fn(i, string, board, shared)` sees only player i's
string and the board of players 1..i-1, and its `decode_fn(board, shared)`
only the final board: one-way causality holds by construction.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

from .errors import InvalidParameterError, ProtocolContractError
from .model import BitString, ChainInstance


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from labeled parts (hash-based, platform independent)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SharedRandomness:
    """Public randomness: every player derives identical values per label."""

    seed: int

    def stream(self, label: str) -> random.Random:
        return random.Random(derive_seed("shared", self.seed, label))

    def bits(self, label: str, count: int) -> BitString:
        rng = self.stream(label)
        return BitString(tuple(rng.randrange(2) for _ in range(count)))

    def permutation(self, label: str, n: int) -> tuple[int, ...]:
        """A permutation of 1..n; entry i-1 is the image of position i."""
        values = list(range(1, n + 1))
        self.stream(label).shuffle(values)
        return tuple(values)

    def positions(self, label: str, count: int, n: int) -> tuple[int, ...]:
        """`count` distinct positions in 1..n, sorted."""
        return tuple(sorted(self.stream(label).sample(range(1, n + 1), count)))

    def coin(self, label: str) -> int:
        return self.stream(label).randrange(2)


@dataclass(frozen=True)
class Board:
    """Immutable blackboard snapshot. Entry i-1 of each tuple is player i's
    message, then its index."""

    messages: tuple[BitString, ...] = ()
    indices: tuple[int, ...] = ()

    def message(self, i: int) -> BitString:
        return _entry(self.messages, i, "message")

    def index(self, i: int) -> int:
        return _entry(self.indices, i, "index")

    def key(self) -> tuple:
        """Hashable view of the contents: one bit tuple per message, then
        the indices."""
        return tuple(m.bits for m in self.messages), self.indices

    def fingerprint(self) -> str:
        """The contents as text: `M1:..;M2:..;index1:v;index2:v..`."""
        parts = [f"M{i}:{m.text}" for i, m in enumerate(self.messages, 1)]
        parts += [f"index{i}:{sigma}" for i, sigma in enumerate(self.indices, 1)]
        return ";".join(parts)


def _entry(items: tuple, i: int, kind: str):
    """Entry of player i (1-based); i <= 0 is refused, not read from the end."""
    if not 1 <= i <= len(items):
        raise KeyError(f"no {kind} of player {i} on the board")
    return items[i - 1]


MessageFn = Callable[[int, BitString, Board, SharedRandomness], BitString]
DecodeFn = Callable[[Board, SharedRandomness], int]


@dataclass(frozen=True)
class ProtocolSpec:
    """A one-way blackboard protocol with declared, input-independent message lengths.

    `simulator` names the numpy batch kernel of `montecarlo` that computes
    the same outputs as `message_fn` and `decode_fn`, if the protocol has one.
    """

    name: str
    n: int
    k: int
    message_lengths: tuple[int, ...]
    message_fn: MessageFn
    decode_fn: DecodeFn
    params: Mapping[str, Any] = field(default_factory=dict)
    simulator: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "message_lengths", tuple(self.message_lengths))
        object.__setattr__(self, "params", dict(self.params))
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if len(self.message_lengths) != self.k:
            raise InvalidParameterError("need one declared message length per player")


@dataclass(frozen=True)
class RunResult:
    board: Board
    output: int
    correct: bool


def check_size(protocol: ProtocolSpec, n: int, k: int) -> None:
    """Refuse a run at another (n, k) than the protocol was declared for."""
    if protocol.n != n or protocol.k != k:
        raise ProtocolContractError(
            f"protocol declared for (n={protocol.n}, k={protocol.k}) "
            f"got instance (n={n}, k={k})"
        )


def player_message(
    protocol: ProtocolSpec, i: int, string: BitString, board: Board, shared: SharedRandomness
) -> BitString:
    """Player i's message, holding `string` and seeing `board` (players
    1..i-1), checked against its declared length."""
    msg = protocol.message_fn(i, string, board, shared)
    if not isinstance(msg, BitString) or len(msg) != protocol.message_lengths[i - 1]:
        raise ProtocolContractError(
            f"player {i} declared {protocol.message_lengths[i - 1]} bits, "
            f"sent {len(msg) if isinstance(msg, BitString) else msg!r}"
        )
    return msg


def decoder_output(protocol: ProtocolSpec, board: Board, shared: SharedRandomness) -> int:
    """The decoder's answer on the final board, checked to be a bit."""
    output = int(protocol.decode_fn(board, shared))
    if output not in (0, 1):
        raise ProtocolContractError(f"decode must output a bit, got {output}")
    return output


def run_chain_protocol(protocol: ProtocolSpec, inst: ChainInstance, shared: SharedRandomness) -> RunResult:
    """Execute players 1..k in order; player i holds string i and sees the
    board of players 1..i-1. Each index is revealed for free after its player
    speaks."""
    check_size(protocol, inst.n, inst.k)
    messages: tuple[BitString, ...] = ()
    for i in range(1, inst.k + 1):
        board = Board(messages, inst.indices[: i - 1])
        messages += (player_message(protocol, i, inst.strings[i - 1], board, shared),)
    board = Board(messages, inst.indices)
    output = decoder_output(protocol, board, shared)
    return RunResult(board=board, output=output, correct=output == inst.answer)


def trivial_forward_protocol(n: int, k: int, mode: str = "all") -> ProtocolSpec:
    """Forward whole strings so the decoder can read the last indexed bit.

    mode "all": every player sends its string (k*n bits). mode "last-only":
    only player k sends (n bits); under the one-way order no earlier player
    can know which string will be indexed last, so this is the cheapest
    single-sender variant.
    """
    if mode not in ("all", "last-only"):
        raise InvalidParameterError(f"mode must be 'all' or 'last-only', got {mode!r}")
    if mode == "all":
        lengths = (n,) * k
    else:
        lengths = (0,) * (k - 1) + (n,)

    def message(i: int, string: BitString, board: Board, shared: SharedRandomness) -> BitString:
        if mode == "last-only" and i < k:
            return BitString(())
        return BitString(string.bits)

    def decode(board: Board, shared: SharedRandomness) -> int:
        return board.message(k).bit(board.index(k))

    return ProtocolSpec(
        name="trivial-forward", n=n, k=k, message_lengths=lengths,
        message_fn=message, decode_fn=decode, params={"mode": mode},
    )


def sampled_bits_protocol(n: int, k: int, m: int) -> ProtocolSpec:
    """Each player publishes its string at m publicly sampled positions.

    The decoder reads the last string's bit if its index was sampled, then
    scans the other instances in instance order for a sampled index, and
    falls back to a shared coin.
    """
    if not 0 <= m <= n:
        raise InvalidParameterError(f"m must lie in 0..n, got {m}")

    def published(i: int, shared: SharedRandomness) -> tuple[int, ...]:
        return shared.positions(f"sampled-bits/positions/{i}", m, n)

    def message(i: int, string: BitString, board: Board, shared: SharedRandomness) -> BitString:
        return BitString(tuple(string.bit(pos) for pos in published(i, shared)))

    def decode(board: Board, shared: SharedRandomness) -> int:
        for i in (k, *range(1, k)):
            sigma = board.index(i)
            positions = published(i, shared)
            if sigma in positions:
                return board.message(i).bit(positions.index(sigma) + 1)
        return shared.coin("sampled-bits/fallback")

    return ProtocolSpec(
        name="sampled-bits", n=n, k=k, message_lengths=(m,) * k,
        message_fn=message, decode_fn=decode, params={"m": m},
        simulator="sampled-bits",
    )


def index_majority_encode(
    x: BitString, mask: BitString, perm: Sequence[int], block_size: int
) -> BitString:
    """Randomize the string with the shared mask and permutation, then emit
    one majority bit per contiguous block (ties go to 0)."""
    n = len(x)
    if len(mask) != n:
        raise InvalidParameterError("mask length must match string length")
    if block_size < 1 or n % block_size != 0:
        raise InvalidParameterError(f"block size {block_size} must divide n={n}")
    if sorted(perm) != list(range(1, n + 1)):
        raise InvalidParameterError("perm must be a permutation of 1..n")
    randomized = [0] * n
    for i in range(1, n + 1):
        randomized[perm[i - 1] - 1] = x.bit(i) ^ mask.bit(i)
    blocks = n // block_size
    out = []
    for j in range(blocks):
        count = sum(randomized[j * block_size : (j + 1) * block_size])
        out.append(1 if 2 * count > block_size else 0)
    return BitString(tuple(out))


def index_majority_decode(
    summary: BitString, sigma: int, mask: BitString, perm: Sequence[int], block_size: int
) -> int:
    """Read the majority bit of the block holding the permuted index and undo the mask."""
    n = len(mask)
    if len(summary) * block_size != n:
        raise InvalidParameterError(
            f"summary length {len(summary)} inconsistent with n={n}, block size {block_size}"
        )
    p = perm[sigma - 1]
    block = (p - 1) // block_size + 1
    return summary.bit(block) ^ mask.bit(sigma)


def chained_majority_protocol(n: int, k: int, block_size: int) -> ProtocolSpec:
    """Every player runs the block-majority encoding with fresh shared
    randomness; the decoder recovers one guess per instance and outputs the
    majority of the guesses (ties go to a shared coin). The batch kernel
    packs a block into one 64-bit word, so only B <= 64 has one."""
    if block_size < 1 or n % block_size != 0:
        raise InvalidParameterError(f"block size {block_size} must divide n={n}")

    # k entries hold one run's masks and permutations: a run derives each
    # once, and a run under the next shared seed evicts them
    @lru_cache(maxsize=k)
    def keys_for(i: int, shared: SharedRandomness) -> tuple[BitString, tuple[int, ...]]:
        return shared.bits(f"majority/mask/{i}", n), shared.permutation(f"majority/perm/{i}", n)

    def message(i: int, string: BitString, board: Board, shared: SharedRandomness) -> BitString:
        return index_majority_encode(string, *keys_for(i, shared), block_size)

    def decode(board: Board, shared: SharedRandomness) -> int:
        guesses = [
            index_majority_decode(board.message(i), board.index(i), *keys_for(i, shared), block_size)
            for i in range(1, k + 1)
        ]
        ones = sum(guesses)
        if 2 * ones > k:
            return 1
        if 2 * ones < k:
            return 0
        return shared.coin("majority/tie")

    return ProtocolSpec(
        name="chained-majority", n=n, k=k, message_lengths=(n // block_size,) * k,
        message_fn=message, decode_fn=decode, params={"B": block_size},
        simulator="majority" if block_size <= 64 else None,
    )


def truncation_protocol(n: int, k: int, t: int) -> ProtocolSpec:
    """Deterministic family for entropy accounting: each player sends its
    first t bits; the decoder reads any index that landed inside a sent
    prefix (last instance first), else outputs 0.

    Both closures sit on the exact enumeration's hot path, so they read the
    engine's types directly. A message is `string.prefix(t)`, which copies
    already-checked bits without checking them again. The decoder visits the
    board entries in the order (k, 1..k-1), built once here, and indexes the
    board's tuples itself: a final board holds k entries with indices in
    1..n, so the range checks of `Board.index` and `BitString.bit` cannot
    fire there."""
    if not 0 <= t <= n:
        raise InvalidParameterError(f"t must lie in 0..n, got {t}")
    order = (k - 1, *range(k - 1))  # 0-based board entries of players k, 1..k-1

    def message(i: int, string: BitString, board: Board, shared: SharedRandomness) -> BitString:
        return string.prefix(t)

    def decode(board: Board, shared: SharedRandomness) -> int:
        indices, messages = board.indices, board.messages
        for entry in order:
            sigma = indices[entry]
            if sigma <= t:
                return messages[entry].bits[sigma - 1]
        return 0

    return ProtocolSpec(
        name="truncation", n=n, k=k, message_lengths=(t,) * k,
        message_fn=message, decode_fn=decode, params={"t": t},
        simulator="truncation",
    )


def _check_single_instance(k: int) -> None:
    if k != 1:
        raise InvalidParameterError(f"index-majority is a single-instance protocol, got k={k}")


def index_majority_protocol(n: int, k: int, block_size: int) -> ProtocolSpec:
    """The single-instance block-majority protocol: chained-majority at k=1."""
    _check_single_instance(k)
    return replace(chained_majority_protocol(n, 1, block_size), name="index-majority")


# name -> (constructor, its one parameter, that parameter's default); a
# parameter without a default is a required integer, given as an int or as text
PROTOCOLS = {
    "trivial-forward": (trivial_forward_protocol, "mode", "all"),
    "sampled-bits": (sampled_bits_protocol, "m", None),
    "index-majority": (index_majority_protocol, "B", None),
    "chained-majority": (chained_majority_protocol, "B", None),
    "truncation": (truncation_protocol, "t", None),
}


def build_protocol(name: str, n: int, k: int, params: Mapping[str, Any] | None = None) -> ProtocolSpec:
    """Construct a registered protocol from its name and flat parameter map.
    A k that the protocol cannot take is named before any parameter fault."""
    if name not in PROTOCOLS:
        raise InvalidParameterError(
            f"unknown protocol {name!r}; registered: {sorted(PROTOCOLS)}"
        )
    if name == "index-majority":
        _check_single_instance(k)
    params = dict(params or {})
    constructor, key, default = PROTOCOLS[name]
    unknown = set(params) - {key}
    if unknown:
        raise InvalidParameterError(f"unknown parameters for {name}: {sorted(unknown)}")
    value = params.get(key, default)
    if default is None:
        if key not in params:
            raise InvalidParameterError(f"{name} requires parameter {key}")
        try:
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError
            value = int(value)
        except ValueError:
            raise InvalidParameterError(f"{name} parameter {key} must be an integer, got {value!r}") from None
    return constructor(n, k, value)
