"""Verification report record, JSON-friendly value conversion, and the
report's JSON writer."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any, Mapping

from .model import BitString


def _sorted_items(mapping: Mapping) -> list[tuple[str, Any]]:
    """A mapping's items under str() keys, in key order; of keys equal after
    str(), the last one wins."""
    return sorted({str(k): v for k, v in mapping.items()}.items())


def to_jsonable(value: Any) -> Any:
    """Convert report values to JSON-ready primitives without precision loss.

    Rationals become "num/den" strings, bit strings become their text form,
    floats are rounded to 12 significant digits (the serialization contract),
    and any other non-JSON value becomes its str().
    """
    cls = type(value)
    if cls is str or cls is int or cls is bool or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if cls is dict:
        return {k: to_jsonable(v) for k, v in _sorted_items(value)}
    if cls is list or cls is tuple:
        return [to_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, BitString):
        return value.text
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, Mapping):
        return {k: to_jsonable(v) for k, v in _sorted_items(value)}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class VerificationReport:
    """One named check: what was compared, how, and whether it held."""

    check: str
    params: Mapping[str, Any]
    lhs: Any
    rhs: Any
    relation: str
    passed: bool
    tolerance: Any = None
    mode: str = "exact"
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": to_jsonable(dict(self.params)),
            "lhs": to_jsonable(self.lhs),
            "rhs": to_jsonable(self.rhs),
            "relation": self.relation,
            "pass": self.passed,
            "tolerance": to_jsonable(self.tolerance),
            "mode": self.mode,
            "details": to_jsonable(dict(self.details)),
        }


def json_text(value: Any) -> str:
    """The text of json.dumps(to_jsonable(value), sort_keys=True, indent=2),
    written in one walk that converts each value as it reaches it."""
    return _text(value, "\n")


def _text(value: Any, newline: str) -> str:
    """JSON text of `value`; `newline` is a line break and the indent of the
    line the value starts on."""
    text = _LEAF_TEXT.get(type(value))
    if text is not None:
        return text(value)
    cls = type(value)
    if cls is not dict and cls is not list and cls is not tuple:
        value = to_jsonable(value)
        cls = type(value)
        if cls is not dict and cls is not list:
            return _scalar_text(value)
    leaf_text = _LEAF_TEXT.get
    inner = newline + "  "
    parts = []
    if cls is dict:
        if not value:
            return "{}"
        for key, item in _sorted_items(value):
            text = leaf_text(type(item))
            parts.append(f"{encode_basestring_ascii(key)}: {text(item) if text else _text(item, inner)}")
        return f"{{{inner}{(',' + inner).join(parts)}{newline}}}"
    if not value:
        return "[]"
    for item in value:
        text = leaf_text(type(item))
        parts.append(text(item) if text else _text(item, inner))
    return f"[{inner}{(',' + inner).join(parts)}{newline}]"


def _float_text(value: float) -> str:
    """JSON text of a float as to_jsonable rounds it, with json's NaN and
    Infinity for the non-finite ones."""
    value = to_jsonable(value)
    if isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _scalar_text(value: Any) -> str:
    """JSON text of what to_jsonable makes of a non-container of no exact
    JSON type: a str or an int (subclasses included), or a float."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    return _float_text(value)


# JSON text of the exact types that to_jsonable keeps as they are, and of floats
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float_text,
}
