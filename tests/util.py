"""Shared test helpers: chi-square machinery for empirical distribution
checks, an instance validator, a zero-communication protocol and a source
mutator for fault tests."""
import inspect
import math

from chainlab.model import BitString, ChainInstance
from chainlab.protocols import ProtocolSpec


def chi2_quantile(df: int, q: float = 0.999) -> float:
    """Wilson-Hilferty approximation; accurate enough for acceptance thresholds."""
    z = {0.99: 2.3263478740408408, 0.999: 3.090232306167813}[q]
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def chi2_stat(observed: dict, expected: dict, total: int) -> float:
    """Pearson statistic of observed counts against expected probabilities."""
    stat = 0.0
    for key, p in expected.items():
        e = p * total
        o = observed.get(key, 0)
        if e > 0:
            stat += (o - e) ** 2 / e
    return stat


def validate_instance(inst: ChainInstance) -> bool:
    """True iff every string is balanced and all indexed bits equal the answer."""
    return all(s.ones() == inst.n // 2 and s.bit(idx) == inst.answer
               for s, idx in zip(inst.strings, inst.indices))


def constant_protocol(n: int, k: int, bit: int = 0) -> ProtocolSpec:
    """Zero-communication baseline: everyone silent, decoder outputs `bit`."""
    return ProtocolSpec(
        name="constant", n=n, k=k, message_lengths=(0,) * k,
        message_fn=lambda i, string, board, shared: BitString(()),
        decode_fn=lambda board, shared: bit, params={"bit": bit},
    )


def mutate(monkeypatch, module, name, old, new):
    """Replace `module.<name>` by its own source with `old` written as `new`."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])
