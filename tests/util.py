"""Shared test helpers: chi-square machinery for empirical distribution
checks, an instance validator, a zero-communication protocol, a source
mutator for fault tests, the one-theta biased-index check, and the Fraction
reference for entropies.

The entropy reference normalizes cells to Fraction probabilities, adds
Fractions for marginals and slice masses, and takes each term as float(p) *
(log2(den) - log2(num)) on the reduced rational. The package's entropies
are bit-identical to it, so tests compare with it by float `==`."""
import __future__
import inspect
import math
from fractions import Fraction

from chainlab.model import BitString, ChainInstance
from chainlab.oracle import biased_index_bound_reports
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
    """Replace `module.<name>` by its own source with `old` written as `new`,
    compiled as the package's modules are, with annotations left unevaluated
    (they may name modules that a function imports in its own body)."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), "<string>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def biased_report(n, theta, messages, s, aug=False):
    """The biased-index entropy bound at one theta (augmented if `aug`)."""
    return biased_index_bound_reports(n, (theta,), messages, s, aug)[0]


def ref_cells(weights):
    total = sum(weights.values())
    return {k: Fraction(w, total) for k, w in weights.items() if w}


def ref_term_bits(p):
    if p == 0:
        return 0.0
    return float(p) * (math.log2(p.denominator) - math.log2(p.numerator))


def ref_entropy(cells):
    return math.fsum(ref_term_bits(p) for p in cells.values())


def ref_marginal(cells, pos):
    out = {}
    for values, p in cells.items():
        key = tuple(values[i] for i in pos)
        out[key] = out.get(key, 0) + p
    return out


def ref_conditional_entropy(cells, target_pos, given_pos):
    slices = {}
    for values, p in cells.items():
        cond = slices.setdefault(tuple(values[i] for i in given_pos), {})
        v = values[target_pos]
        cond[v] = cond[v] + p if v in cond else p
    terms = []
    for cond in slices.values():
        weight = sum(cond.values())
        w = float(weight)
        for p in cond.values():
            terms.append(w * ref_term_bits(p / weight))
    return math.fsum(terms)
