"""Span recorder for the traced run.

Spans are opened from the benchmark's own files only: around the calls the
benchmark makes itself (`span`), and by replacing, for the length of one
traced repetition, the names each chainlab module binds for the callees it
uses (`Tracer.install`). A module that did `from .x import y` holds its own
reference to `y`, so the patch goes on the caller's module, not on `x`.

Spans stay in memory as (name, start, end, parent) tuples; the caller
aggregates them after each repetition and writes one repetition's spans to a
file when the run ends. Hot, tiny callees (seed derivation, bit-string
construction) get a call counter instead of a span.
"""
from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.cells = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, cells=None):
        """`fn` with a span per call; `cells(args, kwargs)` adds to self.cells."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if cells is not None:
                    self.cells += cells(args, kwargs)

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace `owner.attr` by `wrap(owner.attr)` until `uninstall`. A
        name the program no longer defines is skipped and listed in
        `self.missing`; its metrics then read 0."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Start a fresh recording and patch every layer boundary the workloads cross."""
        self.spans, self.counts, self.cells, self._stack = [], Counter(), 0, []
        import chainlab.experiments as experiments
        import chainlab.info_theory as info_theory
        import chainlab.montecarlo as montecarlo
        import chainlab.oracle as oracle
        import chainlab.protocols as protocols
        from chainlab.info_theory import JointTable
        from chainlab.model import BitString
        from chainlab.protocols import SharedRandomness

        span = lambda name, **kw: lambda fn: self.wrap(name, fn, **kw)
        count = lambda name: lambda fn: self.count(name, fn)
        for name in ("verify_biased_index_bound", "verify_aug_biased_index_bound", "verify_chain_entropy_bound"):
            self.patch(experiments, name, span("oracle.verify"))
        self.patch(experiments, "check_binomial_entropy_bounds", span("info_theory.binomial_bounds"))
        for module in (oracle, info_theory):
            self.patch(module, "binary_entropy", span("info_theory.binary_entropy"))
        self.patch(oracle, "conditional_entropy", span("info_theory.conditional_entropy"))
        self.patch(oracle, "entropy", span("info_theory.entropy"))
        self.patch(JointTable, "from_weights", lambda method: classmethod(
            self.wrap("info_theory.from_weights", method.__func__, cells=lambda args, kwargs: len(args[2]))))
        self.patch(JointTable, "marginal", span("info_theory.marginal"))
        for module in (oracle, montecarlo):
            for name in ("run_chain_protocol", "run_aug_chain_protocol"):
                self.patch(module, name, span("protocols.run"))
        for module in (oracle, montecarlo, protocols):
            self.patch(module, "derive_seed", count("protocols.derive_seed"))
        self.patch(SharedRandomness, "stream", count("protocols.shared_streams"))
        self.patch(montecarlo, "sample_chain", span("distributions.sample_chain"))
        self.patch(BitString, "__post_init__", count("model.bitstring_new"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (total minus the
        time its direct children cover; children run inside their parent and
        never overlap each other, so their durations add)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        return out

    def children_per_parent(self, parent_name: str, child_name: str) -> list[int]:
        """For each span named `parent_name`, how many direct children are named `child_name`."""
        wanted = {idx: 0 for idx, span in enumerate(self.spans) if span[0] == parent_name}
        for name, _, _, parent in self.spans:
            if name == child_name and parent in wanted:
                wanted[parent] += 1
        return list(wanted.values())

    def write(self, path, trace_id: int) -> None:
        """One JSON line per span; times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "trace": trace_id, "id": idx, "parent": parent, "name": name,
                    "start_us": round((start - origin) * 1e6, 3), "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")


class NullTracer:
    """Tracing off: `span` costs one attribute lookup and a shared null context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
