"""One fresh interpreter of the benchmark; `run.py` starts it and reads the
JSON line it prints.

    worker.py setup --workload W --seed S
        import chainlab, build the workload's inputs, and report both times.
    worker.py run --workload W --seed S --seconds T --trace 0|1 --out DIR
        build the inputs, run one untimed reference repetition and the
        self-test on it, then repeat the workload closed loop until T seconds
        have passed since the reference started, and report per-repetition
        wall times, operation counts, failures and peak RSS.
        With --trace 1 the repetitions alternate untraced and traced, and the
        per-layer numbers come from the traced ones.
"""
import argparse
import json
import os
import statistics
import sys
from time import perf_counter

_START = perf_counter()  # after the benchmark's own imports, before any the workload pays for

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_chainlab():
    """Import chainlab from the checkout's `src`, never from elsewhere."""
    sys.path.insert(0, SRC)
    import chainlab

    if os.path.dirname(os.path.dirname(os.path.abspath(chainlab.__file__))) != SRC:
        raise ImportError(f"chainlab imported from {chainlab.__file__}, expected it under {SRC}")
    return chainlab


def setup(workload: str, seed: int) -> dict:
    import_chainlab()
    imported = perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    return {"import_s": imported - _START, "inputs_s": perf_counter() - imported}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, calls, results, report: bytes) -> dict:
    """Per-layer numbers of one traced repetition."""
    from chainlab.distributions import DEFAULT_ENUMERATION_BUDGET

    layers = tracer.layers()
    row = lambda name: layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    per_call_us = lambda name: row(name)["total_s"] / row(name)["calls"] * 1e6 if row(name)["calls"] else 0.0
    m = {}
    for name in ("info_theory.from_weights", "info_theory.marginal", "info_theory.conditional_entropy",
                 "info_theory.binary_entropy", "info_theory.binomial_bounds", "protocols.run",
                 "distributions.sample_chain", "oracle.verify", "montecarlo"):
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    m["info_theory.from_weights.cells"] = tracer.cells
    m["info_theory.entropy.self_s"] = row("info_theory.entropy")["self_s"]
    m["protocols.run.us_per_run"] = per_call_us("protocols.run")
    m["distributions.sample_chain.us_per_instance"] = per_call_us("distributions.sample_chain")
    for name in ("protocols.derive_seed", "protocols.shared_streams", "model.bitstring_new"):
        m[f"{name}.calls"] = tracer.counts[name]
    # engine runs inside one oracle verification = support points it enumerated
    support = tracer.children_per_parent("oracle.verify", "protocols.run")
    m["oracle.support_points"] = sum(support)
    m["oracle.budget_share"] = max(support, default=0) / DEFAULT_ENUMERATION_BUDGET
    mc = [call for call in calls if call.kind == "mc"]
    mc_time = row("montecarlo")["total_s"]
    m["montecarlo.trials_per_s"] = sum(call.expected for call in mc) / mc_time if mc_time else 0.0
    m["montecarlo.batches"] = sum(call.batches for call in mc)
    for suite in ("biased-index-bound", "aug-biased-index-bound", "chain-entropy",
                  "entropy-pool-sweep", "binomial-bounds-sweep"):
        m[f"experiments.suite.{suite}.self_s"] = row(f"experiments.suite.{suite}")["self_s"]
    from workloads import score

    m["experiments.checks"] = sum(score(c, r)[0] for c, r in zip(calls, results) if c.kind != "mc")
    m["report.emit.self_s"] = row("report.emit")["self_s"]
    m["report.emit.bytes"] = len(report)
    m["trace.spans"] = len(tracer.spans)
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    import platform
    import resource

    import_chainlab()
    import numpy
    from selftest import undetected
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, emit, nproc, run_calls, score_rep

    workload = WORKLOADS[workload_name]
    calls = workload.build(seed)
    null = NullTracer()
    deadline = perf_counter() + seconds  # the untimed reference repetition runs inside the window
    results, _ = run_calls(calls, null)
    reference = emit(workload_name, seed, results, null)
    attempted, failed = score_rep(calls, results, reference, reference)
    missed = undetected(calls, results, reference)

    tracer = Tracer() if trace else None
    walls, ops, call_seconds = [], [], []
    traced_walls, layer_rows, mismatched = [], [], 0
    kept_spans = None
    rep = 0
    while perf_counter() < deadline or not walls or (trace and not traced_walls):
        traced = trace and rep % 2 == 1
        active = tracer if traced else null
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            results, secs = run_calls(calls, active)
            report = emit(workload_name, seed, results, active)
        finally:
            wall = perf_counter() - start
            if traced:
                tracer.uninstall()
        a, f = score_rep(calls, results, report, reference)
        attempted += a
        failed += f
        if traced:
            traced_walls.append(wall)
            mismatched += report != reference
            layer_rows.append(layer_metrics(tracer, calls, results, report))
            if kept_spans is None:
                kept_spans = (tracer.spans, rep)
        else:
            walls.append(wall)
            ops.append(a / wall)
            call_seconds.append(secs)
        rep += 1

    out = {
        "walls": walls, "ops_per_s": ops, "attempted": attempted, "failed": failed,
        "undetected": missed, "trace_mismatch": mismatched, "workers": workload.workers,
        "env": {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__},
    }
    if trace:
        layers = {name: _median([r[name] for r in layer_rows]) for name in layer_rows[0]}
        layers["montecarlo.workers"] = workload.workers if any(c.kind == "mc" for c in calls) else 0
        extras, out["worker_mismatch"] = _montecarlo_extras(calls, results, call_seconds, workload.workers)
        layers.update(extras)
        layers["trace.wall_s"] = _median(traced_walls)
        layers["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        out["layers"] = layers
        out["traced_walls"] = traced_walls
        out["unpatched"] = sorted(tracer.missing)
        tracer.spans = kept_spans[0]
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.jsonl"), trace_id=kept_spans[1])
    # this process plus its largest pool worker, counted once per worker it started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.workers > 1:
        peak_kb += workload.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = peak_kb / 1024
    return out


def _montecarlo_extras(calls, results, call_seconds, workers: int) -> tuple[dict, int]:
    """Worker scaling and allocation peak, measured on untraced calls.

    scaling_eff: throughput at `workers` over `workers` times the throughput
    at 1 worker, from one 1-worker repeat of each call against the median
    untraced time at `workers`. peak_alloc_mb: tracemalloc peak of one
    1-worker call, the largest over the workload's calls. A 1-worker repeat
    whose success count differs from the pinned run's is counted as a
    mismatch (the count must not depend on workers).
    """
    import tracemalloc

    extras = {"montecarlo.scaling_eff": 0.0, "montecarlo.peak_alloc_mb": 0.0}
    mismatches = 0
    mc = [(i, call) for i, call in enumerate(calls) if call.kind == "mc"]
    if not mc:
        return extras, mismatches
    if workers > 1:
        single = pinned = 0.0
        for i, call in mc:
            start = perf_counter()
            estimate = call.run(1)
            single += perf_counter() - start
            pinned += _median([secs[i] for secs in call_seconds])
            mismatches += estimate.successes != results[i].successes
        extras["montecarlo.scaling_eff"] = single / (workers * pinned)
    for i, call in mc:
        tracemalloc.start()
        try:
            call.run(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extras["montecarlo.peak_alloc_mb"] = max(extras["montecarlo.peak_alloc_mb"], peak / 2**20)
    return extras, mismatches


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
