"""chainlab benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the root of a checkout; chainlab is imported from its `src`.
Each workload is measured in a fresh interpreter (`worker.py run`) that
repeats the workload for T seconds after one reference repetition; set-up
time is measured in several more fresh interpreters (`worker.py setup`).
Every output is checked (see `workloads.score`), and every check is
itself fed corrupted outputs first (`selftest.py`).

Prints a table of each metric (median, quartiles, sample count) and, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from the traced
repetitions. The raw samples, the run environment and, for a traced run,
the spans of one repetition are written under perfbench/out/.
Exit status: 0 when every output was correct, 1 when one was not, 2 when
the benchmark could not run (for example, no chainlab sources).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-entropy", "exact-enum", "mc-generic", "mc-vector")
# fresh interpreters timed per run, after one untimed one that fills the bytecode
# cache; half before the measurement and half after, so that one slow spell
# of the host does not set them all
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "info_theory.from_weights.calls": "count",
    "info_theory.from_weights.cells": "count",
    "info_theory.from_weights.self_s": "s",
    "info_theory.marginal.calls": "count",
    "info_theory.marginal.self_s": "s",
    "info_theory.conditional_entropy.calls": "count",
    "info_theory.conditional_entropy.self_s": "s",
    "info_theory.entropy.self_s": "s",
    "info_theory.binary_entropy.calls": "count",
    "info_theory.binary_entropy.self_s": "s",
    "info_theory.binomial_bounds.calls": "count",
    "info_theory.binomial_bounds.self_s": "s",
    "protocols.run.calls": "count",
    "protocols.run.self_s": "s",
    "protocols.run.us_per_run": "us",
    "protocols.derive_seed.calls": "count",
    "protocols.shared_streams.calls": "count",
    "distributions.sample_chain.calls": "count",
    "distributions.sample_chain.self_s": "s",
    "distributions.sample_chain.us_per_instance": "us",
    "model.bitstring_new.calls": "count",
    "oracle.verify.calls": "count",
    "oracle.verify.self_s": "s",
    "oracle.support_points": "count",
    "oracle.budget_share": "ratio",
    "montecarlo.calls": "count",
    "montecarlo.self_s": "s",
    "montecarlo.trials_per_s": "1/s",
    "montecarlo.batches": "count",
    "montecarlo.workers": "count",
    "montecarlo.scaling_eff": "ratio",
    "montecarlo.peak_alloc_mb": "MB",
    "experiments.suite.biased-index-bound.self_s": "s",
    "experiments.suite.aug-biased-index-bound.self_s": "s",
    "experiments.suite.chain-entropy.self_s": "s",
    "experiments.suite.entropy-pool-sweep.self_s": "s",
    "experiments.suite.binomial-bounds-sweep.self_s": "s",
    "experiments.checks": "count",
    "report.emit.self_s": "s",
    "report.emit.bytes": "bytes",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchmarkError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own session; kill the session (pool workers
    included) if it outlives the deadline. The worker count is always passed
    explicitly, and bytecode caching is on, as in a normal install."""
    env = {k: v for k, v in os.environ.items() if k not in ("CHAINLAB_WORKERS", "PYTHONDONTWRITEBYTECODE")}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args[:3]} exceeded the time limit")
    finally:
        if proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[:3]} exited with status {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _summary(values: list[float]) -> tuple[float, float, float, int]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value, len(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(["setup", *common], deadline) for _ in range(SETUP_SAMPLES // 2 + 1)][1:]
    run = _worker(["run", *common, "--seconds", str(seconds), "--trace", str(int(trace)), "--out", OUT], deadline)
    setups += [_worker(["setup", *common], deadline) for _ in range(SETUP_SAMPLES - len(setups))]
    samples = {
        "wall_s": run["walls"],
        "ops_per_s": run["ops_per_s"],
        "setup_s": [s["import_s"] + s["inputs_s"] for s in setups],
        "peak_rss_mb": [run["peak_rss_mb"]],
    }
    if trace:
        layers = dict(run["layers"])
        layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": _summary(samples[name])[0], "unit": unit} for name, unit in END_TO_END.items()}
    correct = (run["failed"] == 0 and not run["undetected"] and run["trace_mismatch"] == 0
               and run.get("worker_mismatch", 0) == 0)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "env": run["env"],
        "workers": run["workers"], "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "undetected": run["undetected"], "trace_mismatch": run["trace_mismatch"],
        "worker_mismatch": run.get("worker_mismatch", 0), "samples": samples,
        "traced_walls": run.get("traced_walls", []), "unpatched": run.get("unpatched", []), "metrics": metrics,
    }


def print_table(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}  workers {result['workers']}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}")
    print(f"  {'metric':<48} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>5}")
    for name, unit in END_TO_END.items():
        median, q1, q3, n = _summary(result["samples"][name])
        print(f"  {name:<48} {unit:<6} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>5}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<48} {'ratio':<6} {failed / attempted:>14.6g} {'':>14} {'':>14} {attempted:>5}")
    if result["trace"]:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<48} {unit:<6} {result['metrics'][name]['value']:>14.6g}")
    if result["unpatched"]:
        print(f"  not traced, no longer defined by chainlab: {', '.join(result['unpatched'])}")
    for problem in result["undetected"]:
        print(f"  self-test: check let a corrupted output through: {problem}")
    if result["trace_mismatch"] or result["worker_mismatch"]:
        print(f"  traced repetitions whose report differs from the untraced one: {result['trace_mismatch']}; "
              f"1-worker repeats whose success count differs: {result['worker_mismatch']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its worker's session (see _worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "chainlab", "__init__.py")):
        print(f"no chainlab sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace), deadline) for name in names]
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    for result in results:
        print_table(result)
        path = os.path.join(OUT, f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as out:
            json.dump(result, out, indent=1)
    metrics = (results[0]["metrics"] if len(results) == 1 else
               {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()})
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
