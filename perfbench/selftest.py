"""Every output check of the benchmark must be able to fail.

`undetected` feeds the scorer of `workloads.py` corrupted copies of real
outputs and returns the corruptions it let through: a failing verdict (also
on a companion check), a missing check, a wrong exact success probability,
a wrong entropy, a failure inside a sweep, a short sweep, an estimate six
standard errors off its oracle, a wrong trial count, a raised exception,
and report bytes that differ from the reference. The benchmark runs it on
the first repetition of every run; a non-empty answer makes the run
incorrect.

Standalone: `python3 perfbench/selftest.py` runs one repetition of every
workload and its self-test, and exits 1 if any corruption goes undetected
or any untouched output fails.
"""
from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction


def _corruptions(call, result):
    """(label, corrupted result) pairs; each must be scored as failing."""
    yield "raised", RuntimeError("injected")
    if call.kind == "suite":
        yield "verdict-wrong", [replace(result[0], passed=False)] + result[1:]
        dropped = next(i for i, report in enumerate(result) if report.check == call.check)
        yield "check-missing", result[:dropped] + result[dropped + 1:]
        for i, report in enumerate(result):
            if report.check != call.check:
                yield "companion-verdict-wrong", _swap(result, i, replace(report, passed=False))
                break
        for i, report in enumerate(result):
            if report.params.get("protocol") == "truncation":
                success = report.details["success"] + Fraction(1, 64)
                yield "success-wrong", _swap(result, i, replace(report, details={**report.details, "success": success}))
                break
        for i, report in enumerate(result):
            if report.params.get("message_function") == "full-string":
                yield "entropy-wrong", _swap(result, i, replace(report, lhs=report.lhs + 0.01))
                break
    elif call.kind == "pool-sweep":
        checks, failures, slack = result
        yield "sweep-failure", (checks, failures + 1, slack)
        yield "sweep-short", (checks - 1, failures, slack)
    elif call.kind == "binomial-sweep":
        yield "sweep-failure", {**result, "corrected_failures": result["corrected_failures"] + 1}
        yield "sweep-short", {**result, "checks": result["checks"] - 1}
    else:
        from chainlab.montecarlo import MonteCarloEstimate

        p = float(call.oracle)
        shift = math.ceil(6 * math.sqrt(p * (1 - p) * result.trials))
        direction = -1 if p > 0.5 else 1  # away from the nearer end of [0, trials]
        yield "estimate-shifted", MonteCarloEstimate.from_counts(
            round(p * result.trials) + direction * shift, result.trials, result.seed)
        yield "trials-short", MonteCarloEstimate.from_counts(
            min(result.successes, result.trials - 1), result.trials - 1, result.seed)


def _swap(reports: list, i: int, report) -> list:
    return reports[:i] + [report] + reports[i + 1:]


def undetected(calls, results, report: bytes) -> list[str]:
    from workloads import score, score_rep

    missed = []
    for i, (call, result) in enumerate(zip(calls, results)):
        if isinstance(result, Exception):
            continue
        for label, bad in _corruptions(call, result):
            if score(call, bad)[1] == 0:
                missed.append(f"call {i} ({call.span}): {label}")
    if score_rep(calls, results, report, report + b" ")[1] == 0:
        missed.append("report-bytes-differ")
    return missed


def main() -> int:
    from worker import import_chainlab

    import_chainlab()
    from tracer import NullTracer
    from workloads import WORKLOADS, emit, run_calls, score_rep

    status = 0
    for name, workload in WORKLOADS.items():
        calls = workload.build(1)
        results, _ = run_calls(calls, NullTracer())
        report = emit(name, 1, results, NullTracer())
        attempted, failed = score_rep(calls, results, report, report)
        missed = undetected(calls, results, report)
        print(f"{name}: {attempted} operations, {failed} failed, corruptions let through: {missed or 'none'}")
        status |= bool(failed or missed)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
