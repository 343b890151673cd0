"""Experiment runner: named verification suites, JSON/CSV reports, sweeps.

Reports are deterministic byte-for-byte for a given (config, seed): floats
are rounded to 12 significant digits, rationals serialize exactly, keys are
sorted, and wall time is logged to stderr rather than embedded in the
report.
"""
from __future__ import annotations

import csv
import inspect
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from ._version import __version__
from .distributions import (
    bias_grid,
    check_budget,
    check_structured_budget,
    enumerate_support,
    pmf_biased_index,
    structured_pool_size,
)
from .model import balanced_strings
from .errors import InvalidParameterError, ResourceLimitError, UsageError
from .info_theory import ENTROPY_TOLERANCE, binomial_anticoncentration, binomial_bound_verdicts
from .oracle import (
    biased_index_bound_reports,
    enumerated_majority_success,
    exact_majority_success,
    full_string_message_function,
    random_chain_protocol,
    random_message_function,
    sweep_entropy_given_pool,
    truncation_message_function,
    verify_chain_entropy_bound,
    verify_conditional_independence,
    verify_distribution_identity,
    verify_entropy_given_pool,
)
from .montecarlo import montecarlo_success_by_name
from .protocols import truncation_protocol
from .report import VerificationReport, json_text, to_jsonable


# the fields each mode reads besides mode, out and format; a config that
# sets any other field away from its default is a usage error
MODE_FIELDS: dict[str, tuple[str, ...]] = {
    "simulate": ("protocol", "n", "k", "trials", "seed"),
    "verify": ("suite", "n", "theta", "seed"),
    "table": ("suite", "sweep", "theta"),
}

# the type each config field must have when it is set; fields whose default
# is None may also be null
_CONFIG_TYPES: dict[str, type | tuple[type, ...]] = {
    "mode": str, "n": int, "k": int, "theta": (int, float, str, Fraction), "protocol": Mapping,
    "trials": int, "seed": int, "suite": str, "sweep": str, "out": str, "format": str,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation; every field is echoed into the report."""

    mode: str
    n: int | None = None
    k: int | None = None
    theta: Fraction | None = None
    protocol: Mapping[str, Any] | None = None
    trials: int | None = None
    seed: int = 0
    suite: str | None = None
    sweep: str | None = None
    out: str | None = None
    format: str = "json"

    def validate(self) -> None:
        if self.mode not in MODE_FIELDS:
            raise UsageError(f"mode must be simulate, verify, or table, got {self.mode!r}")
        if self.format not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.format!r}")
        read = ("mode", "out", "format", *MODE_FIELDS[self.mode])
        unread = [f.name for f in fields(self) if f.name not in read and getattr(self, f.name) != f.default]
        if unread:
            raise UsageError(f"mode {self.mode!r} does not read the config fields {unread}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "simulate":
            if not self.protocol or "name" not in self.protocol:
                raise UsageError("simulate requires protocol.name")
            if self.n is None or self.k is None:
                raise UsageError("simulate requires n and k")
            if self.trials is None or self.trials < 1:
                raise UsageError("simulate requires trials >= 1")
        if self.mode == "verify" and not self.suite:
            raise UsageError("verify requires a suite name")
        if self.mode == "table":
            if not self.suite:
                raise UsageError("table requires a suite name")
            if not self.sweep:
                raise UsageError("table requires a sweep specification")

    def to_json_dict(self) -> dict:
        # the output path is where the report goes, not part of what it says;
        # leaving it out keeps equal configs byte-identical across destinations
        return to_jsonable({f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        unknown = set(data) - set(_CONFIG_TYPES)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        values = {"mode": "", **data}
        for key, value in values.items():
            if value is None and cls.__dataclass_fields__[key].default is None:
                continue
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
                raise UsageError(f"config field {key!r} has the wrong type: {value!r}")
        if values.get("theta") is not None:
            try:
                values["theta"] = Fraction(str(values["theta"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad theta {values['theta']!r}: {exc}") from exc
        protocol = values.get("protocol")
        if protocol is not None:
            unknown = set(protocol) - {"name", "params"}
            if unknown:
                raise UsageError(f"unknown config fields in 'protocol': {sorted(unknown)}")
            if not isinstance(protocol.get("params", {}), Mapping):
                raise UsageError(f"config field 'protocol.params' must be an object, got {protocol['params']!r}")
        return cls(**values)


# ---------------------------------------------------------------------------
# verification suites


def _grid_for(n: int, theta: Fraction | None) -> list[Fraction]:
    """The bias grid of n, or only `theta`, which must lie on it."""
    if theta is None:
        return bias_grid(n)
    structured_pool_size(n, theta)
    return [theta]


def _structured_grid(ns: Sequence[int], theta: Fraction | None) -> list[tuple[int, Fraction]]:
    """Every (n, theta) of a suite that enumerates the structured law, each
    point count checked against the budget before the first enumeration."""
    grid = [(n, t) for n in ns for t in _grid_for(n, theta)]
    for n, t in grid:
        check_structured_budget(n, t)
    return grid


def suite_distribution_identity(ns: Sequence[int] = (2, 4, 6, 8), theta: Fraction | None = None) -> list[VerificationReport]:
    return [verify_distribution_identity(n, t) for n, t in _structured_grid(ns, theta)]


def suite_pmf(ns: Sequence[int] = (2, 4, 6, 8), theta: Fraction | None = None) -> list[VerificationReport]:
    """Enumerated direct tables must match the closed-form cell probability exactly."""
    reports = []
    for n in ns:
        strings = balanced_strings(n)
        for t in _grid_for(n, theta):
            table = enumerate_support(n, t, "direct").entries
            mismatches = 0
            for y in strings:
                for rho in range(1, n + 1):
                    expected = pmf_biased_index(n, t, y, rho)
                    if table.get((y, rho), Fraction(0)) != expected:
                        mismatches += 1
            total = sum(table.values())
            reports.append(
                VerificationReport(
                    check="biased-index-pmf",
                    params={"n": n, "theta": t},
                    lhs=f"{mismatches} mismatched cells",
                    rhs="0 mismatched cells",
                    relation="==",
                    passed=mismatches == 0 and total == 1,
                    tolerance=0,
                    mode="exact",
                    details={"cells": len(strings) * n, "total_probability": total},
                )
            )
    return reports


def _message_function_cases(n: int, lengths: Sequence[int], functions: int, seed: int):
    """(kind, message ids, s) one message function at a time: per s the
    random functions and truncation, then the full-string function."""
    for s in lengths:
        for j in range(functions):
            yield f"random-{j}", random_message_function(n, s, seed + j), s
        yield "truncation", truncation_message_function(n, s), s
    yield "full-string", *full_string_message_function(n)


def suite_biased_index(
    ns: Sequence[int] = (4, 6, 8),
    lengths: Sequence[int] = (1, 2, 3),
    functions: int = 100,
    seed: int = 0,
    aug: bool = False,
    theta: Fraction | None = None,
) -> list[VerificationReport]:
    """Single-message entropy bound over random, truncation, and full-string
    message functions (the full-string case once per (n, theta)), in the
    order theta, s, function. Each message function is drawn and tallied
    once for the whole grid, and only one tally is held at a time."""
    reports = []
    for n in ns:
        grid = _grid_for(n, theta)
        rows: list[list[VerificationReport]] = [[] for _ in grid]  # one row of cases per theta
        for kind, messages, s in _message_function_cases(n, lengths, functions, seed):
            for row, report in zip(rows, biased_index_bound_reports(n, grid, messages, s, aug)):
                row.append(replace(report, params={**report.params, "message_function": kind}))
        reports += [report for row in rows for report in row]
    return reports


def _fano_companion(report: VerificationReport) -> VerificationReport | None:
    if report.details.get("fano_pass") is None:
        return None
    return VerificationReport(
        check="answer-entropy-fano",
        params=dict(report.params),
        lhs=report.lhs,
        rhs=report.details["fano_ceiling"],
        relation="<=",
        passed=bool(report.details["fano_pass"]),
        tolerance=report.tolerance,
        mode="float",
        details={"success": report.details["success"]},
    )


def suite_chain_entropy(
    ns: Sequence[int] = (4, 6),
    ks: Sequence[int] = (1, 2),
    random_protocols: int = 50,
    max_message_bits: int = 3,
    seed: int = 0,
) -> list[VerificationReport]:
    """Entropy accounting for the truncation family and random protocols,
    with the estimator ceiling checked whenever a protocol beats even odds."""
    reports = []
    for n in ns:
        for k in ks:
            subjects = [truncation_protocol(n, k, t) for t in range(n + 1)]
            subjects += [
                random_chain_protocol(n, k, max_message_bits, seed + j)
                for j in range(random_protocols)
            ]
            for protocol in subjects:
                report = verify_chain_entropy_bound(protocol, n, k, shared_seed=seed)
                reports.append(report)
                fano = _fano_companion(report)
                if fano is not None:
                    reports.append(fano)
    return reports


def _sweep_report(check: str, params: dict, failures: int, tolerance, mode: str, details: dict) -> VerificationReport:
    """A whole sweep as one check: its failure count must be zero."""
    return VerificationReport(check=check, params=params, lhs=f"{failures} failures", rhs="0 failures",
                              relation="==", passed=failures == 0, tolerance=tolerance, mode=mode, details=details)


def suite_entropy_pool(
    ns: Sequence[int] = (4, 8, 16, 32, 64),
    theta: Fraction | None = None,
    sweep_to: int | None = None,
) -> list[VerificationReport]:
    reports = []
    for n in ns:
        for t in _grid_for(n, theta):
            reports.append(verify_entropy_given_pool(n, t))
    if sweep_to:
        checks, failures, min_slack = sweep_entropy_given_pool(sweep_to)
        reports.append(_sweep_report("restricted-support-entropy-sweep", {"max_n": sweep_to}, failures,
                                     ENTROPY_TOLERANCE, "float", {"checks": checks, "min_slack_bits": min_slack}))
    return reports


def suite_majority(
    block_sizes: Sequence[int] = (1, 2, 4),
    enum_n: int = 12,
    mc_trials: int = 20000,
    seed: int = 0,
) -> list[VerificationReport]:
    """Exact equality of the closed-form and enumerated majority success, the
    per-block advantage floor at larger blocks, and a seeded Monte Carlo check."""
    reports = []
    for b in block_sizes:
        formula = exact_majority_success(b)
        enumerated = enumerated_majority_success(enum_n if enum_n % b == 0 else b, b)
        reports.append(
            VerificationReport(
                check="majority-protocol-success",
                params={"B": b, "enum_n": enum_n if enum_n % b == 0 else b},
                lhs=formula,
                rhs=enumerated,
                relation="==",
                passed=formula == enumerated,
                tolerance=0,
                mode="exact",
            )
        )
    floor = Fraction(1, 2) + Fraction(1, 8) * Fraction(1, 8)
    value64 = exact_majority_success(64)
    reports.append(
        VerificationReport(
            check="majority-advantage-floor",
            params={"B": 64, "c": "1/4"},
            lhs=value64,
            rhs=floor,
            relation=">=",
            passed=value64 >= floor,
            tolerance=0,
            mode="exact",
        )
    )
    if mc_trials:
        est = montecarlo_success_by_name("index-majority", 64, 1, {"B": 4}, mc_trials, seed)
        exact = float(exact_majority_success(4))
        se = math.sqrt(exact * (1 - exact) / mc_trials)
        reports.append(
            VerificationReport(
                check="majority-montecarlo",
                params={"n": 64, "B": 4, "trials": mc_trials, "seed": seed},
                lhs=est.estimate,
                rhs=exact,
                relation="within-5se",
                passed=abs(est.estimate - exact) <= 5 * se,
                tolerance=5 * se,
                mode="float",
                details={"successes": est.successes},
            )
        )
    return reports


def suite_anticoncentration(
    ts: Sequence[int] = (16, 64, 256, 1024),
    cs: Sequence[Fraction] = (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)),
) -> list[VerificationReport]:
    reports = []
    for t in ts:
        for c in cs:
            result = binomial_anticoncentration(t, c)
            reports.append(
                VerificationReport(
                    check="binomial-anticoncentration",
                    params={"t": t, "c": c},
                    lhs=result.probability,
                    rhs=result.bound,
                    relation="<=",
                    passed=result.passed,
                    tolerance=0,
                    mode="exact",
                )
            )
    return reports


def _q_grid(p: int, points: int) -> list[int]:
    if p - 1 <= points:
        return list(range(1, p))
    qs = {round(1 + (p - 2) * j / (points - 1)) for j in range(points)}
    return sorted(int(q) for q in qs)


def sweep_binomial_bounds(max_p: int = 1024, points: int = 100) -> dict:
    """Exact bound checks across p up to max_p on a q grid; returns counts."""
    if max_p < 2 or points < 2:
        raise InvalidParameterError(f"the sweep needs max_p >= 2 and points >= 2, got {max_p} and {points}")
    checks = corrected_failures = printed_failures = 0
    failing_examples: list[tuple[int, int]] = []
    for p in range(2, max_p + 1):
        for q in _q_grid(p, points):
            verdicts = binomial_bound_verdicts(p, q)
            checks += 1
            if not verdicts.passed:
                corrected_failures += 1
                if len(failing_examples) < 20:
                    failing_examples.append((p, q))
            if not verdicts.printed_form_pass:
                printed_failures += 1
    return {
        "checks": checks,
        "corrected_failures": corrected_failures,
        "printed_failures": printed_failures,
        "corrected_failing_examples": failing_examples,
    }


def suite_binomial_bounds(max_p: int = 1024, points: int = 100) -> list[VerificationReport]:
    summary = sweep_binomial_bounds(max_p, points)
    params = {"max_p": max_p, "points": points}
    return [_sweep_report("binomial-entropy-bounds-sweep", params, summary["corrected_failures"], 0, "exact", summary)]


def suite_conditional_independence(ns: Sequence[int] = (4,), theta: Fraction | None = None) -> list[VerificationReport]:
    return [verify_conditional_independence(n, t) for n, t in _structured_grid(ns, theta)]


SuiteFn = Callable[..., list[VerificationReport]]


@dataclass(frozen=True)
class Suite:
    """A named suite: its function and its arguments in the default suite,
    which also passes on the seed and the theta to a suite that takes them."""

    fn: SuiteFn
    preset: Mapping[str, Any]

    @property
    def takes(self) -> tuple[str, ...]:
        """The run options (`ns`, `theta`, `seed`) among the function's parameters."""
        return tuple(p for p in ("ns", "theta", "seed") if p in inspect.signature(self.fn).parameters)

    def run(self, preset: Mapping[str, Any], **options) -> list[VerificationReport]:
        """Call the suite with `preset` plus those of `options` it takes and that are set."""
        return self.fn(**preset, **{k: v for k, v in options.items() if k in self.takes and v is not None})


# the presets keep the default suite fast while touching every check
SUITES: dict[str, Suite] = {
    "distribution-identity": Suite(suite_distribution_identity, {"ns": (2, 4, 6)}),
    "pmf": Suite(suite_pmf, {"ns": (2, 4, 6)}),
    "biased-index-bound": Suite(suite_biased_index, {"ns": (4,), "lengths": (1, 2), "functions": 5}),
    "aug-biased-index-bound": Suite(
        partial(suite_biased_index, aug=True), {"ns": (4,), "lengths": (1, 2), "functions": 5}),
    "chain-entropy": Suite(suite_chain_entropy, {"ns": (4,), "ks": (1, 2), "random_protocols": 5}),
    "entropy-given-pool": Suite(suite_entropy_pool, {"ns": (4, 8, 16, 32, 64), "sweep_to": 256}),
    "majority": Suite(suite_majority, {"block_sizes": (1, 2, 4), "enum_n": 8}),
    # t=16 is excluded here: the central binomial term genuinely exceeds the
    # 2c bound at (t=16, c=1/16); the full suite reports that cell honestly
    "anticoncentration": Suite(suite_anticoncentration, {"ts": (64, 256)}),
    "binomial-bounds": Suite(suite_binomial_bounds, {"max_p": 64, "points": 16}),
    "conditional-independence": Suite(suite_conditional_independence, {"ns": (4,)}),
}


def run_suite(name: str, n: int | None = None, theta: Fraction | None = None, seed: int = 0) -> list[VerificationReport]:
    """Run a named suite, optionally restricted to one n / one theta.

    An n, theta or nonzero seed that the suite would not use is a usage
    error, not ignored: the default suite runs its preset sizes, so it takes
    no n. A negative seed is refused before any suite runs.
    """
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if name == "default":
        if n is not None:
            raise UsageError("the default suite runs preset sizes and takes no n; name a suite to pick n")
        return [
            report
            for suite in SUITES.values()
            for report in suite.run(suite.preset, theta=theta, seed=seed)
        ]
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; available: {sorted(SUITES) + ['default']}")
    suite = SUITES[name]
    for option, key, value in (("n", "ns", n), ("theta", "theta", theta), ("seed", "seed", seed or None)):
        if value is not None and key not in suite.takes:
            raise UsageError(f"suite {name!r} takes no {option}")
    return suite.run({}, ns=(n,) if n is not None else None, theta=theta, seed=seed)


# ---------------------------------------------------------------------------
# table mode


def parse_sweep(spec: str) -> tuple[str, list[int]]:
    """Parse "name=a..b", "name=a..b:step", or "name=a..b:*factor" into
    strictly increasing values within [a, b]."""
    try:
        name, rest = spec.split("=", 1)
        name = name.strip()
        low_s, rest = rest.split("..", 1)
        high_s, _, step_s = rest.partition(":")
        low, high = int(low_s), int(high_s)
        multiplicative = step_s.startswith("*")
        step = int(step_s.removeprefix("*")) if step_s else (2 if name == "n" else 1)
    except ValueError as exc:
        raise UsageError(f"bad sweep spec {spec!r}; expected name=a..b[:step|:*factor]") from exc
    if multiplicative:
        if step < 2:
            raise UsageError("multiplicative sweep factor must be >= 2")
        if low < 1:
            raise UsageError("a multiplicative sweep must start at 1 or above")
        values = []
        v = low
        while v <= high:
            values.append(v)
            v *= step
    else:
        if step < 1:
            raise UsageError("sweep step must be >= 1")
        check_budget(f"sweep {spec!r}", len(range(low, high + 1, step)), "values")
        values = list(range(low, high + 1, step))
    if not values:
        raise UsageError(f"sweep {spec!r} produces no values")
    return name, values


def _check_printable(var: str, values: Sequence[int], denominator: Callable[[int], int]) -> None:
    """Refuse a sweep, before any sum, if a value's exact rational, whose
    denominator is at most `denominator(value)`, may have more digits than
    str() prints (sys.get_int_max_str_digits(); 0 means no limit). The values
    increase, so no denominator past the first one too long is built."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = 10**limit
    for v in values if limit else ():
        if denominator(v) >= bound:
            raise ResourceLimitError(f"{var}={v} gives an exact rational that may exceed the "
                                     f"{limit}-digit limit for printing an integer")


def table_rows(suite: str, sweep: str, theta: Fraction | None = None) -> tuple[list[str], list[list]]:
    """Long-format rows for plot-ready CSV output."""
    var, values = parse_sweep(sweep)
    if suite == "entropy-given-pool":
        if var != "n":
            raise UsageError("entropy-given-pool sweeps over n")
        odd = [n for n in values if n % 2]
        if odd:
            raise UsageError(f"entropy-given-pool needs even n; the sweep gives odd n = {odd}")
        columns = ["check", "n", "theta", "pool_size", "lhs", "rhs", "pass"]
        reports = suite_entropy_pool(ns=values, theta=theta)
        return columns, [
            [r.check, r.params["n"], str(r.params["theta"]), r.params["pool_size"], r.lhs, r.rhs, r.passed]
            for r in reports
        ]
    if theta is not None and suite in SUITES and "theta" not in SUITES[suite].takes:
        raise UsageError(f"suite {suite!r} takes no theta")
    if suite == "majority":
        if var != "B":
            raise UsageError("majority sweeps over B")
        _check_printable("B", values, lambda b: b << (b + 1))
        columns = ["check", "B", "success_num", "success_den", "success"]
        rows = []
        for b in values:
            value = exact_majority_success(b)
            rows.append(["majority-protocol-success", b, value.numerator, value.denominator, float(value)])
        return columns, rows
    if suite == "anticoncentration":
        if var != "t":
            raise UsageError("anticoncentration sweeps over t")
        _check_printable("t", values, lambda t: 1 << t)
        columns = ["check", "t", "c", "probability", "bound", "pass"]
        return columns, [
            [r.check, r.params["t"], str(r.params["c"]), f"{r.lhs.numerator}/{r.lhs.denominator}",
             str(r.rhs), r.passed]
            for r in suite_anticoncentration(ts=values)
        ]
    raise UsageError(f"suite {suite!r} does not support table mode")


# ---------------------------------------------------------------------------
# report emission


def _format_csv_value(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))
    return value


def emit_report(results: Mapping[str, Any], format: str = "json") -> bytes:
    """Serialize a report deterministically; identical inputs give identical bytes."""
    if format == "json":
        return (json_text(results) + "\n").encode()
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        mode = results.get("mode")
        if mode == "simulate":
            writer.writerow(["successes", "trials", "estimate", "ci_halfwidth", "seed"])
            r = results["result"]
            writer.writerow([
                r["successes"], r["trials"],
                _format_csv_value(float(r["estimate"])),
                _format_csv_value(float(r["ci_halfwidth"])), r["seed"],
            ])
        elif mode == "verify":
            writer.writerow(["check", "params", "lhs", "rhs", "relation", "pass", "mode", "tolerance"])
            for entry in results["checks"]:
                writer.writerow([
                    entry["check"], _format_csv_value(entry["params"]),
                    _format_csv_value(entry["lhs"]), _format_csv_value(entry["rhs"]),
                    entry["relation"], entry["pass"], entry["mode"],
                    _format_csv_value(entry["tolerance"]),
                ])
        elif mode == "table":
            writer.writerow(results["columns"])
            for row in results["rows"]:
                writer.writerow([_format_csv_value(v) for v in row])
        else:
            raise UsageError(f"cannot render mode {mode!r} as csv")
        return buffer.getvalue().encode()
    raise UsageError(f"unsupported format {format!r}")


def run_config(config: ExperimentConfig, workers: int | None = None) -> tuple[dict, int]:
    """Execute a config; returns (report payload, exit code)."""
    config.validate()
    payload: dict[str, Any] = {
        "config": config.to_json_dict(),
        "version": __version__,
        "mode": config.mode,
    }
    if config.mode == "simulate":
        est = montecarlo_success_by_name(
            config.protocol["name"],
            config.n,
            config.k,
            dict(config.protocol.get("params", {})),
            config.trials,
            config.seed,
            workers=workers,
        )
        payload["result"] = asdict(est)
        return payload, 0
    if config.mode == "verify":
        reports = run_suite(config.suite, n=config.n, theta=config.theta, seed=config.seed)
        payload["suite"] = config.suite
        payload["checks"] = [r.to_json_dict() for r in reports]
        payload["passed"] = all(r.passed for r in reports)
        payload["counts"] = {
            "total": len(reports),
            "failed": sum(not r.passed for r in reports),
        }
        return payload, 0 if payload["passed"] else 1
    columns, rows = table_rows(config.suite, config.sweep, theta=config.theta)
    payload["suite"] = config.suite
    payload["columns"] = columns
    payload["rows"] = [[to_jsonable(v) for v in row] for row in rows]
    return payload, 0
