"""Command line interface.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 enumeration budget
exceeded, 4 internal error (an unexpected exception, i.e. a bug). Reports go
to --out or stdout; wall time goes to stderr so report bytes depend only on
(config, seed).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import fields

from .errors import InvalidParameterError, ResourceLimitError, UsageError
from .experiments import ExperimentConfig, emit_report, run_config

# argparse reads "-1/6" as a flag, so a negative bias is given with "="
THETA_HELP = "bias as a rational, e.g. 1/6; write a negative one as --theta=-1/6"


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param expects KEY=VAL, got {pair!r}")
        key, value = pair.split("=", 1)
        if key in params:
            raise UsageError(f"--param {key} given more than once")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object, got {type(data).__name__}")
    return data


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlab",
        description="Simulate and exactly verify chained-index blackboard protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; explicit flags override it")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=None)

    verify = sub.add_parser("verify", parents=[common], help="run an exact verification suite")
    verify.add_argument("--suite", default=None, help="suite name (default: 'default')")
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--theta", default=None, help=THETA_HELP)
    verify.add_argument("--seed", type=int, default=None)

    simulate = sub.add_parser("simulate", parents=[common], help="Monte Carlo protocol success")
    simulate.add_argument("--protocol", default=None)
    simulate.add_argument("--n", type=int, default=None)
    simulate.add_argument("--k", type=int, default=None)
    simulate.add_argument("--trials", type=int, default=None)
    simulate.add_argument("--param", action="append", default=[], metavar="KEY=VAL")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: every core this process may use)")

    table = sub.add_parser("table", parents=[common], help="plot-ready long-format tables")
    table.add_argument("--suite", default=None)
    table.add_argument("--sweep", default=None, help="e.g. n=4..64, B=1..64:*2, t=16..1024:*4")
    table.add_argument("--theta", default=None, help=THETA_HELP)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        data = _load_config_file(args.config)
    if data.setdefault("mode", args.command) != args.command:
        raise UsageError(f"the config file's mode {data['mode']!r} is not the subcommand {args.command!r}")
    names = {f.name for f in fields(ExperimentConfig)}
    data.update((key, value) for key, value in vars(args).items() if key in names and value is not None)
    if args.command == "verify":
        data.setdefault("suite", "default")
    elif args.command == "simulate":
        if args.protocol is not None:
            data["protocol"] = {"name": args.protocol, "params": _parse_params(args.param)}
        elif args.param:
            raise UsageError("--param requires --protocol")
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad flag, 0 after --help
        return exc.code
    try:
        config = _config_from_args(args)
        started = time.monotonic()
        payload, code = run_config(config, workers=getattr(args, "workers", None))
        elapsed = time.monotonic() - started
        body = emit_report(payload, config.format)
        if config.out:
            try:
                with open(config.out, "wb") as fh:
                    fh.write(body)
            except OSError as exc:
                raise UsageError(f"cannot write {config.out}: {exc.strerror}") from exc
        else:
            sys.stdout.buffer.write(body)
            sys.stdout.buffer.flush()
        print(f"chainlab {config.mode} finished in {elapsed:.2f}s", file=sys.stderr)
        return code
    except (UsageError, InvalidParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in chainlab, not a failed check", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
