import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlab
from chainlab import ExperimentConfig, UsageError, emit_report, info_theory, run_config, run_suite
from chainlab.cli import _build_parser
from chainlab.cli import main as cli_main
from chainlab.errors import InvalidParameterError, ResourceLimitError
from chainlab.experiments import (
    MODE_FIELDS,
    SUITES,
    parse_sweep,
    suite_binomial_bounds,
    sweep_binomial_bounds,
    table_rows,
)
from chainlab.protocols import PROTOCOLS

from util import mutate


class TestConfig:
    def test_simulate_requires_protocol(self):
        config = ExperimentConfig(mode="simulate", n=4, k=1, trials=10)
        with pytest.raises(UsageError):
            config.validate()

    def test_simulate_requires_positive_trials(self):
        config = ExperimentConfig(
            mode="simulate", n=4, k=1, trials=0, protocol={"name": "truncation", "params": {"t": 1}}
        )
        with pytest.raises(UsageError):
            config.validate()

    def test_verify_requires_suite(self):
        with pytest.raises(UsageError):
            ExperimentConfig(mode="verify").validate()

    def test_table_requires_sweep(self):
        with pytest.raises(UsageError):
            ExperimentConfig(mode="table", suite="majority").validate()

    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            ExperimentConfig(mode="explore").validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError, match="seed"):
            ExperimentConfig(mode="verify", suite="pmf", seed=-1).validate()

    def test_field_the_mode_does_not_read_rejected(self):
        with pytest.raises(UsageError, match="seed"):
            ExperimentConfig(mode="table", suite="majority", sweep="B=1..4", seed=5).validate()

    def test_unknown_fields_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict({"mode": "verify", "suite": "pmf", "bogus": 1})

    @pytest.mark.parametrize("data", [
        {"mode": "verify", "suite": "pmf", "seed": None},
        {"mode": "verify", "suite": "pmf", "n": True},
        {"mode": "verify", "suite": "pmf", "theta": "x/y"},
        {"mode": "simulate", "protocol": {"name": "truncation", "params": [2]}},
    ])
    def test_field_types_checked(self, data):
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict(data)

    def test_config_echoed_in_report(self):
        config = ExperimentConfig(mode="verify", suite="majority", seed=4)
        payload, code = run_config(config)
        assert code == 0
        assert payload["config"]["suite"] == "majority"
        assert payload["config"]["seed"] == 4
        assert payload["version"]


class TestSweepParsing:
    def test_range_default_step(self):
        assert parse_sweep("n=4..10") == ("n", [4, 6, 8, 10])
        assert parse_sweep("t=5..7") == ("t", [5, 6, 7])

    def test_explicit_step(self):
        assert parse_sweep("n=4..12:4") == ("n", [4, 8, 12])

    def test_multiplicative(self):
        assert parse_sweep("B=1..8:*2") == ("B", [1, 2, 4, 8])
        assert parse_sweep("t=16..1024:*4") == ("t", [16, 64, 256, 1024])

    @pytest.mark.parametrize("bad", ["n=4", "n=a..b", "4..8", "n=8..4", "n=1..5:x", "n=1..5:0", "n=0..8:*2"])
    def test_bad_specs(self, bad):
        with pytest.raises(UsageError):
            parse_sweep(bad)

    @given(
        st.sampled_from(["n", "t", "B"]),
        st.integers(-20, 60),
        st.integers(-20, 60),
        st.sampled_from(["", ":", ":-1", ":0", ":1", ":3", ":*0", ":*1", ":*2", ":*3"]),
    )
    def test_values_increase_within_range(self, name, low, high, step):
        try:
            parsed_name, values = parse_sweep(f"{name}={low}..{high}{step}")
        except UsageError:
            return
        assert parsed_name == name
        assert all(low <= v <= high for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_oversized_sweep_refused_before_its_list(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as err:
                parse_sweep("B=1..1000000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.required == 10**12
        assert peak < 2**20

    @given(st.text(alphabet="nt=.:*-0123456789x ", max_size=9))
    def test_bad_specs_raise_only_usage_error(self, spec):
        # at most 9 characters keep every parseable range small
        try:
            parse_sweep(spec)
        except UsageError:
            pass


class TestTables:
    def test_entropy_pool_rows(self):
        columns, rows = table_rows("entropy-given-pool", "n=4..8")
        assert columns[0] == "check"
        ns = {row[1] for row in rows}
        assert ns == {4, 6, 8}
        # one row per (n, theta), both signs, the vacuous +-1/2 included
        assert sum(1 for row in rows if row[1] == 4) == 5  # -1/2, -1/6, 0, 1/6, 1/2

    def test_entropy_pool_rows_at_half_bias(self):
        _, rows = table_rows("entropy-given-pool", "n=4..8", theta=Fraction(1, 2))
        assert [(row[1], row[2]) for row in rows] == [(4, "1/2"), (6, "1/2"), (8, "1/2")]
        assert all(row[6] for row in rows)

    def test_majority_rows(self):
        _, rows = table_rows("majority", "B=1..4:*2")
        assert [row[1] for row in rows] == [1, 2, 4]
        assert rows[2][2:4] == [11, 16]

    def test_unsupported_suite(self):
        with pytest.raises(UsageError):
            table_rows("pmf", "n=2..4")

    def test_odd_n_is_a_usage_error(self):
        with pytest.raises(UsageError, match=r"\[3, 5\]"):
            table_rows("entropy-given-pool", "n=3..5")


class TestEmitReport:
    def test_json_deterministic(self):
        config = ExperimentConfig(mode="verify", suite="majority")
        payload, _ = run_config(config)
        assert emit_report(payload, "json") == emit_report(payload, "json")

    def test_json_round_trip(self):
        payload = {"mode": "simulate", "result": {
            "successes": 3, "trials": 4, "estimate": 0.75,
            "ci_halfwidth": 0.4243614734554204, "seed": 1,
        }}
        body = emit_report(payload, "json")
        parsed = json.loads(body)
        assert parsed["result"]["estimate"] == 0.75
        # floats survive at 12 significant digits
        assert parsed["result"]["ci_halfwidth"] == pytest.approx(0.4243614734554204, rel=1e-11)

    def test_simulate_csv_header(self):
        payload = {"mode": "simulate", "result": {
            "successes": 3, "trials": 4, "estimate": 0.75, "ci_halfwidth": 0.42, "seed": 1,
        }}
        lines = emit_report(payload, "csv").decode().splitlines()
        assert lines[0] == "successes,trials,estimate,ci_halfwidth,seed"
        assert lines[1].startswith("3,4,0.75,")

    def test_verify_csv_header(self):
        config = ExperimentConfig(mode="verify", suite="majority")
        payload, _ = run_config(config)
        lines = emit_report(payload, "csv").decode().splitlines()
        assert lines[0] == "check,params,lhs,rhs,relation,pass,mode,tolerance"

    def test_unsupported_format(self):
        with pytest.raises(UsageError):
            emit_report({"mode": "simulate"}, "yaml")


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UsageError):
            run_suite("nope")

    @pytest.mark.parametrize("name,n", [("biased-index-bound", 4), ("default", None)])
    def test_negative_seed_refused_before_any_suite_runs(self, monkeypatch, name, n):
        import chainlab.experiments as experiments

        def never(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(experiments.Suite, "run", never)
        with pytest.raises(UsageError, match="seed"):
            run_suite(name, n=n, seed=-1)

    def test_restricted_to_one_n(self):
        reports = run_suite("distribution-identity", n=4)
        assert {r.params["n"] for r in reports} == {4}
        assert all(r.passed for r in reports)

    def test_restricted_to_one_theta(self):
        reports = run_suite("pmf", n=4, theta=Fraction(1, 6))
        assert len(reports) == 1
        assert reports[0].passed

    def test_default_suite_passes_theta_to_every_suite_that_takes_it(self):
        reports = run_suite("default", theta=Fraction(0), seed=3)
        thetas = {r.params["theta"] for r in reports if "theta" in r.params}
        assert thetas == {0}
        checks = {r.check for r in reports if "theta" in r.params}
        assert {"biased-index-entropy-bound", "augmented-index-entropy-bound",
                "restricted-support-entropy", "conditional-independence"} <= checks

    def test_anticoncentration_suite_reports_the_known_failure(self):
        config = ExperimentConfig(mode="verify", suite="anticoncentration")
        payload, code = run_config(config)
        assert code == 1
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert len(failing) == 1
        assert failing[0]["params"] == {"t": 16, "c": "1/16"}

    def test_binomial_sweep_counts(self):
        assert sweep_binomial_bounds(128, 16) == {
            "checks": 1912, "corrected_failures": 0, "printed_failures": 952, "corrected_failing_examples": [],
        }

    def test_binomial_sweep_counts_see_a_flipped_margin(self, monkeypatch):
        # the lower bound's float margin with its sign flipped reads every
        # lower bound as failing, and decides it in floats
        mutate(monkeypatch, info_theory, "_float_verdicts", "pi_lo - (x - 3)", "(x - 3) - pi_lo")
        with pytest.raises(AssertionError):
            self.test_binomial_sweep_counts()

    def test_binomial_sweeps_that_check_nothing_are_refused(self):
        assert sweep_binomial_bounds(3, 2)["checks"] == 3
        for max_p, points in ((8, 1), (8, 0), (1, 100), (-1, 100)):
            with pytest.raises(InvalidParameterError):
                sweep_binomial_bounds(max_p, points)
        with pytest.raises(InvalidParameterError):
            suite_binomial_bounds(max_p=1)

    def test_reports_reproducible_bit_for_bit(self):
        first = [r.to_json_dict() for r in run_suite("chain-entropy", n=4, seed=7)]
        second = [r.to_json_dict() for r in run_suite("chain-entropy", n=4, seed=7)]
        assert first == second

    def test_default_suite_passes_and_is_fast(self):
        started = time.monotonic()
        config = ExperimentConfig(mode="verify", suite="default", seed=0)
        payload, code = run_config(config)
        elapsed = time.monotonic() - started
        assert code == 0, [c for c in payload["checks"] if not c["pass"]][:3]
        assert payload["passed"]
        assert elapsed < 60


SIMULATE_SMALL = ["simulate", "--protocol", "truncation", "--n", "4", "--k", "1", "--param", "t=2", "--trials", "10"]


class TestCli:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(chainlab.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-m", "chainlab", "--help"], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert "simulate" in run.stdout

    def test_simulate_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "simulate", "--protocol", "truncation", "--n", "4", "--k", "1",
            "--param", "t=2", "--trials", "500", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_bytes())
        assert payload["result"]["trials"] == 500
        assert payload["config"]["protocol"]["params"]["t"] == 2

    def test_same_seed_byte_identical(self, tmp_path):
        args = [
            "simulate", "--protocol", "chained-majority", "--n", "16", "--k", "3",
            "--param", "B=4", "--trials", "3000", "--seed", "9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = [
            "simulate", "--protocol", "chained-majority", "--n", "64", "--k", "2",
            "--param", "B=8", "--trials", "140000", "--seed", "2",
        ]
        a, b = tmp_path / "w1.json", tmp_path / "w2.json"
        assert cli_main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert cli_main(args + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_exit_zero(self, tmp_path):
        out = tmp_path / "verify.json"
        code = cli_main(["verify", "--suite", "distribution-identity", "--n", "4", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_bytes())["passed"] is True

    def test_half_bias_entropy_pool_checks_vacuous_bounds(self, tmp_path):
        out = tmp_path / "half.json"
        assert cli_main(["verify", "--suite", "entropy-given-pool", "--theta", "1/2", "--out", str(out)]) == 0
        checks = json.loads(out.read_bytes())["checks"]
        assert [c["params"]["n"] for c in checks] == [4, 8, 16, 32, 64]
        for c in checks:
            assert (c["check"], c["relation"], c["pass"]) == ("restricted-support-entropy", ">=", True)
            assert c["details"]["vacuous"] is True
            assert c["rhs"] == pytest.approx(-2 * math.log2(c["params"]["n"]))

    def test_negative_theta_with_equals_sign(self, tmp_path):
        # argparse reads a bare "-1/6" as a flag; "--theta=-1/6" is the documented form
        out = tmp_path / "neg.json"
        assert cli_main(["verify", "--suite", "pmf", "--n", "4", "--theta=-1/6", "--out", str(out)]) == 0
        assert [c["params"]["theta"] for c in json.loads(out.read_bytes())["checks"]] == ["-1/6"]

    def test_verify_reports_failure_with_exit_one(self, tmp_path):
        out = tmp_path / "anti.json"
        code = cli_main(["verify", "--suite", "anticoncentration", "--out", str(out)])
        assert code == 1

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert cli_main(["verify", "--suite", "pmf", "--n", "2", "--out", str(out)]) == 2
        assert f"usage error: cannot write {out}" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        assert cli_main(["simulate", "--n", "4", "--k", "1", "--trials", "10"]) == 2

    def test_default_suite_with_n_exit_two(self):
        assert cli_main(["verify", "--suite", "default", "--n", "3"]) == 2

    @pytest.mark.parametrize("args", [
        ["--suite", "majority", "--n", "4"],
        ["--suite", "anticoncentration", "--theta", "1/4"],
    ])
    def test_option_the_suite_does_not_take_exit_two(self, args):
        assert cli_main(["verify", *args]) == 2

    @pytest.mark.parametrize("args", [
        ["table", "--suite", "majority", "--sweep", "B=1..4:*2", "--seed", "5"],
        ["verify", "--suite", "pmf", "--n", "4", "--workers", "2"],
        ["verify", "--suite", "pmf", "--seed", "5"],
        ["verify", "--suite", "anticoncentration", "--seed", "3"],
    ])
    def test_option_nothing_reads_exit_two(self, args):
        # argparse rejects a flag the subcommand lacks; main returns its code 2
        assert cli_main(args) == 2

    def test_help_exit_zero(self, capsys):
        assert cli_main(["verify", "--help"]) == 0
        assert "--suite" in capsys.readouterr().out

    @pytest.mark.parametrize("args,field", [
        (["verify", "--suite", "pmf", "--n", "4"], {"k": 3}),
        (["verify", "--suite", "pmf", "--n", "4"], {"sweep": "n=4..8"}),
        (SIMULATE_SMALL, {"suite": "pmf"}),
        (SIMULATE_SMALL, {"theta": "1/4"}),
        (["table", "--suite", "majority", "--sweep", "B=1..4"], {"seed": 5}),
        (["table", "--suite", "majority", "--sweep", "B=1..4"], {"n": 4}),
    ])
    def test_config_field_the_mode_does_not_read_exit_two(self, tmp_path, args, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(field))
        assert cli_main(args + ["--out", str(tmp_path / "report")]) == 0
        assert cli_main(args + ["--config", str(config_path)]) == 2

    def test_odd_n_pool_table_exit_two(self):
        assert cli_main(["table", "--suite", "entropy-given-pool", "--sweep", "n=3..5"]) == 2

    def test_theta_on_majority_table_exit_two(self):
        assert cli_main(["table", "--suite", "majority", "--sweep", "B=1..4:*2", "--theta", "1/4"]) == 2

    def test_bad_theta_exit_two(self):
        assert cli_main(["verify", "--suite", "pmf", "--n", "4", "--theta", "x/y"]) == 2

    def test_off_grid_theta_exit_two(self):
        assert cli_main(["verify", "--suite", "pmf", "--n", "4", "--theta", "1/5"]) == 2

    def test_resource_error_exit_three(self, monkeypatch):
        import chainlab.cli as cli_module

        def boom(config, workers=None):
            raise ResourceLimitError("too big", required=10**9, budget=10**7)

        monkeypatch.setattr(cli_module, "run_config", boom)
        assert cli_module.main(["verify", "--suite", "pmf"]) == 3

    @pytest.mark.parametrize("suite", ["biased-index-bound", "aug-biased-index-bound"])
    def test_biased_index_over_budget_exit_three_at_once(self, suite, tmp_path):
        # C(22, 11) * 22 = 15,519,504 cells: refused before any table is built
        start = time.perf_counter()
        assert cli_main(["verify", "--suite", suite, "--n", "22", "--out", str(tmp_path / "report")]) == 3
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("suite", ["conditional-independence", "distribution-identity"])
    def test_structured_grid_over_budget_exit_three_at_once(self, suite, tmp_path):
        # at n=16, theta = -1/6 needs C(16, 12) * C(12, 8) * 12 = 10,810,800
        # points: every theta is checked before the feasible ones enumerate
        start = time.perf_counter()
        assert cli_main(["verify", "--suite", suite, "--n", "16", "--out", str(tmp_path / "report")]) == 3
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("suite,sweep", [("anticoncentration", "t=16384..16384:*2"),
                                             ("majority", "B=16384..16384:*2")])
    def test_table_past_the_integer_print_limit_exit_three_at_once(self, suite, sweep, tmp_path):
        # 2^16384 has 4933 digits, past the default limit of 4300 that str(int) prints
        start = time.perf_counter()
        assert cli_main(["table", "--suite", suite, "--sweep", sweep, "--out", str(tmp_path / "table")]) == 3
        assert time.perf_counter() - start < 1

    def test_table_within_the_integer_print_limit_runs(self, tmp_path):
        out = tmp_path / "table.csv"
        assert cli_main(["table", "--suite", "anticoncentration", "--sweep", "t=8192..8192:*2",
                         "--format", "csv", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_unexpected_error_exit_four(self, monkeypatch):
        import chainlab.cli as cli_module

        def boom(config, workers=None):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli_module, "run_config", boom)
        assert cli_module.main(["verify", "--suite", "pmf"]) == 4

    def test_bad_param_value_exit_two(self):
        assert cli_main([
            "simulate", "--protocol", "chained-majority", "--n", "64", "--k", "3",
            "--param", "B=x", "--trials", "10",
        ]) == 2

    def test_repeated_param_key_exit_two(self, tmp_path):
        args = ["simulate", "--protocol", "truncation", "--n", "4", "--k", "2", "--trials", "10"]
        assert cli_main(args + ["--param", "t=3", "--out", str(tmp_path / "once.json")]) == 0
        assert cli_main(args + ["--param", "t=2", "--param", "t=3"]) == 2
        assert cli_main(args + ["--param", "t=3", "--param", "t=3"]) == 2

    @pytest.mark.parametrize("protocol,param", [
        ("chained-majority", "B=64"), ("truncation", "t=8"), ("trivial-forward", "mode=all"),
    ])
    def test_k_zero_exit_two_on_both_engine_paths(self, protocol, param):
        # chained-majority and truncation run as batch kernels, trivial-forward on the generic engine
        assert cli_main([
            "simulate", "--protocol", protocol, "--n", "64", "--k", "0",
            "--param", param, "--trials", "10",
        ]) == 2

    @pytest.mark.parametrize("protocol,param", [
        ("chained-majority", "B=64"), ("truncation", "t=8"), ("trivial-forward", "mode=all"),
    ])
    def test_negative_seed_exit_two_on_both_engine_paths(self, protocol, param):
        assert cli_main([
            "simulate", "--protocol", protocol, "--n", "64", "--k", "3",
            "--param", param, "--trials", "100", "--seed", "-1",
        ]) == 2

    def test_negative_seed_on_default_verify_exit_two(self):
        assert cli_main(["verify", "--seed", "-1"]) == 2

    def test_named_majority_suite_runs_its_seeded_montecarlo(self, tmp_path):
        successes = {}
        for seed in (0, 5):
            out = tmp_path / f"majority-{seed}.json"
            assert cli_main(["verify", "--suite", "majority", "--seed", str(seed), "--out", str(out)]) == 0
            checks = json.loads(out.read_bytes())["checks"]
            (mc,) = [c for c in checks if c["check"] == "majority-montecarlo"]
            assert mc["params"]["seed"] == seed
            successes[seed] = mc["details"]["successes"]
        assert successes[0] != successes[5]

    def test_named_independence_suite_takes_no_seed(self, tmp_path):
        out = tmp_path / "independence.json"
        assert cli_main(["verify", "--suite", "conditional-independence", "--seed", "3"]) == 2
        assert cli_main(["verify", "--suite", "conditional-independence", "--theta", "1/6", "--out", str(out)]) == 0
        (check,) = json.loads(out.read_bytes())["checks"]
        assert check["params"] == {"n": 4, "theta": "1/6"}

    def test_negative_seed_on_majority_verify_exit_two(self):
        assert cli_main(["verify", "--suite", "majority", "--seed", "-1"]) == 2

    @pytest.mark.parametrize("protocol,param", [("chained-majority", "B=64"), ("trivial-forward", "mode=all")])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exit_two(self, capsys, protocol, param, workers):
        assert cli_main([
            "simulate", "--protocol", protocol, "--n", "64", "--k", "3",
            "--param", param, "--trials", "100", "--workers", workers,
        ]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("param", [[], ["--param", "B=x"], ["--param", "B=1.5"]], ids=["missing", "text", "decimal"])
    def test_index_majority_at_k3_names_k_exit_two(self, capsys, param):
        assert cli_main(["simulate", "--protocol", "index-majority", "--n", "64", "--k", "3", *param,
                         "--trials", "100"]) == 2
        assert "single-instance protocol, got k=3" in capsys.readouterr().err

    # Flags are drawn mostly valid, so that many examples reach an engine path
    # with one junk value (a negative seed, a junk --workers) among them.
    @given(
        st.sampled_from([("trivial-forward", "mode", ["all", "last-only"]), ("sampled-bits", "m", ["1", "4"]),
                         ("index-majority", "B", ["1", "4"]), ("chained-majority", "B", ["1", "4", "64"]),
                         ("truncation", "t", ["1", "4"]), ("no-such-protocol", "B", ["4"])]),
        st.sampled_from([False, False, False, True]),
        st.data(),
        st.one_of(st.just(64), st.sampled_from([2, 4, 6, 8, 10]), st.integers(-2, 10)),
        st.one_of(st.integers(1, 4), st.integers(-1, 4)),
        st.integers(0, 200),
        st.integers(-5, 5),
        st.sampled_from([None, "1", "2", "0", "abc", "1.5"]),
    )
    @settings(max_examples=500)
    def test_simulate_fuzz_exits_with_a_documented_code(self, protocol, junk_key, data, n, k, trials, seed, workers):
        # trials <= 200 keep every batch kernel to one batch, so no process pool starts
        name, key, valid = protocol
        value = data.draw(st.one_of(
            st.sampled_from(valid), st.integers(-3, 70).map(str), st.sampled_from(["x", "", "1.5", "all"])))
        args = [
            "simulate", "--protocol", name, "--param", f"{'x' if junk_key else key}={value}",
            "--n", str(n), "--k", str(k), "--trials", str(trials), "--seed", str(seed),
            *([] if workers is None else ["--workers", workers]),
        ]
        assert cli_main(args) in (0, 1, 2, 3)

    def test_config_field_type_exit_two(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": "4"}))
        assert cli_main(["verify", "--suite", "pmf", "--config", str(config_path)]) == 2

    def test_config_protocol_key_nothing_reads_exit_two(self, tmp_path):
        protocol = {"name": "truncation", "params": {"t": 2}}
        config_path = tmp_path / "config.json"
        args = ["simulate", "--n", "4", "--k", "1", "--trials", "10", "--config", str(config_path)]
        config_path.write_text(json.dumps({"protocol": protocol}))
        assert cli_main(args + ["--out", str(tmp_path / "report")]) == 0
        config_path.write_text(json.dumps({"protocol": {**protocol, "junk": 1}}))
        assert cli_main(args) == 2

    def test_config_list_exit_two(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps([{"n": 4}]))
        assert cli_main(["verify", "--suite", "pmf", "--config", str(config_path)]) == 2

    def test_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "mode": "simulate", "n": 4, "k": 1, "trials": 200, "seed": 1,
            "protocol": {"name": "trivial-forward", "params": {}},
        }))
        out = tmp_path / "out.json"
        code = cli_main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_bytes())["result"]["estimate"] == 1.0

    @pytest.mark.parametrize("subcommand,config", [
        ("verify", {"mode": "table", "suite": "majority", "sweep": "B=1..2"}),
        ("simulate", {"mode": "verify", "suite": "pmf", "n": 2}),
    ])
    def test_config_file_mode_other_than_subcommand_exit_two(self, tmp_path, capsys, subcommand, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main([subcommand, "--config", str(config_path)]) == 2
        assert "subcommand" in capsys.readouterr().err

    # an unseeded suite refuses any --seed, a negative one too
    @pytest.mark.parametrize("suite", sorted(name for name, s in SUITES.items() if "seed" in s.takes)
                             + ["conditional-independence", "default"])
    def test_negative_seed_refused_before_any_suite_runs(self, monkeypatch, suite):
        import chainlab.experiments as experiments

        def never(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(experiments, "run_suite", never)
        assert cli_main(["verify", "--suite", suite, "--seed", "-1"]) == 2

    @pytest.mark.parametrize("protocol,n,k,params", [
        ("truncation", 10**12, 1, ["--param", "t=1"]),
        ("truncation", 2**80, 1, ["--param", "t=1"]),
        ("trivial-forward", 64, 10**6, []),
    ])
    def test_trial_over_cell_budget_exit_three_at_once(self, capsys, protocol, n, k, params):
        start = time.perf_counter()
        assert cli_main(["simulate", "--protocol", protocol, "--n", str(n), "--k", str(k), *params,
                         "--trials", "1"]) == 3
        assert time.perf_counter() - start < 5
        assert "string cells" in capsys.readouterr().err

    def test_trial_over_player_budget_exit_three_before_protocol_is_built(self, monkeypatch, capsys):
        # 2 * 10^7 players: trivial-forward's declared lengths alone would be a 160 MB tuple
        import chainlab.montecarlo as montecarlo

        def never(*args, **kwargs):
            raise AssertionError("the protocol was built")

        monkeypatch.setattr(montecarlo, "build_protocol", never)
        assert cli_main(["simulate", "--protocol", "trivial-forward", "--n", "64", "--k", str(2 * 10**7),
                         "--trials", "1"]) == 3
        assert "players" in capsys.readouterr().err

    def test_majority_kernel_takes_no_cell_budget(self, tmp_path):
        # the reduced form draws no strings, so n = 10^12 costs one word per player
        out = tmp_path / "report.json"
        assert cli_main(["simulate", "--protocol", "chained-majority", "--n", str(10**12), "--k", "1",
                         "--param", "B=64", "--trials", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["result"]["trials"] == 1

    def test_config_file_flag_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "mode": "simulate", "n": 4, "k": 1, "trials": 200, "seed": 1,
            "protocol": {"name": "trivial-forward", "params": {}},
        }))
        out = tmp_path / "out.json"
        code = cli_main(["simulate", "--config", str(config_path), "--trials", "50", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_bytes())["result"]["trials"] == 50

    def test_table_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        code = cli_main([
            "table", "--suite", "anticoncentration", "--sweep", "t=16..64:*4",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,t,c,probability,bound,pass"
        assert len(lines) == 9


class TestDrift:
    """The parser, the mode table and the README name the same options."""

    def test_every_config_flag_is_a_field_its_mode_reads(self):
        parser = _build_parser()
        (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        names = {f.name for f in fields(ExperimentConfig)}
        assert set(commands) == set(MODE_FIELDS)
        for command, sub in commands.items():
            flags = {a.dest: a.option_strings for a in sub._actions if a.dest in names}
            assert set(flags) == {*MODE_FIELDS[command], "out", "format"}, command
            if "protocol" in flags:
                assert flags["protocol"] == ["--protocol"]

    @staticmethod
    def _readme_names(label: str, end: str = ".") -> set[str]:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listing = readme.split(label, 1)[1].split(end, 1)[0]
        return set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", listing)))

    def test_readme_lists_every_suite_and_protocol(self):
        assert self._readme_names("Suites:") == {*SUITES, "default"}
        assert self._readme_names("Protocols:") == set(PROTOCOLS)

    def test_readme_lists_the_seeded_suites(self):
        seeded = {name for name, suite in SUITES.items() if "seed" in suite.takes} | {"default"}
        assert self._readme_names("The seeded suites are", end=";") == seeded
