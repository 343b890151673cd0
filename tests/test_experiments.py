import json
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainlab import ExperimentConfig, UsageError, emit_report, run_config, run_suite
from chainlab.cli import main as cli_main
from chainlab.errors import ResourceLimitError
from chainlab.experiments import parse_sweep, table_rows


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
        # one row per (n, theta below half), both signs
        assert sum(1 for row in rows if row[1] == 4) == 3  # -1/6, 0, 1/6

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

    def test_restricted_to_one_n(self):
        reports = run_suite("distribution-identity", n=4)
        assert {r.params["n"] for r in reports} == {4}
        assert all(r.passed for r in reports)

    def test_restricted_to_one_theta(self):
        reports = run_suite("pmf", n=4, theta=Fraction(1, 6))
        assert len(reports) == 1
        assert reports[0].passed

    def test_anticoncentration_suite_reports_the_known_failure(self):
        config = ExperimentConfig(mode="verify", suite="anticoncentration")
        payload, code = run_config(config)
        assert code == 1
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert len(failing) == 1
        assert failing[0]["params"] == {"t": 16, "c": "1/16"}

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


class TestCli:
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

    def test_verify_reports_failure_with_exit_one(self, tmp_path):
        out = tmp_path / "anti.json"
        code = cli_main(["verify", "--suite", "anticoncentration", "--out", str(out)])
        assert code == 1

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

    @pytest.mark.parametrize("protocol,param", [("chained-majority", "B=64"), ("truncation", "t=8")])
    def test_k_zero_exit_two_on_both_engine_paths(self, protocol, param):
        # chained-majority runs on the vectorized kernel, truncation on the generic engine
        assert cli_main([
            "simulate", "--protocol", protocol, "--n", "64", "--k", "0",
            "--param", param, "--trials", "10",
        ]) == 2

    def test_config_field_type_exit_two(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": "4"}))
        assert cli_main(["verify", "--suite", "pmf", "--config", str(config_path)]) == 2

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
