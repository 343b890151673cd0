"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Exact checks use rational arithmetic with zero tolerance;
entropy comparisons use the package-wide 1e-9 bit tolerance.
"""
import json
import math
import time
from fractions import Fraction

from chainlab import (
    bias_grid,
    exact_majority_success,
    majority_vote_success,
    verify_entropy_given_pool,
)
from chainlab.cli import main as cli_main
from chainlab.experiments import (
    suite_biased_index,
    suite_chain_entropy,
    suite_distribution_identity,
    suite_pmf,
    sweep_binomial_bounds,
)
from chainlab.info_theory import binomial_anticoncentration
from chainlab.montecarlo import montecarlo_success_by_name
from chainlab.oracle import enumerated_majority_success, sweep_entropy_given_pool

IDENTITY_SIZES = (2, 4, 6, 8)


def _line(cid: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_c01_distribution_identity():
    started = time.monotonic()
    reports = suite_distribution_identity(ns=IDENTITY_SIZES)
    elapsed = time.monotonic() - started
    ok = all(r.passed and r.lhs == 0 for r in reports)
    thetas = sum(len(bias_grid(n)) for n in IDENTITY_SIZES)
    _line("C01 distribution identity", ok and elapsed < 30,
          f"{len(reports)} (n, theta) pairs over {thetas} grid points, exact TV all 0, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def test_c02_exact_pmf():
    reports = suite_pmf(ns=IDENTITY_SIZES)
    ok = all(r.passed for r in reports)
    cells = sum(r.details["cells"] for r in reports)
    _line("C02 exact pmf", ok, f"{cells} cells across {len(reports)} tables, exact equality")
    assert ok


def test_c03_biased_index_bound():
    started = time.monotonic()
    reports = suite_biased_index(ns=(4, 6, 8), lengths=(1, 2, 3), functions=100, seed=0)
    elapsed = time.monotonic() - started
    proof_ok = all(r.details["proof_pass"] for r in reports)
    stated_rate = sum(bool(r.details["stated_pass"]) for r in reports) / len(reports)
    _line("C03 biased index bound", proof_ok and elapsed < 600,
          f"{len(reports)} cases, proof-form all hold, stated-form pass rate "
          f"{stated_rate:.4f}, {elapsed:.1f}s")
    assert proof_ok
    assert elapsed < 600


def test_c04_augmented_index_bound():
    reports = suite_biased_index(ns=(4, 6, 8), lengths=(1, 2, 3), functions=100, seed=0, aug=True)
    proof_ok = all(r.details["proof_pass"] for r in reports)
    slacks = [r.details["slack_proof"] for r in reports]
    by_n: dict = {}
    for r in reports:
        by_n.setdefault(r.params["n"], []).append(r.details["slack_proof"])
    table = "; ".join(
        f"n={n}: min {min(v):.4f}, mean {sum(v)/len(v):.4f}, max {max(v):.4f}"
        for n, v in sorted(by_n.items())
    )
    _line("C04 augmented index bound", proof_ok,
          f"{len(reports)} cases, proof-form all hold; slack {table}")
    assert proof_ok
    assert min(slacks) >= 0


def test_c05_chain_entropy_accounting():
    reports = suite_chain_entropy(ns=(4, 6), ks=(1, 2), random_protocols=50, seed=0)
    bound_reports = [r for r in reports if r.check == "chain-entropy-accounting"]
    fano_reports = [r for r in reports if r.check == "answer-entropy-fano"]
    bounds_ok = all(r.details["stated_pass"] and r.details["proof_pass"] for r in bound_reports)
    fano_ok = all(r.passed for r in fano_reports)
    _line("C05 chain entropy accounting", bounds_ok and fano_ok,
          f"{len(bound_reports)} protocols, both bound forms hold; "
          f"{len(fano_reports)} better-than-even protocols within the estimator ceiling")
    assert bounds_ok
    assert fano_ok


def test_c06_majority_protocol():
    equalities = {b: exact_majority_success(b) == enumerated_majority_success(12, b) for b in (1, 2, 4)}
    sixteen = exact_majority_success(4) == enumerated_majority_success(16, 4)
    value4 = exact_majority_success(4)
    floor64 = Fraction(1, 2) + Fraction(1, 8) * Fraction(1, 8)
    value64 = exact_majority_success(64)
    est = montecarlo_success_by_name("index-majority", 64, 1, {"B": 4}, 10**6, seed=606)
    exact4 = float(value4)
    se = math.sqrt(exact4 * (1 - exact4) / est.trials)
    mc_ok = abs(est.estimate - exact4) <= 5 * se
    ok = all(equalities.values()) and sixteen and value4 == Fraction(11, 16) and value64 >= floor64 and mc_ok
    _line("C06 block-majority protocol", ok,
          f"formula==enumeration at n=12 (B=1,2,4) and n=16 (B=4); B=4 exact 11/16; "
          f"MC 1e6 trials estimate {est.estimate:.5f} within 5se of {exact4}; "
          f"B=64 exact {float(value64):.6f} >= {float(floor64):.6f}")
    assert ok


def test_c07_anticoncentration():
    failing = []
    cells = 0
    for t in (16, 64, 256, 1024):
        for c in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            result = binomial_anticoncentration(t, c)
            cells += 1
            if not result.passed:
                failing.append((t, c, result.probability))
    detail = f"{cells - len(failing)}/{cells} cells satisfy the 2c bound"
    if failing:
        worst = ", ".join(
            f"t={t} c={c}: exact {p.numerator}/{p.denominator} = {float(p):.4f} > {float(2 * c)}"
            for t, c, p in failing
        )
        detail += f"; violations: {worst} (central binomial mass exceeds the bound at small t)"
    _line("C07 anticoncentration", not failing, detail)
    assert not failing, detail


def test_c08_binomial_entropy_bounds():
    summary = sweep_binomial_bounds(max_p=1024, points=100)
    ok = summary["corrected_failures"] == 0
    _line("C08 binomial entropy bounds", ok,
          f"{summary['checks']} exact checks, corrected form 0 failures; "
          f"printed-form failures reported (not asserted): {summary['printed_failures']}")
    assert ok


def test_c09_entropy_given_pool():
    started = time.monotonic()
    checks, failures, min_slack = sweep_entropy_given_pool(4096)
    # the negative branch mirrors the positive one; verify that explicitly on
    # both code paths, including the vacuous endpoint
    mirror_ok = True
    for n in (4, 6, 8, 16, 64, 128):
        for theta in bias_grid(n):
            if theta >= Fraction(1, 2):
                continue
            pos = verify_entropy_given_pool(n, abs(theta))
            neg = verify_entropy_given_pool(n, -abs(theta))
            mirror_ok &= pos.lhs == neg.lhs and pos.rhs == neg.rhs and neg.passed
    elapsed = time.monotonic() - started
    ok = failures == 0 and mirror_ok and elapsed < 60
    _line("C09 restricted-support entropy", ok,
          f"{checks} exact log-binomial checks for even n<=4096, 0 failures, "
          f"min slack {min_slack:.3f} bits, sign-mirror verified, {elapsed:.1f}s")
    assert failures == 0
    assert mirror_ok
    assert elapsed < 60


def test_c10_non_accumulation():
    q = exact_majority_success(64)
    details = []
    ok = True
    for k in (9, 25, 49):
        exact = float(majority_vote_success(k, q))
        est = montecarlo_success_by_name("chained-majority", 64, k, {"B": 64}, 10**6, seed=1000 + k)
        se = math.sqrt(exact * (1 - exact) / est.trials)
        in_band = 0.5 <= est.estimate <= 0.5 + 2 / math.sqrt(k)
        near_oracle = abs(est.estimate - exact) <= 5 * se
        ok &= in_band and near_oracle
        details.append(f"k={k}: {est.estimate:.4f} (oracle {exact:.4f}, cap {0.5 + 2 / math.sqrt(k):.4f})")
    _line("C10 non-accumulating advantage", ok, "; ".join(details))
    assert ok


def test_c11_determinism(tmp_path):
    verify_args = ["verify", "--suite", "majority", "--seed", "3"]
    a, b = tmp_path / "v1.json", tmp_path / "v2.json"
    assert cli_main(verify_args + ["--out", str(a)]) == 0
    assert cli_main(verify_args + ["--out", str(b)]) == 0
    verify_same = a.read_bytes() == b.read_bytes()

    sim_args = [
        "simulate", "--protocol", "chained-majority", "--n", "64", "--k", "3",
        "--param", "B=64", "--trials", "200000", "--seed", "8",
    ]
    s1, s2, s4 = (tmp_path / f"s{i}.json" for i in (1, 2, 4))
    assert cli_main(sim_args + ["--workers", "1", "--out", str(s1)]) == 0
    assert cli_main(sim_args + ["--workers", "2", "--out", str(s2)]) == 0
    assert cli_main(sim_args + ["--workers", "4", "--out", str(s4)]) == 0
    sim_same = s1.read_bytes() == s2.read_bytes() == s4.read_bytes()

    generic_args = [
        "simulate", "--protocol", "truncation", "--n", "4", "--k", "2",
        "--param", "t=2", "--trials", "4000", "--seed", "8",
    ]
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert cli_main(generic_args + ["--workers", "1", "--out", str(g1)]) == 0
    assert cli_main(generic_args + ["--workers", "2", "--out", str(g2)]) == 0
    generic_same = g1.read_bytes() == g2.read_bytes()

    ok = verify_same and sim_same and generic_same
    estimate = json.loads(s1.read_bytes())["result"]["estimate"]
    _line("C11 determinism", ok,
          f"verify and simulate reports byte-identical across repeats and worker "
          f"counts 1/2/4 (majority-vote estimate {estimate})")
    assert ok
