"""Golden report bytes: the sha256 of each CLI report is pinned.

Refactors that promise byte-identical reports are checked against these
digests. A digest changes only when a report's content is meant to change;
such a change must be recorded in CHANGES.md together with the new digest.
"""
import hashlib

import pytest

from chainlab.cli import main as cli_main

GOLDEN = {
    "verify-default": (
        ["verify", "--suite", "default", "--seed", "3"],
        "d4109756d029078de8794e51d97553a3a2bb4b9fb016981d5246ee19dd7974ea",
    ),
    "verify-default-theta0": (
        ["verify", "--suite", "default", "--theta", "0", "--seed", "3"],
        "c5c2686ff4166f7fe224705fb93cb91b09ce7da18fcc77c163bf4ec33ebb3c18",
    ),
    # the named suite runs the same sampled check as the default suite, with its own seed
    "verify-conditional-independence": (
        ["verify", "--suite", "conditional-independence", "--seed", "3"],
        "b3112c8fd9499af35076d7b54a96fe712b33448a6d549f81a232714c2bdb0e1c",
    ),
    "verify-pmf-n4": (
        ["verify", "--suite", "pmf", "--n", "4"],
        "f85e1e8d501cc155c3e32ae1d12c6b085abb665fb5362e41fba53186bafd6c81",
    ),
    "verify-chain-entropy-n4": (
        ["verify", "--suite", "chain-entropy", "--n", "4"],
        "4cb31eee409996684abeb71d8a3f60fca5f109a65cc5896090111d8d5e84a4f7",
    ),
    "verify-biased-index-bound-n4": (
        ["verify", "--suite", "biased-index-bound", "--n", "4"],
        "1baf39bd56d454711c6621ce88711f492ec4f61bbaeb2636a699973eeec2958b",
    ),
    # s = 3, the augmented suite on its own and chain accounting at n = 6
    "verify-biased-index-bound-n6": (
        ["verify", "--suite", "biased-index-bound", "--n", "6", "--seed", "3"],
        "4f3a0718dbe3fab7d016509330549d6e1a815a6358276b2d3c5dfd737d64c9fe",
    ),
    "verify-aug-biased-index-bound-n6": (
        ["verify", "--suite", "aug-biased-index-bound", "--n", "6", "--seed", "3"],
        "7eba0ba7e2b9fcd8c7d561e4347dea9f6a6f1510a3ae55cea747701f7a5d2e3e",
    ),
    "verify-chain-entropy-n6": (
        ["verify", "--suite", "chain-entropy", "--n", "6", "--seed", "3"],
        "34e8b8efbc4ffef708c75bb2434158fe78dad4c47211b47023a5d5e99bba11fd",
    ),
    # batch kernels: chained-majority (reduced form), truncation, sampled-bits
    "simulate-chained-majority": (
        ["simulate", "--protocol", "chained-majority", "--n", "64", "--k", "3",
         "--param", "B=64", "--trials", "20000"],
        "26f51c149cd1d74d7f83067727025fd3cc663138681323d7e713423669fff3d3",
    ),
    "simulate-truncation": (
        ["simulate", "--protocol", "truncation", "--n", "4", "--k", "2",
         "--param", "t=2", "--trials", "4000"],
        "62af9b5479fa320ef97eabd68cadb448e2fca5a40340cbef6392f6f8199562c4",
    ),
    "simulate-sampled-bits": (
        ["simulate", "--protocol", "sampled-bits", "--n", "16", "--k", "4",
         "--param", "m=4", "--trials", "20000"],
        "f2963d74757124419947dadac598d517cec2f74ed372c06ae3ed6b4cf506e51c",
    ),
    # the engine on sampled batches (B > 64 has no kernel)
    "simulate-generic-chained-majority": (
        ["simulate", "--protocol", "chained-majority", "--n", "128", "--k", "3",
         "--param", "B=128", "--trials", "500"],
        "3703a39e71df0d6d2a8d4abaab0833745a21fb34fb638d8108dea6c641ba8f78",
    ),
    "table-entropy-given-pool": (
        ["table", "--suite", "entropy-given-pool", "--sweep", "n=4..16", "--format", "csv"],
        "caacdcd7283e6eaa860bb3df048b7f4c97ecdef5c3d43c66c27e8a1c78d8a616",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden_digest(name, tmp_path):
    args, digest = GOLDEN[name]
    out = tmp_path / "report"
    assert cli_main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
