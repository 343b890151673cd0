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
        "642152d793c25bcdd831bf027fc070f40a1cc152eac15fb555b995556df78ac3",
    ),
    "verify-default-theta0": (
        ["verify", "--suite", "default", "--theta", "0", "--seed", "3"],
        "a273d174233a6c641ae2a4b8e547b05bd37ad72c168e289378bca6422a8de2fe",
    ),
    # the named suite runs the exact check of the default suite at its preset n = 4; it takes no seed
    "verify-conditional-independence": (
        ["verify", "--suite", "conditional-independence"],
        "2f5a979ac1d300878e6734cd387e80de2864a7601db185e072e999531da85dea",
    ),
    "verify-pmf-n4": (
        ["verify", "--suite", "pmf", "--n", "4"],
        "f85e1e8d501cc155c3e32ae1d12c6b085abb665fb5362e41fba53186bafd6c81",
    ),
    "verify-chain-entropy-n4": (
        ["verify", "--suite", "chain-entropy", "--n", "4"],
        "7950a23e4397a7e30078f4313304cbf6a4a23c75ee4f96234ae84958cea790af",
    ),
    "verify-biased-index-bound-n4": (
        ["verify", "--suite", "biased-index-bound", "--n", "4"],
        "c25e6c727fbc1ee4d95f3a027856edc49762946348b35f784904881501cd7fb3",
    ),
    # s = 3, the augmented suite on its own and chain accounting at n = 6
    "verify-biased-index-bound-n6": (
        ["verify", "--suite", "biased-index-bound", "--n", "6", "--seed", "3"],
        "f3122477a8ed8939a9a692678f456d1cc9e27ea44d68f35a397fd7b63598870f",
    ),
    "verify-aug-biased-index-bound-n6": (
        ["verify", "--suite", "aug-biased-index-bound", "--n", "6", "--seed", "3"],
        "842b001de23bb03d8d47c6874ae770ada34cd72d3ed48da354e274a572c608da",
    ),
    "verify-chain-entropy-n6": (
        ["verify", "--suite", "chain-entropy", "--n", "6", "--seed", "3"],
        "d81f4320d95b86b41fe3f61140b78f5a7c1164ec48d82ff96dba133053d2829c",
    ),
    # batch kernels: chained-majority (reduced form), truncation, sampled-bits
    "simulate-chained-majority": (
        ["simulate", "--protocol", "chained-majority", "--n", "64", "--k", "3",
         "--param", "B=64", "--trials", "20000"],
        "8d73177c6cbe9824b908e846b0dfadff18dffec72c5c8c6052fd035db8068e03",
    ),
    "simulate-truncation": (
        ["simulate", "--protocol", "truncation", "--n", "4", "--k", "2",
         "--param", "t=2", "--trials", "4000"],
        "62af9b5479fa320ef97eabd68cadb448e2fca5a40340cbef6392f6f8199562c4",
    ),
    "simulate-sampled-bits": (
        ["simulate", "--protocol", "sampled-bits", "--n", "16", "--k", "4",
         "--param", "m=4", "--trials", "20000"],
        "2101c8b8ebbacc580fed91cf8d6127fad46346a9f1d6d4b96d0cc2e80f4658cb",
    ),
    # n=64 chunks hold 5 rows. A chunk draws c answers and c * k indices as
    # 32-bit halves of 64-bit outputs, then skips or draws its string keys; an
    # odd count leaves a half-word pending across the keys: at k=24 in every
    # other chunk, and at k=25 for sampled-bits, whose 5 coins per chunk
    # shift the parity. The truncation digest was recorded before the string
    # keys were skipped; sampled-bits was re-recorded when its kernel stopped
    # drawing per-position keys.
    "simulate-truncation-odd-chunk": (
        ["simulate", "--protocol", "truncation", "--n", "64", "--k", "24",
         "--param", "t=8", "--trials", "500"],
        "d6ce0e619146e8a81c0305dbd19202e7fa5644dc9d8354f75315ac92fb8ade1d",
    ),
    "simulate-sampled-bits-odd-chunk": (
        ["simulate", "--protocol", "sampled-bits", "--n", "64", "--k", "25",
         "--param", "m=8", "--trials", "500"],
        "11743cc0c4e4d41cd15ac55269303f20446e5fb25ddf1c417d2246a5ab069f91",
    ),
    # the engine on sampled batches (B > 64 has no kernel)
    "simulate-generic-chained-majority": (
        ["simulate", "--protocol", "chained-majority", "--n", "128", "--k", "3",
         "--param", "B=128", "--trials", "500"],
        "3703a39e71df0d6d2a8d4abaab0833745a21fb34fb638d8108dea6c641ba8f78",
    ),
    "table-entropy-given-pool": (
        ["table", "--suite", "entropy-given-pool", "--sweep", "n=4..16", "--format", "csv"],
        "3acea42171438530e4b0823d30259379c1591c60d190ccdd41bb6b2211b06896",
    ),
    # the one table that lists a closed form instead of projecting a suite's reports
    "table-majority": (
        ["table", "--suite", "majority", "--sweep", "B=1..64:*2", "--format", "csv"],
        "ab1cc65b1764a7973a74ed479621ebb1fa928433d4c27882daf17807b6b78f5a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden_digest(name, tmp_path):
    args, digest = GOLDEN[name]
    out = tmp_path / "report"
    assert cli_main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
