"""Frozen SHA-256 digests of the JSON and CSV reports of a few CLI runs.

A change that keeps behaviour keeps every report byte.  These runs cover
the analytic lab (faithful, skip-rescale, and scale-r up to the largest
amplitude), Monte Carlo sweeps on both KS routes (exact p-values at 10^4
draws, asymptotic ones above), sweeps that draw and count in more than two
blocks, a homodyne-only sweep, and heterodyne and hybrid scans.  The digests hold for the numpy and scipy versions in
RECORDED_WITH: other versions may round special functions or pairwise
sums differently, which a mismatch then names.
"""

import hashlib

import numpy as np
import pytest
import scipy

from cvtrust.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

# 2 specs (both kinds) x 4 amplitudes
_MC_8 = (
    "verify", "--mode", "mc", "--eta-d", "0.7", "--nu", "1e-2", "--amplitudes", "1,3",
    "--phases", "2", "--seed", "3",
)
# 2 specs (both kinds) x 2 amplitudes, at 150,001 draws: more than two of
# the 2^16-draw blocks that sample_outcomes and the KS step work in
_MC_BLOCKS = (
    "verify", "--mode", "mc", "--mc-samples", "150001", "--eta-d", "0.7", "--nu", "1e-2",
    "--amplitudes", "3", "--phases", "2",
)
_SCAN = ("scan", "--eta-d", "0.7", "--nu", "1e-2", "--loss-db", "0:30:0.25", "--xi0", "0.01")

RUNS = {
    "verify": ("verify",),
    "verify-skip-rescale": ("verify", "--sabotage", "skip-rescale"),
    "verify-scale-r-1e6": (
        "verify", "--amplitudes", "0,1e-9,1e3,1e6", "--phases", "16", "--sabotage", "scale-r",
    ),
    "mc-blocks": _MC_BLOCKS,
    "mc-blocks-skip-rescale": (*_MC_BLOCKS, "--sabotage", "skip-rescale"),
    "mc-exact": (*_MC_8, "--mc-samples", "10000"),
    "mc-exact-skip-rescale": (*_MC_8, "--mc-samples", "10000", "--sabotage", "skip-rescale"),
    "mc-asymptotic": (*_MC_8, "--mc-samples", "20000"),
    "mc-asymptotic-skip-rescale": (
        *_MC_8, "--mc-samples", "20000", "--sabotage", "skip-rescale",
    ),
    "mc-scale-r-1e6": (
        "verify", "--mode", "mc", "--mc-samples", "20000", "--seed", "5", "--eta-d", "0.7",
        "--eta-d", "0.9", "--nu", "1e-2", "--amplitudes", "1,3,1e6", "--phases", "3",
        "--sabotage", "scale-r",
    ),
    "mc-homodyne": (
        "verify", "--mode", "mc", "--mc-samples", "20001", "--seed", "2", "--kind", "homodyne",
        "--eta-d", "0.5", "--nu", "0.3", "--amplitudes", "0,7", "--phases", "5",
    ),
    "scan-heterodyne": (*_SCAN, "--protocol", "heterodyne"),
    "scan-hybrid": (*_SCAN, "--protocol", "hybrid"),
}

# name: (exit code, SHA-256 of the JSON report, SHA-256 of the CSV report)
DIGESTS = {
    "mc-asymptotic": (
        0,
        "b1d36485e4a2409dcaabf9839733ba0c8719ed96fcb70ed81de2f1711f656b53",
        "f81ccc318ca443c13df620d4f41cc816f8505b6e0abaac48fc709933e99ddc0a",
    ),
    "mc-asymptotic-skip-rescale": (
        1,
        "b2b4767465bdfd9fa8c6f19df0d7ca95e682881d18a1c3a410b4cc8100358b3c",
        "17cf3862d344915192d30733a9fdebf06cf13a04feb479a3ff6c28f34d95c47d",
    ),
    "mc-blocks": (
        0,
        "3fa03d48792663014a054d54a9e3afab3ea99536af6d0ba085cdadf6e23f58d6",
        "ccde8aea7a95c34afe7dc41cd8b77ea80c8e4a568732b7f3626eb202b343e30e",
    ),
    "mc-blocks-skip-rescale": (
        1,
        "8ecd98b189288f4cd2f9a6695a5738714ed8f341c83cefab9ce33b5dc44e48dc",
        "cd871dfff09b9b1a1d0c3623def1e2b7ad47cd59523b934c95e1ade5edb79c75",
    ),
    "mc-exact": (
        0,
        "4e8bf0aede085e661033665502873e916502ce7f9a9b8e4f9015ccc5b1a0c37e",
        "69fb5d4c1d3c87eedd38c59adea72da5b96c9a4d9b4d1dcece7f7020410ea3c3",
    ),
    "mc-exact-skip-rescale": (
        1,
        "56c4e1e37f4b51f38dd2d10008d3725dcdd6c6c125db51065acec4f2fa2b394b",
        "f49ba79b6d88b4a171ffb178c713761b037af860fcef35cb5616e645c34b6e36",
    ),
    "mc-homodyne": (
        0,
        "16052b1a2a6edb965e4b82db0e205f77f2ca0ba4a0c9554a2a475130200d653f",
        "6da10e5a20499cd3591537cbb4efbcbdc7b994ded7da42107872e88a46527ea2",
    ),
    "mc-scale-r-1e6": (
        1,
        "320d262a00b797f0d70aece854db691f1ea2fac10b14cddbb9c913ca670ac713",
        "674167559d64d9641a804d1bbb078e837832fc0683b504a871ddca8c3c69b73a",
    ),
    "scan-heterodyne": (
        0,
        "bacfc65c09a70e08c1136a71abab3f08198cd1a202fa9abac5311905324a786a",
        "6c5fb91167c9ebc6aa3561c70f784ab3e577d7f5190005fccb5655b5b1fa9ea0",
    ),
    "scan-hybrid": (
        0,
        "d7dba29d3ac128b0e6a63357b254ecba0562ab0c7e08e0098dbbef5b25340fce",
        "4c474f3c5e8dfcac577bd2f1a155dd876b1d56f6e9fda4f90b6d109900e9e880",
    ),
    "verify": (
        0,
        "855f6f09593a6c7095035a3d9b3921a117e67f65fa02c622869dc8758dd8799f",
        "486869b7dd3dad3a76f0b4650732671c942b84bd2eb4ca314880bf34066fc055",
    ),
    "verify-scale-r-1e6": (
        1,
        "e7272feb849875ed19d3e0f65341168adfefc27aa5c80b4aed01cdbe39ffddb7",
        "9813284916320645c5e01cbfef623fb8f20e77c87e308c7462aa88b96aecc040",
    ),
    "verify-skip-rescale": (
        1,
        "5919bf566ebfd7b22f1488ad2479d69aa43c04660dd530becba181f242fd9ff1",
        "e2db0d9a77b09d8cc8039836b1e723a8fc37b61b67a5a68687dbb68979ca8819",
    ),
}


def report_digests(argv, out) -> tuple[int, str, str]:
    """Run the CLI with its reports at out; return the exit code and the two digests."""
    code = main([*argv, "--out", str(out)])
    json_bytes = out.with_suffix(".json").read_bytes()
    csv_bytes = out.with_suffix(".csv").read_bytes()
    return code, hashlib.sha256(json_bytes).hexdigest(), hashlib.sha256(csv_bytes).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_frozen(name, tmp_path, capsys):
    got = report_digests(RUNS[name], tmp_path / name)
    capsys.readouterr()
    versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
    assert got == DIGESTS[name], (
        f"{name}: report bytes changed (recorded with numpy {RECORDED_WITH['numpy']}, "
        f"scipy {RECORDED_WITH['scipy']}; running {versions})"
    )
