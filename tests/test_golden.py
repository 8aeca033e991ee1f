"""Golden fingerprints: SHA-256 of whole seeded sweep reports.

Each entry pins the exact bytes ``python -m repro sweep ... --json-out``
writes for one seeded grid (the digests are the same on the serial,
procs and socket backends).  A change that moves any seeded output — a
seed scheme, a protocol's coin use, a metric, the report shape — moves
these digests, so it must re-record them on purpose and declare the
re-baseline.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.__main__ import main

GOLDEN = {
    "workloads": (
        ["--workloads", "fame,groupkey,gauntlet,scenario:serve.duplicate-open",
         "--nodes", "18", "--trials", "3", "--seed", "7", "--pairs", "4"],
        "c2a7bc84b4916e097ccb1312a77343d2ff325daedd0c8171dde5303bce9b794a",
    ),
    "adversaries": (
        ["--nodes", "18,24", "--adversaries", "schedule,random,null",
         "--trials", "2", "--seed", "11", "--pairs", "4"],
        "45a6c52200354b4d652e2e21bff6d0fca64a65f92ec400b3731c33f40fcb56ec",
    ),
}


@pytest.mark.parametrize("grid", sorted(GOLDEN))
def test_sweep_report_bytes_match_golden(grid, tmp_path, capsys):
    argv, digest = GOLDEN[grid]
    out = tmp_path / "report.json"
    assert main(["sweep", *argv, "--json-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
