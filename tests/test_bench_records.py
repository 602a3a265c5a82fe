"""Every committed benchmark record, ``BENCH_*.json`` at the repo root, is whole.

A record holds the unchanged last stdout line of each run of
``python3 perfbench/run.py --workload W --seed S [--trace 1]``, with the
commit it ran on and the machine's processor count and Python and numpy
versions; ``README.md`` ("Benchmark records") documents the keys.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RUN_KEYS = {"side", "git_sha", "workload", "seed", "trace", "last_line"}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_whole(path):
    record = json.loads(path.read_text())
    assert {"nproc", "python", "numpy", "command", "runs"} <= record.keys()
    assert isinstance(record["nproc"], int) and record["nproc"] >= 1
    assert record["runs"]
    for run in record["runs"]:
        assert RUN_KEYS <= run.keys(), run
        assert run["side"] in ("parent", "change"), run["side"]
        assert re.fullmatch("[0-9a-f]{40}", run["git_sha"]), run["git_sha"]
        assert run["trace"] in (0, 1)
        result = json.loads(run["last_line"])
        assert result["correct"] is True and result["failed"] == 0, (run["side"], run["workload"])
