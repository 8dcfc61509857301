"""Smoke test of the end-to-end benchmark: ``run.py --smoke`` on all six
workloads, traced and untraced, must agree with ``BENCHMARK.json`` name for
name, pass the oracle, report only finite non-negative numbers, and leave
nothing behind in the repository."""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _git_status():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout: the scratch-directory check below still runs


def _names(specs):
    return {spec["name"] for spec in specs}


def test_e2e_smoke(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    status_before = _git_status()
    out = tmp_path / "set"

    full = subprocess.run(
        [sys.executable, RUN, "--smoke", "--trace", "1", "--seed", "11", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert full.returncode == 0, full.stdout + full.stderr
    with open(out / "result.json") as handle:
        result = json.load(handle)
    assert set(result["workloads"]) == _names(contract["workloads"])
    for name, record in result["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] > 0, name
        assert set(record["end_to_end"]) == _names(contract["end_to_end"]), name
        assert set(record["per_layer"]) == _names(contract["per_layer"]), name
        for section in ("end_to_end", "per_layer"):
            for metric, value in record[section].items():
                assert math.isfinite(value) and value >= 0, (name, metric, value)
        assert os.path.getsize(out / f"{name}.trace.jsonl") > 0
    assert all(math.isfinite(v) for v in result["derived"].values())
    # The traced stack (proxy / cache / proxy) must still hit its cache.
    assert result["workloads"]["read_hot_cached"]["per_layer"]["serve.cache.hit_rate"] > 0.5

    # The driver's form: one workload, one JSON object on the last line.
    single = subprocess.run(
        [sys.executable, RUN, "--workload", "fullstack_sharded4", "--seed", "11",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True,
    )
    assert single.returncode == 0, single.stdout + single.stderr
    last = json.loads(single.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units

    same = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         str(out / "result.json"), str(out / "result.json")],
        capture_output=True, text=True,
    )
    assert same.returncode == 0, same.stdout

    left = [name for name in os.listdir(HERE) if name.startswith(".scratch-")]
    assert not left, f"WAL/snapshot scratch left behind: {left}"
    assert _git_status() == status_before
