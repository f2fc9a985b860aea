"""Self-test of the pan benchmark: tiny-size runs of every workload.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is reported with its
unit, that a deliberately corrupted output is counted as failed, that a
second seed runs clean, that the traced counts repeat exactly, and that
the benchmark refuses to run without pan's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"ms", "s", "1/s"}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "0.2", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(*args) -> dict:
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def tiny(workload: str, seed: int, trace: int, *extra) -> dict:
    return result("--workload", workload, "--seed", str(seed), "--trace", str(trace),
                  "--size", "tiny", *extra)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = tiny(workload, 1, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted_as_failed(workload):
    res = tiny(workload, 1, 0, "--corrupt")
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_op_share"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_clean(workload):
    res = tiny(workload, 2, 0)
    assert res["correct"] and res["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        res = tiny(workload, 3, 1)
        assert res["correct"]
        return {name: m["value"] for name, m in res["metrics"].items()
                if m["unit"] not in TIME_UNITS}

    assert counts() == counts()


def test_refuses_to_run_without_pan_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
