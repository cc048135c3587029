"""Smoke test of the benchmark: every workload once at a tiny size, oracle on.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
         "--seconds", "0.2", "--tiny", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(trace):
    done = run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= 3 * len(WORKLOADS)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        path = ROOT / ".bench_cache" / "reports" / f"{workload}-tiny-seed{SEED}-trace{trace}.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        env = report["environment"]
        for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "commit"):
            assert env[key] not in (None, ""), key
        assert env["seed"] == SEED
        for metric in wanted:
            entry = report["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], metric["name"]
            assert entry["value"] is not None or entry["note"].startswith("absent:"), metric["name"]
            assert last["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
        if trace:
            assert report["metrics"]["estimator.false_singular"]["value"] > 0
        else:
            assert report["metrics"]["fail_frac"] == {
                "value": 0.0, "unit": "ratio", "samples": report["attempted"],
                "note": f"0 of {report['attempted']} ops failed"}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
