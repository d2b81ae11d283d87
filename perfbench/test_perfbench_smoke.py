"""Tests of the benchmark itself; `--smoke` runs tiny versions of every workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_smoke_prints_every_metric_with_its_unit(smoke):
    results = [json.loads(line) for line in smoke.splitlines() if line.startswith('{"workload"')]
    assert [r["workload"] for r in results] == list(WORKLOADS)
    expected = dict(bench.END_TO_END + bench.PER_LAYER)
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 4
        assert {k: v["unit"] for k, v in r["metrics"].items()} == expected
        assert r["metrics"]["trace.unsteady_counts"]["value"] == 0
        for name, unit in expected.items():
            assert any(line.startswith(f"{r['workload']}: {name} = ") and line.endswith(f" {unit}")
                       for line in smoke.splitlines())


def test_smoke_spans_nest(smoke):
    for name in WORKLOADS:
        spans_files = sorted((ROOT / ".perfbench" / "smoke" / name / "trace").glob("spans*.json"))
        assert len(spans_files) >= 2
        for path in spans_files:
            spans = json.loads(path.read_text(encoding="utf-8"))
            assert spans[0]["name"] == "cli.run" and spans[0]["parent"] == -1
            for i, s in enumerate(spans[1:], start=1):
                parent = spans[s["parent"]]
                assert 0 <= s["parent"] < i
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
                assert s["name"] in bench.SELF_TIME


def test_check_nesting_rejects_escaping_and_overlapping_spans():
    root = {"name": "cli.run", "parent": -1, "start": 0.0, "end": 10.0}
    inner = {"name": "trees.fit_tree", "parent": 0, "start": 1.0, "end": 2.0}
    assert bench.check_nesting([root, inner]) is None
    escaping = {**inner, "end": 11.0}
    assert "not inside" in bench.check_nesting([root, escaping])
    overlapping = {**inner, "start": 1.5, "end": 3.0}
    assert "overlaps" in bench.check_nesting([root, inner, overlapping])


def test_nearest_rank_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    assert bench.nearest_rank_tail(values) == (20.0, 100.0 * 20 / 30, 30)
    assert bench.nearest_rank_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid12", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
