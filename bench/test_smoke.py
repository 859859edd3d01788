"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, tracer = run.measure(workload, seed=1, seconds=0.1, trace=False, scale="tiny")
    assert tracer is None
    assert result["failed"] == 0, result["errors"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed_ratio"] == 0
    assert result["tail"]["samples"] == result["attempted"] > 0
    assert set(result["provenance"]) >= {"commit", "python", "nproc", "platform", "seed"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, tracer = run.measure(workload, seed=1, seconds=0.1, trace=True, scale="tiny")
    assert result["failed"] == 0, result["errors"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert len(tracer.columns[0]) > result["attempted"] // 2
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # an op aborts early exactly when its answer is Undefined
    pool = result["pool"]
    undefined_share = pool.get("shift-undefined", 0) / sum(pool.values())
    assert values["reduction.reduce.improper_ratio"] == pytest.approx(undefined_share)
    assert (undefined_share > 0) == (workload == "term-eval")
    assert values["trace.overhead_ratio"] > 0
    assert 0 <= values["trace.uncovered_ratio"] < 1


def _wrong_reference(case):
    case.expected = object()  # equal to no output


def _raising_call(case):
    def call():
        raise RuntimeError("injected")

    case.call = call


@pytest.mark.parametrize("corrupt", [_wrong_reference, _raising_call])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_answers_count_as_failed(workload, corrupt, monkeypatch):
    build = workloads.build

    def corrupted(*args, **kwargs):
        cases = build(*args, **kwargs)
        corrupt(cases[-1])
        return cases

    monkeypatch.setattr(workloads, "build", corrupted)
    result, _ = run.measure(workload, seed=1, seconds=0.1, trace=False, scale="tiny")
    assert 0 < result["failed_ratio"] < 1
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - result["failed_ratio"])


def test_spec_maps_every_layer_metric():
    layer_names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(SPEC["layer_moves"]) == sorted(layer_names)
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | {"failed_ratio"}
    for moves in SPEC["layer_moves"].values():
        for move in moves["moves"]:
            assert move["metric"] in e2e and move["workload"] in workloads.WORKLOADS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert SPEC["held_out_seed"] != SPEC["default_seed"]


def test_exits_nonzero_without_the_package(tmp_path):
    """A checkout holding only the benchmark must fail, printing no result."""
    (tmp_path / "bench").mkdir()
    for f in [*BENCH.glob("*.py"), *BENCH.glob("*.json"), *BENCH.glob("*.md")]:
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-sign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
