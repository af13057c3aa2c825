"""Smoke test of the benchmark itself.

Runs every workload at smoke-test size on one seed, traced and untraced,
and checks the result line, the record and BENCHMARK.json against each
other.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ORACLES = {
    "dim-census": {"rank_matches_conjecture", "reference_row"},
    "reconstruct-mix": {"on_model_accepted", "forward_map_residual", "off_model_rejected"},
    "pole-train": {"final_loss_finite", "block_descends", "interpolating_weights"},
}


def bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_and_runs_every_oracle(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    want = run.END_TO_END if trace == 0 else spans.LAYER_METRICS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    oracles = ORACLES[workload] | ({"trace_coverage"} if trace else set())
    assert all(record["checks"].get(name, 0) > 0 for name in oracles), record["checks"]
    for key in ("nproc", "python", "numpy", "commit"):
        assert key in record["env"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_input_shapes_do_not_depend_on_the_seed(workload):
    build = workloads.BUILDERS[workload]
    assert build(1).shape == build(2).shape
    assert [it.label for it in build(1).items] == [it.label for it in build(2).items]


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.BUILDERS) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS


def test_host_speed_scales_by_the_kernel_runs_in_and_near_an_item():
    speed = hostspeed.HostSpeed("dict-poly")
    nominal = speed.nominal_s
    # kernel runs at t = 0, 1, ..., 9 s; twice as slow from t = 5 on
    speed.times = [float(t) for t in range(10)]
    speed.ref_s = [nominal] * 5 + [2 * nominal] * 5
    assert speed.slowdown(1.4, 1.6) == 1.0
    assert speed.slowdown(7.4, 7.6) == 2.0
    # far from every run, the nearest one on each side still counts
    speed.times = [0.0, 10.0]
    speed.ref_s = [nominal, 3 * nominal]
    assert speed.slowdown(5.0, 5.1) == 2.0


def test_kernel_time_is_taken_out_of_an_item():
    speed = hostspeed.HostSpeed("dict-poly")
    plan = workloads.Plan([workloads.Item("sleep", ())], lambda item: time.sleep(0.5),
                          lambda item, out: None, {})
    timing = run.run_passes(plan, 0.0, 1, speed)
    assert len(speed.times) >= 3          # before, during and after the item
    assert timing.latencies[0] < 0.5 - 0.5 * speed.ref_s[1]
    assert timing.scaled[0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "dim-census", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
