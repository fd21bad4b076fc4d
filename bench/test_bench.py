"""Self-test of the benchmark: tiny runs must report every metric, and the
output check must catch a flipped verdict.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

TINY = ["--seconds", "0.1"]


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, *TINY],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.per_layer_units()


def test_end_to_end_tiny_run_reports_every_metric():
    result = bench("--workload", "rate-sweep", "--seed", "3", "--trace", "0")
    assert units(result) == run.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = result["detail"]
    assert detail["ops"] == result["attempted"] >= detail["cycle_ops"]
    assert len(detail["setup_samples"]) == run.SETUP_RUNS + 1
    assert detail["reference_slices"] >= 1 and detail["host_slowness"] > 0
    scaled = result["metrics"]["op_ms_p50"]["value"] * detail["host_slowness"]
    assert scaled == pytest.approx(detail["raw"]["op_ms_p50"])


@pytest.mark.parametrize("workload", ["rate-sweep", "lu-sweep", "cli-cold"])
def test_traced_tiny_run_reports_every_layer(workload):
    result = bench("--workload", workload, "--seed", "5", "--trace", "1")
    assert units(result) == run.per_layer_units()
    assert result["correct"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["trace.missing_sites"] == 0
    assert m["fail_ratio"] == 0
    assert m["trace.coverage"] >= 0.9
    assert 0 < m["trace.overhead_ratio"] <= 1.5
    assert m["import.total_ms"] > m["import.numpy_ms"] > 0
    assert m["systems.kernel.calls"] > 0
    if workload == "rate-sweep":
        assert m["orders.lr.calls"] == m["orders.st.calls"] > 0
        assert m["majorization.pair.calls"] > 0 and m["entropy.residual.calls"] == 0
    elif workload == "lu-sweep":
        assert m["entropy.residual.calls"] == 128 * m["orders.lu.calls"] > 0
    else:
        for cmd in run.CLI_COMMANDS:
            assert m[f"cli.{cmd}.busy_s"] > 0 and m[f"cli.{cmd}.cold_s"] > 0
        assert m["simulate.sample.draws"] > 0 and m["entropy.shannon.calls"] > 0


def test_flipped_reference_verdict_fails(tmp_path):
    runner = worker.Runner("rate-sweep", 3, str(tmp_path))
    runner.load_reference()
    runner.loop(count=runner.cycle)
    assert runner.attempted == runner.cycle and runner.failed == 0
    # flip the first verdict (lr, first_smaller) of every pair
    flip = {"H": "F", "F": "H", "I": "H"}
    runner.reference = {k: flip[v[0]] + v[1:] for k, v in runner.reference.items()}
    runner.loop(count=runner.cycle)
    assert runner.failed == runner.cycle
    assert runner.notes


def test_host_speed_reference_does_not_load_the_program():
    probe = ("import sys, calibrate; calibrate.work_slice(); "
             "assert not any(m.split('.')[0] == 'gumbelsys' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", probe], cwd=HERE, check=True, timeout=60)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(1000))) == (99, 989, 10)
    assert run.tail(list(range(20))) == (50, 9, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_missing_wrapper_target_is_reported(monkeypatch):
    import gumbelsys.cli  # noqa: F401 - the tracer wraps names in every loaded module
    import gumbelsys.orders as orders

    monkeypatch.delattr(orders, "check_lr")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "gumbelsys.orders.check_lr" in tracer.missing
        assert "gumbelsys.orders._CHECKS[lr]" in tracer.missing
        assert "gumbelsys.orders._CHECKS[hr]" not in tracer.missing
    finally:
        tracer.uninstall()
    assert orders._CHECKS[orders.Relation.HR] is orders.check_hr


def test_stripped_checkout_fails_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "bench" / "reference.json").write_text(run.REFERENCE.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rate-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
