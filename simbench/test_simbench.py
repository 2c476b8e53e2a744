"""Self-test of the benchmark.

Run from the repository root::

    python3 -m pytest -q simbench/test_simbench.py

It runs every workload briefly, untraced and traced (about two minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from cells import WORKLOADS, run_cell  # noqa: E402
from layertrace import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _ in table]
    for name, unit in table:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    if trace:
        assert result["metrics"]["bench.tracing_overhead"]["value"] > 1.0


def test_layer_self_times_close_on_the_traced_drive():
    workload = WORKLOADS["dpu-rdma-1m-read"]
    untraced = run_cell(workload, 3)
    tracer = LayerTracer().install()
    try:
        traced = run_cell(workload, 3, on_drive=tracer.on_drive)
    finally:
        tracer.uninstall()
    assert traced.outputs == untraced.outputs
    counts, _, closure = run._layer_metrics(tracer, traced)
    assert closure < run.CLOSURE_TOLERANCE
    assert counts["core.calls_per_io"] >= 1.0
    # Every span under a data-port call carries that call's IO id.
    by_sid = {s.sid: s for s in tracer.spans}
    for span in tracer.spans:
        parent = by_sid.get(span.parent)
        if parent is not None and parent.io != -1:
            assert span.io == parent.io
    # The patches are gone again.
    from repro.core.offload import Ros2DataPort
    assert not hasattr(Ros2DataPort.read, "__wrapped__")


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("dpu-rdma-1m-read", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
