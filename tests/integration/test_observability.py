"""Integration: the full observability stack on a real Fig. 5 cell.

These are the acceptance checks of the telemetry PR: a sampled run must
(1) satisfy Little's law at every instrumented station — proving the
sampling + downsampling pipeline reports the system that actually ran —
(2) export a schema-valid Perfetto trace carrying both request spans and
the counter tracks the paper's analysis needs, and (3) attribute phases
to plausible bottlenecks (prefill hits NVMe, the steady TCP/DPU window
hits the DPU's RX path).
"""

import json

import pytest

from repro.bench.cli import main
from repro.bench.runner import run_fig5_cell
from repro.sim.chrometrace import build_chrome_trace, validate_chrome_trace


@pytest.fixture(scope="module")
def observed():
    """One instrumented TCP/DPU 4 KiB randread cell, shared by the tests."""
    return run_fig5_cell("tcp", "dpu", "randread", 4096, 16,
                         runtime=0.02, sample_every=20, sampler=True)


def test_littles_law_holds_at_every_station(observed):
    law = observed.timeline.littles_law(tolerance=0.05)
    assert law, "no stations instrumented"
    checked = {k: v for k, v in law.items() if v["checked"]}
    assert checked, "no station saw enough arrivals to check"
    for name, row in checked.items():
        assert row["ok"], (
            f"{name}: L={row['L_sampled']:.3f} vs "
            f"lambda*W={row['lambda_W']:.3f} "
            f"(rel_err={row['rel_err'] * 100:.1f}%)")


def test_sampled_series_cover_the_required_signals(observed):
    names = set(observed.sampler.series)
    # CPU, NVMe queue depth, NIC, Arm-core/TCP-RX load, in-flight RPCs.
    assert any(".cpu.busy" in n for n in names)
    assert any(n.startswith("nvme") and n.endswith(".in_flight")
               for n in names)
    assert any(".nic." in n for n in names)
    assert any("tcp_rx" in n for n in names)
    assert "engine.rpc.in_flight" in names
    # Downsampling kept every series within its bound.
    for s in observed.sampler.series.values():
        assert len(s) < s.capacity


def test_perfetto_export_is_valid_and_complete(observed):
    doc = build_chrome_trace(observed.collector.spans, observed.sampler,
                             label="it")
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    counters = {e["name"] for e in events if e["ph"] == "C"}
    spans = [e for e in events if e["ph"] == "X"]
    assert len(counters) >= 5
    assert spans, "no span duration events exported"
    stages = {e["name"] for e in spans}
    assert "nvme" in stages or any("rpc" in s for s in stages)


def test_phase_attribution_is_plausible(observed):
    by_phase = observed.timeline.busiest_by_phase()
    assert set(by_phase) == {"warmup", "steady", "drain"}
    # Warmup = prefill writes: an NVMe device dominates.
    assert by_phase["warmup"]["component"].startswith("nvme")
    # Steady 4 KiB randread over TCP through the DPU: the DPU's RX path
    # (Arm TCP cores or the tcp_stack lock) is the paper's bottleneck.
    steady = by_phase["steady"]["component"]
    assert steady.startswith("dpu."), steady
    assert by_phase["steady"]["utilization"] > 0.5
    # Drain is quieter than steady state.
    assert (by_phase["drain"]["utilization"]
            <= by_phase["steady"]["utilization"])


def test_cli_end_to_end_perfetto_json_and_gate(tmp_path, capsys):
    """fig5 --perfetto --json-out, then compare gates the emitted doc."""
    trace_path = tmp_path / "trace.json"
    results_path = tmp_path / "results.json"
    base_path = tmp_path / "base.json"
    args = ["fig5", "--transport", "tcp", "--client", "dpu",
            "--rw", "randread", "--bs", "4k", "--jobs", "8",
            "--runtime", "0.01",
            "--perfetto", str(trace_path), "--json-out", str(results_path)]
    assert main(args) == 0
    capsys.readouterr()

    doc = json.loads(trace_path.read_text())
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["n_counter_tracks"] >= 5
    assert doc["otherData"]["n_spans"] > 0

    results = json.loads(results_path.read_text())
    assert results["format"] == "repro-fig5-v1"
    assert results["result"]["iops"] > 0
    assert all(row["ok"] for row in results["littles_law"].values())

    # Round-trip through the gate: snapshot, then self-compare passes.
    assert main(["compare", str(results_path), "--baseline", str(base_path),
                 "--write-baseline"]) == 0
    assert main(["compare", str(results_path),
                 "--baseline", str(base_path)]) == 0


def test_determinism_identical_runs_identical_telemetry():
    """The same cell twice: bit-identical results *and* telemetry."""
    a = run_fig5_cell("tcp", "dpu", "randread", 4096, 4,
                      runtime=0.005, sampler=True)
    b = run_fig5_cell("tcp", "dpu", "randread", 4096, 4,
                      runtime=0.005, sampler=True)
    assert a.result.to_dict() == b.result.to_dict()
    assert a.sampler.to_dict() == b.sampler.to_dict()
