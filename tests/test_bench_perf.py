"""Tests for the wall-clock perf harness (:mod:`repro.bench.perfbench`).

Wall-clock *values* are machine-dependent and not asserted; what is
pinned here is the deterministic part — event counts, document shape,
and the regression-gate logic the CI perf-smoke job relies on.
"""

import copy
import json

from repro.bench import perfbench as pb
from repro.hw.specs import MIB


def test_bench_kernel_counts_and_rate():
    out = pb.bench_kernel(n_events=5_000, repeat=1, warmup=0)
    # Deterministic: within one event of the requested census (the two
    # tickers' last timeouts may straddle `until`).
    assert abs(out["n_events"] - 5_000) <= 2
    assert out["timeouts_recycled"] > 0.9 * out["n_events"]
    assert out["direct_wakes"] == 0  # plain sleeps, no reservations
    assert out["events_per_sec"] > 0
    assert out["wall_s"] > 0


def test_bench_pipe_event_reduction_meets_floor():
    out = pb.bench_pipe(total_bytes=16 * MIB, transfer_bytes=MIB,
                        repeat=1, warmup=0)
    assert out["n_transfers"] == 16
    # Coalesced: O(1) events per uncontended transfer; chunked: one per
    # 64 KiB chunk.  The >=4x reduction is an acceptance criterion.
    assert out["event_reduction_x"] >= 4.0
    assert out["coalesced"]["coalesced_ops"] == 16
    assert out["chunked"]["coalesced_ops"] == 0
    assert out["coalesced"]["bytes_moved"] == out["chunked"]["bytes_moved"]


def test_bench_fig5_cells_shape():
    # The tiniest possible cell: enough to verify plumbing, not timing.
    cells = {"tiny": ("tcp", "dpu", "read", MIB, 1, 0.004)}
    out = pb.bench_fig5_cells(cells, repeat=1, warmup=0)
    cell = out["tiny"]
    assert cell["total_ios"] > 0
    assert cell["events_processed"] > cell["total_ios"]
    assert cell["events_per_io"] == cell["events_processed"] / cell["total_ios"]
    assert cell["wall_s"] > 0
    # Reservations wake their process directly; recycled timeouts are the
    # rest (sleeps, pipe gates), so the two together stay below the events.
    assert cell["direct_wakes"] > 0
    assert cell["direct_wakes"] + cell["timeouts_recycled"] \
        < cell["events_processed"]


def _fake_doc():
    return {
        "format": pb.FORMAT,
        "kernel": {"events_per_sec": 1e6},
        "pipe": {
            "event_reduction_x": 8.0,
            "coalesced": {"sim_mib_per_wall_sec": 1000.0,
                          "events_per_transfer": 2.0},
        },
        "fig5": {"cellA": {"events_per_io": 100.0}},
    }


def test_gate_passes_on_identical_docs():
    doc = _fake_doc()
    assert pb.check_against_baseline(doc, copy.deepcopy(doc)) == []


def test_gate_allows_wall_clock_noise_within_threshold():
    cur = _fake_doc()
    cur["kernel"]["events_per_sec"] = 0.75e6  # -25% < 30% tolerance
    cur["pipe"]["coalesced"]["sim_mib_per_wall_sec"] = 750.0
    assert pb.check_against_baseline(cur, _fake_doc()) == []


def test_gate_fails_on_rate_regression_beyond_threshold():
    cur = _fake_doc()
    cur["kernel"]["events_per_sec"] = 0.6e6  # -40%
    failures = pb.check_against_baseline(cur, _fake_doc(),
                                         max_regression=0.30)
    assert any("events_per_sec" in f for f in failures)


def test_gate_fails_when_events_creep_back():
    # The precise signal: deterministic event counts growing means the
    # coalescing/freelist machinery regressed, regardless of wall-clock.
    cur = _fake_doc()
    cur["pipe"]["coalesced"]["events_per_transfer"] = 4.0  # 2 -> 4
    cur["fig5"]["cellA"]["events_per_io"] = 130.0          # +30%
    failures = pb.check_against_baseline(cur, _fake_doc())
    assert any("events_per_transfer" in f for f in failures)
    assert any("fig5.cellA.events_per_io" in f for f in failures)


def test_gate_enforces_absolute_reduction_floor():
    cur = _fake_doc()
    base = _fake_doc()
    cur["pipe"]["event_reduction_x"] = base["pipe"]["event_reduction_x"] = 3.0
    failures = pb.check_against_baseline(cur, base)
    assert any("acceptance floor" in f for f in failures)


def test_gate_reports_missing_metric():
    cur = _fake_doc()
    del cur["fig5"]["cellA"]["events_per_io"]
    failures = pb.check_against_baseline(cur, _fake_doc())
    assert any("missing" in f for f in failures)


def test_committed_perf_baseline_is_loadable_and_self_consistent():
    # The file the CI perf-smoke job gates against must parse and carry
    # every gated metric.
    with open("benchmarks/baselines/perf_smoke.json") as fh:
        base = json.load(fh)
    assert base["format"] == pb.FORMAT
    assert base["pipe"]["event_reduction_x"] >= 4.0
    # A healthy current run against the committed baseline: reuse the
    # baseline itself as "current" — must pass its own gate.
    assert pb.check_against_baseline(copy.deepcopy(base), base) == []


def test_cli_perf_quick_roundtrip(tmp_path, capsys):
    from repro.bench.cli import main

    out = tmp_path / "perf.json"
    baseline = tmp_path / "base.json"
    rc = main(["perf", "--quick", "--repeat", "1", "--warmup", "0",
               "--out", str(out), "--write-baseline", str(baseline)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == pb.FORMAT
    assert doc["quick"] is True
    assert "summary" in doc and "fig5_speedup_vs_seed" in doc["summary"]
    # Checking a run against its own snapshot passes.  A generous rate
    # threshold keeps this robust on loaded CI machines — the
    # deterministic event-count gates are exact either way.
    rc = main(["perf", "--quick", "--repeat", "1", "--warmup", "0",
               "--max-regression", "0.90", "--check", str(baseline)])
    assert rc == 0
    assert "perf gate OK" in capsys.readouterr().out


def test_bench_campaign_determinism_and_cache():
    out = pb.bench_campaign(jobs=2, quick=True, repeat=1, warmup=0)
    # The hard determinism contract: the serial and the parallel ledger
    # are byte-identical, and the re-run hits the cache on every cell.
    assert out["records_mismatched"] == 0
    assert out["errors"] == 0
    assert out["cache_hits"] == out["n_cells"]
    assert out["cache_misses"] == 0
    # The cached re-run never simulates, so it's far faster than serial
    # (the committed BENCH_perf.json shows >100x; 2x is a safe floor).
    assert out["cached_speedup_x"] >= 2.0
    assert out["cpu_count"] >= 1
    assert out["serial_wall_s"] > 0 and out["parallel_wall_s"] > 0


def _fake_campaign_doc():
    doc = _fake_doc()
    doc["campaign"] = {
        "serial_cells_per_sec": 3.0,
        "cached_cells_per_sec": 500.0,
        "records_mismatched": 0,
        "errors": 0,
    }
    return doc


def test_gate_fails_on_campaign_mismatch_or_error():
    # records_mismatched and errors are gated as counts against a
    # baseline of 0 — any growth at all fails.
    cur = _fake_campaign_doc()
    cur["campaign"]["records_mismatched"] = 1
    failures = pb.check_against_baseline(cur, _fake_campaign_doc())
    assert any("records_mismatched" in f for f in failures)
    cur = _fake_campaign_doc()
    cur["campaign"]["errors"] = 2
    failures = pb.check_against_baseline(cur, _fake_campaign_doc())
    assert any("campaign.errors" in f for f in failures)


def test_gate_bounds_campaign_overhead_rates():
    cur = _fake_campaign_doc()
    cur["campaign"]["cached_cells_per_sec"] = 250.0  # -50% < floor
    failures = pb.check_against_baseline(cur, _fake_campaign_doc(),
                                         max_regression=0.30)
    assert any("cached_cells_per_sec" in f for f in failures)
    assert pb.check_against_baseline(_fake_campaign_doc(),
                                     _fake_campaign_doc()) == []


def test_committed_baseline_carries_campaign_gates():
    with open("benchmarks/baselines/perf_smoke.json") as fh:
        base = json.load(fh)
    camp = base["campaign"]
    assert camp["records_mismatched"] == 0
    assert camp["errors"] == 0
    assert camp["serial_cells_per_sec"] > 0
    assert camp["cached_cells_per_sec"] > 0
