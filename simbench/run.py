"""The simulator's benchmark: one workload, end-to-end or per-layer metrics.

Usage::

    python3 simbench/run.py --workload dpu-tcp-4k-randread --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs one cell in a fresh
process for its peak memory, then repeats the cell in this process until
``--seconds`` have passed and reports medians.  Host times are scaled to
a fixed host speed by a calibration task timed around every cell (see
``calibrate.py``); the unscaled medians are printed too.  ``--trace 1`` alternates
untraced and layer-traced cells for the same time and reports the
per-layer metrics; the spans of the last traced cell are written to
``.simbench/spans-<workload>.tsv.gz``.

Every cell's simulated outputs are checked (paper bands, latency sample
count, conservation under faults) and must be identical across repeats of
one seed, across processes, and with tracing on.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 when every check passed.  "Host" metrics
are the simulator's own run time, "sim" metrics are simulated time.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from calibrate import NOMINAL_S, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest cell repeats a run makes, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Largest share by which the traced run's layer self times plus the
#: uncovered kernel time may miss the traced drive time.
CLOSURE_TOLERANCE = 0.01
#: Limit for the fresh-process cell that measures peak memory.
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("sim_ios_per_host_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_iops", "1/sim_s"),
    ("sim_lat_p50_us", "sim_us"),
    ("sim_lat_p99_us", "sim_us"),
    ("ok_ops_share", "share"),
)

PER_LAYER = (
    ("sim.events_per_io", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.self_share", "share"),
    ("sim.queues.pipe_transfers_per_io", "count"),
    ("sim.queues.pipe_self_share", "share"),
    ("sim.queues.serve_calls_per_io", "count"),
    ("workload.self_share", "share"),
    ("core.calls_per_io", "count"),
    ("core.self_share", "share"),
    ("core.sim_us_p50", "sim_us"),
    ("daos.client.self_share", "share"),
    ("daos.rpc.calls_per_io", "count"),
    ("daos.vos.calls_per_io", "count"),
    ("daos.vos.self_share", "share"),
    ("net.send_calls_per_io", "count"),
    ("net.self_share", "share"),
    ("net.sim_us_p50", "sim_us"),
    ("hw.nvme.calls_per_io", "count"),
    ("hw.nvme.self_share", "share"),
    ("hw.cpu.execute_calls_per_io", "count"),
    ("hw.nic.self_share", "share"),
    ("hw.dpu_arm_rx.util", "share"),
    ("hw.nvme_ssd0.util", "share"),
    ("faults.retries", "count"),
    ("faults.reconnects", "count"),
    ("faults.timeouts", "count"),
    ("faults.retry_share", "share"),
    ("instruments.self_share", "share"),
    ("bench.tracing_overhead", "ratio"),
)


class Outcome:
    """What a run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, outputs: dict) -> None:
        self.attempted += outputs["total_ios"] + outputs["errors"]
        self.failed += outputs["errors"]

    def result(self, metrics: Dict[str, float], units) -> dict:
        correct = not self.problems
        attempted = max(self.attempted, 1)
        # A crash or a failed check counts every operation as failed.
        failed = self.failed if correct else attempted
        if "ok_ops_share" in metrics:
            metrics["ok_ops_share"] = 1.0 - failed / attempted
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                        for name, unit in units},
        }


def _median(values) -> float:
    return statistics.median(list(values))


class _Speed:
    """Host speed around each cell, from the calibration task.

    ``scale()`` returns the factor that states the cell just run in
    seconds at the calibration's nominal host speed.
    """

    def __init__(self) -> None:
        self._before = calibration_s()

    def scale(self) -> float:
        after = calibration_s()
        factor = NOMINAL_S / ((self._before + after) / 2)
        self._before = after
        return factor


def _check_cell(workload, run, reference, outcome: Outcome, what: str) -> None:
    from cells import check_outputs

    outcome.count(run.outputs)
    for problem in check_outputs(workload, run.outputs):
        outcome.problems.append(f"{what}: {problem}")
    if run.outputs != reference:
        outcome.problems.append(f"{what}: simulated outputs differ from the "
                                f"first cell of this seed: {run.outputs} "
                                f"!= {reference}")


def _fresh_process_cell(workload, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_cell.py"), workload.name, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-process cell failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed: int, seconds: float) -> Tuple[dict, List[str]]:
    """Untraced repeats of one cell for ``seconds``; medians of host times."""
    from cells import run_cell

    outcome = Outcome()
    runs, scales = [], []
    reference = None
    child = None
    try:
        child = _fresh_process_cell(workload, seed)
        reference = child["outputs"]
        deadline = time.perf_counter() + seconds
        speed = _Speed()
        while True:
            t0 = time.perf_counter()
            gc.collect()
            run = run_cell(workload, seed)
            scales.append(speed.scale())
            runs.append(run)
            _check_cell(workload, run, reference, outcome,
                        f"repeat {len(runs)}")
            now = time.perf_counter()
            if len(runs) >= MIN_REPEATS and now + (now - t0) > deadline:
                break
    except Exception as exc:  # noqa: BLE001 - a crash is a reported failure
        outcome.problems.append(f"crash: {type(exc).__name__}: {exc}")
    metrics: Dict[str, float] = {"ok_ops_share": 1.0}
    if scales:
        out = runs[0].outputs
        metrics.update({
            "setup_s": _median(r.setup_s * k for r, k in zip(runs, scales)),
            "cell_s": _median(r.cell_s * k for r, k in zip(runs, scales)),
            "sim_ios_per_host_s": _median(r.outputs["total_ios"] / (r.drive_s * k)
                                          for r, k in zip(runs, scales)),
            "peak_rss_mib": child["peak_rss_mib"],
            "sim_iops": out["iops"],
            "sim_lat_p50_us": out["lat_p50"] * 1e6,
            "sim_lat_p99_us": out["lat_p99"] * 1e6,
        })
        print(f"{workload.name} seed {seed}: {len(runs)} untraced repeats, "
              f"{out['total_ios']} measured IOs per cell, latency percentiles "
              f"over {out['lat_count']} samples")
        print(f"unscaled medians: setup_s {_median(r.setup_s for r in runs):.6g}"
              f" cell_s {_median(r.cell_s for r in runs):.6g} sim_ios_per_host_s "
              f"{_median(r.outputs['total_ios'] / r.drive_s for r in runs):.6g};"
              f" host speed scale {_median(scales):.4f}")
    return outcome.result(metrics, END_TO_END), outcome.problems


def _layer_metrics(tracer, run) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Per-layer counts, self shares and the closure error of one traced cell."""
    drive_ns = run.drive_s * 1e9
    spans = tracer.spans
    # IOs: data-port calls that ended (completed or failed) within the drive.
    end = tracer.window_sim_end
    n_io = max(sum(1 for s in spans if s.layer == "core"
                   and s.sim_end is not None and s.sim_end <= end), 1)
    by_layer: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    for s in spans:
        by_layer[s.layer] = by_layer.get(s.layer, 0) + 1
        by_name[s.name] = by_name.get(s.name, 0) + 1

    def sim_us_p50(layer: str) -> float:
        done = [s.sim_end - s.sim_start for s in spans
                if s.layer == layer and s.sim_end is not None and s.sim_end <= end]
        return statistics.median(done) * 1e6 if done else 0.0

    uncovered = tracer.window_ns - tracer.covered_ns
    shares = {layer: ns / drive_ns for layer, ns in tracer.layer_self.items()}
    shares["sim"] = shares.get("sim", 0.0) + uncovered / drive_ns
    closure = abs(sum(shares.values()) - 1.0)
    counts = {
        "sim.events_per_io": run.outputs["drive_events"] / n_io,
        "sim.queues.pipe_transfers_per_io": by_layer.get("sim.queues.pipe", 0) / n_io,
        "sim.queues.serve_calls_per_io": by_layer.get("sim.queues.serve", 0) / n_io,
        "core.calls_per_io": by_layer.get("core", 0) / n_io,
        "core.sim_us_p50": sim_us_p50("core"),
        "daos.rpc.calls_per_io": by_name.get("RpcClient.call", 0) / n_io,
        "daos.vos.calls_per_io": by_layer.get("daos.vos", 0) / n_io,
        "net.send_calls_per_io": by_layer.get("net", 0) / n_io,
        "net.sim_us_p50": sim_us_p50("net"),
        "hw.nvme.calls_per_io": by_layer.get("hw.nvme", 0) / n_io,
        "hw.cpu.execute_calls_per_io": by_layer.get("hw.cpu", 0) / n_io,
    }
    return counts, shares, closure


def per_layer(workload, seed: int, seconds: float) -> Tuple[dict, List[str]]:
    """Alternate untraced and traced cells for ``seconds``; per-layer metrics."""
    from cells import run_cell, utilisation
    from layertrace import LayerTracer

    outcome = Outcome()
    untraced, traced, share_runs, closures = [], [], [], []
    #: Untraced and traced drive host times, scaled to the nominal speed.
    drives_u, drives_t = [], []
    counts: Dict[str, float] = {}
    tracer = None
    reference = None
    try:
        deadline = time.perf_counter() + seconds
        speed = _Speed()
        while True:
            t0 = time.perf_counter()
            gc.collect()
            run = run_cell(workload, seed)
            drives_u.append(run.drive_s * speed.scale())
            reference = reference or run.outputs
            untraced.append(run)
            _check_cell(workload, run, reference, outcome,
                        f"untraced {len(untraced)}")
            tracer = None
            gc.collect()
            tracer = LayerTracer().install()
            try:
                run = run_cell(workload, seed, on_drive=tracer.on_drive)
            finally:
                tracer.uninstall()
            drives_t.append(run.drive_s * speed.scale())
            traced.append(run)
            _check_cell(workload, run, reference, outcome,
                        f"traced {len(traced)}")
            counts, shares, closure = _layer_metrics(tracer, run)
            share_runs.append(shares)
            closures.append(closure)
            if closure > CLOSURE_TOLERANCE:
                outcome.problems.append(
                    f"traced {len(traced)}: layer self times miss the traced "
                    f"drive time by {closure:.2%}")
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
    except Exception as exc:  # noqa: BLE001 - a crash is a reported failure
        outcome.problems.append(f"crash: {type(exc).__name__}: {exc}")
    metrics: Dict[str, float] = dict(counts)
    if share_runs:
        layers = sorted({layer for s in share_runs for layer in s})
        shares = {layer: _median(s.get(layer, 0.0) for s in share_runs)
                  for layer in layers}
        last = traced[-1]
        stats = last.outputs.get("faults") or {}
        metrics.update({
            "sim.host_ns_per_event": _median(d * 1e9 / r.outputs["drive_events"]
                                             for d, r in zip(drives_u, untraced)),
            "sim.self_share": shares["sim"],
            "sim.queues.pipe_self_share": shares.get("sim.queues.pipe", 0.0),
            "workload.self_share": shares.get("workload", 0.0),
            "core.self_share": shares.get("core", 0.0),
            "daos.client.self_share": shares.get("daos.client", 0.0),
            "daos.vos.self_share": shares.get("daos.vos", 0.0),
            "net.self_share": shares.get("net", 0.0),
            "hw.nvme.self_share": shares.get("hw.nvme", 0.0),
            "hw.nic.self_share": shares.get("hw.nic", 0.0),
            "hw.dpu_arm_rx.util": utilisation(last, "dpu.arm_rx"),
            "hw.nvme_ssd0.util": utilisation(last, "nvme.ssd0"),
            "faults.retries": stats.get("retries", 0),
            "faults.reconnects": stats.get("reconnects", 0),
            "faults.timeouts": stats.get("timeouts", 0),
            "faults.retry_share": (stats["retries"] / stats["submitted"]
                                   if stats.get("submitted") else 0.0),
            "instruments.self_share": shares.get("instruments", 0.0),
            "bench.tracing_overhead": _median(drives_t) / _median(drives_u),
        })
        print(f"{workload.name} seed {seed}: {len(traced)} traced and "
              f"{len(untraced)} untraced cells; median host self share of "
              f"the traced drive by layer:")
        for layer in sorted(shares, key=shares.get, reverse=True):
            print(f"  {layer:34s} {shares[layer]:8.2%}")
        print(f"  {'(sum)':34s} {sum(shares.values()):8.2%}  (worst closure "
              f"error {max(closures):.3%} of the traced drive time)")
    if tracer is not None and tracer.spans:
        out_dir = ROOT / ".simbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}.tsv.gz"
        tracer.write_spans(str(path))
        print(f"wrote {len(tracer.spans)} spans to {path.relative_to(ROOT)}")
    return outcome.result(metrics, PER_LAYER), outcome.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cells import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"simbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    result, problems = measure(workload, args.seed, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"simbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
