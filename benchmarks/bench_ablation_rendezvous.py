"""Ablation: eager vs rendezvous protocol threshold on the RDMA data plane.

§3.2: "sequential I/O uses rendezvous-style transfers to amortize
per-message overhead; random I/O uses short transfers but preserves
zero-copy".  This bench sweeps the rendezvous threshold and measures both
ends of the tradeoff: large-message throughput (rendezvous enables
zero-copy pipelining at one extra RTT) and small-message latency (eager
avoids the RTS/CTS round-trip).
"""

import dataclasses

import pytest
from conftest import CellCache, write_report

from repro.bench.report import Table
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB, MIB, RDMA_COSTS, US
from repro.net.rdma import RdmaDevice
from repro.sim import Environment

CACHE = CellCache()

THRESHOLDS = (None, 4 * KIB, 16 * KIB, 256 * KIB)  # None = always eager


def _costs(threshold):
    return dataclasses.replace(RDMA_COSTS, rendezvous_threshold=threshold)


def run_case(threshold, msg_bytes, n_msgs=64):
    """Two-sided stream of ``n_msgs`` messages; returns (throughput, per-msg lat)."""

    def _run():
        env = Environment()
        top = make_paper_testbed(env, client="host")
        dev_c = RdmaDevice(top.client, _costs(threshold))
        dev_s = RdmaDevice(top.server, _costs(threshold))
        qc = dev_c.create_qp(dev_c.alloc_pd())
        qs = dev_s.create_qp(dev_s.alloc_pd())
        qc.connect(qs)
        lat = []

        def sender(env):
            for _ in range(n_msgs):
                qs.post_recv(0)
                t0 = env.now
                yield from qc.post_send(nbytes=msg_bytes)
                lat.append(env.now - t0)

        p = env.process(sender(env))
        env.run(until=p)
        return n_msgs * msg_bytes / env.now, sum(lat) / len(lat)

    return CACHE.get_or_run((threshold, msg_bytes), _run)


@pytest.mark.parametrize("threshold", THRESHOLDS,
                         ids=lambda t: "eager-only" if t is None else f"rndv@{t}")
@pytest.mark.parametrize("msg", [4 * KIB, MIB], ids=["4KiB", "1MiB"])
def test_threshold_case(benchmark, threshold, msg):
    rate, lat = benchmark.pedantic(
        lambda: run_case(threshold, msg), rounds=1, iterations=1
    )
    assert rate > 0


def test_rendezvous_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        "Ablation: rendezvous threshold on a two-sided RDMA stream",
        ["4KiB lat (us)", "1MiB lat (us)"],
        row_header="threshold",
    )
    for t in THRESHOLDS:
        name = "eager-only" if t is None else f"rndv @{t // KIB} KiB"
        table.add_row(name, [
            f"{run_case(t, 4 * KIB)[1] / US:.1f}",
            f"{run_case(t, MIB)[1] / US:.1f}",
        ])

    # Shape: the default 16 KiB threshold keeps small messages eager
    # (no extra RTT) while large messages pay only a small relative cost.
    small_eager = run_case(None, 4 * KIB)[1]
    small_dflt = run_case(16 * KIB, 4 * KIB)[1]
    large_dflt = run_case(16 * KIB, MIB)[1]
    large_low = run_case(4 * KIB, MIB)[1]
    lines = [
        f"[{'OK ' if small_dflt == pytest.approx(small_eager) else 'OUT'}] "
        "4 KiB messages stay eager below the default threshold",
        f"[{'OK ' if large_dflt <= large_low * 1.01 else 'OUT'}] "
        "threshold placement does not penalize 1 MiB transfers",
    ]
    text = table.render() + "\n\n" + "\n".join(lines)
    write_report(results_dir, "ablation_rendezvous.txt", text)
    print("\n" + text)
    assert small_dflt == pytest.approx(small_eager)
    assert large_dflt <= large_low * 1.01
