"""Ablation: client-side read caching (the dfuse caching layer).

Epoch-style training re-reads the same dataset; a client cache on the
DPU absorbs repeat fetches before they reach the wire.  This bench runs
two epochs of a dataloader over a working set that fits in cache and
reports epoch-2 speedup plus the fetch traffic that never left the node.
"""

import pytest
from conftest import CellCache, write_report

from repro.bench.report import Table
from repro.core import Ros2Config, Ros2System
from repro.daos.dcache import CachedDfsFile, ClientCache
from repro.hw.specs import GIB, KIB, MIB
from repro.sim import Environment

CACHE = CellCache()

DATASET = 128 * MIB
CHUNK = 256 * KIB


def run_case(cached: bool):
    def _run():
        env = Environment()
        system = Ros2System(env, Ros2Config(transport="rdma", client="dpu",
                                            n_ssds=4))
        token = system.register_tenant("epochs")

        def go(env):
            yield from system.start()
            session = yield from system.open_session(token)
            state = system.service.sessions[session.session_id]
            ctx = state.svc_ctx
            f = yield from state.ns.create(ctx, "/epoch.bin", chunk_size=CHUNK)
            for off in range(0, DATASET, MIB):
                yield from f.write(ctx, off, nbytes=MIB)
            reader = f
            cache = None
            if cached:
                cache = ClientCache(env, capacity_bytes=DATASET)
                reader = CachedDfsFile(f, cache)

            def epoch(env):
                lanes = 16

                def lane(env, k):
                    lctx = session.data_port().new_context()
                    for off in range(k * CHUNK, DATASET, lanes * CHUNK):
                        yield from reader.read(lctx, off, CHUNK)

                procs = [env.process(lane(env, k)) for k in range(lanes)]
                yield env.all_of(procs)

            t0 = env.now
            yield from epoch(env)
            e1 = env.now - t0
            t0 = env.now
            yield from epoch(env)
            e2 = env.now - t0
            return e1, e2, cache

        p = env.process(go(env))
        env.run(until=p)
        return p.value

    return CACHE.get_or_run((cached,), _run)


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_epochs(benchmark, cached):
    e1, e2, _ = benchmark.pedantic(lambda: run_case(cached), rounds=1, iterations=1)
    assert e1 > 0 and e2 > 0


def test_client_cache_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    e1_u, e2_u, _ = run_case(False)
    e1_c, e2_c, cache = run_case(True)
    table = Table(
        "Ablation: client read cache over two dataloader epochs "
        f"({DATASET // MIB} MiB working set, {CHUNK // KIB} KiB samples, DPU)",
        ["epoch1 GiB/s", "epoch2 GiB/s"],
        row_header="mode",
    )
    table.add_row("uncached", [f"{DATASET / e1_u / GIB:.2f}",
                               f"{DATASET / e2_u / GIB:.2f}"])
    table.add_row("cached", [f"{DATASET / e1_c / GIB:.2f}",
                             f"{DATASET / e2_c / GIB:.2f}"])

    speedup = e2_u / e2_c
    lines = [
        f"[{'OK ' if speedup > 5 else 'OUT'}] warm epoch served from client "
        f"memory ({speedup:.0f}x faster than uncached)",
        f"[{'OK ' if cache.hit_rate() > 0.45 else 'OUT'}] cache hit rate over "
        f"both epochs: {cache.hit_rate() * 100:.0f}%",
        f"[{'OK ' if abs(e1_c / e1_u - 1) < 0.1 else 'OUT'}] cold epoch pays "
        f"no measurable caching tax ({e1_c / e1_u:.2f}x)",
    ]
    text = table.render() + "\n\n" + "\n".join(lines)
    write_report(results_dir, "ablation_client_cache.txt", text)
    print("\n" + text)
    assert speedup > 5
    assert cache.hit_rate() > 0.45
    assert abs(e1_c / e1_u - 1) < 0.1
