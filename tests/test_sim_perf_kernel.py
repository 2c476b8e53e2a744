"""Tests for the event-lean kernel work (DESIGN.md §9).

Pins the perf-critical invariants added by the kernel optimisation pass:

* :class:`BandwidthPipe` coalescing is *bit-identical* to the classic
  chunk-per-event reference — uncontended and under randomized
  contention (revocation restores exact chunk semantics) — while
  spending a small, size-independent number of kernel events on
  uncontended transfers.
* ``Environment.events_processed`` / ``timeouts_recycled`` count what
  they claim; ``timeout_until`` fires at the exact float requested even
  when the Timeout object is recycled.
* A chained-delay reservation (``serve``/``execute`` with trailing
  delays, ``serve_then``) wakes at the bit-identical instant of
  reserve-then-sleep with one event fewer per sleep, and a traced RDMA
  SEND keeps its post and wire sleep as two events.
* :class:`Resource` keeps FIFO grant order through swap-remove releases;
  :class:`PriorityResource` keeps ``(priority, arrival)`` order through
  heap tombstones (lazy deletion).
* Trace subscription snapshotting keeps fan-out semantics stable when a
  subscriber unsubscribes mid-dispatch.
* Direct reservation wakes dispatch the same schedule as the Timeout
  path (forced by a subscribed trace hook) on random contended
  schedules, tie scrambling included, and every misuse of a parked
  wake — interrupt, condition, foreign yield, double reservation,
  dropped wake — fails loudly and never resumes a process twice.
"""

import random
from types import MethodType

import pytest

from repro.hw.specs import RDMA_COSTS
from repro.sim.core import Environment, Interrupt, SimulationError, Timeout
from repro.sim.queues import BandwidthPipe, FifoServer, PooledServer
from repro.sim.resources import PriorityResource, Resource
from repro.sim.spans import SpanCollector
from repro.sim.waits import WaitTracer


# ---------------------------------------------------------------------------
# BandwidthPipe coalescing equivalence
# ---------------------------------------------------------------------------

def _run_schedule(jobs, coalesce, bandwidth=10e9, latency=2e-6,
                  chunk_bytes=64 * 1024, wake_lead=None):
    """Run ``[(start, nbytes), ...]`` through one pipe; return outcomes.

    With ``wake_lead``, each mover's final wake-up is scheduled that long
    before its start instead of at time zero (it matters only for ties).
    """
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=bandwidth, latency=latency,
                         chunk_bytes=chunk_bytes, coalesce=coalesce)
    done = {}

    def mover(env, i, start, nbytes):
        if wake_lead is None:
            yield env.timeout(start)
        else:
            yield env.timeout_until(start - wake_lead)
            yield env.timeout_until(start)
        yield from pipe.transfer(nbytes)
        done[i] = env.now

    for i, (start, nbytes) in enumerate(jobs):
        env.process(mover(env, i, start, nbytes))
    env.run()
    return {
        "done": done,
        "bytes_moved": pipe.bytes_moved,
        "busy_time": pipe.busy_time,
        "utilization": pipe.utilization(env.now),
        "events": env.events_processed,
        "coalesced_ops": pipe.coalesced_ops,
        "revoked_ops": pipe.revoked_ops,
    }


def test_coalesced_uncontended_bit_identical_to_chunked():
    # Strictly sequential transfers: every one coalesces, and every
    # observable — completion times, byte/busy accounting — must equal
    # the chunk-per-event reference bit for bit.
    jobs = [(i * 1e-3, n) for i, n in enumerate(
        [1, 4096, 64 * 1024, 64 * 1024 + 1, 1024 * 1024, 3 * 1024 * 1024])]
    a = _run_schedule(jobs, coalesce=True)
    b = _run_schedule(jobs, coalesce=False)
    assert a["done"] == b["done"]          # bit-identical, no tolerance
    assert a["bytes_moved"] == b["bytes_moved"]
    assert a["busy_time"] == b["busy_time"]
    assert a["utilization"] == b["utilization"]
    assert a["coalesced_ops"] == len(jobs)
    assert a["revoked_ops"] == 0
    assert b["coalesced_ops"] == 0


def test_coalesced_contended_bit_identical_to_chunked():
    # Randomized overlapping schedules: revocation at the chunk boundary
    # restores exact chunked interleaving, so outcomes stay bit-identical
    # even when transfers collide mid-coalesce.
    for seed in range(12):
        rng = random.Random(seed)
        jobs = [(rng.uniform(0.0, 5e-4), rng.randrange(1, 4 * 1024 * 1024))
                for _ in range(16)]
        a = _run_schedule(jobs, coalesce=True)
        b = _run_schedule(jobs, coalesce=False)
        assert a["done"] == b["done"], f"seed {seed}"
        assert a["bytes_moved"] == b["bytes_moved"]
        assert a["busy_time"] == b["busy_time"]
        assert a["utilization"] == b["utilization"]
    # Arrivals on a resident's chunk boundary, or a few ulps either side:
    # ``start + k * chunk_time`` rounds differently from the running sum
    # the reservation accumulated, and the running sum itself is an exact
    # tie.  These are the schedules pipelines of equal-rate pipes produce;
    # as there, the arrival's wake-up is scheduled within the last chunk
    # time, after the owner's chunk in the chunked run.
    chunk = 64 * 1024
    for seed in range(200):
        rng = random.Random(seed)
        bandwidth = rng.choice([10e9, 12.5e9, 25e9])
        chunk_time = chunk / bandwidth
        start = rng.uniform(0.01, 0.05)
        n_chunks = rng.randrange(4, 40)
        k = rng.randrange(1, n_chunks - 1)
        boundary = start
        for _ in range(k):
            boundary += chunk_time
        arrival = rng.choice([start + k * chunk_time,
                              start + (k * chunk) / bandwidth, boundary])
        jobs = [(start, (n_chunks - 1) * chunk + rng.randrange(1, chunk + 1)),
                (arrival, rng.randrange(1, 2 * chunk))]
        a = _run_schedule(jobs, coalesce=True, bandwidth=bandwidth, latency=0.0,
                          wake_lead=chunk_time / 2)
        b = _run_schedule(jobs, coalesce=False, bandwidth=bandwidth, latency=0.0,
                          wake_lead=chunk_time / 2)
        assert a["done"] == b["done"], f"boundary seed {seed}"
        assert a["busy_time"] == b["busy_time"], f"boundary seed {seed}"


def test_revocation_at_a_chunk_boundary_stays_in_the_future():
    # The reservation that crashed the DPU fairness ablation with
    # ``negative delay -6.9e-18``: 1.1 MiB (17 full chunks and a tail)
    # coalescing on a 100 Gbps port when a small message arrives two ulps
    # after the 17th chunk boundary.  ``elapsed / chunk_time`` rounds to
    # 16.99999..., so the rollback used to rebuild ``free_at`` at that
    # boundary — in the past — and revoke.  The tail is the chunk in
    # flight, so there is nothing to revoke: the message goes after it,
    # as in the chunked run.
    start = 0.03127850333257139
    arrival = 0.03136763229257138
    jobs = [(start, 1127569), (arrival, 4096)]
    a = _run_schedule(jobs, coalesce=True, bandwidth=12.5e9, latency=0.0)
    b = _run_schedule(jobs, coalesce=False, bandwidth=12.5e9, latency=0.0)
    assert a["revoked_ops"] == 0
    assert a["done"] == b["done"]
    assert a["busy_time"] == b["busy_time"]
    assert a["done"][1] == a["done"][0] + 4096 / 12.5e9


def test_single_chunk_transfers_take_one_plain_reservation():
    # A transfer of at most one chunk is served by one FifoServer
    # reservation whether or not it is alone; outcomes match the chunked
    # reference and the coalescing count still records the lone ones.
    for seed in range(12):
        rng = random.Random(seed)
        jobs = [(rng.uniform(0.0, 2e-5), rng.randrange(1, 64 * 1024 + 1))
                for _ in range(24)]
        a = _run_schedule(jobs, coalesce=True)
        b = _run_schedule(jobs, coalesce=False)
        assert a["done"] == b["done"], f"seed {seed}"
        assert a["busy_time"] == b["busy_time"]
        assert a["events"] == b["events"]
        assert a["revoked_ops"] == 0
        assert 0 < a["coalesced_ops"] < len(jobs)
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=10e9, chunk_bytes=64 * 1024)

    def mover(env):
        yield from pipe.transfer(64 * 1024)
        yield from pipe.transfer(100)

    env.process(mover(env))
    env.run()
    assert pipe._server.ops == 2
    assert pipe.coalesced_ops == 2
    assert pipe._co_gate is None


def test_coalesced_contention_triggers_revocation_sometimes():
    # Sanity that the contended test above actually exercises revocation:
    # two big transfers launched close together must revoke once.
    jobs = [(0.0, 8 * 1024 * 1024), (1e-5, 8 * 1024 * 1024)]
    a = _run_schedule(jobs, coalesce=True)
    assert a["revoked_ops"] >= 1
    b = _run_schedule(jobs, coalesce=False)
    assert a["done"] == b["done"]


def test_coalesced_event_cost_is_size_independent():
    # One uncontended transfer costs O(1) kernel events regardless of
    # size; the chunked reference costs O(size / chunk).  The >=4x
    # reduction on a 1 MiB transfer is an acceptance criterion.
    def events_for(nbytes, coalesce):
        r = _run_schedule([(0.0, nbytes)], coalesce=coalesce)
        return r["events"]

    small_co = events_for(64 * 1024, True)
    big_co = events_for(16 * 1024 * 1024, True)
    assert big_co == small_co  # size-independent

    mib = 1024 * 1024
    co, ch = events_for(mib, True), events_for(mib, False)
    assert ch >= 4 * co, (co, ch)


def test_chunk_burst_fairness_bound_when_overlapping():
    # A transfer arriving mid-coalesce starts transmitting after at most
    # the chunk in flight: its first byte lands within latency +
    # chunk_time of its arrival at the data phase.
    bandwidth, latency, chunk = 10e9, 2e-6, 64 * 1024
    chunk_time = chunk / bandwidth
    small = 4096
    arrival = 1e-5
    a = _run_schedule([(0.0, 32 * 1024 * 1024), (arrival, small)],
                      coalesce=True, bandwidth=bandwidth, latency=latency,
                      chunk_bytes=chunk)
    small_done = a["done"][1]
    worst = arrival + latency + chunk_time + small / bandwidth
    assert small_done <= worst + 1e-12, (small_done, worst)


def _traced_schedule(seed, coalesce, name="p"):
    """A random contended pipe schedule run under a :class:`WaitTracer`.

    Spanless and spanned movers (some starting within microseconds of
    t=0, where one transfer outlasts the current time), an interrupt of
    one mover, optionally an uninstall of the tracer mid-run, and a
    reader that snapshots the tracer's aggregates and the pipe's
    ``busy_time`` at random instants and on the first mover's chunk ends.
    A read on a chunk end is woken just before it, after the events of
    that instant were scheduled: the owner's next chunk (DESIGN.md §9)
    and a revoked owner's re-wake, which takes its place in the heap at
    the revocation, not at the previous chunk end.
    """
    rng = random.Random(seed)
    bandwidth = rng.choice([10e9, 12.5e9, 25e9])
    latency = rng.choice([0.0, 2e-6])
    chunk = 64 * 1024
    chunk_time = chunk / bandwidth
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=bandwidth, latency=latency,
                         chunk_bytes=chunk, coalesce=coalesce, name=name)
    wt = WaitTracer(env).install()
    col = SpanCollector(env)
    done, reads, hits = {}, [], []

    def mover(env, i, start, nbytes, spanned):
        tr = None
        try:
            yield env.timeout(start)
            tr = col.trace("io") if spanned else None
            yield from pipe.transfer(nbytes)
            done[i] = env.now
        except Interrupt:
            done[i] = ("interrupted", env.now)
        if tr is not None:
            tr.finish()

    s0 = rng.uniform(1e-5, 3e-5)
    jobs = [(s0, rng.randrange(4, 12) * chunk + rng.randrange(chunk), False)]
    for _ in range(rng.randrange(4, 14)):
        start = (rng.uniform(0.0, 3e-6) if rng.random() < 0.2
                 else rng.uniform(0.0, 4e-4))
        jobs.append((start, rng.randrange(1, 6 * chunk),
                     rng.random() < 0.3))
    procs = [env.process(mover(env, i, *job)) for i, job in enumerate(jobs)]

    def interrupter(env, victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            hits.append(pipe._co_gate is not None
                        and victim._target is pipe._co_gate)
            victim.interrupt()

    env.process(interrupter(env, rng.choice(procs), rng.uniform(1e-5, 4e-4)))
    uninstall_at = rng.uniform(2e-4, 4e-4) if rng.random() < 0.3 else None
    if uninstall_at is not None:
        def uninstaller(env):
            yield env.timeout(uninstall_at)
            wt.uninstall()

        env.process(uninstaller(env))

    boundary = s0 + latency
    times = [rng.uniform(0.0, 5e-4) for _ in range(12)]
    for _ in range(jobs[0][1] // chunk):
        boundary += chunk_time
        times.append(boundary)

    def reader(env):
        for t in sorted(set(times)):
            if t - chunk_time / 1000 > env.now:
                yield env.timeout_until(t - chunk_time / 1000)
            if t > env.now:
                yield env.timeout_until(t)
            installed = env._wait_tracer is wt
            reads.append((env.now, pipe.busy_time if installed else None,
                          _aggregates(wt)))

    env.process(reader(env))
    env.run()
    spans = {}
    return {
        "done": done,
        "reads": reads,
        "busy_time": pipe.busy_time,
        "ops": pipe._server.ops,
        "aggregates": _aggregates(wt),
        # Span ids count up across runs; number them by first appearance.
        "records": [(spans.setdefault(r.span.span_id, len(spans)), r.resource,
                     r.kind, r.wait, r.service, r.latency, r.t)
                    for r in wt.records],
        "series": [(ts.name, ts.points()) for ts in wt.wait_series()],
        "hits": hits,
        "coalesced_ops": pipe.coalesced_ops,
        "revoked_ops": pipe.revoked_ops,
        "events": env.events_processed,
    }


def _aggregates(wt):
    return {k: (v.count, v.wait, v.service, v.latency, v.block)
            for k, v in wt.aggregates.items()}


_TRACED_KEYS = ("done", "reads", "busy_time", "ops", "aggregates", "records",
                "series")


def test_traced_coalescing_bit_identical_to_chunked():
    # Under a wait tracer a spanless transfer coalesces and books its
    # chunks lazily; every reader of the tracer's or the pipe's
    # accounting sees, at any instant, what the chunked run shows then.
    coalesced = revoked = owner_interrupts = 0
    for seed in range(60):
        a = _traced_schedule(seed, coalesce=True)
        b = _traced_schedule(seed, coalesce=False)
        for key in _TRACED_KEYS:
            assert a[key] == b[key], f"seed {seed}: {key}"
        coalesced += a["coalesced_ops"]
        revoked += a["revoked_ops"]
        owner_interrupts += sum(a["hits"])
    # The schedules exercise what they claim to.
    assert coalesced > 0 and revoked > 0 and owner_interrupts > 0


def test_traced_anonymous_pipe_stays_chunked():
    # An anonymous pipe's chunks share the ``(anon)`` aggregate with every
    # other unnamed primitive, so it does not coalesce under the tracer.
    for seed in range(4):
        a = _traced_schedule(seed, coalesce=True, name=None)
        b = _traced_schedule(seed, coalesce=False, name=None)
        for key in _TRACED_KEYS:
            assert a[key] == b[key], f"seed {seed}: {key}"
        assert a["events"] == b["events"]


def test_traced_pipes_sharing_a_name_book_in_chunk_order():
    # Two pipes under one name feed one aggregate: only one of them may
    # have lazily booked chunks pending, so the other moves chunk by chunk
    # and the aggregate sums every chunk in the chunked run's order.
    def run(coalesce):
        env = Environment()
        pipes = [BandwidthPipe(env, bandwidth=10e9, coalesce=coalesce,
                               name="p") for _ in range(2)]
        wt = WaitTracer(env).install()
        done = []

        def mover(env, pipe, start, nbytes):
            yield env.timeout(start)
            yield from pipe.transfer(nbytes)
            done.append(env.now)

        for i, (start, nbytes) in enumerate([(1e-4, 700_000), (1.1e-4, 900_000),
                                             (1.3e-4, 300_000)]):
            env.process(mover(env, pipes[i % 2], start, nbytes))
        env.run()
        return done, _aggregates(wt), [p.busy_time for p in pipes]

    assert run(True) == run(False)


def test_spanless_wait_tracer_adds_no_events_to_a_cell():
    # The tier-1 form of "what the wait tracer costs when on": on 1 MiB
    # RDMA and TCP cells, where every payload crosses multi-chunk pipes,
    # installing the tracer (spans off) dispatches not one more event.
    from repro.bench.runner import run_fig5_cell

    for provider in ("rdma", "tcp"):
        runs = [run_fig5_cell(provider, "dpu", "read", 1 << 20, 2,
                              runtime=0.002, waits=waits)
                for waits in (False, True)]
        plain, traced = (r.system.env.events_processed for r in runs)
        assert traced == plain, provider
        assert runs[0].result.iops == runs[1].result.iops


# ---------------------------------------------------------------------------
# Kernel counters, freelist, timeout_until exactness
# ---------------------------------------------------------------------------

def test_events_processed_counts_dispatches():
    env = Environment()

    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    # Initialize + 10 timeouts = 11 dispatched events.
    assert env.events_processed == 11


def test_timeout_freelist_recycles_in_hot_loop():
    env = Environment()

    def ticker(env):
        for _ in range(100):
            yield env.timeout(0.5)

    env.process(ticker(env))
    env.run()
    # After the first timeout is parked, every later one is recycled.
    assert env.timeouts_recycled >= 98
    assert env.events_processed == 101


def test_timeout_until_exact_even_when_recycled():
    env = Environment()
    times = []

    def proc(env):
        # Exercise the freelist: the later timeout_until reuses a parked
        # Timeout and must still fire at the exact float requested.
        yield env.timeout(0.1)
        when = 0.1 + 1e-7 + 3e-13  # not representable as now+delay rounding
        yield env.timeout_until(when)
        times.append((env.now, when))

    env.process(proc(env))
    env.run()
    now, when = times[0]
    assert now == when  # exact, no delay re-rounding


def test_timeout_until_rejects_past():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        try:
            env.timeout_until(0.5)
        except ValueError:
            return "raised"
        return "no"

    p = env.process(proc(env))
    env.run()
    assert p.value == "raised"


# ---------------------------------------------------------------------------
# Chained-delay reservations (serve / execute with delays, serve_then)
# ---------------------------------------------------------------------------

class _StationLog:
    """Station-stats stand-in: logs every ``(arrival, completion)`` pair."""

    def __init__(self):
        self.pairs = []

    def record(self, now, done):
        self.pairs.append((now, done))


def _reserve_jobs(seed, n=40):
    """Random ``(start, duration, delays)`` jobs, many of them near t = 0."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(n):
        start = rng.choice([rng.uniform(0.0, 1e-9), rng.uniform(0.0, 1e-6),
                            rng.uniform(0.0, 2e-3)])
        duration = rng.choice([0.0, rng.uniform(0.0, 1e-7),
                               rng.uniform(0.0, 3e-4)])
        delays = tuple(rng.choice([0.0, rng.uniform(0.0, 1e-8),
                                   rng.uniform(0.0, 5e-5)])
                       for _ in range(rng.randrange(0, 4)))
        jobs.append((start, duration, delays))
    return jobs


def _run_reservations(kind, jobs, chained, own_latency=False):
    """Each job reserves once, then sleeps its delays: either chained into
    one event or as reserve-then-sleep.  ``own_latency`` chains a job's
    single delay through ``serve_then``.  Returns every observable."""
    env = Environment()
    if kind == "fifo":
        srv = FifoServer(env, name="srv")
        reserve = srv.serve
    else:
        srv = PooledServer(env, 3, name="srv")
        reserve = srv.execute
    log = _StationLog()
    srv.attach_stats(log)
    tracer = WaitTracer(env).install()
    woke = {}

    def job(env, i, start, duration, delays):
        yield env.timeout_until(start)
        if own_latency:
            yield srv.serve_then(duration, *delays)
        elif chained:
            yield reserve(duration, *delays)
        else:
            yield reserve(duration)
            for delay in delays:
                yield env.timeout(delay)
        woke[i] = env.now

    for i, (start, duration, delays) in enumerate(jobs):
        env.process(job(env, i, start, duration, delays))
    env.run()
    free = srv.free_at if kind == "fifo" else sorted(srv._free)
    return {
        "woke": woke,
        "free": free,
        "busy_time": srv.busy_time,
        "ops": srv.ops,
        "stats": log.pairs,
        "waits": {k: v.to_dict() for k, v in sorted(tracer.aggregates.items())},
        "records": len(tracer.records),
        "events": env.events_processed,
    }


@pytest.mark.parametrize("kind", ["fifo", "pooled"])
def test_chained_reservation_bit_identical_to_reserve_then_sleep(kind):
    # The fire time repeats ``((now + (done - now)) + d1) + d2 ...`` — the
    # reference's float additions — so every wake-up instant is
    # bit-identical, including near t = 0 where ``now + (done - now)`` is
    # not ``done``.  (Only the instant: the chained event is sequenced at
    # the reservation, so its order among equal-time events may differ.)
    drift = 0
    for seed in range(30):
        jobs = _reserve_jobs(seed)
        ref = _run_reservations(kind, jobs, chained=False)
        new = _run_reservations(kind, jobs, chained=True)
        for key in ("woke", "free", "busy_time", "ops", "stats", "waits",
                    "records"):
            assert new[key] == ref[key], f"{kind} seed {seed}: {key}"
        n_sleeps = sum(1 for _, _, delays in jobs for _ in delays)
        assert new["events"] == ref["events"] - n_sleeps
        drift += sum(1 for now, done in ref["stats"] if now + (done - now) != done)
    assert drift > 0  # the schedules do reach the rounding region


def test_serve_then_books_its_delay_only_as_own_latency():
    # ``serve_then`` (a device's access latency) books the delay on the
    # server; everything else in the wait aggregates is unchanged.
    jobs = [(start, duration, delays[:1] or (0.0,))
            for start, duration, delays in _reserve_jobs(7)]
    ref = _run_reservations("fifo", jobs, chained=False)
    own = _run_reservations("fifo", jobs, chained=True, own_latency=True)
    assert own["woke"] == ref["woke"]
    got, want = own["waits"]["srv"], ref["waits"]["srv"]
    assert got["latency_sec"] == pytest.approx(
        sum(delays[0] for _, _, delays in jobs), rel=1e-12)
    got.pop("latency_sec")
    want.pop("latency_sec")
    assert got == want


def test_chained_reservation_rejects_negative_delay_before_reserving():
    env = Environment()
    fifo, pool = FifoServer(env), PooledServer(env, 2)
    fifo.serve(1e-6)
    pool.execute(2e-6)
    before = (fifo.free_at, fifo.busy_time, fifo.ops,
              list(pool._free), pool.busy_time, pool.ops)
    with pytest.raises(ValueError, match="negative extra delay"):
        fifo.serve(1e-6, 1e-6, -1e-9)
    with pytest.raises(ValueError, match="negative extra delay"):
        fifo.serve_then(1e-6, -1e-9)
    with pytest.raises(ValueError, match="negative extra delay"):
        pool.execute(1e-6, -1e-9)
    assert (fifo.free_at, fifo.busy_time, fifo.ops,
            list(pool._free), pool.busy_time, pool.ops) == before


def _one_rdma_send(traced, nbytes=256):
    from repro.hw import make_paper_testbed
    from repro.net import Fabric, Message
    from repro.sim.spans import SpanCollector

    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    ch = Fabric(env).connect(top.client, top.server, "rdma")
    arrived = []
    ch.listen("storage", lambda msg: arrived.append(env.now))
    col = SpanCollector(env)
    tracer = WaitTracer(env).install()

    def client(env):
        tr = col.trace("io", node="dpu") if traced else None
        meta = {"trace": tr.root} if traced else {}
        yield from ch.send(Message(src="dpu", dst="storage", kind="req",
                                   nbytes=nbytes, meta=meta))
        if traced:
            tr.finish()

    env.process(client(env))
    env.run()
    return env, top, arrived, col, tracer


def test_traced_rdma_send_keeps_two_events_and_its_spans():
    env_u, top, arrived_u, _, tracer_u = _one_rdma_send(traced=False)
    env_t, _, arrived_t, col, tracer_t = _one_rdma_send(traced=True)
    assert arrived_t == arrived_u
    # The untraced post carries the wire's pure delays; the traced one
    # keeps the CPU post and the sleep as two events.
    assert env_t.events_processed == env_u.events_processed + 1
    spans = {s.name: s for s in col.spans}
    post, wire, recv = spans["rdma.post"], spans["rdma.eager"], spans["rdma.recv"]
    assert post.t_start == 0.0
    assert post.t_end == top.client.cpu.scaled(RDMA_COSTS.tx_cpu_per_op)
    assert wire.t_start == post.t_end and recv.t_start == wire.t_end
    # The sleep (stack latency + propagation) lands in the wire span, and
    # the CPU pool books no latency for it, traced or not.
    (sleep,) = [r for r in tracer_t.records if r.kind == "sleep"]
    assert sleep.span is wire
    assert sleep.latency == (post.t_end + RDMA_COSTS.rtt_overhead / 2.0
                             + top.switch.spec.propagation) - post.t_end
    for tracer in (tracer_u, tracer_t):
        assert tracer.aggregates["dpu.cpu"].latency == 0.0


def test_rendezvous_send_folds_its_round_trip_into_the_post():
    # Above the rendezvous threshold the untraced post carries the stack
    # latency and the RTS/CTS round trip; the propagation stays its own
    # event.  Traced, all three sleeps are separate, with the round trip
    # in its own span.  The wire bytes span two chunks: the spanless
    # sender's TX and RX pipe transfers coalesce into one wake each under
    # the wait tracer, the spanned sender's stay two chunk wakes each.
    nbytes = 4 * RDMA_COSTS.rendezvous_threshold
    env_u, _, arrived_u, _, _ = _one_rdma_send(traced=False, nbytes=nbytes)
    env_t, _, arrived_t, col, _ = _one_rdma_send(traced=True, nbytes=nbytes)
    assert arrived_t == arrived_u
    assert env_t.events_processed == env_u.events_processed + 2 + 2
    spans = {s.name: s for s in col.spans}
    assert spans["rdma.rendezvous"].t_start > spans["rdma.post"].t_end
    assert spans["rdma.eager"].t_start == spans["rdma.rendezvous"].t_end


# ---------------------------------------------------------------------------
# Resource grant order under swap-remove / heap tombstones
# ---------------------------------------------------------------------------

def test_resource_fifo_order_survives_random_release_order():
    # Swap-remove permutes ``users`` internally; the *grant* order of
    # queued waiters must stay strictly FIFO regardless of which holder
    # releases first.
    rng = random.Random(42)
    env = Environment()
    res = Resource(env, capacity=3)
    granted = []

    def worker(env, i):
        with res.request() as req:
            yield req
            granted.append(i)
            yield env.timeout(rng.uniform(0.1, 2.0))

    for i in range(20):
        env.process(worker(env, i))
    env.run()
    assert granted == list(range(20))


def test_priority_resource_tombstone_skipped_on_grant():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def run(env):
        hold = res.request(priority=0)
        yield hold
        # Queue three waiters; cancel the most urgent one while queued —
        # its heap entry becomes a tombstone that grant must skip.
        urgent = res.request(priority=-5)
        mid = res.request(priority=1)
        late = res.request(priority=2)
        res.release(urgent)  # withdraw before grant (lazy deletion)
        assert [r.priority for r in res.queue] == [1, 2]
        res.release(hold)
        yield mid
        order.append("mid")
        res.release(mid)
        yield late
        order.append("late")
        res.release(late)
        assert not urgent.processed  # the tombstone never fired

    env.process(run(env))
    env.run()
    assert order == ["mid", "late"]


def test_priority_resource_order_matches_sorted_reference():
    # Property: random priorities + random mid-queue withdrawals grant in
    # exactly (priority, arrival) order over the surviving requests.
    rng = random.Random(7)
    env = Environment()
    res = PriorityResource(env, capacity=1)
    granted = []

    def run(env):
        hold = res.request(priority=-100)
        yield hold
        reqs = []
        for i in range(30):
            reqs.append((i, res.request(priority=rng.randrange(0, 5))))
        withdrawn = set(rng.sample(range(30), 10))
        for i, r in reqs:
            if i in withdrawn:
                res.release(r)
        expect = [i for i, r in sorted(
            ((i, r) for i, r in reqs if i not in withdrawn),
            key=lambda ir: (ir[1].priority, ir[1]._seq))]
        survivors = {i: r for i, r in reqs if i not in withdrawn}
        for i, r in survivors.items():
            r.callbacks.append(lambda ev, i=i: granted.append(i))
        res.release(hold)
        # Release in the expected grant order so the single slot cascades
        # through every survivor; ``granted`` records the *actual* order
        # the resource granted them in.
        for i in expect:
            yield survivors[i]
            res.release(survivors[i])
        assert granted == expect

    env.process(run(env))
    env.run()
    assert len(granted) == 20


# ---------------------------------------------------------------------------
# Trace snapshot fan-out
# ---------------------------------------------------------------------------

def test_trace_snapshot_stable_when_subscriber_unsubscribes_mid_dispatch():
    env = Environment()
    seen_a, seen_b = [], []

    def sub_a(event):
        seen_a.append(env.events_processed)
        # Unsubscribing mid-dispatch must not starve sub_b of the
        # *current* event (snapshot semantics), only future ones of a.
        if len(seen_a) == 2:
            env.remove_trace_subscriber(sub_a)

    def sub_b(event):
        seen_b.append(env.events_processed)

    env.add_trace_subscriber(sub_a)
    env.add_trace_subscriber(sub_b)

    def ticker(env):
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    assert len(seen_a) == 2          # stopped after unsubscribing
    # Initialize + 5 timeouts + the process-end event (scheduled, not
    # inlined, because a tracer is attached): none lost.
    assert len(seen_b) == 7


def test_trace_subscriber_observes_every_event():
    # With a tracer attached the born-processed/inline fast paths must
    # still report every dispatched event exactly once.
    env = Environment()
    count = [0]
    env.add_trace_subscriber(lambda e: count.__setitem__(0, count[0] + 1))

    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    # Initialize + 10 timeouts + process end (not inlined under tracing).
    assert count[0] == env.events_processed == 12


# ---------------------------------------------------------------------------
# Direct reservation wakes (no Timeout per reservation)
# ---------------------------------------------------------------------------

_QUANTUM = 1e-6  # durations on a coarse grid so equal-time ties are common


def _direct_wake_schedule(seed, tie_seed=None, hook=None, subscribe_at=None):
    """A random contended schedule over every reservation kind.

    Workers mix ``FifoServer.serve`` (plain, chained, ``serve_then``),
    ``PooledServer.execute`` (plain, chained), single- and multi-chunk
    ``BandwidthPipe`` transfers (coalesced, so overlaps revoke) and plain
    sleeps.  ``hook`` is subscribed before the run, or once the run has
    reached simulated time ``subscribe_at``.  Returns the dispatch log
    ``(time, worker, step)`` and every counter, plus the events dispatched
    and the direct wakes pending at subscription.
    """
    rng = random.Random(seed)
    env = Environment(tie_seed=tie_seed)
    fifo = FifoServer(env, name="fifo")
    pool = PooledServer(env, 2, name="pool")
    pipe = BandwidthPipe(env, bandwidth=4096 / _QUANTUM, latency=_QUANTUM,
                         chunk_bytes=4096)
    log = []
    at_subscribe = []

    def q(lo, hi):
        return rng.randint(lo, hi) * _QUANTUM

    def worker(env, w, steps):
        yield env.timeout(q(0, 5))
        for i, (kind, args) in enumerate(steps):
            if kind == "serve":
                yield fifo.serve(*args)
            elif kind == "serve_then":
                yield fifo.serve_then(*args)
            elif kind == "execute":
                yield pool.execute(*args)
            elif kind == "transfer":
                yield from pipe.transfer(*args)
            else:
                yield env.timeout(*args)
            log.append((env.now, w, i))

    kinds = ("serve", "serve_then", "execute", "transfer", "sleep")
    workers = []
    for w in range(8):
        steps = []
        for _ in range(rng.randint(3, 10)):
            kind = rng.choice(kinds)
            if kind in ("serve", "execute"):
                args = (q(0, 3),) + tuple(q(0, 2) for _ in range(rng.randint(0, 2)))
            elif kind == "serve_then":
                args = (q(0, 3), q(0, 2))
            elif kind == "transfer":
                args = (rng.choice([1, 4096, 4097, 3 * 4096, 9 * 4096 + 5]),)
            else:
                args = (q(0, 3),)
            steps.append((kind, args))
        workers.append(env.process(worker(env, w, steps), name=f"w{w}"))

    def main(env):
        yield env.all_of(workers)

    # Waiting on every process makes each one's end a scheduled event in
    # both runs (with no waiter and no hook it would be marked inline).
    done = env.process(main(env))
    if hook is not None:
        if subscribe_at is not None:
            env.run(until=subscribe_at)
            pending = sum(1 for entry in env._queue
                          if type(entry[3]) is MethodType)
            at_subscribe.extend([env.events_processed, pending])
        env.add_trace_subscriber(hook)
    env.run(until=done)
    return {
        "log": log,
        "events": env.events_processed,
        "direct_wakes": env.direct_wakes,
        "fifo": (fifo.busy_time, fifo.ops, fifo.free_at),
        "pool": (pool.busy_time, pool.ops),
        "pipe": (pipe.busy_time, pipe._server.ops, pipe.bytes_moved,
                 pipe.coalesced_ops, pipe.revoked_ops),
        "at_subscribe": at_subscribe,
    }


@pytest.mark.parametrize("tie_seed", [None, 3, 11])
def test_direct_wakes_match_the_timeout_path(tie_seed):
    # A subscribed trace hook forces every reservation onto the Timeout
    # path (as before direct wakes existed): the dispatch sequence, the
    # event count and every server's accounting must not move.
    revoked = 0
    for seed in range(60):
        direct = _direct_wake_schedule(seed, tie_seed)
        timed = _direct_wake_schedule(seed, tie_seed, hook=lambda ev: None)
        assert direct["log"] == timed["log"], f"seed {seed}"
        for key in ("events", "fifo", "pool", "pipe"):
            assert direct[key] == timed[key], (seed, key)
        assert direct["direct_wakes"] > 0
        assert timed["direct_wakes"] == 0
        revoked += direct["pipe"][4]
    assert revoked > 0  # the schedules do exercise pipe revocation


def test_hook_subscribed_mid_run_does_not_see_earlier_direct_wakes():
    # Documented in Environment._wake_at: wakes pushed before a hook
    # subscribes are dispatched without it; everything later is seen.
    for seed in range(20):
        plain = _direct_wake_schedule(seed)
        seen = []
        mid = _direct_wake_schedule(seed, hook=seen.append,
                                    subscribe_at=4 * _QUANTUM)
        assert mid["log"] == plain["log"], f"seed {seed}"
        assert mid["events"] == plain["events"]
        events0, pending = mid["at_subscribe"]
        assert pending > 0
        # Every later dispatch is seen, except the wakes already pending.
        assert len(seen) == mid["events"] - events0 - pending
        assert all(hasattr(ev, "callbacks") for ev in seen)


def test_reservation_returns_timeout_outside_a_process_or_under_a_hook():
    env = Environment()
    srv = FifoServer(env)
    assert isinstance(srv.serve(1.0), Timeout)  # no active process
    kinds = []

    def proc(env):
        wake = srv.serve(1.0)
        kinds.append(type(wake))
        yield wake

    env.process(proc(env))
    env.run()
    assert kinds[0] is not Timeout and env.direct_wakes == 1
    env.add_trace_subscriber(lambda ev: None)
    env.process(proc(env))
    env.run()
    assert kinds[1] is Timeout and env.direct_wakes == 1


def test_step_dispatches_direct_wakes():
    env = Environment()
    srv = FifoServer(env)
    woke = []

    def proc(env):
        yield srv.serve(2.0)
        woke.append(env.now)

    env.process(proc(env))
    env.step()  # Initialize: reserves
    assert not woke
    env.step()  # the direct wake
    assert woke == [2.0] and env.events_processed == 2


def test_wait_tracer_books_direct_wakes_like_timeouts():
    # The claim a reservation makes on its wake-up Timeout is dropped when
    # no Timeout is made, so a following sleep is still booked.
    def run(hook):
        env = Environment()
        wt = WaitTracer(env)
        wt.install()
        if hook:
            env.add_trace_subscriber(lambda ev: None)
        srv = FifoServer(env, name="srv")

        def proc(env):
            yield srv.serve(1.0)
            assert not wt._claimed
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        return {n: (a.count, a.wait, a.service, a.latency)
                for n, a in wt.aggregates.items()}

    assert run(hook=False) == run(hook=True)


def test_interrupt_while_parked_on_a_reservation():
    env = Environment()
    srv = FifoServer(env)
    other = FifoServer(env)
    log = []

    def victim(env):
        try:
            yield srv.serve(5.0)
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
        yield other.serve(1.0)  # a new reservation after the interrupt
        log.append(("served", env.now))
        yield env.timeout(10.0)
        log.append(("slept", env.now))

    def interrupter(env, p):
        yield env.timeout(2.0)
        p.interrupt("stop")

    p = env.process(victim(env))
    env.process(interrupter(env, p))
    env.run()
    # Interrupted at 2, never resumed by the stale wake at 5.
    assert log == [("interrupted", 2.0, "stop"), ("served", 3.0),
                   ("slept", 13.0)]
    assert not p.is_alive


def test_parked_wake_passed_to_a_condition_raises():
    for combine in ("all_of", "any_of"):
        env = Environment()
        srv = FifoServer(env)
        resumed = []

        def bad(env):
            wake = srv.serve(1.0)
            resumed.append(env.now)
            yield getattr(env, combine)([wake])

        env.process(bad(env), name="combiner")
        with pytest.raises(SimulationError, match="'combiner'"):
            env.run()
        env.run()  # the stale wake pops inert: no second resumption
        assert resumed == [0.0]


def test_parked_wake_yielded_by_another_process_raises():
    env = Environment()
    srv = FifoServer(env)
    shared, woke = [], []

    def owner(env):
        wake = srv.serve(1.0)
        shared.append(wake)
        yield wake
        woke.append(env.now)

    def thief(env):
        yield env.timeout(0.5)
        yield shared[0]

    env.process(owner(env), name="owner")
    env.process(thief(env), name="thief")
    with pytest.raises(SimulationError, match="'thief'"):
        env.run()
    env.run()
    assert woke == [1.0]  # the owner wakes once, on time


def test_second_reservation_before_yielding_the_first_raises():
    env = Environment()
    srv = FifoServer(env)
    resumed = []

    def greedy(env):
        srv.serve(1.0)  # simlint: disable=SIM007
        resumed.append(env.now)
        yield srv.serve(2.0)
        resumed.append(env.now)

    env.process(greedy(env), name="greedy")
    with pytest.raises(SimulationError, match="'greedy'.*second reservation"):
        env.run()
    env.run()
    assert resumed == [0.0]


def test_unyielded_reservation_then_other_wait_or_return_raises():
    env = Environment()
    srv = FifoServer(env)

    def sleeper(env):
        srv.serve(1.0)  # simlint: disable=SIM007
        yield env.timeout(3.0)

    env.process(sleeper(env), name="sleeper")
    with pytest.raises(SimulationError, match="'sleeper'.*unyielded"):
        env.run()

    env = Environment()
    srv = FifoServer(env)

    def quitter(env):
        yield env.timeout(1.0)
        srv.serve(1.0)  # simlint: disable=SIM007

    p = env.process(quitter(env), name="quitter")
    with pytest.raises(SimulationError, match="'quitter'.*unyielded"):
        env.run()
    env.run()
    assert not p.ok
