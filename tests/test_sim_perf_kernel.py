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
"""

import random

import pytest

from repro.hw.specs import RDMA_COSTS
from repro.sim.core import Environment
from repro.sim.queues import BandwidthPipe, FifoServer, PooledServer
from repro.sim.resources import PriorityResource, Resource
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
    # in its own span.
    nbytes = 4 * RDMA_COSTS.rendezvous_threshold
    env_u, _, arrived_u, _, _ = _one_rdma_send(traced=False, nbytes=nbytes)
    env_t, _, arrived_t, col, _ = _one_rdma_send(traced=True, nbytes=nbytes)
    assert arrived_t == arrived_u
    assert env_t.events_processed == env_u.events_processed + 2
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
