"""Unit tests for repro.sim.resources."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, Store
from repro.sim.core import SimulationError


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def worker(env, res, i):
        with res.request() as req:
            yield req
            active.append(i)
            peak.append(len(active))
            yield env.timeout(1)
            active.remove(i)

    for i in range(5):
        env.process(worker(env, res, i))
    env.run()
    assert max(peak) == 2


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(4):
        env.process(worker(env, res, i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_release_requeues():
    env = Environment()
    res = Resource(env, capacity=1)

    def first(env, res):
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    times = []

    def second(env, res):
        yield env.timeout(1)
        with res.request() as req:
            yield req
            times.append(env.now)

    env.process(first(env, res))
    env.process(second(env, res))
    env.run()
    assert times == [5]


def test_resource_count_and_capacity():
    env = Environment()
    res = Resource(env, capacity=3)
    assert res.capacity == 3
    req = res.request()
    env.run()
    assert res.count == 1
    res.release(req)
    assert res.count == 0


def test_resource_double_release_noop():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    res.release(req)  # must not raise or corrupt state
    assert res.count == 0


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    env.run()
    queued = res.request()
    queued.cancel()
    assert len(res.queue) == 0
    res.release(held)
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_context_manager_releases_on_interrupt():
    from repro.sim import Interrupt

    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            try:
                yield env.timeout(100)
            except Interrupt:
                pass  # with-block still releases

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(holder(env, res))
    env.process(interrupter(env, victim))

    grabbed = []

    def later(env, res):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            grabbed.append(env.now)

    env.process(later(env, res))
    env.run()
    assert grabbed == [2]


# ---------------------------------------------------------------------------
# PriorityResource
# ---------------------------------------------------------------------------

def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, res, prio, tag):
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    def submit(env):
        # First grabs the resource; the rest queue with mixed priorities.
        env.process(worker(env, res, 5, "first"))
        yield env.timeout(0.1)
        env.process(worker(env, res, 3, "mid"))
        env.process(worker(env, res, 1, "hot"))
        env.process(worker(env, res, 9, "cold"))

    env.process(submit(env))
    env.run()
    assert order == ["first", "hot", "mid", "cold"]


def test_priority_resource_fifo_within_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, res, tag):
        with res.request(priority=1) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    def submit(env):
        env.process(worker(env, res, "a"))
        yield env.timeout(0.1)
        env.process(worker(env, res, "b"))
        env.process(worker(env, res, "c"))

    env.process(submit(env))
    env.run()
    assert order == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for i in range(3):
            yield store.put(i)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, store):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env, store):
        yield env.timeout(4)
        yield store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [(4, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env, store):
        yield store.put("a")
        t0 = env.now
        yield store.put("b")  # blocks until consumer takes "a"
        times.append((t0, env.now))

    def consumer(env, store):
        yield env.timeout(3)
        yield store.get()

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert times == [(0, 3)]


def test_store_nowait_ops_match_immediate_put_get():
    env = Environment()
    store = Store(env, capacity=1)
    got, admitted = [], []

    def getter(env):
        got.append((yield store.get()))

    def putter(env):
        yield store.put("b")  # parks: the store is full
        admitted.append(env.now)

    env.process(getter(env))
    env.run()
    store.put_nowait("a")  # wakes the parked getter
    env.run()
    assert got == ["a"]
    store.put_nowait("c")
    with pytest.raises(SimulationError):
        store.put_nowait("overflow")
    env.process(putter(env))
    env.run(until=1.0)
    assert store.get_nowait() == "c"  # admits the parked putter
    env.run()
    assert admitted == [1.0]
    assert list(store.items) == ["b"]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put("x")
    env.run()
    assert len(store) == 1


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_many_items_order_preserved():
    env = Environment()
    store = Store(env)
    n = 200
    got = []

    def producer(env):
        for i in range(n):
            yield store.put(i)
            if i % 7 == 0:
                yield env.timeout(0.001)

    def consumer(env):
        for _ in range(n):
            got.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == list(range(n))


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

def test_container_basic_put_get():
    env = Environment()
    c = Container(env, capacity=10, init=5)
    assert c.level == 5

    def proc(env, c):
        yield c.get(3)
        assert c.level == 2
        yield c.put(8)
        assert c.level == 10

    env.process(proc(env, c))
    env.run()


def test_container_get_blocks_until_refill():
    env = Environment()
    c = Container(env, capacity=100, init=0)
    times = []

    def getter(env, c):
        yield c.get(10)
        times.append(env.now)

    def putter(env, c):
        yield env.timeout(2)
        yield c.put(10)

    env.process(getter(env, c))
    env.process(putter(env, c))
    env.run()
    assert times == [2]


def test_container_put_blocks_at_capacity():
    env = Environment()
    c = Container(env, capacity=10, init=10)
    times = []

    def putter(env, c):
        yield c.put(5)
        times.append(env.now)

    def getter(env, c):
        yield env.timeout(3)
        yield c.get(5)

    env.process(putter(env, c))
    env.process(getter(env, c))
    env.run()
    assert times == [3]


def test_container_get_over_capacity_fails():
    env = Environment()
    c = Container(env, capacity=10, init=0)

    def proc(env, c):
        yield c.get(11)

    env.process(proc(env, c))
    with pytest.raises(SimulationError):
        env.run()


def test_container_invalid_args():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)
    c = Container(env, capacity=5)
    with pytest.raises(ValueError):
        c.put(0)
    with pytest.raises(ValueError):
        c.get(-1)
