"""Direct unit tests for the Versioned Object Store (media binding layer)."""

import pytest

from repro.daos.types import ContainerId, NoSuchObject, ObjectId
from repro.daos.vos import KV_RECORD_BYTES, SCM_THRESHOLD, VersionedObjectStore
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB, MIB
from repro.sim import Environment
from repro.storage import BlockDevice, PmemPool

CONT = ContainerId(1)
OID = ObjectId.make(1)


def make_vos(data_mode=True, region_bytes=64 * MIB):
    env = Environment()
    top = make_paper_testbed(env)
    scm = PmemPool(env, 16 * MIB, data_mode=data_mode)
    nvme = BlockDevice(top.server.nvme, data_mode=data_mode)
    vos = VersionedObjectStore(env, 0, scm, nvme, 0, region_bytes)
    return env, vos


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def test_small_update_goes_to_scm():
    env, vos = make_vos()

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, 1024, data=bytes(1024))

    run(env, go(env))
    assert vos.scm.writes.ops == 1
    assert vos.nvme_used_bytes == 0


def test_large_update_goes_to_nvme():
    env, vos = make_vos()

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, 64 * KIB,
                              data=bytes(64 * KIB))

    run(env, go(env))
    assert vos.nvme_used_bytes == 64 * KIB
    assert vos.scm.writes.ops == 0


def test_threshold_boundary():
    env, vos = make_vos(data_mode=False)

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, SCM_THRESHOLD)
        yield from vos.update(CONT, OID, b"d", b"b", 1, 0, SCM_THRESHOLD + 1)

    run(env, go(env))
    assert vos.scm.writes.ops == 1  # at-threshold record on SCM
    assert vos.nvme_used_bytes == SCM_THRESHOLD + 1


def test_fetch_roundtrip_across_tiers():
    env, vos = make_vos()

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, 1024, data=b"s" * 1024)
        yield from vos.update(CONT, OID, b"d", b"a", 2, 1024, 64 * KIB,
                              data=b"n" * 64 * KIB)
        return (yield from vos.fetch(CONT, OID, b"d", b"a", 2, 0, 1024 + 64 * KIB))

    data = run(env, go(env))
    assert data == b"s" * 1024 + b"n" * 64 * KIB


def test_fetch_unwritten_object_is_hole():
    env, vos = make_vos()

    def go(env):
        return (yield from vos.fetch(CONT, OID, b"d", b"a", 5, 0, 128))

    assert run(env, go(env)) == bytes(128)


def test_fetch_virtual_mode_returns_none():
    env, vos = make_vos(data_mode=False)

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, 64 * KIB)
        return (yield from vos.fetch(CONT, OID, b"d", b"a", 1, 0, 64 * KIB))

    assert run(env, go(env)) is None


def test_nvme_region_exhaustion():
    env, vos = make_vos(data_mode=False, region_bytes=128 * KIB)

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, 100 * KIB)
        yield from vos.update(CONT, OID, b"d", b"b", 2, 0, 100 * KIB)

    p = env.process(go(env))
    with pytest.raises(MemoryError, match="region exhausted"):
        env.run(until=p)


def test_punch_is_metadata_only():
    env, vos = make_vos()

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, 64 * KIB,
                              data=bytes(64 * KIB))
        used_before = vos.nvme_used_bytes
        yield from vos.punch(CONT, OID, b"d", b"a", 2, 0, 64 * KIB)
        return used_before

    used_before = run(env, go(env))
    assert vos.nvme_used_bytes == used_before  # no new NVMe allocation


def test_kv_roundtrip_and_missing():
    env, vos = make_vos()

    def go(env):
        yield from vos.kv_put(CONT, OID, b"d", b"a", 1, {"x": 1})
        return (yield from vos.kv_get(CONT, OID, b"d", b"a", 1))

    assert run(env, go(env)) == {"x": 1}

    def missing(env):
        yield from vos.kv_get(CONT, ObjectId.make(99), b"d", b"a", 1)

    p = env.process(missing(env))
    with pytest.raises(NoSuchObject):
        env.run(until=p)


def test_list_dkeys_and_sizes():
    env, vos = make_vos()

    def go(env):
        yield from vos.update(CONT, OID, b"k1", b"data", 1, 0, 100, data=bytes(100))
        yield from vos.update(CONT, OID, b"k2", b"data", 2, 50, 100, data=bytes(100))
        yield from vos.kv_put(CONT, OID, b"k3", b"meta", 3, "v")
        keys = yield from vos.list_dkeys(CONT, OID, 3)
        sizes = yield from vos.dkey_sizes(CONT, OID, b"data", 3)
        return keys, sizes

    keys, sizes = run(env, go(env))
    assert keys == [b"k1", b"k2", b"k3"]
    assert sizes == {b"k1": 100, b"k2": 150}


def test_dkey_sizes_on_missing_object():
    env, vos = make_vos()

    def go(env):
        return (yield from vos.dkey_sizes(CONT, ObjectId.make(404), b"data", 1))

    assert run(env, go(env)) == {}


def test_fetch_charges_media_time():
    env, vos = make_vos(data_mode=False)

    def go(env):
        yield from vos.update(CONT, OID, b"d", b"a", 1, 0, MIB)
        t0 = env.now
        yield from vos.fetch(CONT, OID, b"d", b"a", 1, 0, MIB)
        return env.now - t0

    elapsed = run(env, go(env))
    # At least the device's bandwidth-bound service time + access latency.
    assert elapsed > MIB / (7 * 2**30)


def test_kv_record_accounting_constant():
    assert KV_RECORD_BYTES > 0
