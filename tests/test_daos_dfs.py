"""Unit tests for the DFS POSIX namespace."""

import pytest

from repro.daos import DaosClient, DaosEngine, DfsNamespace
from repro.daos.types import DaosError
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB
from repro.net import Fabric
from repro.sim import Environment


def setup(provider="ucx+rc", n_ssds=1):
    env = Environment()
    top = make_paper_testbed(env, n_ssds=n_ssds)
    fab = Fabric(env)
    engine = DaosEngine(top.server, data_mode=True)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, provider)
    engine.serve(ch)
    daos = DaosClient(top.client, ch, data_mode=True)
    ctx = daos.new_context()

    def mountfs(env):
        ph = yield from daos.connect_pool(ctx, pool)
        cont = yield from ph.create_container(ctx)
        ns = DfsNamespace(daos, cont)
        yield from ns.format(ctx)
        return ns

    p = env.process(mountfs(env))
    env.run(until=p)
    return env, ctx, p.value, engine


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def test_format_then_mount():
    env, ctx, ns, engine = setup()
    ns2 = DfsNamespace(ns.client, ns.cont)

    def go(env):
        yield from ns2.mount(ctx)

    run(env, go(env))
    assert ns2.root_oid == ns.root_oid
    assert ns2.chunk_size == ns.chunk_size


def test_mount_unformatted_container_fails():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    engine = DaosEngine(top.server, data_mode=True)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, "ucx+rc")
    engine.serve(ch)
    daos = DaosClient(top.client, ch, data_mode=True)
    ctx = daos.new_context()

    def go(env):
        ph = yield from daos.connect_pool(ctx, pool)
        cont = yield from ph.create_container(ctx)
        ns = DfsNamespace(daos, cont)
        yield from ns.mount(ctx)

    p = env.process(go(env))
    with pytest.raises(DaosError, match="not a DFS filesystem"):
        env.run(until=p)


def test_mkdir_create_readdir():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.mkdir(ctx, "/a")
        yield from ns.mkdir(ctx, "/a/b")
        yield from ns.create(ctx, "/a/file1")
        yield from ns.create(ctx, "/a/file2")
        root = yield from ns.readdir(ctx, "/")
        sub = yield from ns.readdir(ctx, "/a")
        return root, sub

    root, sub = run(env, go(env))
    assert root == ["a"]
    assert sub == ["b", "file1", "file2"]


def test_create_existing_fails():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.create(ctx, "/f")
        yield from ns.create(ctx, "/f")

    with pytest.raises(FileExistsError):
        run(env, go(env))


def test_open_missing_fails():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.open(ctx, "/ghost")

    with pytest.raises(FileNotFoundError):
        run(env, go(env))


def test_open_directory_as_file_fails():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.mkdir(ctx, "/d")
        yield from ns.open(ctx, "/d")

    with pytest.raises(IsADirectoryError):
        run(env, go(env))


def test_path_through_file_fails():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.create(ctx, "/f")
        yield from ns.create(ctx, "/f/child")

    with pytest.raises(NotADirectoryError):
        run(env, go(env))


def test_relative_path_rejected():
    env, ctx, ns, engine = setup()
    with pytest.raises(ValueError, match="absolute"):
        list(ns.create(ctx, "not/absolute"))


def test_file_write_read_roundtrip():
    env, ctx, ns, engine = setup()
    payload = bytes(range(256)) * 16  # 4 KiB

    def go(env):
        f = yield from ns.create(ctx, "/data.bin")
        yield from f.write(ctx, 0, data=payload)
        return (yield from f.read(ctx, 0, len(payload)))

    assert run(env, go(env)) == payload


def test_file_write_read_across_chunks():
    env, ctx, ns, engine = setup()
    payload = b"\xcd" * (3 * 64 * KIB)

    def go(env):
        # Small chunk size forces multi-chunk splitting.
        f = yield from ns.create(ctx, "/multi.bin", chunk_size=64 * KIB)
        yield from f.write(ctx, 10, data=payload)
        data = yield from f.read(ctx, 10, len(payload))
        size = yield from f.size(ctx)
        return data, size

    data, size = run(env, go(env))
    assert data == payload
    assert size == 10 + len(payload)


def test_sparse_file_reads_zero_holes():
    env, ctx, ns, engine = setup()

    def go(env):
        f = yield from ns.create(ctx, "/sparse", chunk_size=4 * KIB)
        yield from f.write(ctx, 10 * KIB, data=b"tail")
        return (yield from f.read(ctx, 0, 10 * KIB + 4))

    data = run(env, go(env))
    assert data == bytes(10 * KIB) + b"tail"


def test_file_punch():
    env, ctx, ns, engine = setup()

    def go(env):
        f = yield from ns.create(ctx, "/p")
        yield from f.write(ctx, 0, data=b"abcdefgh")
        yield from f.punch(ctx, 2, 4)
        return (yield from f.read(ctx, 0, 8))

    assert run(env, go(env)) == b"ab\x00\x00\x00\x00gh"


def test_stat_file_and_dir():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.mkdir(ctx, "/d")
        f = yield from ns.create(ctx, "/d/f")
        yield from f.write(ctx, 0, data=bytes(1000))
        sf = yield from ns.stat(ctx, "/d/f")
        sd = yield from ns.stat(ctx, "/d")
        return sf, sd

    sf, sd = run(env, go(env))
    assert sf["type"] == "file" and sf["size"] == 1000
    assert sd["type"] == "dir" and sd["size"] == 0


def test_unlink_file_and_empty_dir():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.create(ctx, "/f")
        yield from ns.mkdir(ctx, "/d")
        yield from ns.unlink(ctx, "/f")
        yield from ns.unlink(ctx, "/d")
        return (yield from ns.readdir(ctx, "/"))

    assert run(env, go(env)) == []


def test_unlink_nonempty_dir_fails():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.mkdir(ctx, "/d")
        yield from ns.create(ctx, "/d/f")
        yield from ns.unlink(ctx, "/d")

    with pytest.raises(OSError, match="not empty"):
        run(env, go(env))


def test_rename_moves_entry():
    env, ctx, ns, engine = setup()

    def go(env):
        f = yield from ns.create(ctx, "/old")
        yield from f.write(ctx, 0, data=b"content!")
        yield from ns.mkdir(ctx, "/sub")
        yield from ns.rename(ctx, "/old", "/sub/new")
        assert not (yield from ns.exists(ctx, "/old"))
        g = yield from ns.open(ctx, "/sub/new")
        return (yield from g.read(ctx, 0, 8))

    assert run(env, go(env)) == b"content!"


def test_rename_onto_existing_fails():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.create(ctx, "/a")
        yield from ns.create(ctx, "/b")
        yield from ns.rename(ctx, "/a", "/b")

    with pytest.raises(FileExistsError):
        run(env, go(env))


def test_exists():
    env, ctx, ns, engine = setup()

    def go(env):
        yield from ns.create(ctx, "/yes")
        a = yield from ns.exists(ctx, "/yes")
        b = yield from ns.exists(ctx, "/no")
        return a, b

    assert run(env, go(env)) == (True, False)


def test_namespace_requires_mount():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    engine = DaosEngine(top.server)
    engine.create_pool()
    ch = fab.connect(top.client, top.server, "ucx+rc")
    engine.serve(ch)
    daos = DaosClient(top.client, ch)
    ns = DfsNamespace(daos, None)  # type: ignore[arg-type]
    ctx = daos.new_context()
    with pytest.raises(DaosError, match="not mounted"):
        list(ns.readdir(ctx, "/"))


def test_chunks_of_one_file_spread_across_targets():
    """SX striping: a large file's chunks land on many engine targets."""
    env, ctx, ns, engine = setup(n_ssds=4)

    def go(env):
        f = yield from ns.create(ctx, "/big", chunk_size=4 * KIB)
        # 64 chunks of 4 KiB (inline-sized so this test runs fast).
        yield from f.write(ctx, 0, data=bytes(64 * 4 * KIB))
        return f

    f = run(env, go(env))
    holders = {
        t.index for t in engine.targets
        if t.vos.object_if_exists(ns.cont.cont, f.oid) is not None
    }
    assert len(holders) > 8
