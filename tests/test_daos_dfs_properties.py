"""Hypothesis property tests for the DFS namespace and file layer.

Random operation sequences against a reference model: the namespace must
behave exactly like a dict-of-dicts filesystem, and files exactly like
flat byte arrays — through the full RPC/VOS/transaction machinery.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.daos import DaosClient, DaosEngine, DfsNamespace
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB
from repro.net import Fabric
from repro.sim import Environment


def mount():
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
        yield from ns.format(ctx)
        return ns

    p = env.process(go(env))
    env.run(until=p)
    return env, ctx, p.value


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


NAMES = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(
    st.tuples(st.sampled_from(["create", "mkdir", "unlink"]), NAMES),
    min_size=1, max_size=12,
))
def test_namespace_matches_reference_model(ops):
    """Root-level create/mkdir/unlink tracks a plain dict model exactly."""
    env, ctx, ns = mount()
    model = {}

    def go(env):
        for op, name in ops:
            path = f"/{name}"
            if op == "create":
                try:
                    yield from ns.create(ctx, path)
                    assert name not in model
                    model[name] = "file"
                except FileExistsError:
                    assert name in model
            elif op == "mkdir":
                try:
                    yield from ns.mkdir(ctx, path)
                    assert name not in model
                    model[name] = "dir"
                except FileExistsError:
                    assert name in model
            else:  # unlink
                try:
                    yield from ns.unlink(ctx, path)
                    assert name in model
                    del model[name]
                except FileNotFoundError:
                    assert name not in model
        listing = yield from ns.readdir(ctx, "/")
        assert listing == sorted(model)
        for name, kind in model.items():
            info = yield from ns.stat(ctx, f"/{name}")
            assert info["type"] == kind

    run(env, go(env))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(writes=st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40 * KIB),  # offset
        st.integers(min_value=1, max_value=8 * KIB),  # length
        st.integers(min_value=0, max_value=255),  # fill byte
    ),
    min_size=1, max_size=10,
))
def test_file_matches_flat_buffer(writes):
    """Arbitrary writes through chunked DFS equal a flat byte array."""
    env, ctx, ns = mount()
    span = 64 * KIB
    ref = bytearray(span)

    def go(env):
        f = yield from ns.create(ctx, "/prop.bin", chunk_size=16 * KIB)
        for off, ln, fill in writes:
            data = bytes([fill]) * ln
            yield from f.write(ctx, off, data=data)
            ref[off:off + ln] = data
        got = yield from f.read(ctx, 0, span)
        assert got == bytes(ref)
        size = yield from f.size(ctx)
        expected_size = max((o + n for o, n, _ in writes), default=0)
        assert size == expected_size

    run(env, go(env))
