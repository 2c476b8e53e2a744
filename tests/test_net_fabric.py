"""Unit tests for the fabric provider registry and unified channels."""

import pytest

from repro.hw import make_paper_testbed
from repro.hw.specs import KIB, MIB, RDMA_COSTS
from repro.net import Fabric, Message
from repro.net.fabric import RemoteRegion, list_providers, resolve_provider
from repro.net.rdma import RdmaError
from repro.sim import Environment


def setup(provider, client="host"):
    env = Environment()
    top = make_paper_testbed(env, client=client)
    fab = Fabric(env)
    ch = fab.connect(top.client, top.server, provider)
    return env, top, ch


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_all_paper_providers_registered():
    provs = list_providers()
    for name in ["ofi+tcp;ofi_rxm", "ucx+tcp", "ucx+rc", "ucx+dc_x", "ofi+verbs;ofi_rxm"]:
        assert name in provs


def test_aliases_resolve():
    assert resolve_provider("tcp").family == "tcp"
    assert resolve_provider("rdma").family == "rdma"
    assert resolve_provider("verbs").name == "ofi+verbs;ofi_rxm"


def test_unknown_provider_raises():
    with pytest.raises(ValueError, match="unknown fabric provider"):
        resolve_provider("smoke-signals")


def test_provider_mismatch_rejected():
    env = Environment()
    top = make_paper_testbed(env)
    fab = Fabric(env)
    ea = fab.endpoint(top.client, "ucx+tcp")
    eb = fab.endpoint(top.server, "ucx+rc")
    with pytest.raises(ValueError, match="provider mismatch"):
        ea.connect(eb)


# ---------------------------------------------------------------------------
# Channel behaviour, parametrized over families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc", "ofi+verbs;ofi_rxm"])
def test_send_recv_roundtrip(provider):
    env, top, ch = setup(provider)
    got = []

    def client(env):
        yield from ch.send(Message(src="host", dst="storage", kind="req", tag=9, nbytes=256))

    def server(env):
        msg = yield ch.recv("storage")
        got.append((msg.kind, msg.tag))

    env.process(client(env))
    env.process(server(env))
    env.run()
    assert got == [("req", 9)]


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc", "ofi+verbs;ofi_rxm"])
def test_listener_receives_in_arrival_order(provider):
    env, top, ch = setup(provider)
    got = []
    ch.listen("storage", lambda msg: got.append((env.now, msg.tag)))

    def client(env, tag):
        yield from ch.send(Message(src="host", dst="storage", kind="req", tag=tag,
                                   nbytes=256))

    for tag in (1, 2, 3):
        env.process(client(env, tag))
    env.run()
    assert [tag for _, tag in got] == [1, 2, 3]
    assert all(t > 0 for t, _ in got)


@pytest.mark.parametrize("provider", ["ucx+rc", "ofi+verbs;ofi_rxm"])
def test_rdma_channel_reaps_its_completions(provider):
    # Nothing polls the CQs of a channel's QPs, so the channel leaves no
    # verbs bookkeeping behind: both CQs and the receive queues stay empty
    # however many SENDs, WRITEs and READs go through.
    env, top, ch = setup(provider)
    region = ch.register("storage", 64 * KIB)
    got = []
    ch.listen("storage", lambda msg: got.append(msg.tag))
    n = 40

    def client(env):
        for i in range(n):
            yield from ch.send(Message(src="host", dst="storage", kind="req",
                                       tag=i, nbytes=256))
            yield from ch.rma_write("host", region, nbytes=4 * KIB)
            yield from ch.rma_read("host", region, 4 * KIB)

    env.process(client(env))
    env.run()
    for qp in ch.qps.values():
        assert len(qp.send_cq) == 0
        assert len(qp.recv_cq) == 0
        assert len(qp._recv_queue) == 0
    assert got == list(range(n))
    assert top.client.switch.port("host").bytes_sent() > n * 4 * KIB


@pytest.mark.parametrize("provider", ["ucx+rc", "ofi+verbs;ofi_rxm"])
def test_rdma_channel_qp_break_in_flight_raises(provider):
    # The QPs break after the SEND was posted but before it lands: the
    # sender still sees RdmaError and nothing is delivered.
    env, top, ch = setup(provider)
    got = []
    ch.listen("storage", lambda msg: got.append(msg.tag))
    posted = top.client.cpu.scaled(RDMA_COSTS.tx_cpu_per_op)
    outcome = []

    def client(env):
        try:
            yield from ch.send(Message(src="host", dst="storage", kind="req",
                                       tag=1, nbytes=256))
        except RdmaError as exc:
            outcome.append(str(exc))

    def breaker(env):
        yield env.timeout(posted + RDMA_COSTS.rtt_overhead / 4.0)
        ch.break_qps("injected qp_break")

    env.process(client(env))
    env.process(breaker(env))
    env.run()
    assert len(outcome) == 1 and "failed in flight" in outcome[0]
    assert got == []


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_register_returns_descriptor(provider):
    env, top, ch = setup(provider)
    region = ch.register("storage", 1 * MIB)
    assert isinstance(region, RemoteRegion)
    assert region.node == "storage"
    assert region.length == MIB
    assert region.rkey > 0


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_rma_write_then_read_roundtrip(provider):
    env, top, ch = setup(provider)
    buf = bytearray(4 * KIB)
    region = ch.register("storage", 4 * KIB, buffer=buf)
    got = []

    def client(env):
        yield from ch.rma_write("host", region, payload=b"\x55" * 64, offset=16)
        data = yield from ch.rma_read("host", region, 64, offset=16)
        got.append(data)

    env.process(client(env))
    env.run()
    assert got == [b"\x55" * 64]
    assert buf[16:80] == b"\x55" * 64


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_deregistered_region_rejected(provider):
    env, top, ch = setup(provider)
    region = ch.register("storage", 4 * KIB)
    ch.deregister(region)

    def client(env):
        yield from ch.rma_read("host", region, 64)

    env.process(client(env))
    with pytest.raises(Exception):  # AccessViolation or PermissionError
        env.run()


@pytest.mark.parametrize("provider", ["ucx+tcp", "ucx+rc"])
def test_rma_out_of_bounds_rejected(provider):
    env, top, ch = setup(provider)
    region = ch.register("storage", 4 * KIB)

    def client(env):
        yield from ch.rma_read("host", region, 8 * KIB)

    env.process(client(env))
    with pytest.raises(Exception):
        env.run()


def test_register_on_non_endpoint_rejected():
    env, top, ch = setup("ucx+rc")
    with pytest.raises(KeyError):
        ch.register("nowhere", 4 * KIB)


def test_scoped_registration_expires_rdma():
    env, top, ch = setup("ucx+rc")
    region = ch.register("storage", 4 * KIB, valid_until=0.5)

    def client(env):
        yield env.timeout(1.0)
        yield from ch.rma_read("host", region, 64)

    env.process(client(env))
    with pytest.raises(Exception, match="expired"):
        env.run()


def test_scoped_registration_expires_tcp():
    env, top, ch = setup("ucx+tcp")
    region = ch.register("storage", 4 * KIB, valid_until=0.5)

    def client(env):
        yield env.timeout(1.0)
        yield from ch.rma_read("host", region, 64)

    env.process(client(env))
    with pytest.raises(PermissionError, match="expired"):
        env.run()


# ---------------------------------------------------------------------------
# The central performance contrast
# ---------------------------------------------------------------------------

def bulk_read_rate(provider, client, n=24, size=MIB):
    env, top, ch = setup(provider, client=client)
    region = ch.register("storage", size)
    cname = top.client.name

    def reader(env):
        for _ in range(n):
            yield from ch.rma_read(cname, region, size)

    env.process(reader(env))
    env.run()
    return n * size / env.now


def test_rdma_rma_charges_no_server_cpu_tcp_does():
    env, top, ch = setup("ucx+rc")
    region = ch.register("storage", MIB)

    def reader(env):
        yield from ch.rma_read("host", region, MIB)

    env.process(reader(env))
    env.run()
    rdma_server_cpu = top.server.cpu.busy_time

    env2, top2, ch2 = setup("ucx+tcp")
    region2 = ch2.register("storage", MIB)

    def reader2(env2):
        yield from ch2.rma_read("host", region2, MIB)

    env2.process(reader2(env2))
    env2.run()
    tcp_server_cpu = top2.server.cpu.busy_time

    assert rdma_server_cpu == 0.0
    assert tcp_server_cpu > 0.0


def test_dpu_rdma_read_matches_host_but_tcp_does_not():
    host_tcp = bulk_read_rate("ucx+tcp", "host")
    dpu_tcp = bulk_read_rate("ucx+tcp", "dpu")
    host_rdma = bulk_read_rate("ucx+rc", "host")
    dpu_rdma = bulk_read_rate("ucx+rc", "dpu")
    # RDMA: DPU within ~10% of host. TCP: DPU way behind host.
    assert dpu_rdma > 0.9 * host_rdma
    assert dpu_tcp < 0.6 * host_tcp
    assert dpu_rdma > 2.0 * dpu_tcp
