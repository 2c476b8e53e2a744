"""Edge-case tests for the offload service's data plane and error paths."""

import pytest

from repro.core import Ros2Config, Ros2System
from repro.core.control_plane import GrpcError, StatusCode
from repro.hw.specs import KIB
from repro.sim import Environment


def boot(**cfg):
    env = Environment()
    system = Ros2System(env, Ros2Config(data_mode=True, **cfg))
    token = system.register_tenant("edge")

    def go(env):
        yield from system.start()
        return (yield from system.open_session(token))

    p = env.process(go(env))
    env.run(until=p)
    return env, system, p.value


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def test_io_on_unknown_session():
    env, system, session = boot()
    port = session.data_port()
    ctx = port.new_context()

    def go(env):
        yield from system.service.io_read(ctx, 9999, 1, 0, 100)

    p = env.process(go(env))
    with pytest.raises(KeyError, match="unknown session"):
        env.run(until=p)


def test_io_on_unknown_fh():
    env, system, session = boot()
    port = session.data_port()
    ctx = port.new_context()

    def go(env):
        yield from port.read(ctx, 424242, 0, 100)

    p = env.process(go(env))
    with pytest.raises(KeyError, match="unknown fh"):
        env.run(until=p)


def test_write_requires_size_or_data():
    env, system, session = boot()

    def go(env):
        fh = yield from session.create("/f")
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 0)

    p = env.process(go(env))
    with pytest.raises(ValueError, match="needs data"):
        env.run(until=p)


def test_close_file_then_io_fails():
    env, system, session = boot()

    def go(env):
        fh = yield from session.create("/f")
        port = session.data_port()
        ctx = port.new_context()
        yield from port.write(ctx, fh, 0, data=b"x")
        yield from session.close(fh)
        yield from port.read(ctx, fh, 0, 1)

    p = env.process(go(env))
    with pytest.raises(KeyError, match="unknown fh"):
        env.run(until=p)


def test_close_unknown_fh_is_not_found():
    env, system, session = boot()

    def go(env):
        yield from session.close(31337)

    p = env.process(go(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.NOT_FOUND


def test_get_caps_rejects_bad_length():
    env, system, session = boot()

    def go(env):
        yield from session.get_caps(0)

    p = env.process(go(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.INVALID_ARGUMENT


def test_file_handles_are_per_session():
    env = Environment()
    system = Ros2System(env, Ros2Config(data_mode=True))
    tok = system.register_tenant("edge")

    def go(env):
        yield from system.start()
        s1 = yield from system.open_session(tok)
        s2 = yield from system.open_session(tok)
        fh = yield from s1.create("/f")
        # The fh belongs to s1; s2's port must not accept it.
        port2 = s2.data_port()
        ctx = port2.new_context()
        try:
            yield from port2.read(ctx, fh, 0, 1)
        except KeyError as exc:
            return str(exc)
        return None

    result = run(env, go(env))
    assert result and "unknown fh" in result


def test_mkdir_invalid_path_maps_to_invalid_argument():
    env, system, session = boot()

    def go(env):
        yield from session.mkdir("relative/path")

    p = env.process(go(env))
    with pytest.raises(GrpcError) as exc_info:
        env.run(until=p)
    assert exc_info.value.code is StatusCode.INVALID_ARGUMENT


def test_config_invalid_transport_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="unknown fabric provider"):
        Ros2System(env, Ros2Config(transport="carrier-pigeon"))


def test_config_invalid_client_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Ros2System(env, Ros2Config(client="mainframe"))


def test_start_is_idempotent():
    env, system, session = boot()

    def go(env):
        before = system.container
        yield from system.start()  # second call: no re-format
        return before, system.container

    before, after = run(env, go(env))
    assert before == after


def test_session_chunk_size_round_trips():
    env, system, session = boot()

    def go(env):
        yield from session.create("/chunky", chunk_size=128 * KIB)
        st = yield from session.stat("/chunky")
        return st["chunk_size"]

    assert run(env, go(env)) == 128 * KIB
