"""Fixture: SIM007 — a reservation's wake-up not yielded where it is made."""


def handler(env, cpu, srv, engine, ch):
    yield cpu.execute(1e-6)  # ok: yielded at once
    srv.serve(2e-6)  # SIM007: wake-up dropped
    wake = cpu.execute(1e-6)  # SIM007: wake-up stored
    yield wake
    engine.serve(ch)  # ok: an RPC listener, not a reservation
    env.run(until=1.0)  # ok: the event loop, not JobThread.run


def post(cpu):
    return cpu.execute(1e-6)  # ok: the caller yields it
