"""Fixture: SIM008 — private accounting read from outside its owner."""


def utilization(tracer, pipe, elapsed):
    agg = tracer._aggregates["net.storage.tx"]  # SIM008: skips the settle
    busy = pipe._server.busy_time  # SIM008: skips the as-of-now view
    ok = tracer.aggregates["net.storage.tx"]  # ok: the public view
    return agg, busy / elapsed, ok, pipe.busy_time


class Owner:
    def __init__(self, server):
        self._server = server  # ok: a write, and the owner's own state

    def busy(self):
        return self._server.busy_time  # ok: the owner reads its own state
