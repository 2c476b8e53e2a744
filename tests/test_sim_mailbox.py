"""Mailbox delivery and inline process start (DESIGN.md §9).

A :class:`Mailbox` listener replaces the parked receive loop that servers
and reply demultiplexers used to run: ``while True: msg = yield
inbox.get(); env.process(handler(msg))``.  The listener must reproduce
that loop's schedule exactly — same handler order, same first-step
order, same interleaving with everything else at the instant — while
spending one delivery event per same-instant batch and no per-handler
``Initialize``.  These tests run one scenario both ways and compare a
log written at every process resumption.
"""

from repro.sim.core import Environment
from repro.sim.resources import Mailbox, Store
from repro.sim.trace import Tracer


def _scenario(env, inbox, log):
    """Senders, bystanders and handlers that log every resumption.

    Three senders deliver at t=1 in separate events (one of them two
    messages back to back), bystanders run urgent and normal work at the
    same instant, and one handler's first step sends a follow-up message
    into the same inbox while its batch is being delivered.
    """

    def child(env, tag):
        log.append((env.now, f"child {tag}"))
        yield env.timeout(0)
        log.append((env.now, f"child {tag} done"))

    def handler(env, msg):
        log.append((env.now, f"h{msg} first"))
        if msg == "b":
            yield inbox.put("b-followup")
        if msg == "c1":
            return  # finishes in its first step
        env.process(child(env, msg))
        yield env.timeout(0)
        log.append((env.now, f"h{msg} second"))
        yield env.timeout(0.5)
        log.append((env.now, f"h{msg} third"))

    def sender(env, delay, msgs):
        yield env.timeout(delay)
        log.append((env.now, f"send {msgs}"))
        for m in msgs:
            yield inbox.put(m)
        log.append((env.now, f"sent {msgs}"))
        yield env.timeout(0)
        log.append((env.now, f"sender {msgs} after"))

    def bystander(env, tag):
        yield env.timeout(1.0)
        log.append((env.now, f"bystander {tag}"))
        env.process(child(env, f"by-{tag}"))
        yield env.timeout(0)
        log.append((env.now, f"bystander {tag} after"))

    env.process(sender(env, 1.0, ["a"]))
    env.process(bystander(env, "x"))
    env.process(sender(env, 1.0, ["b", "c1"]))
    env.process(sender(env, 1.0, ["d"]))
    env.process(bystander(env, "y"))
    env.process(sender(env, 2.0, ["e"]))
    return handler


def _run_parked_loop(trace=False):
    env = Environment()
    log = []
    if trace:
        Tracer(env)
    inbox = Store(env)
    handler = _scenario(env, inbox, log)

    def loop(env):
        while True:
            msg = yield inbox.get()
            env.process(handler(env, msg))

    env.process(loop(env))
    env.run()
    return log, env.events_processed


def _run_mailbox(trace=False):
    env = Environment()
    log = []
    tracer = Tracer(env) if trace else None
    inbox = Mailbox(env)
    handler = _scenario(env, inbox, log)
    inbox.listen(lambda msg: env.process_inline(handler(env, msg)))
    env.run()
    return log, env.events_processed, tracer


def test_same_instant_batch_matches_parked_loop_reference():
    ref_log, ref_events = _run_parked_loop()
    log, events, _ = _run_mailbox()
    assert log == ref_log
    # Handler order and first-step order, spelled out.
    firsts = [what for _, what in log if what.endswith(" first")]
    assert firsts == ["ha first", "hb first", "hc1 first", "hd first",
                      "hb-followup first", "he first"]
    # Saved: the loop's own Initialize plus one Initialize per handler.
    assert ref_events - events == 1 + 6


def test_one_delivery_event_per_same_instant_batch():
    env = Environment()
    inbox = Mailbox(env)
    got = []
    inbox.listen(lambda msg: got.append((env.now, msg)))

    def burst(env):
        yield env.timeout(1.0)
        for m in range(5):
            inbox.put_nowait(m)

    env.process(burst(env))
    env.run()
    assert got == [(1.0, m) for m in range(5)]
    # Initialize + timeout for the sender, one delivery for the batch.
    assert env.events_processed == 3


def test_closed_listener_stops_delivery_and_messages_queue():
    env = Environment()
    inbox = Mailbox(env)
    got = []

    def on_message(msg):
        got.append(msg)
        if msg == "stop":
            listener.close()

    listener = inbox.listen(on_message)
    assert listener.is_alive

    def sender(env):
        yield inbox.put("a")
        yield inbox.put("stop")
        yield inbox.put("late-same-batch")
        yield env.timeout(1.0)
        yield inbox.put("later")

    env.process(sender(env))
    env.run()
    assert got == ["a", "stop"]
    assert not listener.is_alive
    # Undelivered messages stay queued, as with a loop that returned.
    assert list(inbox.items) == ["late-same-batch", "later"]


def test_listeners_share_a_mailbox_round_robin():
    env = Environment()
    inbox = Mailbox(env)
    got = {"x": [], "y": []}
    inbox.listen(got["x"].append)
    inbox.listen(got["y"].append)
    for m in range(4):
        inbox.put_nowait(m)
    env.run()
    assert got == {"x": [0, 2], "y": [1, 3]}


def test_without_listener_mailbox_is_a_store():
    env = Environment()
    inbox = Mailbox(env)
    got = []

    def receiver(env):
        got.append((yield inbox.get()))

    env.process(receiver(env))
    env.run(until=1.0)
    inbox.put_nowait("m")
    env.run()
    assert got == ["m"]


def test_trace_hook_starts_handlers_through_initialize():
    # A subscribed trace hook schedules every born-processed put/get as a
    # real event (Event._succeed_inline), so the traced interleaving is
    # not the untraced one; what must hold is that every handler still
    # runs and is seen starting through its own Initialize.
    log, _, tracer = _run_mailbox(trace=True)
    firsts = [what for _, what in log if what.endswith(" first")]
    assert sorted(firsts) == ["ha first", "hb first", "hb-followup first",
                              "hc1 first", "hd first", "he first"]
    kinds = [r.kind for r in tracer.records]
    # 6 processes started by the scenario's env.process calls (senders
    # and bystanders), 2 bystander children, 5 handler children and one
    # Initialize per handler.
    assert kinds.count("Initialize") == 6 + 2 + 5 + 6


def test_process_inline_from_a_running_process_falls_back_to_initialize():
    env = Environment()
    order = []

    def child(env):
        order.append("child")
        yield env.timeout(0)

    def parent(env):
        env.process_inline(child(env))
        order.append("parent continues")
        yield env.timeout(0)

    env.process(parent(env))
    env.run()
    assert order == ["parent continues", "child"]


def test_relisten_while_a_delivery_is_due_schedules_it_once():
    env = Environment()
    inbox = Mailbox(env)
    got = []
    first = inbox.listen(got.append)
    inbox.put_nowait("a")  # delivery now due
    first.close()
    inbox.listen(got.append)
    env.run()
    assert got == ["a"]
    assert env.events_processed == 1
