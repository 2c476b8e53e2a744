"""A fixed calibration task that measures how fast the host runs right now.

The benchmark's machine is shared: its speed for interpreter-bound code
drifts by up to half over minutes.  The calibration task does the same
kind of work as the simulator's kernel: generator processes, driven
through ``yield from`` off a heap, that read a table larger than the CPU
caches and allocate an event object with a dict per step, all kept alive
until the task ends.  The footprint matters: a cache-resident task tracked
the simulator's speed worse than no scaling at all.  The task depends on
nothing in ``src/``, so a change to the simulator cannot move it.  The
benchmark times it between cells and scales each cell's host times by
``NOMINAL_S`` over the mean of the times before and after the cell, which
states them in seconds at a fixed host speed.
"""

import gc
from heapq import heappop, heappush
from time import perf_counter

#: The calibration task's time on the baseline host (a 2-vCPU Xeon VM,
#: Python 3.11): scaled times read as seconds at that host's speed.
NOMINAL_S = 0.1

#: Read-only table the processes index with a stride that defeats caches.
_TABLE = [i * 2654435761 % 1000003 for i in range(1 << 18)]


class _Event:
    __slots__ = ("when", "waiters", "value")

    def __init__(self, when: float) -> None:
        self.when = when
        self.waiters = []
        self.value = None


def _delay(k: int):
    yield ((k % 7) + 1) * 1e-6


def _process(index: int, steps: int):
    acc = 0
    for k in range(steps):
        acc += _TABLE[(index * 7919 + k * 104729) % len(_TABLE)] % 13
        yield from _delay(index + k)
    return acc


def _event_loop(n_procs: int = 256, steps: int = 128) -> int:
    heap = []
    seq = 0
    live = []
    for i in range(n_procs):
        heappush(heap, (0.0, seq, _process(i, steps)))
        seq += 1
    total = 0
    while heap:
        when, _, proc = heappop(heap)
        event = _Event(when)
        live.append(event)
        try:
            delay = proc.send(None)
        except StopIteration as stop:
            total += stop.value
            continue
        event.waiters.append(proc)
        event.value = {"when": when, "delay": delay}
        seq += 1
        heappush(heap, (when + delay, seq, proc))
    return total


def calibration_s() -> float:
    """Host seconds the calibration task takes now.

    The previous cell's garbage is collected first and the collector is
    paused while timing, so no collection of it lands inside the task.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        _event_loop()
        return perf_counter() - t0
    finally:
        gc.enable()
