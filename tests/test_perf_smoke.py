"""Tracing must be free when off: identical results, zero allocations.

The design rule in :mod:`repro.sim.spans` is that spans never schedule
events or touch the event loop, so a traced run is *bit-identical* to an
untraced one, and the only hot-loop cost with no collector attached is an
``is not None`` test (no Span objects are ever created).
"""

import functools

import pytest

import repro.sim.spans as spans_mod
from repro.bench.runner import run_fig5_cell
from repro.hw.specs import MIB
from repro.sim import SpanCollector


def _cell(**kw):
    return run_fig5_cell("tcp", "dpu", "randread", 4096, 2,
                         runtime=0.004, **kw)


class TestTracedRunsAreBitIdentical:
    def test_same_result_with_and_without_collector(self):
        base = _cell().result
        run = _cell(sample_every=10)
        traced, col = run.result, run.collector
        assert col.traces_started > 0
        assert traced.total_ios == base.total_ios
        assert traced.iops == base.iops
        assert traced.latency == base.latency
        assert traced.bandwidth == base.bandwidth

    def test_sampled_out_requests_do_not_perturb(self):
        """A collector that samples (almost) nothing == no collector."""
        base = _cell().result
        # sample_every larger than the request count: only the very first
        # request is traced, every later trace() returns None.
        run = _cell(sample_every=10_000_000)
        traced, col = run.result, run.collector
        assert col.traces_started == 1
        assert col.requests_seen > 10
        assert traced.total_ios == base.total_ios
        assert traced.iops == base.iops
        assert traced.latency == base.latency


class TestZeroCostWhenOff:
    def test_no_spans_allocated_without_collector(self):
        """The global span-id counter must not move during an untraced run."""
        before = next(spans_mod._span_ids)
        _cell()
        after = next(spans_mod._span_ids)
        assert after == before + 1

    def test_unsampled_requests_allocate_no_spans(self):
        """Only the single sampled request (the first) allocates spans."""
        before = next(spans_mod._span_ids)
        col = _cell(sample_every=10_000_000).collector
        after = next(spans_mod._span_ids)
        allocated = after - before - 1  # minus this probe's own next()
        # One trace's worth of spans (a few dozen stages), not one per I/O.
        assert col.requests_seen > 10
        assert allocated <= 50

    def test_collector_absent_means_no_trace_kwarg_cost(self):
        """run_fio with collector=None never calls SpanCollector.trace."""
        calls = []
        orig = SpanCollector.trace
        SpanCollector.trace = lambda self, *a, **k: calls.append(1) or orig(
            self, *a, **k)
        try:
            _cell(sample_every=None)
        finally:
            SpanCollector.trace = orig
        assert calls == []


INSTRUMENTS = {
    "spans": {"sample_every": 10},
    "spans+waits": {"sample_every": 10, "waits": True},
    "spans+waits+sampler": {"sample_every": 10, "waits": True,
                            "sampler": True},
}


@functools.lru_cache(maxsize=None)
def _bare_result(transport, bs):
    return run_fig5_cell(transport, "dpu", "randread", bs, 2,
                         runtime=0.004).result.to_dict()


@pytest.mark.parametrize("bs", [4096, MIB], ids=["4k", "1m"])
@pytest.mark.parametrize("transport", ["tcp", "rdma"])
@pytest.mark.parametrize("instruments", list(INSTRUMENTS))
def test_instruments_do_not_perturb_results(instruments, transport, bs):
    """Every attachable instrument leaves the simulated result unchanged.

    Only the wait tracer turns on per-operation latency and the bare cell
    records none, so the ``latency`` section is left out of the match.
    """
    run = run_fig5_cell(transport, "dpu", "randread", bs, 2, runtime=0.004,
                        **INSTRUMENTS[instruments])
    assert run.collector.traces_started > 0
    if run.tracer is not None:
        assert run.tracer.records and run.stations
    if "sampler" in instruments:
        assert run.sampler.ticks > 0
    got = run.result.to_dict()
    got.pop("latency")
    assert got == {k: v for k, v in _bare_result(transport, bs).items()
                   if k != "latency"}
