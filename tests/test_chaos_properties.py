"""Property tests: random fault plans terminate, conserve, and replay.

Hypothesis draws small fault plans (kind/target/time/duration within
the measured window) and runs them over a 4 KiB Fig. 5 cell.  Whatever
the schedule, the run must terminate with the event heap drained,
conserve operations (``submitted == completed + failed``), and replay
byte-identically when rerun with the same plan.  A tie-scrambled rerun
(different ``tie_seed``) must stay inside the sanitizer envelope: same
conservation, same verdict checks.

Examples are few (each one simulates two full cells) and derandomized
so CI cost is fixed and failures reproduce.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultEvent, FaultPlan

# (kind, target) pairs valid on the DPU-client testbed.  engine_crash is
# excluded here — its target index must match the EC placement, which
# test_fault_recovery.py::test_engine_crash_rebuilds_and_heals covers.
_KIND_TARGETS = [
    ("qp_break", "dpu.qp"),
    ("tcp_reset", "dpu.tcp"),
    ("nvme_media_error", "nvme.ssd0"),
    ("nvme_latency_spike", "nvme.ssd0"),
    ("arm_stall", "dpu.daos_progress"),
]

_RUNTIME = 0.01

events_strategy = st.lists(
    st.builds(
        lambda kt, at_us, dur_us, factor: FaultEvent(
            kind=kt[0], target=kt[1], at=at_us * 1e-6,
            duration=dur_us * 1e-6, factor=float(factor),
        ),
        kt=st.sampled_from(_KIND_TARGETS),
        at_us=st.integers(min_value=0, max_value=8000),
        dur_us=st.integers(min_value=0, max_value=2000),
        factor=st.integers(min_value=2, max_value=8),
    ),
    min_size=1, max_size=2,
)


def run_cell(plan, transport="rdma", tie_seed=None):
    from repro.bench.runner import run_fig5_cell

    return run_fig5_cell(transport, "dpu", "randread", 4096, 4,
                         runtime=_RUNTIME, sample_every=10, waits=True,
                         fault_plan=plan, tie_seed=tie_seed)


def canonical(run) -> str:
    """Everything observable about a run, in one comparable string."""
    return json.dumps(
        {"recovery": run.fault_stats.to_dict(),
         "result": run.result.to_dict()},
        sort_keys=True,
    )


@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=events_strategy, transport=st.sampled_from(["rdma", "tcp"]))
def test_random_plans_terminate_conserve_and_replay(events, transport):
    plan = FaultPlan(events=tuple(events))
    first = run_cell(plan, transport)

    # Termination is implicit (the fault plan drained the heap); the
    # drain makes conservation exact, not eventual.
    stats = first.fault_stats
    assert stats.submitted > 0
    assert stats.submitted == stats.completed + stats.failed

    # Same plan, fresh environment: byte-identical replay.
    second = run_cell(FaultPlan.from_config(plan.to_config()), transport)
    assert canonical(first) == canonical(second)


@settings(max_examples=2, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=events_strategy)
def test_tie_scramble_stays_in_envelope(events):
    """Scrambled same-timestamp event order must not break recovery.

    The verdict (conservation, goodput, bounded tail) is the sanitizer
    envelope: tie order may move individual retries around, but never
    loses an op or turns recovery into a stall.
    """
    from repro.bench.chaos import chaos_sections

    plan = FaultPlan(events=tuple(events))
    for tie_seed in (1, 2):
        run = run_cell(plan, tie_seed=tie_seed)
        stats = run.fault_stats
        assert stats.submitted == stats.completed + stats.failed
        sections = chaos_sections(run.result, stats, plan,
                                  tracer=run.tracer)
        assert sections["ok"], (tie_seed, sections["checks"])
