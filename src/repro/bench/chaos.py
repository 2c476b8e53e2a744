"""The chaos harness: availability verdicts for runs under fault plans.

A chaos run is a Fig. 5 cell with the wait tracer and a
:class:`~repro.faults.plan.FaultPlan` attached, so the event heap is
drained to empty afterwards (``run_fig5_cell(..., waits=True,
fault_plan=plan)``, see :func:`~repro.bench.runner.run_fig5_cell`).
This module reduces one such run into a ``repro-chaos-v1`` verdict
document asserting the properties the paper's availability story rests
on:

* **conservation** — every submitted operation either completed or
  failed with an error; nothing was lost in a retry loop or a flushed
  queue (``submitted == completed + failed`` after drain);
* **availability** — goodput (the fraction of measured-window
  operations that succeeded) stays above a threshold despite the
  injected faults;
* **bounded tail** — p99.9 latency stays under a bound, i.e. recovery
  is capped backoff + reconnect, not an unbounded stall.

The same sections are attached to chaos ledger records (``kind:
"chaos"``) via ``make_run_record(extra_sections=...)``, so the campaign
determinism gate covers recovery behaviour byte-for-byte.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "FORMAT",
    "DEFAULT_MIN_GOODPUT",
    "DEFAULT_P999_MAX",
    "chaos_sections",
    "make_chaos_report",
    "render_chaos",
    "default_qp_break_plan",
]

FORMAT = "repro-chaos-v1"

#: Measured-window success-ratio floor (goodput >= this passes).
DEFAULT_MIN_GOODPUT = 0.95

#: p99.9 latency ceiling in seconds — generous against the paper's
#: millisecond-scale tails, tight against an unbounded recovery stall.
DEFAULT_P999_MAX = 0.05


def default_qp_break_plan(client: str, runtime: float):
    """The committed default scenario: a mid-run QP break on the client.

    The break opens halfway through the measured window and refuses
    reconnection for a tenth of it, so the retry loop must ride out the
    window with capped backoff before the fresh QPs come up.
    """
    from repro.faults.plan import FaultEvent, FaultPlan

    return FaultPlan(events=(
        FaultEvent(kind="qp_break", target=f"{client}.qp",
                   at=runtime * 0.5, duration=runtime * 0.1),
    ))


def chaos_sections(
    result,
    stats,
    plan,
    tracer=None,
    min_goodput: float = DEFAULT_MIN_GOODPUT,
    p999_max: Optional[float] = DEFAULT_P999_MAX,
) -> dict:
    """The verdict sections shared by the report and the ledger record.

    ``result`` is the :class:`~repro.workload.fio.FioResult`, ``stats``
    the injector's :class:`~repro.faults.plan.FaultStats` *after* the
    drain, ``plan`` the :class:`~repro.faults.plan.FaultPlan` that ran.
    """
    lost = stats.submitted - stats.completed - stats.failed
    window_ops = result.total_ios + result.errors
    goodput = result.total_ios / window_ops if window_ops else 0.0
    p999 = result.latency.get("p999")

    checks: List[dict] = [
        {
            "name": "conservation",
            "ok": lost == 0,
            "detail": (f"submitted={stats.submitted} "
                       f"completed={stats.completed} failed={stats.failed} "
                       f"lost={lost}"),
        },
        {
            "name": "goodput",
            "ok": goodput >= min_goodput,
            "detail": (f"{goodput:.4f} of {window_ops} measured-window ops "
                       f"succeeded (floor {min_goodput:.4f})"),
        },
    ]
    if p999_max is not None and p999 is not None:
        checks.append({
            "name": "p999",
            "ok": p999 <= p999_max,
            "detail": (f"p99.9 {p999 * 1e3:.3f} ms "
                       f"(bound {p999_max * 1e3:.3f} ms)"),
        })

    sections = {
        "faults": plan.to_config(),
        "recovery": stats.to_dict(),
        "conservation": {
            "submitted": stats.submitted,
            "completed": stats.completed,
            "failed": stats.failed,
            "lost": lost,
        },
        "availability": {
            "goodput": goodput,
            "min_goodput": min_goodput,
            "window_ops": window_ops,
            "window_errors": result.errors,
            **({"p999": p999} if p999 is not None else {}),
            **({"p999_max": p999_max} if p999_max is not None else {}),
        },
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    if tracer is not None:
        # Which fault resource the recovery waits were blamed on — the
        # doctor's ``fault:{resource}`` leaves, pinned for the goldens.
        fault_blame = {
            name: agg.to_dict()
            for name, agg in sorted(tracer.aggregates.items())
            if name.startswith("fault:")
        }
        sections["fault_blame"] = fault_blame
    return sections


def make_chaos_report(run, plan, config: dict, label: str = "",
                      min_goodput: float = DEFAULT_MIN_GOODPUT,
                      p999_max: Optional[float] = DEFAULT_P999_MAX) -> dict:
    """Reduce a :class:`~repro.bench.runner.Fig5Run` made under ``plan``
    into the verdict doc."""
    doc = {
        "format": FORMAT,
        "label": label,
        "config": dict(config),
        "result": run.result.to_dict(),
        **chaos_sections(run.result, run.fault_stats, plan,
                         tracer=run.tracer, min_goodput=min_goodput,
                         p999_max=p999_max),
    }
    return doc


def render_chaos(doc: dict) -> str:
    """One-screen human verdict."""
    lines = [f"chaos verdict — {doc.get('label') or 'run'}: "
             + ("OK" if doc["ok"] else "FAIL")]
    events = doc.get("faults", {}).get("events", [])
    for ev in events:
        lines.append(f"  fault  {ev['kind']:18s} {ev['target']:24s} "
                     f"at +{ev['at'] * 1e3:.2f} ms "
                     f"for {ev['duration'] * 1e3:.2f} ms")
    rec = doc.get("recovery", {})
    lines.append(f"  recovery: {rec.get('retries', 0)} retries, "
                 f"{rec.get('reconnects', 0)} reconnects, "
                 f"{rec.get('timeouts', 0)} timeouts, "
                 f"{rec.get('replies_dropped', 0)} replies dropped, "
                 f"{rec.get('fault_downtime', 0.0) * 1e3:.2f} ms downtime")
    for check in doc.get("checks", []):
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"  {mark} {check['name']:14s} {check['detail']}")
    return "\n".join(lines)
