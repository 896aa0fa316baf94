"""Per-layer numbers from trace events.

The program's :class:`repro.observability.Tracer` emits the same event
dicts whether it keeps them in memory (in-process workloads) or streams
them to a JSONL file (the serve daemon's ``--trace``), so one reader
serves both.  The benchmark's own spans (``bench.*``) wrap each public
call; the program's spans (``infer``, ``generate``, ``solve``,
``generalize``, ``parse``, ``graph``, ``module.check``) and point events
(``infer.result``, ``solver.step``, ``solver.wake``, ``serve.response``)
supply the layers under them.
"""

from __future__ import annotations

from collections import defaultdict

INFER_CHILDREN = ("generate", "solve", "generalize")


def summarize(events: list[dict]) -> dict:
    """Span time totals (ms) by name, the ``infer`` self time, and the
    layer counts of one set of events."""
    names: dict[int, str] = {}
    parents: dict[int, int | None] = {}
    totals: dict[str, float] = defaultdict(float)
    infer_children = 0.0
    counts = {"constraints": 0, "steps": 0, "wakeups": 0, "bindings": 0}
    queue_ms: list[float] = []
    for event in events:
        kind = event.get("event")
        if kind == "span_start":
            names[event["span"]] = event["name"]
            parents[event["span"]] = event.get("parent")
            if event["name"] == "solve":
                counts["constraints"] += event["attrs"].get("constraints", 0)
        elif kind == "span_end":
            milliseconds = event["dur"] * 1000.0
            totals[event["name"]] += milliseconds
            parent = parents.get(event["span"])
            if event["name"] in INFER_CHILDREN and names.get(parent) == "infer":
                infer_children += milliseconds
        elif kind == "point":
            name, attrs = event["name"], event.get("attrs") or {}
            if name == "infer.result":
                counts["bindings"] += attrs.get("bindings", 0)
            elif name == "solver.step":
                counts["steps"] += 1
            elif name == "solver.wake":
                counts["wakeups"] += 1
            elif name == "serve.response":
                queue_ms.append(attrs.get("queue_ms") or 0.0)
    return {
        "ms": dict(totals),
        "infer_self_ms": totals.get("infer", 0.0) - infer_children,
        "counts": counts,
        "queue_ms": queue_ms,
    }


def first_infer_self_ms(events: list[dict]) -> float:
    """Self time of the first ``infer`` span in the events."""
    first = None
    children = 0.0
    parents: dict[int, int | None] = {}
    for event in events:
        kind = event.get("event")
        if kind == "span_start":
            parents[event["span"]] = event.get("parent")
            if event["name"] == "infer" and first is None:
                first = event["span"]
        elif kind == "span_end" and first is not None:
            if event["span"] == first:
                return event["dur"] * 1000.0 - children
            if event["name"] in INFER_CHILDREN and parents.get(event["span"]) == first:
                children += event["dur"] * 1000.0
    return 0.0


def split_by_root(events: list[dict], root: str) -> list[list[dict]]:
    """Group events by the ``root``-named span they happen under, in the
    order those spans started (the serve daemon runs one span tree per
    request)."""
    owner: dict[int, int] = {}
    groups: dict[int, list[dict]] = {}
    for event in events:
        kind = event.get("event")
        if kind == "span_start":
            span, parent = event["span"], event.get("parent")
            if event["name"] == root and parent is None:
                owner[span] = span
                groups[span] = []
            elif parent in owner:
                owner[span] = owner[parent]
        key = owner.get(event.get("span"))
        if key is not None and kind in ("span_start", "span_end", "point"):
            groups[key].append(event)
    return list(groups.values())
