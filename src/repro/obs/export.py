"""Trace exporters: Chrome trace-event JSON and OTLP-style spans.

Both exporters serialize only the *simulated* timeline
(``Span.sim_start``/``sim_seconds``), never wall clock or random ids,
so exporting the same fixed workload twice -- or once with 1 worker
and once with 8 worker processes -- produces byte-identical
output.  That determinism is what lets CI diff exported traces and
``scripts/validate_trace.py`` assert structural invariants.

* :func:`chrome_trace` emits the Chrome trace-event format (``B``/``E``
  duration pairs, timestamps in microseconds): load the file in
  `Perfetto <https://ui.perfetto.dev>`_ or ``chrome://tracing`` and the
  span tree renders as a flame chart over simulated time.
* :func:`otlp_spans` emits an OTLP/JSON-shaped span dump
  (``resourceSpans`` → ``scopeSpans`` → ``spans``) with deterministic
  sequential span ids, for tooling that speaks the OpenTelemetry wire
  shape.
"""

from __future__ import annotations

import json

from repro.obs.tracing import Span, Tracer

__all__ = ["chrome_trace", "otlp_spans", "export_trace"]


def _roots(trace) -> list[Span]:
    """Accept a Tracer, a Span, or a list of Spans."""
    if isinstance(trace, Tracer):
        return list(trace.roots)
    if isinstance(trace, Span):
        return [trace]
    return list(trace)


def chrome_trace(trace) -> dict:
    """The trace as a Chrome trace-event JSON object.

    One synthetic process/thread per root span (roots are independent
    traced calls); events within a root nest by B/E pairing.
    """
    events: list[dict] = []
    for tid, root in enumerate(_roots(trace)):
        events.extend(root.to_events(pid=0, tid=tid))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _otlp_value(value) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    if isinstance(value, str):
        return {"stringValue": value}
    return {"stringValue": json.dumps(value, default=str)}


def otlp_spans(trace, service_name: str = "repro-iq") -> dict:
    """The trace as an OTLP/JSON-shaped span dump.

    Ids are deterministic -- one fixed trace id, span ids numbered in
    depth-first visit order -- because the point of this exporter is
    comparable output, not wire-exact OTLP (there is no collector in a
    simulation).  Timestamps are simulated nanoseconds since the
    workload's time zero.
    """
    spans: list[dict] = []
    next_id = [0]

    def visit(node: Span, parent_id: str) -> None:
        next_id[0] += 1
        span_id = f"{next_id[0]:016x}"
        attributes = [
            {"key": key, "value": _otlp_value(value)}
            for key, value in sorted(node.attrs.items())
        ]
        own = node.own_io
        attributes.extend(
            [
                {"key": "io.seeks", "value": _otlp_value(node.io.seeks)},
                {
                    "key": "io.blocks_read",
                    "value": _otlp_value(node.io.blocks_read),
                },
                {"key": "io.own_seeks", "value": _otlp_value(own.seeks)},
                {
                    "key": "io.own_blocks_read",
                    "value": _otlp_value(own.blocks_read),
                },
            ]
        )
        spans.append(
            {
                "traceId": f"{1:032x}",
                "spanId": span_id,
                "parentSpanId": parent_id,
                "name": node.name,
                "kind": "SPAN_KIND_INTERNAL",
                "startTimeUnixNano": str(int(round(node.sim_start * 1e9))),
                "endTimeUnixNano": str(
                    int(round((node.sim_start + node.sim_seconds) * 1e9))
                ),
                "attributes": attributes,
            }
        )
        for child in node.children:
            visit(child, span_id)

    for root in _roots(trace):
        visit(root, "")
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": service_name},
                        }
                    ]
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.obs.tracing"},
                        "spans": spans,
                    }
                ],
            }
        ]
    }


def export_trace(trace, fmt: str) -> dict:
    """Dispatch on format name ("chrome" or "otlp")."""
    if fmt == "chrome":
        return chrome_trace(trace)
    if fmt == "otlp":
        return otlp_spans(trace)
    raise ValueError(f"unknown trace export format: {fmt!r}")
