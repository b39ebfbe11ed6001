"""Span exporters: JSONL files, in-memory collection, tree utilities.

A trace is only useful once it leaves the process.  Two ways out:

* :class:`InMemoryCollector` -- a list-backed sink for tests and for
  the explain/timeline views (attach with ``tracer.add_exporter``);
* JSONL -- :func:`write_jsonl` / :func:`read_jsonl` round-trip every
  span **losslessly** (ids, parent links, attributes, events, status,
  recorded exceptions), one JSON object per line; the trace CLI's
  ``--jsonl`` writes a run's spans this way.

Plus the structural helpers the tests lean on: :func:`span_index`,
:func:`orphan_spans` (cross-thread parenting must never detach a
span) and :func:`tree_shape` (an order-insensitive multiset of
root-to-span name paths, for comparing a parallel run against the
serial run's tree).
"""

from __future__ import annotations

import json
from collections import Counter as _Counter
from pathlib import Path
from typing import Iterable

from repro.observability.trace import Span, SpanEvent


def span_to_dict(span: Span) -> dict:
    """A JSON-safe representation of one span (lossless)."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "trace_id": span.trace_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "error": span.error,
        "attributes": dict(span.attributes),
        "events": [
            {"name": e.name, "timestamp": e.timestamp,
             "attributes": dict(e.attributes)}
            for e in span.events
        ],
    }


def span_from_dict(data: dict) -> Span:
    """The inverse of :func:`span_to_dict`."""
    return Span(
        name=data["name"],
        span_id=data["span_id"],
        trace_id=data["trace_id"],
        parent_id=data["parent_id"],
        start=data["start"],
        end=data["end"],
        status=data["status"],
        error=data["error"],
        attributes=dict(data["attributes"]),
        events=[
            SpanEvent(e["name"], e["timestamp"], dict(e["attributes"]))
            for e in data["events"]
        ],
    )


def write_jsonl(spans: Iterable[Span], path: str | Path) -> int:
    """Write spans to ``path``, one JSON object per line; returns count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> list[Span]:
    """Reload spans written by :func:`write_jsonl`."""
    spans: list[Span] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    return spans


class InMemoryCollector:
    """A list-backed exporter for tests: every finished span, in order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def __call__(self, span: Span) -> None:
        self.spans.append(span)

    def clear(self) -> None:
        self.spans.clear()


# ----------------------------------------------------------------------
# Structural helpers over exported spans.


def span_index(spans: Iterable[Span]) -> dict[int, Span]:
    return {span.span_id: span for span in spans}


def children_of(spans: Iterable[Span]) -> dict[int | None, list[Span]]:
    """Parent id -> children, each list sorted by start time."""
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return by_parent


def orphan_spans(spans: Iterable[Span]) -> list[Span]:
    """Non-root spans whose parent is missing from the collection.

    An empty result means the trace is one connected forest -- the
    cross-thread parenting guarantee the parallel executor must keep.
    """
    spans = list(spans)
    index = span_index(spans)
    return [
        span for span in spans
        if span.parent_id is not None and span.parent_id not in index
    ]


def span_path(span: Span, index: dict[int, Span]) -> tuple[str, ...]:
    """Root-to-span tuple of names (the span's position in the tree)."""
    path = [span.name]
    current = span
    while current.parent_id is not None:
        current = index[current.parent_id]
        path.append(current.name)
    return tuple(reversed(path))


def tree_shape(spans: Iterable[Span]) -> _Counter:
    """Order-insensitive multiset of root-to-span name paths.

    Two runs of the same plan -- serial and parallel -- must produce
    the same shape even though siblings start in a different order.
    """
    spans = list(spans)
    index = span_index(spans)
    return _Counter(span_path(span, index) for span in spans)
