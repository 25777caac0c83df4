"""Chrome trace-event JSON emitter.

Converts recorded :class:`~repro.obs.telemetry.SpanRecord` intervals into
the Trace Event Format's *complete* (``"ph": "X"``) events, wrapped in the
JSON-object envelope that ``chrome://tracing`` and https://ui.perfetto.dev
load directly.  Timestamps/durations are integer microseconds relative to
the recorder epoch; per-thread ``M`` metadata events name the process and
threads so the timeline renders with readable lanes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.obs.telemetry import Recorder, SpanRecord

__all__ = ["trace_events", "trace_document", "write_trace"]

TRACE_SCHEMA = "repro-trace/1"


def trace_events(
    spans: Sequence[SpanRecord], *, pid: int | None = None,
    process_name: str = "repro",
) -> List[Dict[str, object]]:
    """Spans → Trace Event Format dicts (metadata events first)."""
    if pid is None:
        pid = os.getpid()
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    seen_tids: set[int] = set()
    for record in spans:
        if record.tid not in seen_tids:
            seen_tids.add(record.tid)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": record.tid,
                    "args": {"name": f"thread-{len(seen_tids)}"},
                }
            )
        args: Dict[str, object] = dict(record.args)
        if record.parent is not None:
            args["parent"] = record.parent
        events.append(
            {
                "name": record.name,
                "cat": record.category,
                "ph": "X",
                "ts": record.start_us,
                "dur": record.dur_us,
                "pid": pid,
                "tid": record.tid,
                "args": args,
            }
        )
    return events


def trace_document(recorder: Recorder, *, process_name: str = "repro") -> Dict[str, object]:
    """The full JSON-object envelope for one recorder's spans."""
    spans = recorder.span_snapshot()
    return {
        "traceEvents": trace_events(spans, process_name=process_name),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "schema": TRACE_SCHEMA,
            "spans_dropped": recorder.spans_dropped,
        },
    }


def write_trace(
    path: Union[str, Path], recorder: Recorder, *, process_name: str = "repro"
) -> Path:
    """Write the Chrome-trace JSON document for ``recorder`` to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = trace_document(recorder, process_name=process_name)
    target.write_text(
        json.dumps(
            document, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        + "\n",
        encoding="utf-8",
    )
    return target
