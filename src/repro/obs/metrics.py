"""Metrics snapshot sinks: JSONL stream + Prometheus text exposition.

``--metrics FILE`` appends one ``repro-metrics/1`` JSON object per line —
a full registry snapshot stamped with a sequence number, the monotonic
elapsed time, and the reason the snapshot was taken (stage end, campaign
tick, final) — and writes the final snapshot a second time as Prometheus
text exposition format next to it (``FILE`` + ``.prom``) so a scrape-based
stack can ingest the same numbers without a converter.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Union

from repro.obs.telemetry import Recorder

__all__ = ["MetricsWriter", "prometheus_text", "write_prometheus"]

METRICS_SCHEMA = "repro-metrics/1"


class MetricsWriter:
    """Appends registry snapshots to a JSONL file, one object per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Truncate: each enabled run owns its metrics file from the start.
        self.path.write_text("", encoding="utf-8")
        self._seq = 0
        self._lock = threading.Lock()

    def write_snapshot(self, recorder: Recorder, reason: str) -> None:
        snap = recorder.snapshot()
        with self._lock:
            line: Dict[str, object] = {
                "schema": METRICS_SCHEMA,
                "seq": self._seq,
                "reason": reason,
            }
            line.update(snap)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")
            self._seq += 1


def _labels_text(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _num(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(recorder: Recorder) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    registry = recorder.registry
    lines: List[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in registry.counters():
        type_line(counter.name, "counter")
        lines.append(
            f"{counter.name}{_labels_text(dict(counter.labels))} "
            f"{_num(counter.value)}"
        )
    for gauge in registry.gauges():
        type_line(gauge.name, "gauge")
        lines.append(
            f"{gauge.name}{_labels_text(dict(gauge.labels))} {_num(gauge.value)}"
        )
    for histogram in registry.histograms():
        type_line(histogram.name, "histogram")
        base: Dict[str, object] = dict(histogram.labels)
        for le, cumulative in histogram.cumulative_buckets():
            labels = dict(base)
            labels["le"] = _num(le)
            lines.append(
                f"{histogram.name}_bucket{_labels_text(labels)} {cumulative}"
            )
        lines.append(
            f"{histogram.name}_sum{_labels_text(base)} {_num(histogram.sum)}"
        )
        lines.append(
            f"{histogram.name}_count{_labels_text(base)} {histogram.count}"
        )
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: Union[str, Path], recorder: Recorder) -> Path:
    """Write the final Prometheus text snapshot to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(prometheus_text(recorder), encoding="utf-8")
    return target
