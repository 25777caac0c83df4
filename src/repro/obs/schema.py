"""JSON schemas + a tiny dependency-free validator for the obs artefacts.

Three artefact shapes are pinned here: the Chrome trace document written
by :mod:`repro.obs.trace`, the ``repro-metrics/1`` JSONL lines written by
:mod:`repro.obs.metrics`, and the ``repro-progress/1`` webhook events
from :mod:`repro.obs.log`.  The validator implements the small JSON
Schema subset the schemas use (``type``, ``required``, ``properties``,
``items``, ``enum``, ``minimum``) so CI can gate the files without a
``jsonschema`` dependency.  Parsing is strict RFC 8259: the ``NaN`` and
``Infinity`` constants Python's ``json`` accepts by default are rejected,
because JavaScript's ``JSON.parse`` and Go's ``encoding/json`` reject them
too (the +Inf histogram bucket is written as the string ``"+Inf"``):

    python -m repro.obs.schema trace out/trace.json
    python -m repro.obs.schema metrics out/metrics.jsonl
    python -m repro.obs.schema webhook out/progress.jsonl
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Union

__all__ = [
    "TRACE_DOCUMENT_SCHEMA",
    "METRICS_LINE_SCHEMA",
    "WEBHOOK_EVENT_SCHEMA",
    "loads_strict",
    "validate",
    "validate_trace_file",
    "validate_metrics_file",
    "validate_webhook_file",
]

Schema = Dict[str, object]

_METRIC_POINT: Schema = {
    "type": "object",
    "required": ["name", "labels", "value"],
    "properties": {
        "name": {"type": "string"},
        "labels": {"type": "object"},
        "value": {"type": "number"},
    },
}

TRACE_DOCUMENT_SCHEMA: Schema = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit"],
    "properties": {
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string", "enum": ["X", "M", "B", "E", "i"]},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "cat": {"type": "string"},
                    "args": {"type": "object"},
                },
            },
        },
    },
}

METRICS_LINE_SCHEMA: Schema = {
    "type": "object",
    "required": ["schema", "seq", "reason", "elapsed_seconds",
                 "counters", "gauges", "histograms"],
    "properties": {
        "schema": {"type": "string", "enum": ["repro-metrics/1"]},
        "seq": {"type": "integer", "minimum": 0},
        "reason": {"type": "string"},
        "elapsed_seconds": {"type": "number", "minimum": 0},
        "pid": {"type": "integer"},
        "n_spans": {"type": "integer", "minimum": 0},
        "spans_dropped": {"type": "integer", "minimum": 0},
        "counters": {"type": "array", "items": _METRIC_POINT},
        "gauges": {"type": "array", "items": _METRIC_POINT},
        "histograms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "labels", "count", "sum", "buckets"],
                "properties": {
                    "name": {"type": "string"},
                    "labels": {"type": "object"},
                    "count": {"type": "integer", "minimum": 0},
                    "sum": {"type": "number"},
                    "buckets": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["le", "count"],
                            "properties": {
                                "le": {"type": ["number", "string"]},
                                "count": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                },
            },
        },
    },
}

WEBHOOK_EVENT_SCHEMA: Schema = {
    "type": "object",
    "required": ["schema", "seq", "event"],
    "properties": {
        "schema": {"type": "string", "enum": ["repro-progress/1"]},
        "seq": {"type": "integer", "minimum": 0},
        "event": {"type": "string"},
        "elapsed_seconds": {"type": "number", "minimum": 0},
    },
}

_TYPES: Dict[str, Union[type, tuple[type, ...]]] = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def _reject_constant(name: str) -> object:
    raise ValueError(f"non-standard JSON constant {name}")


def loads_strict(text: str) -> object:
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def _type_matches(value: object, expected: str) -> bool:
    if isinstance(value, bool) and expected in ("integer", "number"):
        return False
    return isinstance(value, _TYPES[expected])


def validate(value: object, schema: Schema, path: str = "$") -> List[str]:
    """Validate ``value`` against the schema subset; returns error strings."""
    errors: List[str] = []
    expected = schema.get("type")
    if isinstance(expected, (str, list)):
        names = [expected] if isinstance(expected, str) else expected
        if not any(_type_matches(value, name) for name in names):
            errors.append(
                f"{path}: expected {' or '.join(names)}, "
                f"got {type(value).__name__}"
            )
            return errors
    enum = schema.get("enum")
    if isinstance(enum, list) and value not in enum:
        errors.append(f"{path}: {value!r} not one of {enum!r}")
    minimum = schema.get("minimum")
    if isinstance(minimum, (int, float)) and isinstance(value, (int, float)):
        if value < minimum:
            errors.append(f"{path}: {value!r} below minimum {minimum!r}")
    if isinstance(value, dict):
        required = schema.get("required")
        if isinstance(required, list):
            for key in required:
                if key not in value:
                    errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties")
        if isinstance(properties, dict):
            for key, sub in properties.items():
                if key in value and isinstance(sub, dict):
                    errors.extend(validate(value[key], sub, f"{path}.{key}"))
    if isinstance(value, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, element in enumerate(value):
                errors.extend(validate(element, items, f"{path}[{i}]"))
    return errors


def validate_trace_file(path: Union[str, Path]) -> List[str]:
    """Validate one Chrome trace JSON document."""
    try:
        document = loads_strict(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable trace document: {exc}"]
    return validate(document, TRACE_DOCUMENT_SCHEMA)


def _validate_jsonl(path: Union[str, Path], schema: Schema) -> List[str]:
    errors: List[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return [f"{path}: no snapshot lines"]
    for i, line in enumerate(lines):
        try:
            value = loads_strict(line)
        except ValueError as exc:
            errors.append(f"{path}:{i + 1}: invalid JSON: {exc}")
            continue
        errors.extend(
            f"{path}:{i + 1}: {err}" for err in validate(value, schema)
        )
    return errors


def validate_metrics_file(path: Union[str, Path]) -> List[str]:
    """Validate a ``repro-metrics/1`` JSONL snapshot stream."""
    return _validate_jsonl(path, METRICS_LINE_SCHEMA)


def validate_webhook_file(path: Union[str, Path]) -> List[str]:
    """Validate a ``repro-progress/1`` webhook JSONL stream."""
    return _validate_jsonl(path, WEBHOOK_EVENT_SCHEMA)


_VALIDATORS = {
    "trace": validate_trace_file,
    "metrics": validate_metrics_file,
    "webhook": validate_webhook_file,
}


def main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0] not in _VALIDATORS:
        sys.stderr.write(
            "usage: python -m repro.obs.schema {trace|metrics|webhook} FILE\n"
        )
        return 2
    errors = _VALIDATORS[argv[0]](argv[1])
    for error in errors:
        sys.stderr.write(error + "\n")
    if not errors:
        print(f"{argv[1]}: valid {argv[0]} artefact")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
