"""Helpers shared by ``run.py`` and the benchmark's child processes.

Everything here is standard library only: ``run.py`` never imports the
program, so its own start-up cost stays out of the measurements.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

#: The checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space the benchmark writes into (stores, outputs, traces).
WORK_ROOT = ROOT / ".perfbench_work"

#: Untraced timed passes every run measures, however short ``--seconds`` is
#: (with ``--trace 1`` as many traced passes come on top).
MIN_PASSES = 3


def pass_plan(index: int, groups: int, trace: bool) -> tuple[int, bool]:
    """Input group and tracing of timed pass ``index``.

    Groups are taken in turn; with tracing, passes come in untraced/traced
    pairs on one group, so every group gets both and each pair prices the
    tracing on the same input.
    """
    step = 2 if trace else 1
    return (index // step) % groups, bool(trace) and index % 2 == 1


def min_passes(groups: int, trace: bool) -> int:
    """Timed passes that give every group an untraced (and a traced) pass."""
    return max(MIN_PASSES, groups) * (2 if trace else 1)


#: Seconds :func:`calibrate` takes on the host the recorded figures come
#: from (a 2-vCPU VM), the unit of :func:`slowdown`.
CALIBRATION_REF_S = 0.003


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel (about 3 ms) takes right now.

    The benchmark's hosts change speed by up to about 1.7x from one second
    to the next (other tenants share their cores), and the program's work
    slows and speeds up with them.  Timed work is interleaved with samples
    of this kernel, and its time is divided by :func:`slowdown` of those
    samples.  On a 2-vCPU VM, one sample per completed cell took the spread
    of narrow-cold pass times (interquartile range / median) from 0.095 to
    0.057; samples only between specs left it at 0.091.
    """
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(7500):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i % 7) * 1.5
    return time.perf_counter() - start


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference the host ran the kernel samples."""
    return sum(samples) / len(samples) / CALIBRATION_REF_S


def strict(value):
    """``value`` with every non-finite float replaced by an explicit marker.

    NaN becomes ``{"nonfinite": "nan"}`` and infinities become
    ``{"nonfinite": "inf"}`` / ``{"nonfinite": "-inf"}``, so the result
    serializes as RFC 8259 JSON.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"nonfinite": "nan"}
        return {"nonfinite": "inf" if value > 0 else "-inf"}
    if isinstance(value, dict):
        return {str(k): strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(v) for v in value]
    return value


def dumps(value, **kwargs) -> str:
    """Strict JSON text of ``value`` (non-finite floats encoded explicitly)."""
    return json.dumps(strict(value), allow_nan=False, **kwargs)


def write_json(path: Path, value) -> None:
    """Write ``value`` as strict JSON to ``path`` (parents created)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(value) + "\n", encoding="utf-8")


def read_json(path: Path):
    """Parse a JSON file written by :func:`write_json`."""
    return json.loads(path.read_text(encoding="utf-8"))


def median(values: Sequence[float]) -> float:
    """Median of ``values``; 0.0 for an empty sequence (an idle layer)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources, no cache salt."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("REPRO_CACHE_SALT", "REPRO_STORE"):
        env.pop(name, None)
    return env


@dataclass
class ChildResult:
    """Outcome of one child process run by :func:`run_child`."""

    returncode: int
    started: float
    maxrss_kb: int
    timed_out: bool


def run_child(
    cmd: Sequence[str],
    *,
    timeout: float,
    stdout: Optional[Path] = None,
    stderr: Optional[Path] = None,
) -> ChildResult:
    """Run ``cmd`` from the checkout root and wait for it to end.

    ``started`` is the monotonic clock just before the spawn; the peak
    resident set size is that process's own, read from ``wait4``.  A child
    still running after ``timeout`` seconds is killed (and still reaped).
    """
    out = open(stdout, "w") if stdout is not None else subprocess.DEVNULL
    err = open(stderr, "w") if stderr is not None else subprocess.DEVNULL
    timed_out = threading.Event()
    try:
        start = time.monotonic()
        proc = subprocess.Popen(
            list(cmd), cwd=ROOT, env=child_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )

        def kill() -> None:
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        # wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for handle in (out, err):
            if handle is not subprocess.DEVNULL:
                handle.close()
    return ChildResult(
        returncode=proc.returncode,
        started=start,
        maxrss_kb=int(usage.ru_maxrss),
        timed_out=timed_out.is_set(),
    )
