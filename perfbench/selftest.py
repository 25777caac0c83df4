"""Fast self-test of the benchmark at a tiny size (about a minute).

Run from the checkout root::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names the workloads and per-layer metrics of
``workloads.py``, runs every workload once per trace mode with a reduced
input, checks that each metric named in ``BENCHMARK.json`` is reported with
its unit and that the layer readings the benchmark promises hold, then
corrupts one stored cell and checks that the output check fails the run.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import ROOT
from workloads import LAYER_METRICS, WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FAST = ["--size", "tiny", "--seconds", "1", "--seed", "5"]


def bench(workload: str, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         *FAST, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} {extra}: no output\n{proc.stderr[-3000:]}")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(workload: str, trace: str, result: dict) -> None:
    named = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    expected = {m["name"]: m["unit"] for m in named}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{workload} --trace {trace}: metrics {got} != {expected}")


def check_declarations() -> None:
    """``BENCHMARK.json`` copies of the workload notes and layer table agree."""
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    if whys != WORKLOADS:
        raise AssertionError(f"BENCHMARK.json workloads {whys} != workloads.py {WORKLOADS}")
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    declared = [(n, u, b) for n, u, b, *_ in LAYER_METRICS]
    if layers != declared:
        raise AssertionError(f"BENCHMARK.json per_layer {layers} != workloads.py {declared}")


def main() -> int:
    check_declarations()
    print("ok BENCHMARK.json matches workloads.py")
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in ("0", "1"):
            code, result = bench(workload, "--trace", trace)
            if code != 0 or not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload} --trace {trace} failed: {result}")
            check_metrics(workload, trace, result)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == "1" and workload == "narrow-cached":
                assert metrics["simulator.batched.calls"] == 0, metrics
                assert metrics["simulator.heap.calls"] == 0, metrics
                assert metrics["store.hit_ratio"] == 1.0, metrics
            if trace == "1" and workload == "wide-cold":
                assert metrics["simulator.batched.calls"] == 3, metrics
            print(f"ok {workload} --trace {trace}")

    code, result = bench("narrow-cached", "--trace", "0", "--corrupt-cell")
    if code == 0 or result["correct"] or result["failed"] < 1:
        raise AssertionError(f"a corrupted stored cell went unnoticed: {result}")
    print("ok corrupted cell reported as a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
