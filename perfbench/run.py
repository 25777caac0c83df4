"""The repository's benchmark: end-to-end and per-layer cost of ``repro run``.

Run from the checkout root::

    python3 perfbench/run.py --workload narrow-cold --seed 0 --seconds 22 --trace 0

Workloads (see ``workloads.py``): ``narrow-cold`` runs the bundled paper
specs in-process through ``load_spec`` -> ``run_spec`` -> ``write_result``
on an empty store per pass; ``wide-cold`` does the same for generated
250-application grids; ``narrow-cached`` runs each bundled spec as a fresh
``python -m repro run --require-cached`` process on a store filled during
set-up.  Every spec runs serially (``workers`` unset).  The cold workloads
take three seeds derived from ``--seed`` (input groups), one group per pass.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh interpreter
until ``repro.cli`` is imported and the specs are loaded and validated,
median over fresh processes), ``cells_per_s`` (cells completed, or served
from the store, over the sum of every input group's median pass time) and
``peak_rss_mb``.  On the cold workloads ``cells_per_s`` is host-speed
adjusted: samples of a fixed kernel (``common.calibrate``) are taken between
specs and after every cell, and each pass's time is divided by their
slowdown against the kernel's reference time, so the figure reads as on the
reference host however fast the shared host runs at the moment; the
unadjusted wall-clock rate is printed as a comment.  Process start-up does
not follow that kernel, so narrow-cached is adjusted by a start-up of fixed
cost instead (a fresh interpreter importing numpy, timed between passes);
``setup_s`` stays wall clock.
``--trace 1`` alternates untraced passes with passes traced by ``tracer.py``
and reports the per-layer metrics listed in ``workloads.LAYER_METRICS``; the
Chrome trace of the run lands in ``.perfbench_work/``.

Outputs are checked outside the timed region on every run: each pass's
payloads must match the check pass byte for byte, narrow-cached payloads
must match their cold ones, sampled cells must match the reference engine,
and on the default seed the payload digests must match ``expected.json``.
The error rate is failed over attempted operations (cells plus checks); any
failure makes the run exit 1.  The last stdout line is one JSON object.

The check pass and the reference re-simulation run in a child of their own,
before the timed passes, so the peak resident set of the timed passes is the
program's alone.

``--record`` (default seed only) stores the run's digests and input size in
``expected.json``.  ``--size tiny`` and ``--corrupt-cell`` serve the
self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import sys
import time
from pathlib import Path

from common import (
    ROOT, WORK_ROOT, dumps, median, min_passes, pass_plan, read_json, run_child, slowdown,
    write_json,
)
from tracer import chrome_trace, layer_metrics
from workloads import DEFAULT_SEED, LAYER_METRICS, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORKER = str(HERE / "worker.py")
PYTHON = sys.executable

#: Every run ends well inside this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}

#: A fresh interpreter's start-up of fixed cost outside the program, and the
#: seconds it takes on the reference host: the unit of narrow-cached's
#: host-speed adjustment.  Against ``python -m repro run --require-cached``
#: processes it cut their spread from 0.127 to 0.098
#: (interquartile range / median over 160 processes, 2-vCPU VM).
STARTUP_PROBE = (PYTHON, "-c", "import numpy")
STARTUP_REF_S = 0.22

#: Fresh processes timed for ``setup_s``, by input size.
PROBES = {"full": 8, "tiny": 2}


class BenchError(RuntimeError):
    """A child failed in a way that leaves nothing to measure."""


class Run:
    """State of one benchmark run: its inputs, budget and failures."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.checks: list[dict] = []
        self.cells_attempted = 0
        self.cells_failed = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, cmd: list[str], name: str, stdout: bool = False):
        """Run one child with the remaining budget; stderr kept in workdir."""
        out = self.workdir / f"{name}.out" if stdout else None
        result = run_child(
            cmd, timeout=self.remaining(), stdout=out,
            stderr=self.workdir / f"{name}.err",
        )
        if result.timed_out:
            raise BenchError(f"{name} exceeded the run's time budget")
        return result

    def worker_failed(self, name: str) -> BenchError:
        err = (self.workdir / f"{name}.err").read_text(errors="replace")
        return BenchError(f"{name} failed:\n{err[-4000:]}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": ok, "detail": detail})


# ---------------------------------------------------------------------- #
def measure_setup(
    run: Run, inputs_path: Path, indexes: range
) -> tuple[list[float], list[dict]]:
    """``setup_s`` samples from fresh processes, plus their reports.

    They are not host-speed adjusted: a probe's time does not follow the
    kernel's samples around it (correlation under 0.25 over 50 probes).
    """
    samples, reports = [], []
    for i in indexes:
        name = f"probe-{i}"
        result = run.child([PYTHON, WORKER, "probe", str(inputs_path)], name, stdout=True)
        if result.returncode:
            raise run.worker_failed(name)
        report = read_json(run.workdir / f"{name}.out")
        samples.append(report["ready"] - result.started)
        reports.append(report)
    return samples, reports


def run_worker(run: Run, mode: str, inputs_path: Path, *extra: str) -> dict:
    """Run ``worker.py MODE`` on the run's inputs and return its report."""
    result = run.workdir / f"{mode}.json"
    cmd = [PYTHON, WORKER, mode, str(inputs_path), str(run.workdir), str(result), *extra]
    if run.child(cmd, mode).returncode:
        raise run.worker_failed(mode)
    return read_json(result)


def check_pass(run: Run, inputs_path: Path) -> dict:
    """The check pass: reference payloads, filled store, reference checks."""
    report = run_worker(run, "check", inputs_path)
    run.checks.extend(report["checks"])
    for name, outcome in report["check"].items():
        run.check(f"check pass {name}", "error" not in outcome, outcome.get("error", ""))
    return report


def spec_cells(report: dict) -> dict[str, int]:
    """Cells per spec, from the check pass (1 for a spec that failed)."""
    return {name: o.get("cells", 1) for name, o in report["check"].items()}


def group_rate(group_cells: dict[int, int], times: dict[int, list[float]]) -> float:
    """Cells per second over a run's input groups.

    Every group's cells over the sum of its median untraced pass time, so
    each group weighs in once however many passes it got.
    """
    return sum(group_cells[g] for g in times) / sum(median(t) for t in times.values())


def cells_by_group(inputs: dict, report: dict) -> dict[int, int]:
    cells = spec_cells(report)
    totals: dict[int, int] = {}
    for entry in inputs["specs"]:
        totals[entry["group"]] = totals.get(entry["group"], 0) + cells[entry["name"]]
    return totals


def in_process(run: Run, inputs: dict, inputs_path: Path, report: dict) -> dict:
    """narrow-cold / wide-cold: timed passes inside one worker process."""
    timed = run_worker(
        run, "passes", inputs_path,
        "--seconds", str(run.args.seconds), "--trace", str(run.args.trace),
    )
    expected_cells = spec_cells(report)
    walls = {True: [], False: []}
    adjusted_times, raw_times, slowdowns, traced_spans = {}, {}, [], []
    for index, record in enumerate(timed["passes"]):
        for name, outcome in record["specs"].items():
            run.cells_attempted += expected_cells[name]
            if "error" in outcome:
                run.cells_failed += expected_cells[name]
                continue
            run.check(
                f"pass {index} {name} payload equals the check pass",
                outcome.get("sha256") == report["check"][name].get("sha256"),
            )
        wall = record["wall_s"]
        slowdowns.append(slowdown(record["calibration_s"]))
        adjusted = wall / slowdowns[-1]
        walls[record["traced"]].append(adjusted)
        if not record["traced"]:
            adjusted_times.setdefault(record["group"], []).append(adjusted)
            raw_times.setdefault(record["group"], []).append(wall)
        else:
            traced_spans.append([read_json(Path(record["spans"]))])
    group_cells = cells_by_group(inputs, report)
    return {
        "rate": group_rate(group_cells, adjusted_times),
        "raw_rate": group_rate(group_cells, raw_times),
        "slowdown": median(slowdowns),
        "walls": walls,
        "traced": traced_spans,
        "peak_rss_kb": timed["peak_rss_kb"],
    }


def startup_sample(run: Run) -> float:
    """Seconds one :data:`STARTUP_PROBE` process takes right now."""
    start = time.monotonic()
    if run.child(list(STARTUP_PROBE), "startup-probe").returncode:
        raise run.worker_failed("startup-probe")
    return time.monotonic() - start


def cached(run: Run, inputs: dict, report: dict) -> dict:
    """narrow-cached: one fresh ``repro run --require-cached`` per spec.

    Each pass's time is divided by the slowdown of the start-up samples
    taken just before and just after it.
    """
    expected_cells = spec_cells(report)
    store = run.workdir / "store-check"
    out_dir = run.workdir / "cached"
    out_dir.mkdir()
    walls = {True: [], False: []}
    times, raw_times, slowdowns, traced_spans, rss = {}, {}, [], [], []
    deadline = time.monotonic() + run.args.seconds
    index = 0
    groups = inputs["groups"]
    before = startup_sample(run)
    while time.monotonic() < deadline or index < min_passes(groups, run.args.trace):
        group, traced = pass_plan(index, groups, run.args.trace)
        spans, results = [], {}
        wall = 0.0
        for entry in inputs["specs"]:
            if entry["group"] != group:
                continue
            name = entry["name"]
            out = out_dir / f"{name}.json"
            out.unlink(missing_ok=True)
            argv = [
                "run", entry["path"], "--seed", str(entry["seed"]),
                "--store", str(store), "--require-cached", "--quiet",
                "--out", str(out),
            ]
            if traced:
                spans_path = run.workdir / f"spans-{index}-{name}.json"
                cmd = [PYTHON, WORKER, "cli", str(spans_path), "--", *argv]
            else:
                cmd = [PYTHON, "-m", "repro", *argv]
            start = time.monotonic()
            results[name] = run.child(cmd, f"cli-{name}")
            wall += time.monotonic() - start
            if traced and spans_path.exists():
                spans.append(read_json(spans_path))
        after = startup_sample(run)
        slowdowns.append((before + after) / 2 / STARTUP_REF_S)
        before = after
        adjusted = wall / slowdowns[-1]
        for name, result in results.items():
            run.cells_attempted += expected_cells[name]
            if result.returncode:
                run.cells_failed += expected_cells[name]
                err = (run.workdir / f"cli-{name}.err").read_text(errors="replace")
                run.check(f"pass {index} {name} served from the store", False, err[-2000:])
            elif not traced:
                rss.append(result.maxrss_kb)
        for name in results:
            out, cold = out_dir / f"{name}.json", run.workdir / "check" / f"{name}.json"
            run.check(
                f"pass {index} {name} cached payload equals the cold payload",
                out.exists() and cold.exists() and out.read_bytes() == cold.read_bytes(),
            )
        walls[traced].append(adjusted)
        if traced:
            traced_spans.append(spans)
        else:
            times.setdefault(group, []).append(adjusted)
            raw_times.setdefault(group, []).append(wall)
        index += 1
    group_cells = cells_by_group(inputs, report)
    return {
        "rate": group_rate(group_cells, times),
        "raw_rate": group_rate(group_cells, raw_times),
        "slowdown": median(slowdowns),
        "walls": walls,
        "traced": traced_spans,
        "peak_rss_kb": max(rss, default=0),
    }


def corrupt_one_cell(store: Path) -> None:
    """Alter the result of one stored cell (self-test of the output check)."""
    for path in sorted(store.rglob("*.json")):
        entry = read_json(path)
        payload = entry.get("payload", {})
        if "makespan" in payload and "summary" in payload:
            payload["makespan"] = payload["makespan"] * 2.0 + 1.0
            payload["summary"]["system_efficiency"] *= 0.5
            path.write_text(dumps(entry))
            return
    raise BenchError(f"no stored cell to corrupt under {store}")


# ---------------------------------------------------------------------- #
def check_digests(run: Run, report: dict) -> None:
    """On the default seed, payload digests must match ``expected.json``."""
    if run.args.seed != DEFAULT_SEED or run.args.size != "full" or run.args.record:
        return
    expected = read_json(EXPECTED)["workloads"].get(run.args.workload, {}).get("digests", {})
    for name, outcome in report["check"].items():
        if name in expected:
            run.check(
                f"{name} payload digest matches expected.json",
                outcome.get("sha256") == expected[name],
            )


def input_size(inputs: dict, report: dict) -> dict:
    cells = report["engine_cells"]
    apps = sorted(n for n, _ in cells)
    return {
        "specs": [entry["name"] for entry in inputs["specs"]],
        "cells": sum(spec_cells(report).values()),
        "engine_runs": len(cells),
        "apps_per_cell": {
            "min": apps[0] if apps else 0,
            "median": median(apps),
            "max": apps[-1] if apps else 0,
        },
        "events": sum(e for _, e in cells),
    }


def record(run: Run, inputs: dict, report: dict) -> None:
    """Store the default seed's digests and input size in ``expected.json``."""
    import numpy

    if any(not c["ok"] for c in run.checks) or run.cells_failed:
        raise BenchError("not recording: the run has failures")
    data = read_json(EXPECTED) if EXPECTED.exists() else {"workloads": {}}
    data["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    data["default_seed"] = DEFAULT_SEED
    data["workloads"][run.args.workload] = {
        "input": input_size(inputs, report),
        "digests": {n: o["sha256"] for n, o in report["check"].items()},
    }
    EXPECTED.write_text(dumps(data, indent=2) + "\n", encoding="utf-8")


def per_layer(measured: dict, probes: list[dict]) -> dict[str, float]:
    passes = [layer_metrics(spans) for spans in measured["traced"]]
    metrics = {
        "process.import_s": median([p["import_s"] for p in probes]),
        "config.load_s": median([p["load_s"] for p in probes]),
    }
    for name in passes[0]:
        metrics[name] = median([p[name] for p in passes])
    walls = measured["walls"]
    metrics["bench.trace_overhead"] = median(walls[True]) / median(walls[False])
    return metrics


def write_trace(run: Run, measured: dict) -> Path:
    processes = []
    for index, spans in enumerate(measured["traced"]):
        for part, span_list in enumerate(spans):
            processes.append((f"traced pass {index} process {part}", span_list))
    path = WORK_ROOT / f"trace-{run.args.workload}-seed{run.args.seed}.json"
    write_json(path, chrome_trace(processes))
    return path


def execute(run: Run) -> tuple[dict, dict, dict]:
    """Measure one run; return its metrics, their units and their notes."""
    args = run.args
    run.workdir.mkdir(parents=True)
    inputs = make_inputs(args.workload, args.seed, args.size, run.workdir)
    inputs_path = run.workdir / "inputs.json"
    write_json(inputs_path, inputs)
    # The check pass also compiles the bytecode the probes then find: a user
    # pays that once, not on every run.
    report = check_pass(run, inputs_path)
    if args.corrupt_cell:
        corrupt_one_cell(run.workdir / "store-check")
    # Half the set-up samples come before the timed passes and half after,
    # so their median spans the run rather than one phase of machine load.
    count = PROBES[args.size]
    setup, probes = measure_setup(run, inputs_path, range(count // 2))
    if args.workload == "narrow-cached":
        measured = cached(run, inputs, report)
    else:
        measured = in_process(run, inputs, inputs_path, report)
    later, later_probes = measure_setup(run, inputs_path, range(count // 2, count))
    setup += later
    probes += later_probes
    print(
        f"# wall clock, not host-adjusted: cells_per_s = {measured['raw_rate']:.6g} 1/s; "
        f"host slowdown per pass {measured['slowdown']:.4g} (median)"
    )
    check_digests(run, report)
    size = input_size(inputs, report)
    print(
        f"# {args.workload} seed {args.seed}: {len(size['specs'])} spec(s), "
        f"{size['cells']} cells in {inputs['groups']} input group(s), one group per pass, "
        f"{size['engine_runs']} engine runs in the check pass, "
        f"apps per cell {size['apps_per_cell']}, {size['events']} events; "
        f"{len(measured['walls'][False])} untraced timed pass(es), {len(setup)} set-up sample(s)"
    )
    if args.trace:
        metrics = per_layer(measured, probes)
        print(f"# trace: {write_trace(run, measured).relative_to(ROOT)}")
        units = {n: u for n, u, *_ in LAYER_METRICS}
        notes = {n: f"  # should move {m} on {w}" for n, _, _, m, w in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": median(setup),
            "cells_per_s": measured["rate"],
            "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
        notes = {}
    if args.record:
        record(run, inputs, report)
    return metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-cell", action="store_true",
                        help="narrow-cached only: alter one stored cell after set-up")
    parser.add_argument("--record", action="store_true",
                        help="write the default seed's digests and input size to expected.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")
    if args.corrupt_cell and args.workload != "narrow-cached":
        parser.error("--corrupt-cell applies to narrow-cached only")
    missing = [p for p in ("src/repro/cli.py", "examples/specs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        metrics, units, notes = execute(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    failed_checks = [c for c in run.checks if not c["ok"]]
    attempted = run.cells_attempted + len(run.checks)
    failed = run.cells_failed + len(failed_checks)
    for check in failed_checks:
        print(f"# FAILED: {check['check']} {check['detail']}".rstrip())
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}{notes.get(name, '')}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    print(dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
