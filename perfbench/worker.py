"""Child processes of the benchmark (run by ``perfbench/run.py``).

Four modes, each in a fresh interpreter:

* ``probe INPUTS`` — import ``repro.cli``, load and validate the run's specs,
  then print the monotonic clock: one ``setup_s`` sample for ``run.py``.
* ``check INPUTS WORKDIR RESULT`` — the check pass: every spec runs once
  with its engine calls captured, filling ``WORKDIR/store-check`` and
  writing the reference payloads to ``WORKDIR/check``; then sampled cells
  are re-simulated on the reference engine.
* ``passes INPUTS WORKDIR RESULT`` — the in-process workloads' timed passes.
  After one warm-up pass, each pass runs the specs of one input group (the
  groups in turn) through ``run_spec`` and ``write_result`` on an empty
  store until ``--seconds`` are spent (with ``--trace 1`` traced and
  untraced passes alternate); host-speed samples (``common.calibrate``)
  come between specs and after every cell.  The process does nothing else,
  so its peak resident set is the passes' own.
* ``cli SPANS -- ARGS`` — ``repro.cli.main(ARGS)`` with the tracer installed;
  the spans go to SPANS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from common import calibrate, dumps, min_passes, pass_plan, read_json, write_json
from tracer import Tracer


def _import_cli() -> float:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


def _load_specs(inputs: dict) -> list:
    from repro.config import load_spec

    return [
        (entry["name"], load_spec(entry["path"]).with_overrides(seed=entry["seed"]))
        for entry in inputs["specs"]
    ]


def probe(args: argparse.Namespace) -> int:
    inputs = read_json(Path(args.inputs))
    import_s = _import_cli()
    start = time.perf_counter()
    _load_specs(inputs)
    load_s = time.perf_counter() - start
    ready = time.monotonic()
    print(dumps({"ready": ready, "import_s": import_s, "load_s": load_s}))
    return 0


# ---------------------------------------------------------------------- #
def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_pass(
    specs: list,
    store_dir: Path,
    out_dir: Path,
    outcome: dict,
    tracer: Tracer,
    calibration: Optional[list] = None,
) -> float:
    """Run every spec once on an empty store; return the pass's wall time.

    Per spec, ``outcome`` receives the cell count (store lookups) or the
    error that stopped the spec; the tracer's spans are tagged with the spec.
    With a ``calibration`` list, :func:`calibrate` samples are appended to
    it before each spec, after the last one and, through ``run_spec``'s
    ``progress`` callback (``repro run --progress``), after every completed
    cell; the samples' own time is not part of the wall time.
    """
    import repro.config as config
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    samples = calibration if calibration is not None else []
    # ``progress`` fires inside traced layers (``ExperimentExecutor.map``):
    # a span of its own keeps the samples out of their self-times.
    sample = tracer.wrap("bench.calibrate", calibrate) if tracer.installed else calibrate
    progress = None
    if calibration is not None:
        def progress(_line: str) -> None:
            samples.append(sample())
    wall = 0.0
    for name, spec in specs:
        if calibration is not None:
            calibration.append(sample())
        tracer.context = {"spec": name}
        taken = len(samples)
        start = time.perf_counter()
        try:
            result = config.run_spec(spec, progress=progress, store=store)
            config.write_result(result, path=str(out_dir / f"{name}.json"))
        except Exception:
            outcome[name] = {"error": traceback.format_exc(limit=8)}
            continue
        finally:
            wall += time.perf_counter() - start - sum(samples[taken:])
        stats = result.store_stats
        outcome[name] = {"cells": stats["hits"] + stats["misses"]}
    if calibration is not None:
        calibration.append(sample())
    return wall


def _digests(specs: list, out_dir: Path, outcome: dict) -> None:
    for name, _ in specs:
        path = out_dir / f"{name}.json"
        if "error" not in outcome[name] and path.exists():
            outcome[name]["sha256"] = _sha256(path)


def _reference_check(captures: list, samples: int, seed: int) -> list[dict]:
    """Re-simulate sampled engine calls on the frozen reference engine."""
    from repro.simulator import reference_simulate

    def fingerprint(result) -> str:
        return json.dumps(
            [result.n_events, result.makespan, result.summary().as_dict()],
            sort_keys=True,
        )

    picked = sorted(random.Random(seed).sample(range(len(captures)), min(samples, len(captures))))
    checks = []
    for index in picked:
        scenario, config, scheduler, result = captures[index]
        label = f"cell {index}: {scenario.label} x {getattr(scheduler, 'name', '?')}"
        try:
            expected = reference_simulate(scenario, scheduler, config)
            ok = fingerprint(expected) == fingerprint(result)
            detail = "" if ok else "differs from the reference engine"
        except Exception:
            ok, detail = False, traceback.format_exc(limit=8)
        checks.append({"check": f"reference {label}", "ok": ok, "detail": detail})
    return checks


def check(args: argparse.Namespace) -> int:
    inputs = read_json(Path(args.inputs))
    workdir = Path(args.workdir)
    _import_cli()
    specs = _load_specs(inputs)
    outcome: dict = {}
    with Tracer(capture=True) as tracer:
        _run_pass(specs, workdir / "store-check", workdir / "check", outcome, tracer)
    _digests(specs, workdir / "check", outcome)
    write_json(Path(args.result), {
        "check": outcome,
        "engine_cells": [
            (len(scenario.applications), result.n_events)
            for scenario, _, _, result in tracer.captures
        ],
        "checks": _reference_check(tracer.captures, inputs["samples"], inputs["seed"]),
    })
    return 0


def passes(args: argparse.Namespace) -> int:
    inputs = read_json(Path(args.inputs))
    workdir = Path(args.workdir)
    _import_cli()
    specs = _load_specs(inputs)
    groups = [
        [spec for spec, entry in zip(specs, inputs["specs"]) if entry["group"] == group]
        for group in range(inputs["groups"])
    ]
    records = []
    pass_out = workdir / "pass"
    deadline = time.perf_counter() + args.seconds
    # One warm-up pass, inside the window but not recorded.
    _run_pass(groups[0], workdir / "store-warmup", pass_out, {}, Tracer())
    shutil.rmtree(workdir / "store-warmup", ignore_errors=True)
    index = 0
    while time.perf_counter() < deadline or index < min_passes(len(groups), args.trace):
        group, traced = pass_plan(index, len(groups), args.trace)
        outcome: dict = {}
        store_dir = workdir / f"store-{index}"
        pass_tracer = Tracer()
        calibration: list = []
        if traced:
            pass_tracer.install()
        try:
            wall = _run_pass(
                groups[group], store_dir, pass_out, outcome, pass_tracer, calibration
            )
        finally:
            pass_tracer.uninstall()
        shutil.rmtree(store_dir, ignore_errors=True)
        _digests(groups[group], pass_out, outcome)
        record = {
            "group": group, "wall_s": wall, "calibration_s": calibration,
            "traced": traced, "specs": outcome,
        }
        if traced:
            spans_path = workdir / f"spans-{index}.json"
            write_json(spans_path, pass_tracer.spans)
            record["spans"] = str(spans_path)
        records.append(record)
        index += 1
    write_json(Path(args.result), {
        "passes": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return 0


# ---------------------------------------------------------------------- #
def cli(args: argparse.Namespace) -> int:
    import repro.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = repro.cli.main(args.argv)
    finally:
        tracer.uninstall()
        write_json(Path(args.spans), tracer.spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("inputs")
    p.set_defaults(func=probe)
    for mode, func in (("check", check), ("passes", passes)):
        p = sub.add_parser(mode)
        p.add_argument("inputs")
        p.add_argument("workdir")
        p.add_argument("result")
        p.set_defaults(func=func)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("cli")
    p.add_argument("spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cli)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
