"""The benchmark's workloads, their seeded inputs and its layer table.

Every input is derived from the benchmark's ``--seed``: the bundled specs
run with their experiment seed overridden to seeds derived from it, and the
wide grid spec is generated with it as its seed.  The program only ever sees
the specs.
"""

from __future__ import annotations

from pathlib import Path

from common import ROOT

#: Seed whose payload digests are recorded in ``expected.json``.
DEFAULT_SEED = 0

#: The bundled specs of the paper regime (fewer than 32 applications per
#: cell, cells that take milliseconds).
NARROW_SPECS = (
    "figure6",
    "congested_moments",
    "vesta",
    "periodic",
    "faulted_checkpoint_storm",
)

#: A reduced spec set for the self-test's tiny size.
TINY_NARROW_SPECS = ("vesta", "faulted_checkpoint_storm")

#: Input groups per run, by workload.  A group is one copy of the
#: workload's specs under its own seed; timed passes take the groups in
#: turn.  How fast the cold workloads run depends on the seed (by about
#: +-6%: other mixes, other event counts), so each run averages three
#: seeds; narrow-cached's time goes into process start-up, which does not.
GROUPS = {"narrow-cold": 3, "wide-cold": 3, "narrow-cached": 1}

WORKLOADS = {
    "narrow-cold": (
        "bundled specs under three seeds, default engine, empty store per pass: "
        "the engine on narrow cells, periodic search, faults, store writes"
    ),
    "wide-cold": (
        "250-app congested mixes (three seeds) under three schedulers, empty store: "
        "every cell runs the batched numpy kernels, none of the narrow-cell paths"
    ),
    "narrow-cached": (
        "narrow-cold specs as fresh `repro run --require-cached` processes "
        "on a filled store: start-up, parse, keys, store reads"
    ),
}

#: Schedulers of the wide grid (one cell each).
WIDE_SCHEDULERS = ("MaxSysEff", "MinDilation", "FairShare")

#: Application counts of the wide congested mix, by size.
WIDE_MIX = {"full": (200, 45, 5), "tiny": (30, 9, 1)}

#: Simulated-time horizon of the wide cells.  Like the bundled specs' own
#: horizons it truncates the cells (to under half of their events), which
#: keeps the per-run reference re-simulation of a 250-app cell affordable.
WIDE_MAX_TIME = 8000.0

#: Cells re-simulated with the reference engine per run, by workload.
REFERENCE_SAMPLES = {"narrow-cold": 8, "wide-cold": 1, "narrow-cached": 8}

#: Per-layer metrics: (name, unit, better, end-to-end metric it should
#: move, workloads where it should move it).
LAYER_METRICS = (
    ("process.import_s", "s", "lower", "setup_s; cells_per_s on narrow-cached", "all"),
    ("config.load_s", "s", "lower", "setup_s; cells_per_s on narrow-cached", "all"),
    ("config.build_s", "s", "lower", "cells_per_s", "wide-cold"),
    ("experiments.map.calls", "count", "lower", "cells_per_s", "narrow-cold"),
    ("experiments.map.self_s", "s", "lower", "cells_per_s", "narrow-cold"),
    ("simulator.batched.calls", "count", "lower", "cells_per_s", "wide-cold, narrow-cold"),
    ("simulator.batched.s", "s", "lower", "cells_per_s", "wide-cold, narrow-cold"),
    ("simulator.heap.calls", "count", "lower", "cells_per_s", "narrow-cold"),
    ("simulator.heap.s", "s", "lower", "cells_per_s", "narrow-cold"),
    ("simulator.events", "count", "lower", "cells_per_s", "narrow-cold, wide-cold"),
    ("simulator.us_per_event", "us", "lower", "cells_per_s", "narrow-cold, wide-cold"),
    ("simulator.cell_ms_p50", "ms", "lower", "cells_per_s", "narrow-cold, wide-cold"),
    ("simulator.cell_ms_p90", "ms", "lower", "cells_per_s", "narrow-cold, wide-cold"),
    ("online.allocate.calls", "count", "lower", "cells_per_s", "narrow-cold"),
    ("online.allocate.s", "s", "lower", "cells_per_s", "narrow-cold"),
    ("online.candidate_share", "ratio", "higher", "cells_per_s", "narrow-cold"),
    ("periodic.search_period.calls", "count", "lower", "cells_per_s", "narrow-cold"),
    ("periodic.search_period.s", "s", "lower", "cells_per_s", "narrow-cold"),
    ("store.put.calls", "count", "lower", "cells_per_s", "narrow-cold, wide-cold"),
    ("store.put.s", "s", "lower", "cells_per_s", "narrow-cold, wide-cold"),
    ("store.get.calls", "count", "lower", "cells_per_s", "narrow-cached"),
    ("store.get.s", "s", "lower", "cells_per_s", "narrow-cached"),
    ("store.hit_ratio", "ratio", "higher", "cells_per_s", "narrow-cached"),
    ("store.keys_s", "s", "lower", "cells_per_s", "narrow-cached"),
    ("config.write_result_s", "s", "lower", "cells_per_s", "narrow-cached"),
    ("bench.trace_overhead", "ratio", "lower", "no end-to-end metric (prices the tracing)", "all"),
)


def wide_spec_text(seed: int, size: str) -> str:
    """TOML of the wide-cold grid spec for ``seed``."""
    small, large, very_large = WIDE_MIX[size]
    schedulers = ", ".join(f'"{name}"' for name in WIDE_SCHEDULERS)
    return (
        "[experiment]\n"
        'name = "perfbench-wide"\n'
        'kind = "grid"\n'
        f"seed = {seed}\n"
        f"max_time = {WIDE_MAX_TIME}\n"
        "\n[platform]\n"
        'preset = "intrepid"\n'
        "\n[[scenarios]]\n"
        'kind = "congested"\n'
        f'label = "congested-{small + large + very_large}"\n'
        f"small = {small}\n"
        f"large = {large}\n"
        f"very_large = {very_large}\n"
        "\n[schedulers]\n"
        f"names = [{schedulers}]\n"
    )


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """The inputs of one run of ``workload``: spec files, seeds and groups.

    Group ``g`` of ``k`` runs under seed ``seed * k + g``, so no two runs
    share an input.  Spec paths are relative to the checkout root, as a
    user of ``repro run`` would type them.
    """
    groups = GROUPS[workload]
    specs = []
    for group in range(groups):
        group_seed = seed * groups + group
        if workload == "wide-cold":
            path = workdir / f"wide.seed{group_seed}.toml"
            path.write_text(wide_spec_text(group_seed, size), encoding="utf-8")
            paths = {"wide": str(path.relative_to(ROOT))}
        else:
            names = NARROW_SPECS if size == "full" else TINY_NARROW_SPECS
            paths = {name: f"examples/specs/{name}.toml" for name in names}
        specs += [
            {"name": f"{name}.seed{group_seed}", "path": path, "seed": group_seed, "group": group}
            for name, path in paths.items()
        ]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "specs": specs,
        "groups": groups,
        "samples": REFERENCE_SAMPLES[workload],
    }
