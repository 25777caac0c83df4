"""Outside-in layer tracing for the benchmark's traced pass.

:class:`Tracer` wraps the public functions of each layer of the program
from the benchmark's side: class methods are replaced on their class, and
names a caller imported with ``from ... import`` are replaced in that
caller's namespace.  The program's sources are never edited.  Each wrapped
call records one span (layer, start, end, parent span) in memory; only the
outermost call of a layer records one, so recursion and ``super()`` chains
count once.  :func:`layer_metrics` turns the spans of one pass into
per-layer counts and self-times, and :func:`chrome_trace` into a Chrome
trace-event document.
"""

from __future__ import annotations

import copy
import functools
import time
from collections import Counter
from typing import Callable, Optional

from common import median, percentile

ENGINE_LAYERS = ("simulator.batched", "simulator.heap")

#: Span record: [layer, start_s, end_s, parent_index_or_None, attrs].
Span = list


class Tracer:
    """Records spans around the program's layer boundaries while installed.

    With ``capture=True`` every outermost engine call also keeps its
    scenario, configuration, a pristine copy of its scheduler and its result
    in :attr:`captures`, for re-simulation by the output check.
    """

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.spans: list[Span] = []
        self.captures: list[tuple] = []
        self.context: dict = {}
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped so that its outermost calls record a ``layer`` span.

        ``after(attrs, args, result)`` may add attributes to the span once
        the call returned; it runs after the span's end time is taken.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._active[layer]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span: Span = [layer, 0.0, 0.0, parent, dict(tracer.context)]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._active[layer] += 1
            try:
                span[1] = time.perf_counter()
                result = fn(*args, **kwargs)
                span[2] = time.perf_counter()
            except BaseException:
                span[2] = time.perf_counter()
                span[4]["raised"] = True
                raise
            finally:
                tracer._active[layer] -= 1
                tracer._stack.pop()
            if after is not None:
                after(span[4], args, result)
            return result

        return traced

    def patch(self, owner: object, name: str, layer: str, after=None) -> None:
        """Replace ``owner.name`` by its traced wrapper until uninstalled."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, self.wrap(layer, original, after))
        self._patches.append((owner, name, original))

    @property
    def installed(self) -> bool:
        """Whether the program's layers are wrapped right now."""
        return bool(self._patches)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap the public functions of every layer of the program."""
        import repro.cli
        import repro.config
        import repro.config.run as config_run
        import repro.experiments.runner as runner
        from repro.online.base import OnlineScheduler
        from repro.simulator.batched import BatchedSimulator
        from repro.simulator.engine import Simulator
        from repro.store.store import ResultStore

        for name in sorted(vars(config_run)):
            if name.startswith("build_") and callable(getattr(config_run, name)):
                self.patch(config_run, name, "config.build")
        self.patch(config_run, "search_period", "periodic.search_period")
        for module in (repro.cli, repro.config, config_run):
            self.patch(module, "write_result", "config.write_result")
        self.patch(runner, "grid_cell_keys", "store.keys")
        self.patch(runner.ExperimentExecutor, "map", "experiments.map")
        self.patch(ResultStore, "get", "store.get", _after_get)
        self.patch(ResultStore, "put", "store.put")
        engine_after = self._engine_after
        self.patch(BatchedSimulator, "run", "simulator.batched", engine_after)
        self.patch(Simulator, "run", "simulator.heap", engine_after)
        for cls in _with_own_method(OnlineScheduler, "allocate"):
            self.patch(cls, "allocate", "online.allocate", _after_allocate)
        if self.capture:
            self._wrap_capture(BatchedSimulator)
            self._wrap_capture(Simulator)

    def _engine_after(self, attrs: dict, args: tuple, result) -> None:
        attrs["n_events"] = int(result.n_events)
        attrs["n_apps"] = len(args[0].scenario.applications)

    def _wrap_capture(self, engine_cls: type) -> None:
        """Keep the inputs and result of every outermost engine call."""
        traced = engine_cls.__dict__["run"]
        tracer = self

        @functools.wraps(traced)
        def capturing(sim, scheduler, *args, **kwargs):
            outermost = not any(tracer._active[layer] for layer in ENGINE_LAYERS)
            pristine = copy.deepcopy(scheduler) if outermost else None
            result = traced(sim, scheduler, *args, **kwargs)
            if outermost:
                tracer.captures.append((sim.scenario, sim.config, pristine, result))
            return result

        # The traced wrapper is already recorded for restoration.
        setattr(engine_cls, "run", capturing)


def _with_own_method(base: type, name: str) -> list[type]:
    """``base`` and every subclass that defines ``name`` itself."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if name in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: f"{c.__module__}.{c.__qualname__}")


def _after_get(attrs: dict, args: tuple, result) -> None:
    attrs["hit"] = result is not None


def _after_allocate(attrs: dict, args: tuple, result) -> None:
    view = args[1]
    attrs["candidates"] = len(view.io_candidates())
    attrs["apps"] = len(view.applications)


# ---------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(processes: list[list[Span]]) -> dict[str, float]:
    """Per-layer counts and self-times of one pass.

    ``processes`` holds one span list per process that ran part of the pass.
    Idle layers read 0.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    cell_s: list[float] = []
    events = 0
    candidates = apps = 0
    gets = hits = 0
    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            layer, start, end, parent, attrs = span
            calls[layer] += 1
            self_s[layer] += own
            if layer in ENGINE_LAYERS and (
                parent is None or spans[parent][0] not in ENGINE_LAYERS
            ):
                cell_s.append(end - start)
                events += attrs.get("n_events", 0)
            elif layer == "online.allocate":
                candidates += attrs.get("candidates", 0)
                apps += attrs.get("apps", 0)
            elif layer == "store.get":
                gets += 1
                hits += bool(attrs.get("hit"))
    return {
        "config.build_s": self_s["config.build"],
        "experiments.map.calls": calls["experiments.map"],
        "experiments.map.self_s": self_s["experiments.map"],
        "simulator.batched.calls": calls["simulator.batched"],
        "simulator.batched.s": self_s["simulator.batched"],
        "simulator.heap.calls": calls["simulator.heap"],
        "simulator.heap.s": self_s["simulator.heap"],
        "simulator.events": events,
        "simulator.us_per_event": 1e6 * sum(cell_s) / events if events else 0.0,
        "simulator.cell_ms_p50": 1e3 * median(cell_s),
        "simulator.cell_ms_p90": 1e3 * percentile(cell_s, 0.9),
        "online.allocate.calls": calls["online.allocate"],
        "online.allocate.s": self_s["online.allocate"],
        "online.candidate_share": candidates / apps if apps else 0.0,
        "periodic.search_period.calls": calls["periodic.search_period"],
        "periodic.search_period.s": self_s["periodic.search_period"],
        "store.put.calls": calls["store.put"],
        "store.put.s": self_s["store.put"],
        "store.get.calls": gets,
        "store.get.s": self_s["store.get"],
        "store.hit_ratio": hits / gets if gets else 0.0,
        "store.keys_s": self_s["store.keys"],
        "config.write_result_s": self_s["config.write_result"],
    }


def chrome_trace(processes: list[tuple[str, list[Span]]]) -> dict:
    """Chrome trace-event document of named span lists (one per process)."""
    origin = min((s[1] for _, spans in processes for s in spans), default=0.0)
    events = []
    for pid, (label, spans) in enumerate(processes, start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        for index, (layer, start, end, parent, attrs) in enumerate(spans):
            events.append({
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"span": index, "parent": parent, **attrs},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
