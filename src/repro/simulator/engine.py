"""Discrete-event engine simulating compute / I/O phases under shared bandwidth.

The engine implements the execution model of Section 2.1 directly:

* compute phases run undisturbed on dedicated processors;
* at every *event* (application release, I/O request, I/O completion,
  burst-buffer transition) the scheduler is consulted and returns a
  piecewise-constant bandwidth assignment, feasible with respect to the
  per-node cap ``b`` and the aggregate cap ``B``;
* between events every quantity evolves linearly, so the engine only ever
  advances time to the *next* event — there is no fixed time step and no
  numerical integration error beyond floating-point rounding.

The same engine runs the paper's online heuristics, the fair-share
"congestion" baselines with or without burst buffers, and the replay of
precomputed periodic schedules (through the periodic scheduler adapter in
:mod:`repro.periodic`), which is what makes the comparisons apples-to-apples.

Fast path
---------
This is the optimized engine.  Where the original implementation (preserved
as :mod:`repro.simulator.reference`) swept every application at every event —
O(n_apps) scans for candidate collection, transition firing and the next
event horizon, plus an O(n_instances) prefix re-summation inside every
scheduler view — this engine keeps indexed state so that each event costs
O(k log n) in the number of applications actually transitioning:

* releases and compute completions live in an
  :class:`~repro.simulator.queue.EventHeap` (lazy invalidation via
  per-runtime compute epochs), so the earliest time-certain event is a peek,
  not a scan;
* I/O completions are derived from the *active-transfer list* of the current
  interval — only applications that actually hold bandwidth are advanced and
  checked;
* the I/O-candidate set and the done-counter are maintained incrementally by
  the transition handlers;
* scheduler views are built for the I/O candidates only (the full
  ``SystemView.applications`` tuple is materialized lazily, for custom
  schedulers that ask for it), and use the cached prefix sums of
  :attr:`repro.core.application.Application.cumulative_work`, making the
  congestion-free efficiency an O(1) lookup.

The optimization is pure bookkeeping: the event timeline, every float handed
to the scheduler and every result record are bit-for-bit identical to the
reference engine (``tests/test_engine_equivalence.py`` enforces this), so
published numbers do not move.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.core.allocation import BandwidthAllocation
from repro.core.application import Application
from repro.core.events import Event, EventLog, EventType
from repro.core.scenario import Scenario
from repro.faults.model import CrashEvent, FaultTimeline
from repro.simulator.bandwidth import fair_share
from repro.simulator.burst_buffer import BurstBufferState
from repro.simulator.interface import (
    ApplicationPhase,
    ApplicationView,
    SchedulerProtocol,
    SystemView,
)
from repro.simulator.metrics import (
    ApplicationRecord,
    BurstBufferStats,
    FaultStats,
    InstanceRecord,
    SimulationResult,
)
from repro.obs.telemetry import recorder as _obs_recorder
from repro.simulator.queue import EventHeap
from repro.utils.validation import ValidationError

#: Process-wide telemetry funnel.  The engine only *accumulates plain int
#: counters* during a run and flushes them once at the end when the
#: recorder is enabled — no clocks, no per-event telemetry calls, so the
#: hot loop stays at native speed and the determinism contract is
#: untouched (telemetry never reaches results or store keys).
_OBS = _obs_recorder()

__all__ = ["SimulationError", "StallError", "SimulatorConfig", "Simulator", "simulate"]

#: Absolute slack (seconds / bytes) used when comparing event times and
#: residual volumes.  Scales are seconds and bytes, so 1e-6 is far below any
#: physically meaningful quantity while being far above accumulated rounding.
_TIME_EPS = 1e-9
_VOLUME_EPS = 1e-6

#: Kinds of time-certain events kept in the heap.  I/O completions are not
#: heap events: their times depend on the bandwidth assignment, which changes
#: at every event, so they are derived from the active-transfer list instead.
_RELEASE = 0
_COMPUTE_END = 1


class SimulationError(RuntimeError):
    """Raised when the simulation cannot proceed or an invariant is broken."""


class StallError(SimulationError):
    """Raised when applications wait for I/O forever (scheduler deadlock,
    or a permanent blackout window with applications still wanting I/O)."""


def _stall_message(
    scheduler_name: str,
    app_names: list[str],
    time: float,
    timeline: Optional[FaultTimeline],
) -> str:
    """Diagnostic for a stall: who is stuck, when, and under which faults.

    Shared by both engines so the diagnosis never diverges.  The message
    keeps the ``"stalled"`` / ``"N application(s)"`` phrasing the guard-rail
    tests (and downstream log scrapers) match on.
    """
    message = (
        f"scheduler {scheduler_name!r} left {len(app_names)} application(s) "
        "stalled with no future event to unblock them "
        f"(stalled: {', '.join(app_names)}; simulation time t={time:g})"
    )
    if timeline is not None:
        active = timeline.active_windows(time)
        if active:
            windows = ", ".join(
                f"[{w.start:g}, {w.end:g}) factor={w.factor:g}" for w in active
            )
            message += f"; active fault window(s): {windows}"
    return message


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunable knobs of a simulation run.

    Attributes
    ----------
    use_burst_buffer:
        Route writes through the platform's burst buffer when it has one.
        The paper's heuristics run without; the Intrepid/Mira baselines run
        with.
    record_events:
        Keep a full :class:`~repro.core.events.EventLog` (slower, used by
        tests and the quickstart example).
    max_time:
        Hard horizon; applications still running at that point are truncated
        and scored on the work they completed.
    max_events:
        Safety valve against schedulers that thrash (each event triggers a
        reallocation); generously above anything a correct run needs.
    """

    use_burst_buffer: bool = False
    record_events: bool = False
    max_time: float = math.inf
    max_events: int = 10_000_000


@dataclass(eq=False)
class _Runtime:
    """Mutable per-application state inside the engine.

    Beyond the simulation state proper, each runtime carries the fast-path
    bookkeeping: its insertion index (the deterministic ordering key every
    candidate list and transition sweep uses), the compute epoch that
    invalidates stale heap entries, and the memoized congestion-free
    efficiency of its current instance.
    """

    app: Application
    index: int = 0
    peak: float = 0.0
    phase: ApplicationPhase = ApplicationPhase.NOT_RELEASED
    instance_idx: int = 0
    executed_work: float = 0.0
    completed_instance_work: float = 0.0
    compute_start: float = 0.0
    compute_end: float = math.inf
    remaining_io: float = 0.0
    io_started: bool = False
    io_first_transfer: Optional[float] = None
    io_request_time: Optional[float] = None
    last_io_end: float = -math.inf
    completion_time: float = math.nan
    total_io_transferred: float = 0.0
    current_rate: float = 0.0
    instance_records: list[InstanceRecord] = field(default_factory=list)
    # Fault-injection state: a recovering application is re-reading its
    # checkpoint (``remaining_io`` holds recovery bytes, not instance I/O).
    recovering: bool = False
    n_crashes: int = 0
    recovery_io: float = 0.0
    # Fast-path bookkeeping.
    compute_epoch: int = 0
    opt_instance_idx: int = -1
    opt_value: float = 1.0

    @property
    def done(self) -> bool:
        return self.phase == ApplicationPhase.DONE

    @property
    def wants_io(self) -> bool:
        return self.phase in (ApplicationPhase.IO_PENDING, ApplicationPhase.DOING_IO)

    def current_instance(self):
        return self.app.instances[self.instance_idx]


def _entry_valid(entry: tuple[int, "_Runtime", int]) -> bool:
    """True while a heap entry still describes a live future transition.

    Release entries stay valid until the release fires; compute entries are
    invalidated by any phase change (zero-work instances chain straight into
    I/O) or by a later compute phase of the same application (epoch bump).
    """
    kind, rt, epoch = entry
    if kind == _RELEASE:
        return rt.phase is ApplicationPhase.NOT_RELEASED
    return rt.phase is ApplicationPhase.COMPUTING and epoch == rt.compute_epoch


#: Sort key for deterministic insertion-order sweeps (C-level attrgetter —
#: it runs once per candidate per event).
_by_index = attrgetter("index")


class Simulator:
    """Runs one scenario under one scheduler and produces a result record."""

    def __init__(self, scenario: Scenario, config: SimulatorConfig | None = None):
        self.scenario = scenario
        self.config = config or SimulatorConfig()
        self.platform = scenario.platform
        self._app_map = scenario.application_map()
        if self.config.use_burst_buffer and self.platform.burst_buffer is None:
            raise ValidationError(
                f"use_burst_buffer=True but platform {self.platform.name!r} "
                "has no burst buffer specification"
            )
        if scenario.faults is not None:
            unknown = sorted(scenario.faults.crash_app_names() - set(self._app_map))
            if unknown:
                raise ValidationError(
                    f"fault model crashes name unknown application(s): {unknown}"
                )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self, scheduler: SchedulerProtocol, event_log: EventLog | None = None
    ) -> SimulationResult:
        """Simulate the scenario to completion under ``scheduler``."""
        scheduler.reset()
        peak = self.platform.peak_application_bandwidth
        runtimes = {
            app.name: _Runtime(app=app, index=i, peak=peak(app.processors))
            for i, app in enumerate(self.scenario)
        }
        bb = (
            BurstBufferState(self.platform.burst_buffer)
            if (self.config.use_burst_buffer and self.platform.burst_buffer)
            else None
        )
        log = event_log if event_log is not None else (
            EventLog() if self.config.record_events else None
        )

        # Indexed engine state: the time-certain event heap (releases and
        # compute completions), the incrementally maintained I/O-candidate
        # list (kept sorted by insertion index — i.e. in scenario order, the
        # order the reference engine's dict sweep produces), and the done
        # counter replacing the all() sweep.
        heap: EventHeap[tuple[int, _Runtime, int]] = EventHeap()
        self._heap = heap
        self._candidates: list[_Runtime] = []
        self._n_done = 0
        self._runtimes = runtimes
        for rt in runtimes.values():
            heap.push(rt.app.release_time, (_RELEASE, rt, 0))

        # Fault injection: one forward-only timeline cursor per run — the
        # same :class:`FaultTimeline` the reference engine drives, so the
        # fault arithmetic is shared rather than reimplemented.
        faults = self.scenario.faults
        timeline = FaultTimeline(faults) if faults is not None else None
        self._timeline = timeline
        fault_factor = 1.0
        fault_brownout = 0.0
        fault_blackout = 0.0
        fault_stall = 0.0

        time = min(app.release_time for app in self.scenario)
        n_events = 0
        self._n_allocations = 0
        time_bb_full = 0.0
        n_total = len(runtimes)
        io_active: list[_Runtime] = []

        # Release / start whatever is due at the initial instant.
        self._fire_due(time, log)

        while self._n_done < n_total:
            n_events += 1
            if n_events > self.config.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.config.max_events}; "
                    "the scheduler is probably thrashing"
                )

            # ---------------- allocation for the coming interval ----------
            candidates = self._candidates
            bb_ingest_rates: dict[str, float] = {}
            drain = bb.drain_rate() if bb is not None else 0.0
            if timeline is None:
                available = max(0.0, self.platform.system_bandwidth - drain)
            else:
                # A brown-out degrades the shared PFS only; the per-node cap
                # and the burst-buffer ingest fabric stay fault-free.
                fault_factor = timeline.factor_at(time)
                available = max(
                    0.0, self.platform.system_bandwidth * fault_factor - drain
                )

            if bb is not None and bb.can_absorb() and candidates:
                # Writes are absorbed by the burst buffer: fair share of the
                # ingest fabric, no scheduler involvement, no PFS bandwidth.
                views = [self._view_of(rt, time) for rt in candidates]
                alloc = fair_share(
                    views, self.platform.node_bandwidth, bb.ingest_capacity()
                )
                for rt in candidates:
                    bb_ingest_rates[rt.app.name] = alloc.gamma(rt.app.name) * rt.app.processors
                allocation = alloc
            elif candidates:
                view = self._system_view(time, available)
                self._n_allocations += 1
                allocation = scheduler.allocate(view)
                if not isinstance(allocation, BandwidthAllocation):
                    raise SimulationError(
                        f"scheduler {scheduler.name!r} returned "
                        f"{type(allocation).__name__}, expected BandwidthAllocation"
                    )
                allocation.validate(self.platform, self._app_map, capacity=available)
            else:
                allocation = BandwidthAllocation.empty()

            # Apply the allocation; collect the applications that actually
            # hold bandwidth this interval (the only ones whose I/O state
            # evolves before the next event).
            total_ingest = 0.0
            prev_active = io_active
            io_active = []
            if bb_ingest_rates:
                # Burst-buffer absorption: sweep the candidates in scenario
                # order so ``total_ingest`` accumulates in exactly the order
                # the reference engine uses (float addition is order
                # sensitive, and the total feeds the pool's transitions).
                for rt in candidates:
                    rate = bb_ingest_rates.get(rt.app.name, 0.0)
                    total_ingest += rate
                    rt.current_rate = rate
                    if rate > 0:
                        if rt.io_first_transfer is None:
                            rt.io_first_transfer = time
                        rt.io_started = True
                        rt.phase = ApplicationPhase.DOING_IO
                        io_active.append(rt)
                    else:
                        rt.phase = ApplicationPhase.IO_PENDING
            else:
                # Fast path: only touch the applications whose assignment
                # changed — the served ones (allocations carry strictly
                # positive gammas by construction) and the previously active
                # ones that just lost their bandwidth.  Zero bandwidth means
                # pending: whether the transfer already started or not, an
                # interrupted application does not keep the DOING_IO flag.
                served = allocation.per_processor_bandwidth
                for rt in prev_active:
                    if (
                        rt.phase is ApplicationPhase.DOING_IO
                        and rt.app.name not in served
                    ):
                        rt.current_rate = 0.0
                        rt.phase = ApplicationPhase.IO_PENDING
                for name, gamma in served.items():
                    rt = runtimes[name]
                    phase = rt.phase
                    if (
                        phase is not ApplicationPhase.IO_PENDING
                        and phase is not ApplicationPhase.DOING_IO
                    ):
                        # Allocations to non-candidates were silently inert
                        # in the reference engine's candidate sweep; keep
                        # ignoring them.
                        continue
                    rt.current_rate = gamma * rt.app.processors
                    if rt.io_first_transfer is None:
                        rt.io_first_transfer = time
                    rt.io_started = True
                    rt.phase = ApplicationPhase.DOING_IO
                    io_active.append(rt)

            # ---------------- find the next event -------------------------
            dt = self._next_event_delta(io_active, bb, total_ingest, time)
            if dt is None:
                if candidates:
                    raise StallError(
                        _stall_message(
                            scheduler.name,
                            [rt.app.name for rt in candidates],
                            time,
                            timeline,
                        )
                    )
                raise SimulationError("no future event but applications remain")

            if time + dt > self.config.max_time:
                dt = self.config.max_time - time
                if dt <= _TIME_EPS:
                    break

            if timeline is not None and fault_factor < 1.0:
                fault_brownout += dt
                if fault_factor <= 0.0:
                    fault_blackout += dt
                if candidates:
                    fault_stall += dt

            # ---------------- advance the interval ------------------------
            for rt in io_active:
                # Clamp to the remaining volume: when the interval is cut
                # by an unrelated event the transfer may finish inside it,
                # and the excess must not be counted as moved bytes.
                moved = min(rt.current_rate * dt, rt.remaining_io)
                rt.remaining_io = max(0.0, rt.remaining_io - moved)
                rt.total_io_transferred += moved
                if rt.recovering:
                    rt.recovery_io += moved
            if bb is not None:
                if not bb.can_absorb():
                    time_bb_full += dt
                bb.advance(dt, total_ingest)
            time += dt

            # ---------------- fire transitions at the new time ------------
            self._fire_due(time, log, io_active)

            if time >= self.config.max_time:
                break

        self._finalize_truncated(runtimes, min(time, self.config.max_time))

        records = {
            name: self._record_of(rt) for name, rt in runtimes.items()
        }
        makespan = max(rec.completion_time for rec in records.values())
        bb_stats = None
        if bb is not None:
            bb_stats = BurstBufferStats(
                total_absorbed=bb.total_absorbed,
                total_drained=bb.total_drained,
                final_level=bb.level,
                time_full=time_bb_full,
            )
        fault_stats = None
        if timeline is not None:
            fault_stats = FaultStats(
                n_crashes=sum(rt.n_crashes for rt in runtimes.values()),
                restarts={
                    rt.app.name: rt.n_crashes
                    for rt in runtimes.values()
                    if rt.n_crashes
                },
                brownout_time=fault_brownout,
                blackout_time=fault_blackout,
                stall_time=fault_stall,
                recovery_io=sum(rt.recovery_io for rt in runtimes.values()),
            )
        if _OBS.enabled:
            # One flush per run: the loop above only bumped local ints.
            _OBS.count(
                "repro_engine_allocations_total",
                float(self._n_allocations), engine="heap",
            )
            _OBS.count(
                "repro_engine_events_total", float(n_events), engine="heap"
            )
        return SimulationResult(
            scenario_label=self.scenario.label,
            scheduler_name=scheduler.name,
            platform=self.platform,
            records=records,
            makespan=makespan,
            n_events=n_events,
            burst_buffer=bb_stats,
            fault_stats=fault_stats,
        )

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def _fire_due(
        self, time: float, log: EventLog | None, io_active: list[_Runtime] | tuple = ()
    ) -> None:
        """Fire every transition due at ``time``.

        Due applications come from two indexed sources — heap entries
        (releases, compute completions) and finished transfers among the
        interval's active I/O — instead of a full sweep.  They are fired in
        insertion order, matching the reference engine's dict-order sweep so
        that event logs serialize identically.
        """
        crashed: list[_Runtime] = []
        if self._timeline is not None:
            # Crashes fire before the ordinary transitions of the same
            # instant: an instance whose I/O "just finished" when its
            # application dies is lost, deterministically, in both engines.
            runtimes = self._runtimes
            for crash in self._timeline.pop_due_crashes(time):
                rt = runtimes.get(crash.app_name)
                if rt is not None and self._apply_crash(rt, crash, time, log):
                    crashed.append(rt)
        due = self._heap.pop_due(time + _TIME_EPS, _entry_valid)
        fired = [entry[1] for entry in due]
        fired.extend(crashed)
        for rt in io_active:
            if rt.remaining_io <= _VOLUME_EPS:
                fired.append(rt)
        if len(fired) > 1:
            # Heap-due (NOT_RELEASED / COMPUTING) and transfer-due (I/O
            # phases) populations are disjoint, so no deduplication needed —
            # except for crashed runtimes, which can coincide with a
            # transfer-due entry (a ~zero-byte checkpoint re-read) or repeat
            # (two crashes of one application at the same instant).
            fired.sort(key=_by_index)
            if crashed:
                deduped = [fired[0]]
                for rt in fired[1:]:
                    if rt is not deduped[-1]:
                        deduped.append(rt)
                fired = deduped
        for rt in fired:
            self._transition(rt, time, log)

    def _transition(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        """The per-application transition cascade (release → compute → I/O).

        The three sequential checks replicate one iteration of the reference
        engine's sweep: a release may start a compute phase that is already
        over (tiny work), which in turn may request I/O that is already
        complete (tiny volume) — every step of the chain fires at the same
        instant.
        """
        if (
            rt.phase is ApplicationPhase.NOT_RELEASED
            and rt.app.release_time <= time + _TIME_EPS
        ):
            self._log(log, time, EventType.APP_RELEASE, rt.app.name)
            self._start_compute(rt, time, log)
        if (
            rt.phase is ApplicationPhase.COMPUTING
            and rt.compute_end <= time + _TIME_EPS
        ):
            rt.executed_work += rt.current_instance().work
            self._request_io(rt, time, log)
        if rt.wants_io and rt.remaining_io <= _VOLUME_EPS:
            if rt.recovering:
                self._finish_recovery(rt, time, log)
            else:
                self._complete_instance(rt, time, log)

    def _apply_crash(
        self, rt: _Runtime, crash: CrashEvent, time: float, log: EventLog | None
    ) -> bool:
        """Crash ``rt``: discard the in-flight instance, queue recovery I/O.

        Returns True when the crash actually landed (crashes aimed at
        applications outside the system — not yet released, or already done
        — are no-ops).  A crash during recovery restarts the checkpoint
        re-read from scratch.
        """
        phase = rt.phase
        if phase is ApplicationPhase.DONE or phase is ApplicationPhase.NOT_RELEASED:
            return False
        rt.n_crashes += 1
        self._log(log, time, EventType.APP_CRASH, rt.app.name, rt.instance_idx)
        if phase is ApplicationPhase.COMPUTING:
            # Invalidate the pending compute-end heap entry; the application
            # becomes an I/O candidate (the recovery read) instead.
            rt.compute_epoch += 1
            insort(self._candidates, rt, key=_by_index)
        elif not rt.recovering:
            # The instance's compute chunk was credited at compute end; the
            # crash loses that progress (partial compute progress of a
            # COMPUTING application was never credited, so there is nothing
            # to subtract there).
            rt.executed_work -= rt.current_instance().work
        rt.recovering = True
        rt.phase = ApplicationPhase.IO_PENDING
        rt.remaining_io = crash.checkpoint_io
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = time
        rt.current_rate = 0.0
        return True

    def _finish_recovery(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        """Checkpoint re-read done: restart the crashed instance from scratch."""
        rt.recovering = False
        rt.remaining_io = 0.0
        rt.current_rate = 0.0
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = None
        candidates = self._candidates
        i = bisect_left(candidates, rt.index, key=_by_index)
        if i < len(candidates) and candidates[i] is rt:
            del candidates[i]
        self._log(log, time, EventType.APP_RESTART, rt.app.name, rt.instance_idx)
        self._start_compute(rt, time, log)

    def _start_compute(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        inst = rt.current_instance()
        rt.phase = ApplicationPhase.COMPUTING
        rt.compute_start = time
        rt.compute_end = time + inst.work
        rt.current_rate = 0.0
        rt.compute_epoch += 1
        if inst.work <= _TIME_EPS:
            rt.executed_work += inst.work
            self._request_io(rt, time, log)
        else:
            self._heap.push(rt.compute_end, (_COMPUTE_END, rt, rt.compute_epoch))

    def _request_io(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        inst = rt.current_instance()
        rt.compute_end = min(rt.compute_end, time)
        if inst.io_volume <= _VOLUME_EPS:
            # Instance without I/O: it is complete as soon as computation ends.
            rt.remaining_io = 0.0
            rt.io_request_time = None
            rt.io_first_transfer = None
            rt.phase = ApplicationPhase.IO_PENDING
            self._complete_instance(rt, time, log)
            return
        rt.phase = ApplicationPhase.IO_PENDING
        rt.remaining_io = inst.io_volume
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = time
        rt.current_rate = 0.0
        insort(self._candidates, rt, key=_by_index)
        self._log(log, time, EventType.IO_REQUEST, rt.app.name, rt.instance_idx)

    def _complete_instance(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        inst = rt.current_instance()
        rt.instance_records.append(
            InstanceRecord(
                index=rt.instance_idx,
                work=inst.work,
                io_volume=inst.io_volume,
                compute_start=rt.compute_start,
                compute_end=rt.compute_start + inst.work,
                io_first_transfer=rt.io_first_transfer,
                io_end=time,
            )
        )
        if inst.io_volume > _VOLUME_EPS:
            self._log(log, time, EventType.IO_COMPLETE, rt.app.name, rt.instance_idx)
        rt.completed_instance_work += inst.work
        rt.last_io_end = time
        rt.remaining_io = 0.0
        rt.current_rate = 0.0
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = None
        rt.instance_idx += 1
        # Remove from the sorted candidate list (a no-op when the instance
        # completed without ever becoming a candidate, e.g. zero I/O volume).
        candidates = self._candidates
        i = bisect_left(candidates, rt.index, key=_by_index)
        if i < len(candidates) and candidates[i] is rt:
            del candidates[i]
        if rt.instance_idx >= rt.app.n_instances:
            rt.phase = ApplicationPhase.DONE
            rt.completion_time = time
            self._n_done += 1
            self._log(log, time, EventType.APP_COMPLETE, rt.app.name)
        else:
            self._start_compute(rt, time, log)

    # ------------------------------------------------------------------ #
    # Event horizon
    # ------------------------------------------------------------------ #
    def _next_event_delta(
        self,
        io_active: list[_Runtime],
        bb: BurstBufferState | None,
        total_ingest: float,
        time: float,
    ) -> Optional[float]:
        """Seconds until the next event, or None if nothing will ever happen.

        The earliest time-certain event is a heap peek (lazy invalidation
        drops stale entries), active transfers contribute their completion
        deltas, and the burst buffer its next behavioural transition — no
        full sweep.  Clamping the minimum at ``_TIME_EPS`` makes zero-length
        deltas (a transition due "now" after floating-point rounding) still
        advance time instead of looping forever, and the per-source clamp at
        0 keeps a past-due event from being skipped in favour of a later one.
        """
        deltas: list[float] = []
        next_certain = self._heap.peek_time(_entry_valid)
        if next_certain is not None:
            deltas.append(max(0.0, next_certain - time))
        for rt in io_active:
            deltas.append(rt.remaining_io / rt.current_rate)
        if bb is not None:
            transition = bb.next_transition(total_ingest)
            if transition is not None:
                deltas.append(transition)
        if self._timeline is not None:
            # Fault breakpoints are time-certain events: the interval must be
            # cut at every degradation-factor change and at every crash so
            # rates stay piecewise-constant between events.
            boundary = self._timeline.next_boundary(time)
            if boundary is not None:
                deltas.append(boundary - time)
            crash_time = self._timeline.peek_crash_time()
            if crash_time is not None:
                deltas.append(max(0.0, crash_time - time))
        eligible = [d for d in deltas if d >= 0.0]
        if not eligible:
            return None
        return max(min(eligible), _TIME_EPS)

    # ------------------------------------------------------------------ #
    # Views and records
    # ------------------------------------------------------------------ #
    def _view_of(self, rt: _Runtime, time: float) -> ApplicationView:
        app = rt.app
        idx = rt.instance_idx
        # Optimal efficiency over the instances seen so far (at least one):
        # an O(1) lookup in the application's cached prefix sums, memoized
        # until the application advances to its next instance.
        if rt.opt_instance_idx != idx:
            upto = min(idx + 1, len(app.instances))
            works = app.cumulative_work[upto - 1]
            vols = app.cumulative_io_volume[upto - 1]
            peak = rt.peak
            denom = works + (vols / peak if peak > 0 else 0.0)
            rt.opt_value = works / denom if denom > 0 else 1.0
            rt.opt_instance_idx = idx
        optimal = rt.opt_value
        elapsed = time - app.release_time
        if elapsed > _TIME_EPS:
            # Use the work of every *finished compute chunk* (not only fully
            # completed instances): an application that just spent w seconds
            # computing has made real progress even though its instance's I/O
            # is still pending, and the heuristics' rankings degenerate (every
            # first-instance application ties at zero) if that progress is
            # ignored.  At completion time the two definitions coincide.
            achieved = rt.executed_work / elapsed
        else:
            achieved = optimal
        phase = rt.phase
        wants = (
            phase is ApplicationPhase.IO_PENDING
            or phase is ApplicationPhase.DOING_IO
        )
        return ApplicationView._build_fast(
            {
                "name": app.name,
                "processors": app.processors,
                "phase": phase,
                "remaining_io_volume": rt.remaining_io if wants else 0.0,
                "io_started": rt.io_started,
                "achieved_efficiency": achieved,
                "optimal_efficiency": optimal,
                "last_io_end": rt.last_io_end,
                "io_request_time": rt.io_request_time,
                "instance_index": idx,
                "n_instances": len(app.instances),
                "total_io_transferred": rt.total_io_transferred,
            }
        )

    def _system_view(self, time: float, available: float) -> SystemView:
        """The scheduler's view: candidate views now, the rest on demand.

        In-tree policies read only the I/O candidates, so only those get an
        :class:`ApplicationView` per allocation.  The full
        ``applications`` tuple (every live application, in scenario order,
        reusing the candidate views) is built only if a custom scheduler
        asks for it during ``allocate()``.
        """
        view_of = self._view_of
        candidates = tuple([view_of(rt, time) for rt in self._candidates])

        def materialize() -> tuple[ApplicationView, ...]:
            own = {view.name: view for view in candidates}
            done = ApplicationPhase.DONE
            return tuple(
                own.get(name) or view_of(rt, time)
                for name, rt in self._runtimes.items()
                if rt.phase is not done
            )

        return SystemView(
            time, self.platform, available, materialize, candidates=candidates
        )

    def _finalize_truncated(self, runtimes: dict[str, _Runtime], time: float) -> None:
        """Assign completion data to applications cut off by ``max_time``."""
        for rt in runtimes.values():
            if not rt.done:
                rt.completion_time = time
                rt.phase = ApplicationPhase.DONE

    def _record_of(self, rt: _Runtime) -> ApplicationRecord:
        app = rt.app
        peak = self.platform.peak_application_bandwidth(app.processors)
        finished_all = rt.instance_idx >= app.n_instances
        if finished_all:
            dedicated_io_time = app.total_io_volume / peak if peak > 0 else 0.0
            executed_work = app.total_work
        else:
            # Truncated run: score the work and I/O actually performed, so the
            # efficiency ratio compares like with like.
            dedicated_io_time = rt.total_io_transferred / peak if peak > 0 else 0.0
            executed_work = rt.completed_instance_work
        return ApplicationRecord(
            application=app,
            release_time=app.release_time,
            completion_time=rt.completion_time,
            executed_work=executed_work,
            dedicated_io_time=dedicated_io_time,
            total_io_transferred=rt.total_io_transferred,
            instances=list(rt.instance_records),
            restarts=rt.n_crashes,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _log(
        log: EventLog | None,
        time: float,
        event_type: EventType,
        app_name: str | None = None,
        instance_index: int | None = None,
    ) -> None:
        if log is not None:
            log.append(
                Event(
                    time=time,
                    event_type=event_type,
                    app_name=app_name,
                    instance_index=instance_index,
                )
            )


def simulate(
    scenario: Scenario,
    scheduler: SchedulerProtocol,
    config: SimulatorConfig | None = None,
    event_log: EventLog | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it once."""
    return Simulator(scenario, config).run(scheduler, event_log=event_log)
