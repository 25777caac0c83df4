"""Periodic (steady-state) schedules — the data structure of Section 3.2.1.

A periodic schedule of period ``T`` repeats the same pattern of compute and
I/O phases every ``T`` seconds.  Within one regular period, application
``k`` executes ``n_per^{(k)}`` instances; each instance is a compute chunk of
length ``w^{(k)}`` followed by an I/O transfer of ``vol_io^{(k)}`` bytes
executed *contiguously at a constant bandwidth* (the shape the greedy
insertion heuristics of Section 3.2.3 produce — the general model allows
arbitrary piecewise-constant profiles, but the heuristics never need them).

The schedule knows how to:

* check its own feasibility (per-node cap, back-end cap, no overlap between
  the instances of one application, I/O volumes fully transferred);
* compute the steady-state efficiency ``rho_tilde^{(k)} = n_per w / T`` of
  equation (1) and both paper objectives;
* expose its bandwidth profile so the greedy inserter can find room for the
  next instance.

Instances never wrap around the period boundary in this implementation.
The paper's formalism allows wrapping; forbidding it only wastes a sliver of
the period for a greedy first-fit heuristic and keeps the feasibility checks
straightforward (a wrapped schedule can always be "rotated" into an unwrapped
one with the same efficiencies when capacity is not tight at the boundary).

Caching
-------
The greedy inserter queries ``breakpoints`` / ``io_load`` /
``instances_of`` / ``instances_per_application`` thousands of times between
mutations, so the schedule memoizes all of them and invalidates the caches
in :meth:`add_instance`.  The cached values are produced by the exact same
code (same accumulation order for the float sums), so cached and uncached
queries are bit-for-bit identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from repro.core.application import Application
from repro.core.objectives import ApplicationOutcome, ObjectiveSummary, summarize
from repro.core.platform import Platform
from repro.utils.validation import ValidationError, check_positive

__all__ = ["ScheduledInstance", "PeriodicSchedule"]

_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledInstance:
    """One instance placed inside the period.

    Attributes
    ----------
    app_name:
        Application this instance belongs to.
    compute_start:
        ``initW`` — start of the compute chunk.
    work:
        Length of the compute chunk (``w``).
    io_start:
        Start of the I/O transfer (``>= compute_start + work``; the greedy
        heuristics always use equality, but a gap is legal).
    io_duration:
        Length of the contiguous I/O transfer.
    io_bandwidth:
        Constant per-processor bandwidth ``gamma`` during the transfer.
    """

    app_name: str
    compute_start: float
    work: float
    io_start: float
    io_duration: float
    io_bandwidth: float

    def __post_init__(self) -> None:
        if self.compute_start < -_EPS:
            raise ValidationError("compute_start must be >= 0")
        if self.work < 0 or self.io_duration < 0 or self.io_bandwidth < 0:
            raise ValidationError("work, io_duration and io_bandwidth must be >= 0")
        if self.io_start < self.compute_start + self.work - _EPS:
            raise ValidationError(
                "I/O cannot start before the compute chunk ends "
                f"({self.io_start} < {self.compute_start + self.work})"
            )

    @property
    def compute_end(self) -> float:
        """``endW`` — end of the compute chunk."""
        return self.compute_start + self.work

    @property
    def io_end(self) -> float:
        """End of the I/O transfer."""
        return self.io_start + self.io_duration

    @property
    def end(self) -> float:
        """End of the whole instance footprint."""
        return max(self.compute_end, self.io_end)


class PeriodicSchedule:
    """A steady-state schedule over one regular period.

    Parameters
    ----------
    platform:
        Supplies the ``b`` and ``B`` caps.
    applications:
        The periodic applications being scheduled.  Only their first
        instance's ``(work, io_volume)`` is used (periodic applications have
        identical instances); non-periodic applications are rejected.
    period:
        Length ``T`` of the regular period.
    """

    def __init__(
        self,
        platform: Platform,
        applications: Sequence[Application],
        period: float,
    ):
        self.platform = platform
        self.period = check_positive("period", period)
        self._apps: dict[str, Application] = {}
        for app in applications:
            if not app.is_periodic:
                raise ValidationError(
                    f"application {app.name!r} is not periodic; periodic schedules "
                    "require identical instances"
                )
            if app.name in self._apps:
                raise ValidationError(f"duplicate application {app.name!r}")
            self._apps[app.name] = app
        if not self._apps:
            raise ValidationError("a periodic schedule needs at least one application")
        self._instances: list[ScheduledInstance] = []
        # Incrementally maintained indexes (insertion order preserved in
        # _instances; per-app lists sorted by compute start; flat transfer
        # arrays aligned with _instances for the load scans) plus the lazy
        # caches invalidated by add_instance.
        self._by_app: dict[str, list[ScheduledInstance]] = {
            name: [] for name in self._apps
        }
        self._counts: dict[str, int] = {name: 0 for name in self._apps}
        self._io_starts: list[float] = []
        self._io_ends: list[float] = []
        self._io_rates: list[float] = []
        self._breakpoints_cache: Optional[list[float]] = None
        self._io_load_cache: dict[float, float] = {}
        self._segments_cache: Optional[list[tuple[float, float, float]]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def applications(self) -> tuple[Application, ...]:
        """The applications known to this schedule (scheduled or not)."""
        return tuple(self._apps.values())

    @property
    def instances(self) -> tuple[ScheduledInstance, ...]:
        """All placed instances, in insertion order."""
        return tuple(self._instances)

    def application(self, name: str) -> Application:
        """Look up an application by name."""
        return self._apps[name]

    def instances_of(self, app_name: str) -> list[ScheduledInstance]:
        """Instances of one application, sorted by compute start."""
        if app_name not in self._apps:
            raise KeyError(f"unknown application {app_name!r}")
        return list(self._by_app[app_name])

    def instances_per_application(self) -> dict[str, int]:
        """``n_per^{(k)}`` for every application (0 if never scheduled)."""
        return dict(self._counts)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_instance(self, instance: ScheduledInstance) -> None:
        """Place an instance, enforcing every feasibility constraint."""
        app = self._apps.get(instance.app_name)
        if app is None:
            raise ValidationError(f"unknown application {instance.app_name!r}")
        if instance.end > self.period + _EPS:
            raise ValidationError(
                f"instance of {instance.app_name!r} ends at {instance.end:.6g}, "
                f"beyond the period {self.period:.6g}"
            )
        if instance.io_bandwidth > self.platform.node_bandwidth * (1 + 1e-9):
            raise ValidationError(
                f"per-processor bandwidth {instance.io_bandwidth:.6g} exceeds "
                f"b = {self.platform.node_bandwidth:.6g}"
            )
        expected_work = app.instances[0].work
        if abs(instance.work - expected_work) > _EPS * max(1.0, expected_work):
            raise ValidationError(
                f"instance work {instance.work} does not match the application's "
                f"work {expected_work}"
            )
        # The transferred volume must match the application's volume.
        volume = instance.io_bandwidth * instance.io_duration * app.processors
        expected_volume = app.instances[0].io_volume
        if abs(volume - expected_volume) > 1e-6 * max(1.0, expected_volume):
            raise ValidationError(
                f"instance transfers {volume:.6g} B but {instance.app_name!r} "
                f"needs {expected_volume:.6g} B"
            )
        # No overlap with the application's other instances.
        for other in self.instances_of(instance.app_name):
            if instance.compute_start < other.end - _EPS and other.compute_start < instance.end - _EPS:
                raise ValidationError(
                    f"instance of {instance.app_name!r} at [{instance.compute_start:.6g}, "
                    f"{instance.end:.6g}) overlaps another at "
                    f"[{other.compute_start:.6g}, {other.end:.6g})"
                )
        # Back-end capacity over the I/O window.
        if instance.io_duration > _EPS:
            rate = instance.io_bandwidth * app.processors
            for start, end, used in self._profile_segments():
                overlap = min(end, instance.io_end) - max(start, instance.io_start)
                if overlap > _EPS and used + rate > self.platform.system_bandwidth * (1 + 1e-9):
                    raise ValidationError(
                        f"adding {instance.app_name!r} would exceed B over "
                        f"[{max(start, instance.io_start):.6g}, {min(end, instance.io_end):.6g})"
                    )
        self._append(instance)

    def _append(self, instance: ScheduledInstance) -> None:
        """Record an (already validated) instance and refresh the indexes."""
        self._instances.append(instance)
        # insort-right on compute_start matches the former stable
        # sorted(..., key=compute_start): equal keys keep insertion order.
        insort(self._by_app[instance.app_name], instance,
               key=attrgetter("compute_start"))
        self._counts[instance.app_name] += 1
        self._io_starts.append(instance.io_start)
        self._io_ends.append(instance.io_start + instance.io_duration)
        self._io_rates.append(
            instance.io_bandwidth * self._apps[instance.app_name].processors
        )
        self._breakpoints_cache = None
        self._segments_cache = None
        if self._io_load_cache:
            self._io_load_cache = {}

    # ------------------------------------------------------------------ #
    # Bandwidth profile
    # ------------------------------------------------------------------ #
    def breakpoints(self) -> list[float]:
        """Sorted distinct time points where the I/O load may change."""
        return list(self._breakpoints())

    def _breakpoints(self) -> list[float]:
        """Cached breakpoint list — internal callers must not mutate it."""
        cached = self._breakpoints_cache
        if cached is None:
            points = {0.0, self.period}
            for inst in self._instances:
                points.add(inst.io_start)
                points.add(inst.io_end)
                points.add(inst.compute_start)
                points.add(inst.compute_end)
            cached = sorted(p for p in points if -_EPS <= p <= self.period + _EPS)
            self._breakpoints_cache = cached
        return cached

    def io_load(self, time: float) -> float:
        """Aggregate back-end bandwidth in use at ``time`` (bytes/s)."""
        cached = self._io_load_cache.get(time)
        if cached is not None:
            return cached
        # Flat-array scan in insertion order: same comparisons and the same
        # float-addition order as summing over the instances directly.
        load = 0.0
        for start, end, rate in zip(self._io_starts, self._io_ends, self._io_rates):
            if start - _EPS <= time < end - _EPS:
                load += rate
        self._io_load_cache[time] = load
        return load

    def available_bandwidth(self, time: float) -> float:
        """Back-end bandwidth still free at ``time``."""
        return max(0.0, self.platform.system_bandwidth - self.io_load(time))

    def min_available_bandwidth(self, start: float, end: float) -> float:
        """Minimum free back-end bandwidth over ``[start, end)``."""
        if end <= start:
            return self.platform.system_bandwidth
        # Breakpoints are sorted, so the interior points ``start < p < end``
        # are one bisected slice of the cached list.
        points = self._breakpoints()
        lo = bisect_right(points, start)
        hi = bisect_left(points, end, lo)
        minimum = self.available_bandwidth(start)
        for i in range(lo, hi):
            value = self.available_bandwidth(points[i])
            if value < minimum:
                minimum = value
        return minimum

    def _profile_segments(self):
        """Iterate ``(start, end, load)`` segments of the current I/O profile.

        The profile is cached between mutations and computed by a sweep over
        the transfer arrays.  Segment mids are sorted, so the instances
        covering a segment are exactly those whose ``[io_start - eps,
        io_end - eps)`` window contains its mid — located with two bisects;
        instance contributions are summed in insertion order per segment.
        """
        cached = self._segments_cache
        if cached is None:
            points = self._breakpoints()
            bounds = [
                (s, e) for s, e in zip(points[:-1], points[1:]) if e - s > _EPS
            ]
            mids = [0.5 * (s + e) for s, e in bounds]
            loads = [0.0] * len(mids)
            starts = self._io_starts
            ends = self._io_ends
            rates = self._io_rates
            for i in range(len(starts)):
                lo = bisect_left(mids, starts[i] - _EPS)
                hi = bisect_left(mids, ends[i] - _EPS)
                rate = rates[i]
                for j in range(lo, hi):
                    loads[j] += rate
            cached = [(s, e, load) for (s, e), load in zip(bounds, loads)]
            self._segments_cache = cached
        return iter(cached)

    # ------------------------------------------------------------------ #
    # Validation and scoring
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Re-check every constraint of the whole schedule (defence in depth)."""
        b = self.platform.node_bandwidth
        for inst in self._instances:
            if inst.io_bandwidth > b * (1 + 1e-9):
                raise ValidationError(
                    f"{inst.app_name!r}: per-processor bandwidth exceeds b"
                )
            if inst.end > self.period + _EPS:
                raise ValidationError(f"{inst.app_name!r}: instance exceeds the period")
        for name in self._apps:
            insts = self.instances_of(name)
            for first, second in zip(insts[:-1], insts[1:]):
                if second.compute_start < first.end - _EPS:
                    raise ValidationError(f"{name!r}: overlapping instances")
        for start, end, load in self._profile_segments():
            if load > self.platform.system_bandwidth * (1 + 1e-9):
                raise ValidationError(
                    f"back-end capacity exceeded over [{start:.6g}, {end:.6g}): "
                    f"{load:.6g} > {self.platform.system_bandwidth:.6g}"
                )

    def steady_state_efficiency(self, app_name: str) -> float:
        """Equation (1): ``rho_tilde^{(k)} = n_per^{(k)} w^{(k)} / T``."""
        app = self._apps[app_name]
        n_per = self.instances_per_application()[app_name]
        return n_per * app.instances[0].work / self.period

    def outcomes(self) -> list[ApplicationOutcome]:
        """Objective-level outcomes of one steady-state period.

        The period plays the role of the elapsed time; the executed work of
        application ``k`` is ``n_per^{(k)} * w^{(k)}``, and the dedicated I/O
        time covers the same number of instances — exactly the quantities of
        equation (1) and of the optimal efficiency ``rho``.
        """
        outs: list[ApplicationOutcome] = []
        counts = self.instances_per_application()
        for name, app in self._apps.items():
            n_per = counts[name]
            work = n_per * app.instances[0].work
            peak = self.platform.peak_application_bandwidth(app.processors)
            io_time = n_per * app.instances[0].io_volume / peak if peak > 0 else 0.0
            outs.append(
                ApplicationOutcome(
                    name=name,
                    processors=app.processors,
                    release_time=0.0,
                    completion_time=self.period,
                    executed_work=work,
                    dedicated_io_time=io_time,
                )
            )
        return outs

    def summary(self, total_processors: int | None = None) -> ObjectiveSummary:
        """SysEfficiency / Dilation of the steady state (per period)."""
        return summarize(self.outcomes(), total_processors)

    def is_complete(self) -> bool:
        """True when every application has at least one instance in the period."""
        return all(n > 0 for n in self.instances_per_application().values())

    def __contains__(self, app_name: str) -> bool:
        """True when ``app_name`` is one of this schedule's applications."""
        return app_name in self._apps

    def __len__(self) -> int:
        return len(self._instances)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.instances_per_application()
        return (
            f"PeriodicSchedule(T={self.period:g}, "
            f"instances={sum(counts.values())}, apps={len(counts)})"
        )
