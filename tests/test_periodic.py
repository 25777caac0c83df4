"""Unit tests for periodic schedules, greedy insertion and the period search."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import pytest

from repro.config import parse_spec
from repro.config.build import build_periodic_setup
from repro.config.loader import load_spec_data
from repro.config.spec import PERIODIC_HEURISTIC_TABLE
from repro.core.application import Application
from repro.core.platform import Platform
from repro.periodic.heuristics import (
    InsertInScheduleCong,
    InsertInScheduleThrou,
    application_profiles,
)
from repro.periodic.insertion import GreedyInserter
from repro.periodic.period_search import _score, minimum_period, search_period
from repro.periodic.schedule import PeriodicSchedule, ScheduledInstance
from repro.utils.validation import ValidationError

PLATFORM = Platform("p", 100, 1e6, 2e7)


def app(name="a", procs=10, work=100.0, vol=1e8, n=3):
    # 10 procs * 1 MB/s = 10 MB/s -> vol 1e8 takes 10 s dedicated.
    return Application.periodic(name, procs, work, vol, n)


_PERIODIC_SPEC = (
    Path(__file__).resolve().parent.parent / "examples" / "specs" / "periodic.toml"
)


def _periodic_spec_setup(*, mix_seed: int | None = None):
    """Platform and applications of ``examples/specs/periodic.toml``.

    With ``mix_seed`` the explicit ``[[periodic.apps]]`` tables are swapped
    for a seeded small/large category mix on the same platform.
    """
    data = load_spec_data(_PERIODIC_SPEC)
    if mix_seed is not None:
        data["experiment"]["seed"] = mix_seed
        del data["periodic"]["apps"]
        data["periodic"].update(small=5, large=2)
    spec = parse_spec(data)
    return spec.body, build_periodic_setup(spec.body, spec.seed)


def _placements(schedule) -> list[tuple]:
    return sorted(
        (i.app_name, i.compute_start, i.work, i.io_start, i.io_duration, i.io_bandwidth)
        for i in schedule.instances
    )


class TestScheduledInstance:
    def test_properties(self):
        inst = ScheduledInstance("a", 0.0, 10.0, 10.0, 5.0, 1e6)
        assert inst.compute_end == 10.0
        assert inst.io_end == 15.0
        assert inst.end == 15.0

    def test_io_before_compute_end_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledInstance("a", 0.0, 10.0, 5.0, 5.0, 1e6)

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledInstance("a", -1.0, 10.0, 10.0, 5.0, 1e6)


class TestPeriodicSchedule:
    def test_requires_periodic_applications(self):
        aperiodic = Application.from_sequences("x", 10, [1, 2], [1e6, 1e6])
        with pytest.raises(ValidationError):
            PeriodicSchedule(PLATFORM, [aperiodic], period=100.0)

    def test_add_instance_and_counts(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        assert schedule.instances_per_application()["a"] == 1
        assert len(schedule) == 1
        assert schedule.is_complete()

    def test_volume_mismatch_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        with pytest.raises(ValidationError):
            # Transfers 10 procs * 1e6 * 5 s = 5e7 != 1e8.
            schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 5.0, 1e6))

    def test_own_overlap_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app(n=2)], period=400.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        with pytest.raises(ValidationError):
            schedule.add_instance(ScheduledInstance("a", 50.0, 100.0, 150.0, 10.0, 1e6))

    def test_bandwidth_cap_rejected(self):
        big1 = app("b1", procs=50, vol=1e9)   # 50 MB/s demand at gamma = b
        big2 = app("b2", procs=50, vol=1e9)
        schedule = PeriodicSchedule(PLATFORM, [big1, big2], period=1000.0)
        # b1 uses min(50*1e6, 2e7) = 2e7 -> gamma = 4e5 over 50 s.
        schedule.add_instance(ScheduledInstance("b1", 0.0, 100.0, 100.0, 50.0, 4e5))
        with pytest.raises(ValidationError):
            # Overlapping I/O that would need another 2e7.
            schedule.add_instance(ScheduledInstance("b2", 10.0, 100.0, 110.0, 50.0, 4e5))

    def test_node_bandwidth_cap_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        with pytest.raises(ValidationError):
            schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 5.0, 2e6))

    def test_period_overflow_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=105.0)
        with pytest.raises(ValidationError):
            schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))

    def test_steady_state_efficiency(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=220.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        schedule.add_instance(ScheduledInstance("a", 110.0, 100.0, 210.0, 10.0, 1e6))
        assert schedule.steady_state_efficiency("a") == pytest.approx(200.0 / 220.0)
        summary = schedule.summary()
        assert summary.dilation == pytest.approx((100 / 110) / (200 / 220))

    def test_available_bandwidth_profile(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        assert schedule.available_bandwidth(50.0) == pytest.approx(2e7)
        assert schedule.available_bandwidth(105.0) == pytest.approx(2e7 - 1e7)
        assert schedule.min_available_bandwidth(0.0, 300.0) == pytest.approx(1e7)

    def test_validate_passes_on_consistent_schedule(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        schedule.validate()


class TestGreedyInserter:
    def test_first_instance_at_time_zero(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        inserter = GreedyInserter(schedule)
        assert inserter.try_insert(app()) is True
        placed = schedule.instances[0]
        assert placed.compute_start == 0.0
        assert placed.io_start == pytest.approx(100.0)
        assert placed.io_bandwidth == pytest.approx(1e6)

    def test_insertion_stops_when_full(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=230.0)
        inserter = GreedyInserter(schedule)
        count = 0
        while inserter.try_insert(app()):
            count += 1
        # Each instance occupies 110 s: exactly two fit in 230 s.
        assert count == 2

    def test_two_apps_share_bandwidth_windows(self):
        a = app("a", procs=30, vol=6e8)   # peak 2e7 system-limited -> 30 s I/O
        c = app("c", procs=30, vol=6e8)
        schedule = PeriodicSchedule(PLATFORM, [a, c], period=400.0)
        inserter = GreedyInserter(schedule)
        assert inserter.try_insert(a)
        assert inserter.try_insert(c)
        schedule.validate()
        # The second application cannot transfer at the full back-end rate
        # while the first one is transferring, so either it starts later or
        # it runs at a reduced constant bandwidth.
        first, second = schedule.instances
        if second.io_start < first.io_end:
            assert second.io_bandwidth < PLATFORM.node_bandwidth

    def test_unknown_application_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app("a")], period=300.0)
        inserter = GreedyInserter(schedule)
        with pytest.raises(ValidationError):
            inserter.find_placement(app("ghost"))

    def test_infeasible_period_returns_none(self):
        schedule = PeriodicSchedule(PLATFORM, [app(work=500.0)], period=100.0)
        inserter = GreedyInserter(schedule)
        assert inserter.find_placement(app(work=500.0)) is None


class TestHeuristics:
    def apps(self):
        return [
            app("io_heavy", procs=20, work=50.0, vol=1e9, n=3),
            app("cpu_heavy", procs=40, work=400.0, vol=2e8, n=3),
            app("balanced", procs=30, work=150.0, vol=5e8, n=3),
        ]

    @pytest.mark.parametrize("heuristic", [InsertInScheduleThrou(), InsertInScheduleCong()])
    def test_schedules_are_valid_and_complete(self, heuristic):
        schedule = heuristic.build(PLATFORM, self.apps(), period=1200.0)
        schedule.validate()
        assert schedule.is_complete()

    def test_throu_fills_more_of_the_period(self):
        # The throughput heuristic should never schedule fewer total
        # instances than needed for completeness; usually it packs more of
        # the I/O-bound application.
        schedule = InsertInScheduleThrou().build(PLATFORM, self.apps(), period=1200.0)
        counts = schedule.instances_per_application()
        assert counts["io_heavy"] >= 1

    def test_cong_balances_scheduled_load(self):
        # The Dilation-oriented heuristic balances n_per * (w + time_io), not
        # raw instance counts: every application's scheduled load should end
        # up within one footprint of the others.
        schedule = InsertInScheduleCong().build(PLATFORM, self.apps(), period=1200.0)
        counts = schedule.instances_per_application()
        loads = {}
        footprints = {}
        for application in self.apps():
            inst = application.instances[0]
            peak = PLATFORM.peak_application_bandwidth(application.processors)
            footprint = inst.work + inst.io_volume / peak
            footprints[application.name] = footprint
            loads[application.name] = counts[application.name] * footprint
        spread = max(loads.values()) - min(loads.values())
        assert spread <= max(footprints.values()) + 1e-6

    def test_empty_applications_rejected(self):
        with pytest.raises(ValidationError):
            InsertInScheduleThrou().build(PLATFORM, [], period=100.0)


class TestPeriodSearch:
    def test_minimum_period(self):
        a = app(procs=10, work=100.0, vol=1e8)  # 100 + 10
        c = app("c", procs=20, work=300.0, vol=2e8)  # 300 + 10
        assert minimum_period(PLATFORM, [a, c]) == pytest.approx(310.0)

    def test_search_returns_best_and_sweep(self):
        apps = [app("a", procs=30, work=100.0, vol=3e8, n=2),
                app("b", procs=30, work=150.0, vol=3e8, n=2)]
        result = search_period(
            InsertInScheduleCong(), PLATFORM, apps,
            objective="dilation", epsilon=0.25, max_period_factor=4.0,
        )
        assert result.best_schedule.is_complete()
        assert len(result.sweep) >= 2
        assert result.best_point.period == result.best_period

    def test_objective_validation(self):
        with pytest.raises(ValidationError):
            search_period(
                InsertInScheduleCong(), PLATFORM, [app()], objective="nonsense"
            )

    def test_bad_epsilon(self):
        with pytest.raises(ValidationError):
            search_period(InsertInScheduleCong(), PLATFORM, [app()], epsilon=0.0)

    def test_epsilon_too_small_to_advance_rejected(self):
        # 1.0 + 1e-17 == 1.0, so T <- T * (1 + eps) would never move.
        with pytest.raises(ValidationError, match="epsilon"):
            search_period(InsertInScheduleCong(), PLATFORM, [app()], epsilon=1e-17)

    def test_max_period_smaller_than_min_rejected(self):
        with pytest.raises(ValidationError):
            search_period(
                InsertInScheduleCong(), PLATFORM, [app(work=500.0)], max_period=10.0
            )

    def test_all_incomplete_sweep_still_returns_a_schedule(self):
        """Regression: with the dilation objective every incomplete schedule
        scores -inf, which used to tie the -inf best-score sentinel so no
        schedule was ever selected (AssertionError at the end of the sweep).
        Three machine-filling applications can never all fit in one period
        at max_period_factor=1.0."""
        apps = [app(f"app-{i}", procs=100, work=100.0, vol=1e8, n=2)
                for i in range(3)]
        result = search_period(
            InsertInScheduleCong(), PLATFORM, apps,
            objective="dilation", max_period_factor=1.0,
        )
        assert result.best_schedule is not None
        assert not result.best_schedule.is_complete()
        assert result.best_point.period == result.best_period

    def test_single_point_sweep(self):
        _, (platform, apps) = _periodic_spec_setup()
        t_min = minimum_period(platform, apps)
        result = search_period(
            InsertInScheduleThrou(), platform, apps, max_period=t_min
        )
        assert len(result.sweep) == 1
        assert result.best_period == t_min

    def test_best_system_efficiency_not_worse_than_first_point(self):
        apps = [app("a", procs=30, work=100.0, vol=3e8, n=2),
                app("b", procs=30, work=150.0, vol=3e8, n=2)]
        result = search_period(
            InsertInScheduleThrou(), PLATFORM, apps,
            objective="system_efficiency", epsilon=0.3, max_period_factor=3.0,
        )
        first = result.sweep[0]
        best = result.best_point
        if first.complete:
            assert best.system_efficiency >= first.system_efficiency - 1e-9


class TestSweepContract:
    """The Section 3.2.3 ladder and best-point selection across shapes."""

    @staticmethod
    def check(heuristic_cls, platform, apps, objective, epsilon, factor):
        result = search_period(
            heuristic_cls(), platform, apps, objective=objective,
            epsilon=epsilon, max_period_factor=factor,
        )
        t_min = minimum_period(platform, apps)
        periods = [p.period for p in result.sweep]
        # T starts at max_k (w + time_io) and grows by (1 + eps) up to T_max.
        assert periods[0] == t_min
        assert periods[-1] == t_min * factor
        for before, after in zip(periods, periods[1:]):
            assert after == min(before * (1.0 + epsilon), t_min * factor)
        # The best point is the first one with the highest score.
        scores = [
            _score(p.system_efficiency, p.dilation, p.complete, objective)
            for p in result.sweep
        ]
        best = periods.index(result.best_period)
        assert scores[best] == max(scores)
        assert all(score < scores[best] for score in scores[:best])
        # The returned schedule is exactly what a fresh build at that period
        # produces, and its score is the recorded sweep point.
        schedule = result.best_schedule
        assert schedule.period == result.best_period
        schedule.validate()
        fresh = heuristic_cls().build(platform, apps, result.best_period)
        assert _placements(schedule) == _placements(fresh)
        summary = schedule.summary()
        point = result.best_point
        assert (summary.system_efficiency, summary.dilation) == (
            point.system_efficiency, point.dilation,
        )

    @pytest.mark.parametrize("heuristic_cls", [InsertInScheduleThrou, InsertInScheduleCong])
    @pytest.mark.parametrize("objective", ["system_efficiency", "dilation"])
    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.3])
    def test_spec_apps(self, heuristic_cls, objective, epsilon):
        _, (platform, apps) = _periodic_spec_setup()
        self.check(heuristic_cls, platform, apps, objective, epsilon, 6.0)

    @pytest.mark.parametrize("heuristic_cls", [InsertInScheduleThrou, InsertInScheduleCong])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_mixes(self, heuristic_cls, seed):
        _, (platform, apps) = _periodic_spec_setup(mix_seed=seed)
        self.check(heuristic_cls, platform, apps, "system_efficiency", 0.1, 8.0)


class TestProfiles:
    def test_profiles_match_direct_computation(self):
        _, (platform, apps) = _periodic_spec_setup()
        profiles = application_profiles(platform, apps)
        for application in apps:
            inst = application.instances[0]
            peak = platform.peak_application_bandwidth(application.processors)
            profile = profiles[application.name]
            assert profile.work == inst.work
            assert profile.io_volume == inst.io_volume
            assert profile.time_io == inst.io_volume / peak
            assert profile.footprint == inst.work + inst.io_volume / peak
            assert profile.ratio == inst.work / profile.time_io

    def test_zero_io_profile(self):
        dry = Application.periodic(
            name="dry", processors=10, work=50.0, io_volume=0.0, n_instances=2
        )
        profiles = application_profiles(PLATFORM, [dry])
        assert profiles["dry"].time_io == 0.0
        assert math.isinf(profiles["dry"].ratio)
        assert profiles["dry"].footprint == 50.0


# --------------------------------------------------------------------------
# Golden sweeps: exact traces and placements of the naive (1 + eps) sweep.
# --------------------------------------------------------------------------


def _sweep_digest(result) -> str:
    """sha256 over the exact sweep, best period and sorted best placements."""
    sweep = [
        (p.period, p.system_efficiency, p.dilation, p.complete) for p in result.sweep
    ]
    blob = repr((sweep, result.best_period, _placements(result.best_schedule)))
    return hashlib.sha256(blob.encode()).hexdigest()


#: (heuristic key, epsilon — ``None`` is the spec's, mix seed — ``None`` is
#: the spec's explicit applications) -> digest of the naive sweep.  ε = 0.025
#: is a 74-point sweep, the fine regime; the spec's ε = 0.1 sweeps 20 points.
GOLDEN_SWEEPS = {
    ("throughput", None, None):
        "991d9fccef4db4eaf276659882506d74f1cff71be690ede1a93fd004ed676885",
    ("congestion", None, None):
        "48d9b78d81fcdeddf1e5696755c43f5dd5afa37ab782a161a6f7d02d64c3e6e5",
    ("throughput", 0.025, None):
        "9bfef862c950692ddb6ad09534432114d888f3c58a88150670b7b5884a963449",
    ("congestion", 0.025, None):
        "260001eaf406e42ee69dc6ad6d06e8fa0e39609b3bf7cb952c3dc2190d03060c",
    ("throughput", None, 7):
        "503120c00acc9d36950f8575f303b35c89f3e41f4452183b938af6a2ff3750cc",
    ("congestion", None, 7):
        "dd40949fb93393857530b81a18cbb7aa623f3264525202f74a5bc37a1efb7677",
}


def _golden_sweep(key: str, epsilon: float | None, mix_seed: int | None):
    body, (platform, applications) = _periodic_spec_setup(mix_seed=mix_seed)
    heuristic_cls, objective = PERIODIC_HEURISTIC_TABLE[key]
    return search_period(
        heuristic_cls(),
        platform,
        applications,
        objective=objective,
        epsilon=body.epsilon if epsilon is None else epsilon,
        max_period=body.max_period,
        max_period_factor=body.max_period_factor,
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_SWEEPS, key=repr), ids=repr)
def test_golden_sweep(case):
    """Pins every sweep point and the chosen placements bit for bit."""
    assert _sweep_digest(_golden_sweep(*case)) == GOLDEN_SWEEPS[case]
