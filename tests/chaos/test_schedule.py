"""Unit tests: fault dataclasses, schedules, and the resilience knobs."""

import math

import pytest

from repro.chaos import (
    FAULT_KINDS,
    AbandonmentWave,
    BlackoutFault,
    FaultSchedule,
    MatcherStallFault,
    NoShowFault,
    StaleProfileFault,
    SweepOutageFault,
)
from repro.platform.resilience import ResilienceConfig


class TestFaults:
    def test_kind_names_are_stable(self):
        assert AbandonmentWave(start=0.0).kind == "abandonment-wave"
        assert NoShowFault(start=0.0).kind == "no-show"
        assert StaleProfileFault(start=0.0).kind == "stale-profile"
        assert MatcherStallFault(start=0.0).kind == "matcher-stall"
        assert SweepOutageFault(start=0.0).kind == "sweep-outage"
        assert BlackoutFault(start=0.0).kind == "blackout"

    def test_end_is_start_plus_duration(self):
        assert BlackoutFault(start=10.0, duration=5.0).end == 15.0
        assert AbandonmentWave(start=3.0).end == 3.0  # one-shot

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: AbandonmentWave(start=-1.0),
            lambda: AbandonmentWave(start=0.0, duration=-1.0),
            lambda: AbandonmentWave(start=0.0, fraction=1.5),
            lambda: NoShowFault(start=0.0, probability=-0.1),
            lambda: NoShowFault(start=0.0, hold_time=0.0),
            lambda: StaleProfileFault(start=0.0, distortion=0.0),
            lambda: MatcherStallFault(start=0.0, extra_latency=0.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize(
        "fault, field, value",
        [
            (AbandonmentWave, "start", math.nan),
            (BlackoutFault, "duration", math.nan),
            (NoShowFault, "hold_time", math.nan),
            (StaleProfileFault, "distortion", math.nan),
            (StaleProfileFault, "distortion", math.inf),
            (MatcherStallFault, "extra_latency", math.nan),
            (MatcherStallFault, "extra_latency", math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, fault, field, value):
        with pytest.raises(ValueError, match=field):
            fault(**{"start": 0.0, field: value})

    def test_faults_are_values(self):
        """Frozen dataclasses: equal by content, usable as dict keys."""
        a = MatcherStallFault(start=5.0, duration=10.0, extra_latency=2.0)
        b = MatcherStallFault(start=5.0, duration=10.0, extra_latency=2.0)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.start = 9.0


class TestFaultSchedule:
    def test_standard_contains_every_kind_once(self):
        schedule = FaultSchedule.standard()
        assert len(schedule) == len(FAULT_KINDS)
        for fault_type in FAULT_KINDS:
            assert sum(isinstance(f, fault_type) for f in schedule) == 1

    def test_standard_windows_do_not_overlap(self):
        schedule = FaultSchedule.standard(first_start=50.0, spacing=100.0, window=30.0)
        ordered = sorted(schedule, key=lambda f: f.start)
        for earlier, later in zip(ordered, ordered[1:]):
            assert earlier.end <= later.start

    def test_horizon(self):
        schedule = FaultSchedule(
            faults=(BlackoutFault(start=10.0, duration=5.0), AbandonmentWave(start=40.0))
        )
        assert schedule.horizon == 40.0
        assert FaultSchedule().horizon == 0.0

    def test_rejects_non_faults(self):
        with pytest.raises(TypeError):
            FaultSchedule(faults=("not a fault",))

    def test_schedules_are_replayable_values(self):
        assert FaultSchedule.standard(seed=3) == FaultSchedule.standard(seed=3)
        assert FaultSchedule.standard(seed=3) != FaultSchedule.standard(seed=4)


class TestResilienceConfig:
    def test_backoff_delay_is_geometric_and_capped(self):
        config = ResilienceConfig(
            retry_backoff_base=2.0, retry_backoff_factor=3.0, retry_backoff_cap=25.0
        )
        assert config.backoff_delay(1) == 2.0
        assert config.backoff_delay(2) == 6.0
        assert config.backoff_delay(3) == 18.0
        assert config.backoff_delay(4) == 25.0  # capped

    def test_zero_base_disables_backoff(self):
        config = ResilienceConfig(retry_backoff_base=0.0)
        assert not config.backoff_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retry_backoff_factor": 0.0},
            {"retry_backoff_cap": -1.0},
            {"max_reassignments": 0},
            {"latency_budget": 0.0},
            {"trip_after": 0},
            {"recover_after": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)
