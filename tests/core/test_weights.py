"""Unit tests for the F(worker, task) weight functions."""

import numpy as np
import pytest

from repro.core.weights import (
    AccuracyWeight,
    ConstantWeight,
    DistanceWeight,
    HybridWeight,
    TravelTimeWeight,
    make_weight_function,
)
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable


def _task(category=TaskCategory.GENERIC, lat=0.0, lon=0.0):
    return Task(latitude=lat, longitude=lon, deadline=60.0, category=category)


def _rows(*workers):
    """Table rows of ``(profile, records)`` workers, in order; each record
    ``(category, positive)`` is one finished task."""
    profiling = WorkerTable()
    for profile, records in workers:
        profiling.register(profile)
        for category, positive in records:
            profiling.complete(profile.worker_id, 5.0, category, positive)
    return profiling.rows_of([profile.worker_id for profile, _ in workers])


def _worker(worker_id=0, lat=0.0, lon=0.0, records=()):
    """One worker's table row."""
    return _rows((WorkerProfile(worker_id, lat, lon), records))


class TestAccuracyWeight:
    def test_eq1_ratio(self):
        worker = _worker(records=[
            (TaskCategory.GENERIC, True),
            (TaskCategory.GENERIC, True),
            (TaskCategory.GENERIC, False),
        ])
        weight = AccuracyWeight().single(worker, _task())
        assert weight == pytest.approx(2 / 3)

    def test_category_isolation(self):
        worker = _worker(records=[
            (TaskCategory.TRAFFIC_MONITORING, True),
            (TaskCategory.PRICE_CHECK, False),
        ])
        fn = AccuracyWeight()
        assert fn.single(worker, _task(TaskCategory.TRAFFIC_MONITORING)) == 1.0
        assert fn.single(worker, _task(TaskCategory.PRICE_CHECK)) == 0.0

    def test_no_history_zero(self):
        assert AccuracyWeight().single(_worker(), _task()) == 0.0

    def test_matrix_shape_and_values(self):
        workers = _rows(
            (WorkerProfile(0), [(TaskCategory.GENERIC, True)]),
            (WorkerProfile(1), [(TaskCategory.GENERIC, False)]),
        )
        tasks = [_task(), _task(TaskCategory.PRICE_CHECK)]
        matrix = AccuracyWeight().matrix(workers, tasks)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 1.0
        assert matrix[1, 0] == 0.0
        assert matrix[0, 1] == 0.0  # no price-check history

    def test_matrix_mixed_categories_batched(self):
        """Multiple tasks in the same category share one lookup column."""
        worker = _worker(records=[(TaskCategory.GENERIC, True)])
        tasks = [_task(), _task(), _task(TaskCategory.PRICE_CHECK)]
        matrix = AccuracyWeight().matrix(worker, tasks)
        assert list(matrix[0]) == [1.0, 1.0, 0.0]


class TestDistanceWeight:
    def test_zero_distance_is_one(self):
        fn = DistanceWeight(max_km=10.0)
        assert fn.single(_worker(lat=38.0, lon=23.7), _task(lat=38.0, lon=23.7)) == 1.0

    def test_beyond_max_km_is_zero(self):
        fn = DistanceWeight(max_km=10.0)
        # Athens to Thessaloniki is ~300 km
        assert fn.single(_worker(lat=37.98, lon=23.73), _task(lat=40.64, lon=22.94)) == 0.0

    def test_decay_is_monotone(self):
        fn = DistanceWeight(max_km=1000.0)
        near = fn.single(_worker(lat=38.0, lon=23.7), _task(lat=38.1, lon=23.7))
        far = fn.single(_worker(lat=38.0, lon=23.7), _task(lat=40.0, lon=23.7))
        assert 0 < far < near < 1

    def test_invalid_max_km(self):
        with pytest.raises(ValueError):
            DistanceWeight(max_km=0)

    def test_matrix_bit_equal_to_scalar_oracle(self):
        """The broadcast path must reproduce the per-cell path bit-for-bit."""
        rng = np.random.default_rng(99)
        profiles = [
            WorkerProfile(i, float(rng.uniform(38.0, 38.2)), float(rng.uniform(23.6, 23.8)))
            for i in range(17)
        ]
        tasks = [
            _task(lat=float(rng.uniform(38.0, 38.2)),
                  lon=float(rng.uniform(23.6, 23.8)))
            for _ in range(23)
        ]
        fn = DistanceWeight(max_km=10.0)
        rows = _rows(*[(profile, ()) for profile in profiles])
        assert np.array_equal(fn.matrix(rows, tasks),
                              fn.matrix_scalar(profiles, tasks))


class TestTravelTimeWeight:
    def test_on_site_is_one(self):
        fn = TravelTimeWeight(speed_kmh=25.0, horizon_s=3600.0)
        assert fn.single(_worker(lat=38.0, lon=23.7), _task(lat=38.0, lon=23.7)) == 1.0

    def test_unreachable_is_zero(self):
        # ~300 km at 25 km/h is a 12 h trip against a 10-minute horizon.
        fn = TravelTimeWeight(speed_kmh=25.0, horizon_s=600.0)
        assert fn.single(_worker(lat=37.98, lon=23.73), _task(lat=40.64, lon=22.94)) == 0.0

    def test_decay_is_monotone_in_distance(self):
        fn = TravelTimeWeight(speed_kmh=25.0, horizon_s=7 * 24 * 3600.0)
        near = fn.single(_worker(lat=38.0, lon=23.7), _task(lat=38.1, lon=23.7))
        far = fn.single(_worker(lat=38.0, lon=23.7), _task(lat=40.0, lon=23.7))
        assert 0 < far < near < 1

    def test_faster_travel_raises_weight(self):
        worker, task = _worker(lat=38.0, lon=23.7), _task(lat=38.1, lon=23.7)
        slow = TravelTimeWeight(speed_kmh=5.0, horizon_s=3600.0).single(worker, task)
        fast = TravelTimeWeight(speed_kmh=50.0, horizon_s=3600.0).single(worker, task)
        assert fast > slow

    @pytest.mark.parametrize("kwargs", [{"speed_kmh": 0}, {"horizon_s": 0},
                                        {"speed_kmh": -1}, {"horizon_s": -1}])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            TravelTimeWeight(**kwargs)


class TestHybridWeight:
    def test_blend(self):
        worker = _worker(records=[(TaskCategory.GENERIC, True)])
        task = _task()
        hybrid = HybridWeight(beta=0.5, max_km=10.0)
        value = hybrid.single(worker, task)
        # accuracy=1, distance=1 (same point) -> blend = 1
        assert value == pytest.approx(1.0)

    def test_beta_one_equals_accuracy(self):
        worker = _worker(records=[(TaskCategory.GENERIC, True), (TaskCategory.GENERIC, False)])
        task = _task(lat=1.0)
        assert HybridWeight(beta=1.0).single(worker, task) == pytest.approx(0.5)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            HybridWeight(beta=1.5)


class TestConstantWeight:
    def test_fills_matrix(self):
        workers = _rows((WorkerProfile(0), ()), (WorkerProfile(1), ()))
        matrix = ConstantWeight(0.7).matrix(workers, [_task()])
        assert np.all(matrix == 0.7)

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            ConstantWeight(1.5)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("accuracy", AccuracyWeight),
            ("distance", DistanceWeight),
            ("travel-time", TravelTimeWeight),
            ("hybrid", HybridWeight),
            ("constant", ConstantWeight),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_weight_function(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_weight_function("nope")

    def test_kwargs_forwarded(self):
        fn = make_weight_function("distance", max_km=5.0)
        assert fn.max_km == 5.0
