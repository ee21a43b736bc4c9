"""Unit tests for periodic and generator-driven processes."""

import math

import pytest

from repro.sim.events import EventKind
from repro.sim.process import GeneratorProcess, PeriodicProcess


class TestPeriodicProcess:
    def test_fires_every_period(self, engine):
        times = []
        PeriodicProcess(engine, period=2.0, action=times.append)
        engine.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_custom_start(self, engine):
        times = []
        PeriodicProcess(engine, period=5.0, action=times.append, start=1.0)
        engine.run(until=12.0)
        assert times == [1.0, 6.0, 11.0]

    def test_stop_halts_firing(self, engine):
        times = []
        proc = PeriodicProcess(engine, period=1.0, action=times.append)
        engine.schedule(2.5, EventKind.CALLBACK, lambda e: proc.stop())
        engine.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_stop_from_within_action(self, engine):
        times = []
        proc = PeriodicProcess(engine, period=1.0, action=lambda t: (times.append(t), proc.stop()))
        engine.run(until=10.0)
        assert times == [1.0]

    def test_invalid_period_rejected(self, engine):
        with pytest.raises(ValueError, match="positive"):
            PeriodicProcess(engine, period=0.0, action=lambda t: None)

    def test_nan_period_rejected(self, engine):
        with pytest.raises(ValueError, match="positive"):
            PeriodicProcess(engine, period=math.nan, action=lambda t: None)

    def test_stop_from_within_action_leaves_nothing_queued(self, engine):
        """The firing event has already left the heap when the action runs,
        so a stop() from inside it leaves neither a queued nor a cancelled
        event behind."""
        procs = []

        def stop_self(index):
            return lambda now: procs[index].stop()

        for i in range(40):
            procs.append(PeriodicProcess(engine, period=1.0, action=stop_self(i)))
        engine.run()
        assert engine.dispatched == 40
        assert engine.pending == 0


class TestGeneratorProcess:
    def test_delivers_payloads_with_gaps(self, engine):
        received = []

        def gaps():
            yield 1.0, "a"
            yield 2.0, "b"
            yield 0.5, "c"

        GeneratorProcess(engine, gaps(), lambda p: received.append((engine.now, p)))
        engine.run()
        assert received == [(1.0, "a"), (3.0, "b"), (3.5, "c")]

    def test_emitted_counter(self, engine):
        proc = GeneratorProcess(
            engine, iter([(1.0, i) for i in range(5)]), lambda p: None
        )
        engine.run()
        assert proc.emitted == 5

    def test_stop_halts_stream(self, engine):
        received = []
        proc = GeneratorProcess(
            engine, iter([(1.0, i) for i in range(10)]), received.append
        )
        engine.schedule(3.5, EventKind.CALLBACK, lambda e: proc.stop())
        engine.run()
        assert received == [0, 1, 2]

    def test_negative_gap_rejected(self, engine):
        GeneratorProcess(engine, iter([(1.0, "ok"), (-1.0, "bad")]), lambda p: None)
        with pytest.raises(ValueError, match="negative delay"):
            engine.run()

    def test_empty_generator_is_noop(self, engine):
        proc = GeneratorProcess(engine, iter([]), lambda p: None)
        engine.run()
        assert proc.emitted == 0
