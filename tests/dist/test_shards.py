"""Unit tests for shard specs, fingerprints, and id hygiene."""

import types

import pytest

from repro.dist import ShardSpec, TelemetrySpec, fingerprint, safe_id
from repro.dist.shards import check_unique_ids
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import run_endtoend
from repro.experiments.scenario import run_scenario
from repro.platform.policies import greedy_policy


def _spec(**kwargs):
    return ShardSpec(shard_id="s1", runner=run_endtoend, kwargs=kwargs)


class TestFingerprint:
    def test_deterministic(self):
        a = _spec(config=EndToEndConfig(seed=1), policy=greedy_policy())
        b = _spec(config=EndToEndConfig(seed=1), policy=greedy_policy())
        assert fingerprint(a) == fingerprint(b)

    def test_payload_change_changes_fingerprint(self):
        a = _spec(config=EndToEndConfig(seed=1))
        b = _spec(config=EndToEndConfig(seed=2))
        assert fingerprint(a) != fingerprint(b)

    def test_dict_order_insensitive(self):
        a = ShardSpec("s1", run_endtoend, {"x": 1, "y": 2})
        b = ShardSpec("s1", run_endtoend, {"y": 2, "x": 1})
        assert fingerprint(a) == fingerprint(b)

    def test_runner_and_id_participate(self):
        assert fingerprint(ShardSpec("s1", run_endtoend, {})) != fingerprint(
            ShardSpec("s1", run_scenario, {})
        )
        assert fingerprint(ShardSpec("s1", run_endtoend, {})) != fingerprint(
            ShardSpec("s2", run_endtoend, {})
        )

    def test_label_and_telemetry_participate(self):
        base = ShardSpec("s1", run_endtoend, {})
        assert fingerprint(base) != fingerprint(
            ShardSpec("s1", run_endtoend, {}, label="greedy")
        )
        assert fingerprint(base) != fingerprint(
            ShardSpec("s1", run_endtoend, {}, telemetry=TelemetrySpec(prefix="x"))
        )

    def test_runner_keyed_by_name_not_address(self):
        """A function's repr carries its memory address, which differs
        between processes; the fingerprint keys the runner by name."""
        twin = types.FunctionType(run_endtoend.__code__, run_endtoend.__globals__)
        twin.__qualname__ = run_endtoend.__qualname__
        assert repr(twin) != repr(run_endtoend)
        assert fingerprint(ShardSpec("s1", twin, {})) == fingerprint(
            ShardSpec("s1", run_endtoend, {})
        )


class TestIds:
    def test_safe_id_sanitizes(self):
        assert safe_id("scal", 100, 1.5, "react/fast") == "scal-100-1.5-react_fast"

    def test_duplicate_ids_rejected(self):
        specs = [ShardSpec("dup", run_endtoend, {}), ShardSpec("dup", run_endtoend, {})]
        with pytest.raises(ValueError, match="duplicate shard id"):
            check_unique_ids(specs)


class TestTelemetrySpec:
    def test_enabled_flag(self):
        assert not TelemetrySpec(prefix="x").enabled
        assert TelemetrySpec(prefix="x", metrics_dir="/tmp/m").enabled
        assert TelemetrySpec(prefix="x", trace_dir="/tmp/t").enabled
