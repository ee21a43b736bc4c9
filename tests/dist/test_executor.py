"""Executor tests: ordering, checkpoint/resume, staleness, failure recovery.

These use test-only module-level runners so they exercise the executor
machinery without paying for real simulations.  The runners pickle by
reference, so pool workers import them from this module.
"""

import pickle
import sys
import time
import types

import pytest

from repro.dist import ShardOutcome, ShardSpec, execute_shards, fingerprint
from repro.dist.executor import load_checkpoint, write_checkpoint


def echo(value, fail=False):
    """Return ``value``, or raise when told to fail."""
    if fail:
        raise RuntimeError(f"shard with value {value!r} told to fail")
    return value


def slow_echo(value, delay, marker_dir, fail=False):
    """``echo`` after ``delay`` seconds; records each completed run as a file
    in ``marker_dir`` so a test can see which shards ran to the end."""
    if fail:
        raise RuntimeError(f"shard with value {value!r} told to fail")
    time.sleep(delay)
    (marker_dir / f"{value}.done").write_text("done")
    return value


def _specs(*values, fail=()):
    return [
        ShardSpec(
            shard_id=f"echo-{i}",
            runner=echo,
            kwargs={"value": v, "fail": f"echo-{i}" in fail},
        )
        for i, v in enumerate(values)
    ]


class TestExecution:
    def test_outcomes_follow_spec_order(self):
        report = execute_shards(_specs("a", "b", "c"))
        assert [o.result for o in report.outcomes] == ["a", "b", "c"]
        assert report.computed == 3 and report.resumed == 0

    def test_duplicate_ids_rejected(self):
        spec = ShardSpec("same", echo, {"value": 1})
        with pytest.raises(ValueError, match="duplicate"):
            execute_shards([spec, spec])

    def test_parallel_must_be_positive(self):
        with pytest.raises(ValueError, match="parallel"):
            execute_shards(_specs("a"), parallel=0)


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        spec = _specs("a")[0]
        outcome = ShardOutcome(shard_id=spec.shard_id, result="a")
        write_checkpoint(tmp_path, spec, outcome)
        loaded = load_checkpoint(tmp_path, spec)
        assert loaded is not None
        assert loaded.result == "a"
        assert loaded.from_checkpoint

    def test_missing_checkpoint_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path, _specs("a")[0]) is None

    def test_stale_fingerprint_ignored(self, tmp_path):
        old = _specs("a")[0]
        outcome = ShardOutcome(shard_id=old.shard_id, result="a")
        write_checkpoint(tmp_path, old, outcome)
        # Same shard id, different kwargs: the old result must not be reused.
        changed = ShardSpec(old.shard_id, echo, {"value": "b", "fail": False})
        assert fingerprint(changed) != fingerprint(old)
        assert load_checkpoint(tmp_path, changed) is None

    def test_corrupt_checkpoint_ignored(self, tmp_path):
        spec = _specs("a")[0]
        (tmp_path / f"{spec.shard_id}.pkl").write_bytes(b"not a pickle")
        assert load_checkpoint(tmp_path, spec) is None

    def test_truncated_checkpoint_ignored(self, tmp_path):
        spec = _specs("a")[0]
        outcome = ShardOutcome(shard_id=spec.shard_id, result="a")
        write_checkpoint(tmp_path, spec, outcome)
        path = tmp_path / f"{spec.shard_id}.pkl"
        path.write_bytes(path.read_bytes()[:10])
        assert load_checkpoint(tmp_path, spec) is None

    def test_wrong_version_ignored(self, tmp_path):
        spec = _specs("a")[0]
        payload = {
            "version": -1,
            "fingerprint": fingerprint(spec),
            "outcome": ShardOutcome(spec.shard_id, "a"),
        }
        (tmp_path / f"{spec.shard_id}.pkl").write_bytes(pickle.dumps(payload))
        assert load_checkpoint(tmp_path, spec) is None

    def test_version_2_checkpoint_recomputed(self, tmp_path):
        """Version 2 outcomes carried a metrics snapshot that version 3
        dropped; a version-2 checkpoint for the same spec is recomputed,
        never merged."""
        spec = _specs("a")[0]
        old = ShardOutcome(spec.shard_id, "stale")
        old.snapshot = None  # the field version 2 pickled
        payload = {"version": 2, "fingerprint": fingerprint(spec), "outcome": old}
        (tmp_path / f"{spec.shard_id}.pkl").write_bytes(pickle.dumps(payload))

        report = execute_shards([spec], checkpoint_dir=tmp_path)
        assert report.computed == 1 and report.resumed == 0
        assert report.outcomes[0].result == "a"
        assert not report.outcomes[0].from_checkpoint

    def test_checkpoint_naming_removed_module_ignored(self, tmp_path, monkeypatch):
        """A checkpoint pickled by older code can name a module that no
        longer exists; loading it must recompute, not crash."""
        spec = _specs("a")[0]
        module = types.ModuleType("repro_removed_shard_module")

        class OldOutcome:
            pass

        OldOutcome.__module__ = module.__name__
        OldOutcome.__qualname__ = "OldOutcome"
        module.OldOutcome = OldOutcome
        monkeypatch.setitem(sys.modules, module.__name__, module)
        payload = {"version": -1, "fingerprint": "", "outcome": OldOutcome()}
        (tmp_path / f"{spec.shard_id}.pkl").write_bytes(pickle.dumps(payload))
        monkeypatch.delitem(sys.modules, module.__name__)

        assert load_checkpoint(tmp_path, spec) is None
        report = execute_shards([spec], checkpoint_dir=tmp_path)
        assert report.computed == 1 and report.resumed == 0


class TestResume:
    def test_resume_skips_finished_shards(self, tmp_path):
        specs = _specs("a", "b", "c")
        first = execute_shards(specs, checkpoint_dir=tmp_path)
        assert first.computed == 3
        second = execute_shards(specs, checkpoint_dir=tmp_path)
        assert second.computed == 0 and second.resumed == 3
        assert [o.result for o in second.outcomes] == ["a", "b", "c"]
        assert all(o.from_checkpoint for o in second.outcomes)

    def test_killed_run_resumes_without_recompute(self, tmp_path):
        """Shard 1 fails mid-run; finished shard 0 must survive the 'kill'
        and be restored — not recomputed — on the resumed run."""
        failing = _specs("a", "b", "c", fail=("echo-1",))
        with pytest.raises(RuntimeError, match="'b'"):
            execute_shards(failing, checkpoint_dir=tmp_path)
        # the shard that completed before the crash left its checkpoint
        assert (tmp_path / "echo-0.pkl").exists()
        assert not (tmp_path / "echo-1.pkl").exists()

        healthy = _specs("a", "b", "c")
        resumed = execute_shards(healthy, checkpoint_dir=tmp_path)
        assert resumed.resumed == 1 and resumed.computed == 2
        assert [o.from_checkpoint for o in resumed.outcomes] == [True, False, False]
        assert [o.result for o in resumed.outcomes] == ["a", "b", "c"]

    def test_pooled_failure_keeps_finished_siblings(self, tmp_path):
        """One pooled shard fails: the siblings that still finish are
        checkpointed, the ones no worker started are cancelled, and a resume
        computes only the failed and cancelled shards."""
        markers, ckpt = tmp_path / "markers", tmp_path / "ckpt"
        markers.mkdir()
        n_siblings = 8

        def specs(fail):
            return [
                ShardSpec(
                    shard_id=f"slow-{i}",
                    runner=slow_echo,
                    kwargs={
                        "value": i,
                        "delay": 0.5,
                        "marker_dir": markers,
                        "fail": fail and i == 0,
                    },
                )
                for i in range(n_siblings + 1)
            ]

        with pytest.raises(RuntimeError, match="told to fail"):
            execute_shards(specs(fail=True), parallel=2, checkpoint_dir=ckpt)
        finished = {p.stem.split(".")[0] for p in markers.glob("*.done")}
        checkpointed = {p.stem.split("-")[1] for p in ckpt.glob("*.pkl")}
        assert finished, "no sibling ran to completion"
        assert checkpointed == finished
        assert len(finished) < n_siblings, "queued shards were not cancelled"

        resumed = execute_shards(specs(fail=False), parallel=2, checkpoint_dir=ckpt)
        assert resumed.resumed == len(finished)
        assert resumed.computed == n_siblings + 1 - len(finished)
        assert [o.result for o in resumed.outcomes] == list(range(n_siblings + 1))

    def test_resume_with_changed_config_recomputes(self, tmp_path):
        execute_shards(_specs("a"), checkpoint_dir=tmp_path)
        changed = [ShardSpec("echo-0", echo, {"value": "A", "fail": False})]
        report = execute_shards(changed, checkpoint_dir=tmp_path)
        assert report.resumed == 0 and report.computed == 1
        assert report.outcomes[0].result == "A"
