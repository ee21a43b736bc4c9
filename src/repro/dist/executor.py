"""Shard executor: inline or process-pool execution with checkpointing.

``parallel <= 1`` runs every shard in-process — the reference path the
determinism contract is stated against.  ``parallel > 1`` fans shards out
over a ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
(``spawn`` so workers never inherit forked interpreter state — module
globals like the task-id counter start clean, exactly as a fresh run
would).

Checkpointing: with ``checkpoint_dir`` set, every completed shard is
pickled to ``<dir>/<shard_id>.pkl`` together with the spec's content
fingerprint, using an atomic write (temp file + ``os.replace``) so a kill
mid-write never leaves a truncated checkpoint behind.  A later run over
the same directory reloads each checkpoint whose fingerprint still matches
its spec and only computes the remainder — the kill-and-resume workflow
the chaos subsystem's blackout drills assume.  A checkpoint whose
fingerprint does not match (config changed, code moved the spec), whose
format version is old, or whose pickle names a module or class that no
longer exists is ignored and recomputed; stale results are never merged.

Failure: when a shard raises, the executor still checkpoints every shard
that completes, cancels the shards no worker has started, and then
re-raises the first error — so a resume recomputes only the failed and
cancelled shards.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .shards import ShardOutcome, ShardSpec, check_unique_ids, fingerprint
from .worker import run_shard

logger = logging.getLogger(__name__)

#: Checkpoint payload format version; bump on incompatible layout changes.
CHECKPOINT_VERSION = 3


@dataclass
class ExecutionReport:
    """Outcomes in spec order, plus how much work the resume skipped."""

    outcomes: List[ShardOutcome] = field(default_factory=list)
    computed: int = 0
    resumed: int = 0


def _checkpoint_path(checkpoint_dir: Path, spec: ShardSpec) -> Path:
    return checkpoint_dir / f"{spec.shard_id}.pkl"


def write_checkpoint(checkpoint_dir: Path, spec: ShardSpec, outcome: ShardOutcome) -> Path:
    """Atomically persist one finished shard."""
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    path = _checkpoint_path(checkpoint_dir, spec)
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint(spec),
        "outcome": outcome,
    }
    tmp = path.with_suffix(".pkl.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_checkpoint(checkpoint_dir: Path, spec: ShardSpec) -> Optional[ShardOutcome]:
    """The checkpointed outcome for ``spec``, or None if absent/stale."""
    path = _checkpoint_path(checkpoint_dir, spec)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (
        OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError
    ) as exc:
        logger.warning("checkpoint %s unreadable (%s); recomputing", path, exc)
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        logger.warning("checkpoint %s has old version; recomputing", path)
        return None
    if payload.get("fingerprint") != fingerprint(spec):
        logger.warning(
            "checkpoint %s does not match shard %s (config changed?); recomputing",
            path, spec.shard_id,
        )
        return None
    outcome = payload["outcome"]
    if not isinstance(outcome, ShardOutcome):
        return None
    outcome.from_checkpoint = True
    return outcome


def execute_shards(
    specs: Sequence[ShardSpec],
    parallel: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> ExecutionReport:
    """Run every shard; returns outcomes in the order of ``specs``.

    The result is independent of ``parallel`` and of pool scheduling: each
    shard is hermetic, and outcomes are reassembled by spec order before
    the merge stage ever sees them.
    """
    specs = list(specs)
    check_unique_ids(specs)
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    report = ExecutionReport()
    done: Dict[str, ShardOutcome] = {}
    pending: List[ShardSpec] = []
    for spec in specs:
        outcome = load_checkpoint(ckpt_dir, spec) if ckpt_dir is not None else None
        if outcome is not None:
            done[spec.shard_id] = outcome
            report.resumed += 1
        else:
            pending.append(spec)

    def finish(spec: ShardSpec, outcome: ShardOutcome) -> None:
        if ckpt_dir is not None:
            write_checkpoint(ckpt_dir, spec, outcome)
        done[spec.shard_id] = outcome
        report.computed += 1

    if pending and parallel == 1:
        for spec in pending:
            finish(spec, run_shard(spec))
    elif pending:
        with ProcessPoolExecutor(
            max_workers=min(parallel, len(pending)),
            mp_context=get_context("spawn"),
        ) as pool:
            futures = {pool.submit(run_shard, spec): spec for spec in pending}
            try:
                # Checkpoint each shard the moment it completes, so a kill
                # mid-run preserves every finished shard, not just a batch.
                for future in as_completed(futures):
                    finish(futures[future], future.result())
            except Exception:
                # Drop the shards no worker has started, let the running
                # ones finish, and keep their results for the resume.
                pool.shutdown(wait=True, cancel_futures=True)
                for future, spec in futures.items():
                    if (
                        spec.shard_id not in done
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        finish(spec, future.result())
                raise

    report.outcomes = [done[spec.shard_id] for spec in specs]
    logger.info(
        "dist: %d shards (%d computed, %d resumed, parallel=%d)",
        len(specs), report.computed, report.resumed, parallel,
    )
    return report
