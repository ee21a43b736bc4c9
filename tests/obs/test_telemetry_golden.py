"""Golden-file tests of the exported Prometheus telemetry.

Each test runs one small seeded simulation with a live registry and
compares ``prometheus_text`` byte for byte against a checked-in golden, so
a refactor of how the platform feeds its instruments cannot silently move
any metric name, kind, HELP line or value.  The determinism tests only
compare two runs of one checkout; these compare across checkouts.

Regenerate after an intentional telemetry change with:

    PYTHONPATH=src python tests/obs/test_telemetry_golden.py
"""

from pathlib import Path

import pytest

from repro.experiments.chaos import ChaosConfig, run_chaos, standard_schedule
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import run_endtoend
from repro.obs import Observability
from repro.obs.exporters import prometheus_text
from repro.platform.policies import RetainerSpec, react_policy, react_retainer_policy

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The seeded fault-free run of ``test_instrumentation.SMALL``.
SMALL = EndToEndConfig(n_workers=60, arrival_rate=1.0, n_tasks=200, drain_time=200.0)

#: The faulted chaos config of ``test_instrumentation.TestChaosTelemetry``.
CHAOS = ChaosConfig(n_workers=30, arrival_rate=0.8, n_tasks=120, drain_time=150.0)

#: A small marketplace run: workers arrive over time into a retainer pool.
MARKETPLACE = EndToEndConfig(
    n_workers=60, arrival_rate=1.0, n_tasks=150, drain_time=150.0,
    arrival_process="poisson", worker_arrival_rate=0.4, worker_patience=20.0,
)


def _endtoend_text() -> str:
    obs = Observability()
    run_endtoend(react_policy(cycles=200), SMALL, observability=obs)
    return prometheus_text(obs.registry)


def _chaos_text() -> str:
    obs = Observability()
    run_chaos(
        react_policy(cycles=200), CHAOS,
        schedule=standard_schedule(CHAOS), observability=obs,
    )
    return prometheus_text(obs.registry)


def _retainer_text() -> str:
    obs = Observability()
    policy = react_retainer_policy(retainer=RetainerSpec(size=8), cycles=200)
    run_endtoend(policy, MARKETPLACE, observability=obs)
    return prometheus_text(obs.registry)


RUNS = {
    "endtoend_small.prom": _endtoend_text,
    "chaos_faulted.prom": _chaos_text,
    "marketplace_retainer.prom": _retainer_text,
}


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_prometheus_export_matches_golden(golden):
    expected = (GOLDEN_DIR / golden).read_text()
    assert RUNS[golden]() == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, run in RUNS.items():
        (GOLDEN_DIR / name).write_text(run())
        print(f"wrote {GOLDEN_DIR / name}")
