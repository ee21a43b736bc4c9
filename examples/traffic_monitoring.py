#!/usr/bin/env python
"""City-scale traffic monitoring with multi-region REACT servers.

The paper's motivating application (§I, §V-C case study): requesters ask
"is road X congested right now?" and answers are only useful for a minute
or two.  This example decomposes a city into a 2x2 grid of regions — each
with its own REACT server, as in Figure 1 of the paper — spreads a crowd of
mobile workers over the city, and streams location-tagged tasks to the
coordinator, which routes each to the server owning its coordinates.

It then reruns the identical workload under the Traditional (AMT-like)
policy and prints the side-by-side outcome — the Fig. 5/6 comparison on a
geographic workload.

Run:  python examples/traffic_monitoring.py
"""

import dataclasses

from repro.model.region import RegionGrid
from repro.model.task import Task, TaskCategory
from repro.platform.coordinator import Coordinator
from repro.platform.policies import react_policy, traditional_policy
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.sim.process import GeneratorProcess
from repro.sim.rng import (
    STREAM_ARRIVALS,
    STREAM_TASKS,
    STREAM_WORKER_POPULATION,
    RngRegistry,
)
from repro.workload.arrivals import poisson_gaps
from repro.workload.population import PopulationConfig, generate_population

# A small city: ~11 km x 11 km around Athens, split into 2x2 regions.
CITY = dict(lat_min=37.93, lat_max=38.03, lon_min=23.67, lon_max=23.77)
WORKERS = 120
TASKS = 500
RATE = 1.25  # tasks/second city-wide


def run_city(policy, label: str) -> dict:
    engine = Engine()
    rng = RngRegistry(seed=2024)
    grid = RegionGrid(**CITY, rows=2, cols=2)
    coordinator = Coordinator(
        engine=engine, policy=policy, regions=list(grid.regions), rng=rng
    )

    # Mobile workers spread uniformly over the city; each registers with
    # the server owning his location (§IV-A).
    population = generate_population(
        rng.stream(STREAM_WORKER_POPULATION),
        PopulationConfig(size=WORKERS),
        region=grid.regions[0],  # placeholder; scatter below
    )
    scatter = rng.stream("scatter")
    for profile, behavior in population:
        latitude = float(scatter.uniform(CITY["lat_min"], CITY["lat_max"]))
        longitude = float(scatter.uniform(CITY["lon_min"], CITY["lon_max"]))
        profile = dataclasses.replace(profile, latitude=latitude, longitude=longitude)
        coordinator.add_worker(profile, behavior)

    # Poisson stream of congestion queries at random city locations.
    task_rng = rng.stream(STREAM_TASKS)

    def submit(_payload) -> None:
        lat = float(task_rng.uniform(CITY["lat_min"], CITY["lat_max"]))
        lon = float(task_rng.uniform(CITY["lon_min"], CITY["lon_max"]))
        coordinator.submit_task(
            Task(
                latitude=lat,
                longitude=lon,
                deadline=float(task_rng.uniform(60.0, 120.0)),
                category=TaskCategory.TRAFFIC_MONITORING,
                description=f"Is the road at ({lat:.4f}, {lon:.4f}) congested?",
                submitted_at=engine.now,
            )
        )

    GeneratorProcess(
        engine,
        poisson_gaps(RATE, rng.stream(STREAM_ARRIVALS), TASKS),
        submit,
        kind=EventKind.TASK_ARRIVAL,
    )

    engine.run(until=TASKS / RATE + 400.0)
    summary = coordinator.aggregate_summary()
    summary["label"] = label
    return summary


def main() -> None:
    react = run_city(react_policy(), "REACT")
    traditional = run_city(traditional_policy(), "Traditional (AMT-like)")

    print(f"Traffic monitoring — {WORKERS} workers, {TASKS} tasks, 2x2 regions")
    print("-" * 68)
    header = f"{'':28s} {'REACT':>12s} {'Traditional':>14s}"
    print(header)
    rows = [
        ("tasks received", "received", "{:.0f}"),
        ("completed on time", "completed_on_time", "{:.0f}"),
        ("on-time fraction", "on_time_fraction", "{:.1%}"),
        ("positive feedbacks", "positive_feedbacks", "{:.0f}"),
        ("Eq. 2 rescues", "withdrawals", "{:.0f}"),
        ("avg worker time (s)", "avg_worker_time", "{:.1f}"),
        ("avg total time (s)", "avg_total_time", "{:.1f}"),
    ]
    for label, key, fmt in rows:
        r = react.get(key, 0) or 0
        t = traditional.get(key, 0) or 0
        print(f"{label:28s} {fmt.format(r):>12s} {fmt.format(t):>14s}")

    gain = react["completed_on_time"] / max(traditional["completed_on_time"], 1) - 1
    print("-" * 68)
    print(f"REACT met the deadlines of {gain:+.0%} more tasks than the "
          "AMT-like baseline on this workload.")


if __name__ == "__main__":
    main()
