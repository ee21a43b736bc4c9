"""Standalone gateway: ``python -m repro.service [--host H] [--port P] ...``.

Boots a :class:`~repro.service.gateway.ServiceGateway` on the given address
and serves until SIGTERM/SIGINT, then drains gracefully: ``/readyz`` flips
to 503, in-flight tasks get ``--drain-timeout`` wall seconds to finish, and
the process exits 0.  Used by the CI ``service-smoke`` job and as the
manual serving recipe in docs/SERVICE.md.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from .admission import AdmissionConfig
from .gateway import GatewayConfig, ServiceGateway


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the REACT middleware over HTTP (live-service mode).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080, help="0 = ephemeral")
    parser.add_argument(
        "--rows", type=int, default=1, help="region grid rows (default 1)"
    )
    parser.add_argument(
        "--cols", type=int, default=1, help="region grid columns (default 1)"
    )
    parser.add_argument(
        "--admission-rate",
        type=float,
        default=50.0,
        help="token-bucket sustained submit rate, tasks/s",
    )
    parser.add_argument(
        "--admission-burst", type=int, default=100, help="token-bucket burst size"
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=1000,
        help="backlog bound: max admitted-but-unfinished tasks",
    )
    parser.add_argument(
        "--liveness-timeout",
        type=float,
        default=30.0,
        help="deregister workers silent for this many clock seconds",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="clock seconds per wall second (accelerated testing)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="wall seconds granted to in-flight work on shutdown",
    )
    parser.add_argument("--seed", type=int, default=20130521)
    return parser


async def serve(config: GatewayConfig) -> int:
    gateway = ServiceGateway(config)
    await gateway.start()
    print(
        f"repro.service listening on http://{gateway.host}:{gateway.port} "
        f"(regions={config.rows * config.cols}, time_scale={config.time_scale:g})",
        flush=True,
    )
    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, shutdown.set)
    await shutdown.wait()
    print("repro.service draining...", flush=True)
    await gateway.stop()
    summary = gateway.summary()
    completed = int(summary.get("completed", 0))
    received = int(summary.get("received", 0))
    print(
        f"repro.service drained: received={received} completed={completed}",
        flush=True,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = GatewayConfig(
            host=args.host,
            port=args.port,
            rows=args.rows,
            cols=args.cols,
            admission=AdmissionConfig(
                rate=args.admission_rate,
                burst=args.admission_burst,
                max_in_flight=args.max_in_flight,
            ),
            liveness_timeout=args.liveness_timeout,
            time_scale=args.time_scale,
            seed=args.seed,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        # A bad flag value is a usage error: one line and exit 2.
        parser.error(str(exc))
    return asyncio.run(serve(config))


if __name__ == "__main__":
    sys.exit(main())
