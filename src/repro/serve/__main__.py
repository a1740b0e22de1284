"""CLI of the serve daemon: ``python -m repro.serve --jobs N --store PATH``.

Starts a long-lived :class:`~repro.serve.server.AttackServer` on a local
TCP port (or unix socket), prints the bound address, and serves until
interrupted or a client sends ``shutdown``.  The configuration flags
mirror ``python -m repro.experiments.run`` — one server serves one
configuration, because the config salt is what keys job dedup.

Examples
--------
Serve the default (CPU-friendly) scale with four warm workers::

    python -m repro.serve --jobs 4 --store /tmp/repro-results

Probe and submit from a shell (the protocol is JSON lines)::

    printf '{"op":"ping"}\\n' | nc 127.0.0.1 PORT
    printf '{"op":"submit","job":{"experiment":"table3"}}\\n' | nc 127.0.0.1 PORT

See ``docs/SERVING.md`` for the full protocol and client guide.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
from typing import Optional

from ..experiments.context import ExperimentConfig
from ..pipeline.cli import positive_int
from ..pipeline.resilience import RetryPolicy
from .protocol import parse_address
from .server import AttackServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--jobs", type=positive_int, default=2, metavar="N",
                        help="warm worker processes (= max concurrently "
                             "running jobs)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="result-store directory (default: "
                             "<cache_dir>/results, shared with the batch "
                             "pipeline)")
    parser.add_argument("--address", default="127.0.0.1:0", metavar="ADDR",
                        help="host:port to listen on (port 0 = ephemeral), "
                             "or a unix-socket path")
    parser.add_argument("--scale", default="default",
                        choices=("default", "paper", "tiny"),
                        help="experiment scale served by this daemon")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-scenes", type=positive_int, default=1,
                        metavar="B",
                        help="scenes per attack loop inside each cell "
                             "(not salted: results are identical at any "
                             "value)")
    parser.add_argument("--attack-mode", default="whitebox",
                        choices=("whitebox", "nes", "spsa", "boundary"),
                        help="threat model of every served attack cell")
    parser.add_argument("--query-budget", type=positive_int, default=None,
                        metavar="Q")
    parser.add_argument("--samples-per-step", type=positive_int, default=None,
                        metavar="S")
    parser.add_argument("--eot-samples", type=positive_int, default=None,
                        metavar="K")
    parser.add_argument("--retries", type=positive_int, default=3,
                        metavar="R",
                        help="attempts per job before it fails (transient "
                             "errors only)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per job attempt; on "
                             "expiry the worker is terminated and the pool "
                             "rebuilt")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="JSONL telemetry trace written by the workers")
    return parser


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The one configuration this server instance serves."""
    knobs = dict(seed=args.seed, batch_scenes=args.batch_scenes,
                 attack_mode=args.attack_mode,
                 query_budget=args.query_budget,
                 samples_per_step=args.samples_per_step,
                 eot_samples=args.eot_samples)
    factory = {"default": ExperimentConfig.default,
               "paper": ExperimentConfig.paper_scale,
               "tiny": ExperimentConfig.tiny}[args.scale]
    return factory(**knobs)


async def _serve(server: AttackServer) -> None:
    await server.start()
    address = server.address
    if isinstance(address, tuple):
        print(f"repro.serve listening on {address[0]}:{address[1]} "
              f"({server.jobs} warm workers)", flush=True)
    else:
        print(f"repro.serve listening on {address} "
              f"({server.jobs} warm workers)", flush=True)
    try:
        await server.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        await server.stop(drain=False)
        raise


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    host, port, unix_path = parse_address(args.address)
    retry = RetryPolicy(max_attempts=args.retries,
                        task_timeout=args.task_timeout)
    server = AttackServer(build_config(args), jobs=args.jobs,
                          store=args.store, retry=retry,
                          host=host or "127.0.0.1", port=port or 0,
                          unix_path=unix_path, trace_path=args.trace)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(server))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
