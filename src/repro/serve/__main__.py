"""CLI of the serve daemon: ``python -m repro.serve --jobs N --store PATH``.

Starts a long-lived :class:`~repro.serve.server.AttackServer` on a local
TCP port (or unix socket), prints the bound address, and serves until
interrupted or a client sends ``shutdown``.  The configuration flags
(``--scale``, ``--seed``, ``--attack-mode``, ...) and ``--retries`` /
``--task-timeout`` are the pipeline CLI's own (:mod:`repro.pipeline.cli`):
one server serves one configuration, because the config salt is what keys
job dedup.  ``--retries R`` means R + 1 attempts per job, as on
``python -m repro.pipeline``; the daemon's default is 2 retries.

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

from ..pipeline.cli import (add_config_args, add_retry_args, build_config,
                            positive_int, retry_policy)
from .protocol import parse_address
from .server import DEFAULT_RETRY, AttackServer


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
    add_config_args(parser)
    add_retry_args(parser, DEFAULT_RETRY)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="JSONL telemetry trace written by the workers")
    return parser


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
    server = AttackServer(build_config(args), jobs=args.jobs,
                          store=args.store,
                          retry=retry_policy(args),
                          host=host or "127.0.0.1", port=port or 0,
                          unix_path=unix_path, trace_path=args.trace)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(server))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
