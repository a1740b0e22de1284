"""Command-line entry point of the experiment pipeline.

``python -m repro.pipeline`` and ``python -m repro.experiments.run`` are
this one CLI.  The config and retry flags are defined here once
(:func:`add_config_args`, :func:`add_retry_args`) and shared with
``python -m repro.serve``.

Examples
--------
Regenerate Table III on 4 worker processes, resuming from the result store::

    python -m repro.pipeline --experiment table3 --jobs 4 --resume

Re-running the same command completes almost instantly: every attack cell is
served from the content-addressed store.  Use ``--fresh`` to force
recomputation, ``--no-store`` to bypass the store, ``--status`` to inspect
which cells are cached, and ``--list`` (``--list --markdown``) to enumerate
the experiment names.

Distribute the run across ``repro.serve`` worker daemons (sharing one
HTTP result store)::

    python -m repro.pipeline --experiment table3 --jobs 8 \
        --backend remote --workers hostA:7431,hostB:7431 \
        --store-url http://hostC:7433

Store maintenance subcommands::

    python -m repro.pipeline verify [--store DIR | --store-url URL]
    python -m repro.pipeline gc --max-bytes 2G [--max-entries N]
    python -m repro.pipeline store-serve --store DIR --port 7433
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import List, Optional

from .executors import BACKEND_NAMES
from .graph import merge_graphs
from .progress import ProgressReporter
from .resilience import FaultPlan, RetryPolicy
from .scheduler import run_graph
from .store import ResultStore, StoreBackend, open_store


def resilience_options(args) -> "tuple[Optional[RetryPolicy], Optional[FaultPlan]]":
    """Build the (retry policy, fault plan) pair from parsed CLI options.

    ``None`` for the policy means "scheduler default" (one retry, no
    deadline).  The fault plan falls back to ``$REPRO_FAULT_PLAN`` so chaos
    runs can be injected without touching the command line (CI does this).
    """
    retry: Optional[RetryPolicy] = None
    if args.retries is not None or args.task_timeout is not None:
        retry = retry_policy(args)
    plan_text = args.fault_plan
    if plan_text is None:
        plan_text = os.environ.get("REPRO_FAULT_PLAN")
    faults = FaultPlan.parse(plan_text) if plan_text else None
    return retry, faults


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def byte_size(text: str) -> int:
    """``500M`` / ``2G`` / plain bytes → an integer byte count."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    raw = text.strip().upper().rstrip("IB") or text.strip().upper()
    try:
        if raw and raw[-1] in units:
            return int(float(raw[:-1]) * units[raw[-1]])
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (use bytes or a K/M/G/T suffix)") from None


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def retry_policy(args) -> RetryPolicy:
    """``--retries R`` ⇒ R + 1 attempts (without it, the default recorded
    by :func:`add_retry_args`); ``--task-timeout`` as given."""
    retries = args.default_retries if args.retries is None else args.retries
    return RetryPolicy(max_attempts=retries + 1,
                       task_timeout=args.task_timeout)


def add_retry_args(parser: argparse.ArgumentParser,
                   default: RetryPolicy) -> None:
    """``--retries`` and ``--task-timeout``, read by :func:`retry_policy`;
    without ``--retries`` a task gets ``default``'s attempts."""
    default_retries = default.max_attempts - 1
    parser.set_defaults(default_retries=default_retries)
    parser.add_argument("--retries", type=nonnegative_int, default=None,
                        metavar="R",
                        help=f"retries per task after a transient failure "
                             f"such as a worker crash or a timeout (default: "
                             f"{default_retries}, i.e. {default_retries + 1} "
                             f"attempts; 0 disables retries; deterministic "
                             f"errors always fail fast)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per task attempt; a task "
                             "past its deadline has its worker terminated "
                             "and the attempt counts as a transient failure "
                             "(in-process serial runs cannot be preempted; "
                             "default: no deadline)")


def add_config_args(parser: argparse.ArgumentParser) -> None:
    """The flags that build the run's config, read by :func:`build_config`."""
    parser.add_argument("--scale", default="default",
                        choices=("default", "paper", "tiny"),
                        help="experiment scale profile")
    parser.add_argument("--paper-scale", dest="scale", action="store_const",
                        const="paper", help="shorthand for --scale paper")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-scenes", type=positive_int, default=1,
                        metavar="B",
                        help="scenes driven per attack loop inside each cell "
                             "(amortises one forward/backward over B scenes; "
                             "results are identical at any value, so cached "
                             "cells are shared across settings)")
    parser.add_argument("--attack-mode", default="whitebox",
                        choices=("whitebox", "nes", "spsa", "boundary"),
                        help="threat model for every attack cell: white-box "
                             "gradients (default) or a black-box engine "
                             "(NES/SPSA gradient estimation, decision-based "
                             "boundary walk)")
    parser.add_argument("--query-budget", type=positive_int, default=None,
                        metavar="Q",
                        help="per-scene model-query budget of the black-box "
                             "modes (default: the attack profile's value)")
    parser.add_argument("--samples-per-step", type=positive_int, default=None,
                        metavar="S",
                        help="finite-difference directions per NES/SPSA step "
                             "(default: the attack profile's value)")
    parser.add_argument("--eot-samples", type=positive_int, default=None,
                        metavar="K",
                        help="defense samples per optimisation step of the "
                             "adaptive (defense-aware) attack cells, e.g. in "
                             "table_defenses (default: the experiment's own "
                             "value)")


def build_config(args):
    """The ``ExperimentConfig`` named by :func:`add_config_args` flags."""
    from ..experiments.context import ExperimentConfig

    factory = {"default": ExperimentConfig.default,
               "paper": ExperimentConfig.paper_scale,
               "tiny": ExperimentConfig.tiny}[args.scale]
    return factory(seed=args.seed, batch_scenes=args.batch_scenes,
                   attack_mode=args.attack_mode,
                   query_budget=args.query_budget,
                   samples_per_step=args.samples_per_step,
                   eot_samples=args.eot_samples)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--experiment", default="table3",
                        help="experiment name, or 'all' (see --list)")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="worker processes (1 = serial, in-process)")
    add_config_args(parser)
    parser.add_argument("--output", default=None, metavar="DIR",
                        help="directory to write formatted tables into")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result store location "
                             "(default: <cache_dir>/results)")
    parser.add_argument("--store-url", default=None, metavar="URL",
                        help="shared HTTP result store (`python -m "
                             "repro.pipeline store-serve`); overrides "
                             "--store so a whole fleet memoises into one "
                             "content-addressed layer")
    parser.add_argument("--backend", default="auto", choices=BACKEND_NAMES,
                        help="executor backend: auto (serial when --jobs 1, "
                             "local pool otherwise), serial, local, or "
                             "remote — dispatch to repro.serve worker "
                             "daemons (requires --workers)")
    parser.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                        help="comma-separated repro.serve daemon addresses "
                             "(host:port or unix-socket paths) of the "
                             "remote backend")
    parser.add_argument("--resume", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="serve unchanged tasks from the result store "
                             "(default on; --no-resume recomputes but still "
                             "writes the store)")
    parser.add_argument("--fresh", action="store_true",
                        help="recompute every task, ignoring cached results "
                             "(alias of --no-resume)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the result store entirely")
    parser.add_argument("--list", action="store_true",
                        help="list experiment names and exit")
    parser.add_argument("--markdown", action="store_true",
                        help="with --list: print the registry as the "
                             "markdown table embedded in docs/EXPERIMENTS.md")
    parser.add_argument("--status", action="store_true",
                        help="show cached/pending tasks per experiment "
                             "instead of running")
    add_retry_args(parser, RetryPolicy())
    parser.add_argument("--fault-plan", default=None, metavar="PLAN",
                        help="deterministic fault injection for chaos "
                             "testing, e.g. 'table3/*=crash:1,*=fail:2' "
                             "(clauses PATTERN=MODE[:TIMES[:SECONDS]], MODE "
                             "in crash/hang/fail/corrupt; default: "
                             "$REPRO_FAULT_PLAN)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-task progress lines")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL telemetry trace of the run "
                             "(inspect with `python -m repro.telemetry "
                             "summarize PATH`)")
    return parser


def _print_status(name: str, graph, config, store: Optional[ResultStore]) -> None:
    from .scheduler import config_salt

    fingerprints = graph.fingerprints(config_salt(config))
    print(f"{name}: {len(graph)} tasks")
    for task in graph.topological_order():
        if not task.cacheable:
            state = "uncached"
        elif store is not None and store.contains(fingerprints[task.task_id],
                                                  count=False):
            state = "cached"
        else:
            state = "pending"
        print(f"  {state:<9s} {task.task_id}")


def _resolve_store(args) -> StoreBackend:
    """Store named by ``--store-url`` / ``--store`` (default location)."""
    if getattr(args, "store_url", None):
        return open_store(args.store_url)
    root = getattr(args, "store", None)
    if not root:
        from ..experiments.context import ExperimentConfig
        root = os.path.join(ExperimentConfig.default().cache_dir, "results")
    return open_store(root)


def _store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result store location "
                             "(default: <cache_dir>/results)")
    parser.add_argument("--store-url", default=None, metavar="URL",
                        help="operate on a shared HTTP store daemon "
                             "instead of a local directory")
    parser.add_argument("--json", action="store_true",
                        help="print the raw audit dict as JSON")


def _verify_main(argv: List[str]) -> int:
    """``verify``: integrity-audit every store entry, quarantining damage."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline verify",
        description="Re-checksum every stored payload; corrupt payloads "
                    "and missing or unreadable sidecars are quarantined "
                    "(moved aside for inspection, recomputed on the next "
                    "run).")
    _store_args(parser)
    args = parser.parse_args(argv)
    store = _resolve_store(args)
    audit = store.verify()
    if args.json:
        print(json.dumps(audit, indent=2, sort_keys=True))
    else:
        print(f"checked {audit['checked']} entries: {audit['ok']} ok, "
              f"{len(audit['quarantined'])} quarantined")
        for key in audit["quarantined"]:
            print(f"  quarantined {key}")
    return 1 if audit["quarantined"] else 0


def _gc_main(argv: List[str]) -> int:
    """``gc``: evict least-recently-used entries down to a byte budget."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline gc",
        description="Evict least-recently-used store entries until the "
                    "store fits the given budgets.  Eviction is safe by "
                    "construction: the store is a cache, and an evicted "
                    "task is simply recomputed on its next run.")
    _store_args(parser)
    parser.add_argument("--max-bytes", type=byte_size, default=None,
                        metavar="SIZE",
                        help="payload byte budget, e.g. 500M or 2G")
    parser.add_argument("--max-entries", type=nonnegative_int, default=None,
                        metavar="N", help="entry-count budget")
    args = parser.parse_args(argv)
    if args.max_bytes is None and args.max_entries is None:
        parser.error("nothing to do: pass --max-bytes and/or --max-entries")
    store = _resolve_store(args)
    swept = store.gc(max_bytes=args.max_bytes, max_entries=args.max_entries)
    if args.json:
        print(json.dumps(swept, indent=2, sort_keys=True))
    else:
        evicted = len(swept["evicted"])
        print(f"evicted {evicted} of {evicted + swept['kept']} entries: "
              f"{swept['bytes_before']} -> {swept['bytes_after']} bytes")
    return 0


def _store_serve_main(argv: List[str]) -> int:
    """``store-serve``: expose one on-disk store to a fleet over HTTP."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline store-serve",
        description="Serve a result store over HTTP so distributed workers "
                    "and schedulers share one memoisation layer (point "
                    "--store-url / repro.serve --store at the printed URL).")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="store directory (default: <cache_dir>/results)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=nonnegative_int, default=0,
                        help="TCP port (0 binds an ephemeral port)")
    args = parser.parse_args(argv)
    root = args.store
    if not root:
        from ..experiments.context import ExperimentConfig
        root = os.path.join(ExperimentConfig.default().cache_dir, "results")
    from .store_http import StoreServer
    server = StoreServer(ResultStore(root), host=args.host, port=args.port)
    print(f"serving result store {root} at {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


#: ``python -m repro.pipeline <subcommand> ...`` store-maintenance verbs;
#: anything else falls through to the flag-style experiment runner.
SUBCOMMANDS = {"verify": _verify_main, "gc": _gc_main,
               "store-serve": _store_serve_main}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)

    from ..experiments.plans import (available_experiments,
                                     experiments_markdown_table,
                                     plan_experiment)

    if args.list:
        if args.markdown:
            print(experiments_markdown_table())
        else:
            for name in available_experiments():
                print(name)
        return 0

    names = (available_experiments() if args.experiment == "all"
             else [args.experiment])
    unknown = [name for name in names if name not in available_experiments()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        return 2

    if args.backend == "remote" and not args.workers:
        print("--backend remote requires --workers host:port,...")
        return 2

    config = build_config(args)
    store: Optional[StoreBackend] = None
    if not args.no_store:
        store = open_store(args.store_url or args.store
                           or os.path.join(config.cache_dir, "results"))

    graphs = {name: plan_experiment(name, config) for name in names}
    if args.status:
        for name, graph in graphs.items():
            _print_status(name, graph, config, store)
        return 0

    # One merged graph: shared dataset/model tasks across experiments run
    # (and cache) once, on a single worker pool.
    merged = merge_graphs(list(graphs.values()))
    reporter = ProgressReporter(total=len(merged), enabled=not args.quiet)
    retry, faults = resilience_options(args)
    tracer_cm = nullcontext()
    if args.trace:
        from ..telemetry import build_manifest, trace_to
        from .scheduler import config_salt
        tracer_cm = trace_to(args.trace, manifest=build_manifest(
            salt=config_salt(config),
            extra={"experiments": names, "jobs": args.jobs,
                   "backend": args.backend,
                   "fault_plan": faults.text() if faults else None}))
    workers = ([w.strip() for w in args.workers.split(",") if w.strip()]
               if args.workers else None)
    with tracer_cm:
        result = run_graph(merged, config, jobs=args.jobs, store=store,
                           reporter=reporter,
                           refresh=args.fresh or not args.resume,
                           retry=retry, faults=faults,
                           backend=args.backend, workers=workers)
    print(result.report.summary())

    failures = 0
    for name, graph in graphs.items():
        if graph.result in result.outputs:
            table = result.outputs[graph.result]
            text = table.formatted()
            # Persist before printing: a closed stdout pipe (`... | head`)
            # must not cost the caller their output file.
            if args.output:
                os.makedirs(args.output, exist_ok=True)
                path = os.path.join(args.output, f"{table.name}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            print(text)
            print()
        else:
            failures += 1
            errors = [record for record in result.report.failures()
                      if record.task_id in graph]
            detail = errors[0].error if errors and errors[0].error else \
                "an upstream task failed"
            print(f"{name} FAILED: {detail}")
    return 1 if failures else 0


__all__ = ["add_config_args", "add_retry_args", "build_config",
           "build_parser", "main", "resilience_options", "retry_policy"]
