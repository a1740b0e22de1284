"""Render a JSONL trace as human-readable text tables.

``python -m repro.telemetry summarize trace.jsonl`` prints, for whichever
event families the trace contains:

* the run manifest (code version, host, config salt / compute policy);
* per-engine attack summaries (runs, steps, wall and system time, ms/step)
  and step curves (mean loss by optimisation step);
* neighbourhood-cache efficiency (lookups and hit rate per regime, then
  the exact/stale/miss/tree totals);
* scheduler utilization: the per-task span table, busy-vs-wall utilization,
  and the critical path through the task graph;
* resilience activity (only when any occurred): retries by task and error
  class, deadline kills, pool rebuilds/degradation, store quarantines;
* result-store traffic and the final counter totals;
* the top-k op profile when ``REPRO_PROFILE_OPS`` was active.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple


def load_trace(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """All well-formed events plus the number of malformed lines."""
    events: List[Dict[str, Any]] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if isinstance(event, dict) and "type" in event:
                events.append(event)
            else:
                malformed += 1
    return events, malformed


def _by_type(events: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for event in events:
        grouped[event["type"]].append(event)
    return grouped


def _fmt_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024.0 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{count:.0f} B"
        count /= 1024.0
    return f"{count:.1f} GiB"


# ------------------------------------------------------------------ #
# Sections
# ------------------------------------------------------------------ #
def _manifest_section(manifests: List[Dict[str, Any]]) -> List[str]:
    lines = ["== manifest =="]
    if not manifests:
        return lines + ["(no manifest event)"]
    manifest = manifests[0]
    for key in ("git", "host", "python", "numpy", "platform", "jobs",
                "experiments"):
        if key in manifest:
            lines.append(f"{key:<12} {manifest[key]}")
    salt = manifest.get("config_salt") or {}
    policy = (salt.get("config") or {}).get("compute_policy")
    if policy is not None:
        lines.append(f"{'policy':<12} {policy}")
    return lines


def _engine_section(runs: List[Dict[str, Any]],
                    steps: List[Dict[str, Any]]) -> List[str]:
    lines = ["== attack engines =="]
    if not runs and not steps:
        return lines + ["(no attack events)"]
    per_engine: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"runs": 0, "steps": 0, "wall": 0.0, "sys": 0.0,
                 "events": 0})
    for run in runs:
        row = per_engine[str(run.get("engine"))]
        row["runs"] += 1
        row["steps"] += run.get("steps", 0)
        row["wall"] += run.get("dur_s", 0.0)
        row["sys"] += run.get("sys_s", 0.0)
    for step in steps:
        per_engine[str(step.get("engine"))]["events"] += 1
    lines.append(f"{'engine':<12} {'runs':>5} {'steps':>7} {'events':>7} "
                 f"{'wall_s':>8} {'sys_s':>7} {'ms/step':>8}")
    for engine in sorted(per_engine):
        row = per_engine[engine]
        ms = (row["wall"] / row["steps"] * 1e3) if row["steps"] else 0.0
        lines.append(f"{engine:<12} {int(row['runs']):>5d} "
                     f"{int(row['steps']):>7d} {int(row['events']):>7d} "
                     f"{row['wall']:>8.2f} {row['sys']:>7.2f} {ms:>8.2f}")
    return lines


def _curve_section(steps: List[Dict[str, Any]],
                   checkpoints: int = 6) -> List[str]:
    lines = ["== step curves (mean loss by step) =="]
    if not steps:
        return lines + ["(no attack_step events)"]
    curves: Dict[str, Dict[int, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for event in steps:
        try:
            curves[str(event.get("engine"))][int(event["step"])].append(
                float(event["loss"]))
        except (KeyError, TypeError, ValueError):
            continue
    for engine in sorted(curves):
        by_step = curves[engine]
        ordered = sorted(by_step)
        if len(ordered) <= checkpoints:
            chosen = ordered
        else:
            stride = (len(ordered) - 1) / (checkpoints - 1)
            chosen = sorted({ordered[round(i * stride)]
                             for i in range(checkpoints)})
        points = "  ".join(
            f"{step}:{sum(by_step[step]) / len(by_step[step]):.4g}"
            for step in chosen)
        scenes = max(len(values) for values in by_step.values())
        lines.append(f"{engine:<12} {points}  (scenes<= {scenes})")
    return lines


def cache_totals(runs: List[Dict[str, Any]]) -> Dict[str, int]:
    """Summed per-run ``NeighborhoodCache.stats()`` counters."""
    totals = {"exact_hits": 0, "stale_hits": 0, "misses": 0, "tree_hits": 0}
    for run in runs:
        cache = run.get("cache") or {}
        for key in totals:
            totals[key] += int(cache.get(key, 0))
    return totals


def _cache_section(runs: List[Dict[str, Any]]) -> List[str]:
    """One row per cache regime (``attack_run``'s ``regime``), then the
    total: colour, coordinate, EOT and black-box lookups hit at very
    different rates, so the blended rate alone misleads."""
    lines = ["== neighbourhood cache =="]
    if not runs:
        return lines + ["(no attack_run events)"]
    by_regime: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for run in runs:
        by_regime[str(run.get("regime") or "unknown")].append(run)
    lines.append(f"{'regime':<12} {'runs':>5} {'lookups':>8} {'exact':>7} "
                 f"{'stale':>7} {'misses':>7} {'hit rate':>9}")
    for name, group in [*sorted(by_regime.items()), ("total", runs)]:
        totals = cache_totals(group)
        hits = totals["exact_hits"] + totals["stale_hits"]
        lookups = hits + totals["misses"]
        rate = f"{hits / lookups:.1%}" if lookups else "-"
        lines.append(f"{name:<12} {len(group):>5d} {lookups:>8d} "
                     f"{totals['exact_hits']:>7d} {totals['stale_hits']:>7d} "
                     f"{totals['misses']:>7d} {rate:>9}")
    lines.append("  ".join(f"{key} {value}"
                           for key, value in cache_totals(runs).items()))
    return lines


def _critical_path(tasks: List[Dict[str, Any]]
                   ) -> Tuple[List[str], float]:
    """Longest elapsed-weighted dependency chain through the task events."""
    elapsed = {task["task_id"]: float(task.get("elapsed") or 0.0)
               for task in tasks}
    deps = {task["task_id"]: [dep for dep in (task.get("deps") or [])
                              if dep in elapsed]
            for task in tasks}
    best: Dict[str, Tuple[float, List[str]]] = {}

    def walk(task_id: str) -> Tuple[float, List[str]]:
        if task_id in best:
            return best[task_id]
        best[task_id] = (elapsed[task_id], [task_id])   # cycle guard
        total, chain = elapsed[task_id], [task_id]
        for dep in deps[task_id]:
            dep_total, dep_chain = walk(dep)
            if dep_total + elapsed[task_id] > total:
                total = dep_total + elapsed[task_id]
                chain = dep_chain + [task_id]
        best[task_id] = (total, chain)
        return best[task_id]

    top: Tuple[float, List[str]] = (0.0, [])
    for task_id in elapsed:
        total, chain = walk(task_id)
        if total > top[0]:
            top = (total, chain)
    return top[1], top[0]


def _scheduler_section(tasks: List[Dict[str, Any]],
                       reports: List[Dict[str, Any]],
                       max_rows: int = 40) -> List[str]:
    lines = ["== scheduler =="]
    if not tasks:
        return lines + ["(no task events)"]
    counts: Dict[str, int] = defaultdict(int)
    for task in tasks:
        counts[str(task.get("status"))] += 1
    lines.append(f"tasks {len(tasks)}: "
                 + ", ".join(f"{count} {status}"
                             for status, count in sorted(counts.items())))
    lines.append(f"{'task_id':<44} {'status':<8} {'elapsed_s':>9}")
    ordered = sorted(tasks, key=lambda t: float(t.get("elapsed") or 0.0),
                     reverse=True)
    for task in ordered[:max_rows]:
        lines.append(f"{str(task.get('task_id')):<44} "
                     f"{str(task.get('status')):<8} "
                     f"{float(task.get('elapsed') or 0.0):>9.2f}")
    if len(ordered) > max_rows:
        lines.append(f"... ({len(ordered) - max_rows} more)")
    busy = sum(float(task.get("elapsed") or 0.0) for task in tasks)
    if reports:
        report = reports[-1]
        wall = float(report.get("wall_time") or 0.0)
        jobs = int(report.get("jobs") or 1)
        utilization = busy / (wall * jobs) if wall > 0 else 0.0
        lines.append(f"busy {busy:.2f}s  wall {wall:.2f}s  jobs {jobs}  "
                     f"worker utilization {utilization:.1%}")
    else:
        lines.append(f"busy {busy:.2f}s  (no run_report event)")
    chain, total = _critical_path(tasks)
    if chain:
        lines.append(f"critical path ({total:.2f}s): " + " -> ".join(chain))
    return lines


def _resilience_section(retries: List[Dict[str, Any]],
                        timeouts: List[Dict[str, Any]],
                        rebuilds: List[Dict[str, Any]],
                        quarantines: List[Dict[str, Any]],
                        reports: List[Dict[str, Any]]) -> List[str]:
    """Fault-tolerance activity: retries, timeouts, pool rebuilds, quarantines.

    Omitted entirely from traces of untroubled runs — its absence is the
    healthy signal.
    """
    if not (retries or timeouts or rebuilds or quarantines):
        return []
    lines = ["== resilience =="]
    if retries:
        per_task: Dict[str, int] = defaultdict(int)
        per_error: Dict[str, int] = defaultdict(int)
        for event in retries:
            per_task[str(event.get("task_id"))] += 1
            per_error[str(event.get("error"))] += 1
        errors = ", ".join(f"{count}x {error}" for error, count
                           in sorted(per_error.items(),
                                     key=lambda kv: -kv[1]))
        lines.append(f"retries {len(retries)} across {len(per_task)} "
                     f"task(s): {errors}")
        worst = max(per_task.items(), key=lambda kv: kv[1])
        if worst[1] > 1:
            lines.append(f"most retried: {worst[0]} ({worst[1]}x)")
    if timeouts:
        for event in timeouts:
            lines.append(f"timeout: {event.get('task_id')} killed after "
                         f"{float(event.get('timeout_s') or 0.0):.1f}s "
                         f"(attempt {event.get('attempt')})")
    for event in rebuilds:
        action = str(event.get("action"))
        lines.append(f"pool {action}: {event.get('reason')} "
                     f"(rebuild #{event.get('count')})")
    for event in quarantines:
        lines.append(f"quarantined: {str(event.get('key'))[:16]}... "
                     f"({event.get('reason')})")
    if reports and reports[-1].get("degraded"):
        lines.append("run DEGRADED to in-process serial execution")
    return lines


def _store_section(reports: List[Dict[str, Any]]) -> List[str]:
    stores = [report.get("store") for report in reports
              if report.get("store")]
    if not stores:
        return []
    store = stores[-1]
    line = (f"hits {store.get('hits', 0)}  misses {store.get('misses', 0)}  "
            f"read {_fmt_bytes(store.get('bytes_read', 0))}  "
            f"written {_fmt_bytes(store.get('bytes_written', 0))}")
    if store.get("quarantined"):
        line += f"  quarantined {store['quarantined']}"
    return ["== result store ==", line]


def _profile_section(profiles: List[Dict[str, Any]],
                     top_k: int = 12) -> List[str]:
    if not profiles:
        return []
    merged: Dict[str, List[float]] = {}
    for event in profiles:
        for row in event.get("ops") or []:
            entry = merged.setdefault(str(row.get("op")), [0, 0.0, 0.0])
            entry[0] += int(row.get("calls", 0))
            entry[1] += float(row.get("forward_s", 0.0))
            entry[2] += float(row.get("backward_s", 0.0))
    rows = sorted(merged.items(), key=lambda kv: kv[1][1] + kv[1][2],
                  reverse=True)[:top_k]
    lines = ["== op profile (top ops, exclusive) ==",
             f"{'op':<14} {'calls':>8} {'fwd_ms':>9} {'bwd_ms':>9}"]
    for name, (calls, fwd, bwd) in rows:
        lines.append(f"{name:<14} {calls:>8d} {fwd * 1e3:>9.2f} "
                     f"{bwd * 1e3:>9.2f}")
    return lines


def _counters_section(counter_events: List[Dict[str, Any]]) -> List[str]:
    if not counter_events:
        return []
    totals: Dict[str, float] = defaultdict(float)
    for event in counter_events:
        for name, value in (event.get("values") or {}).items():
            totals[name] += value
    lines = ["== counters =="]
    for name in sorted(totals):
        value = totals[name]
        rendered = int(value) if float(value).is_integer() else value
        lines.append(f"{name:<28} {rendered}")
    return lines


# ------------------------------------------------------------------ #
def summarize_events(events: List[Dict[str, Any]],
                     malformed: int = 0) -> str:
    grouped = _by_type(events)
    sections: List[List[str]] = [
        _manifest_section(grouped.get("manifest", [])),
        _engine_section(grouped.get("attack_run", []),
                        grouped.get("attack_step", [])),
        _curve_section(grouped.get("attack_step", [])),
        _cache_section(grouped.get("attack_run", [])),
        _scheduler_section(grouped.get("task", []),
                           grouped.get("run_report", [])),
        _resilience_section(grouped.get("task_retry", []),
                            grouped.get("task_timeout", []),
                            grouped.get("pool_rebuild", []),
                            grouped.get("store_quarantine", []),
                            grouped.get("run_report", [])),
        _store_section(grouped.get("run_report", [])),
        _profile_section(grouped.get("op_profile", [])),
        _counters_section(grouped.get("counters", [])),
    ]
    footer = [f"{len(events)} events"]
    converged = len(grouped.get("attack_converged", []))
    if converged:
        footer.append(f"{converged} convergence events")
    if malformed:
        footer.append(f"{malformed} malformed lines skipped")
    sections.append([", ".join(footer)])
    return "\n\n".join("\n".join(section)
                       for section in sections if section)


def summarize_path(path: str) -> str:
    events, malformed = load_trace(path)
    return summarize_events(events, malformed)


__all__ = ["cache_totals", "load_trace", "summarize_events",
           "summarize_path"]


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect JSONL telemetry traces.")
    parser.add_argument("command", choices=["summarize"],
                        help="report to produce")
    parser.add_argument("trace", help="path to a trace.jsonl file")
    args = parser.parse_args(argv)
    print(summarize_path(args.trace))
    return 0
