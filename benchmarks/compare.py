"""Compare two pytest-benchmark JSON files: speedup tables and drift gating.

Default mode prints per-benchmark speedups::

    python benchmarks/compare.py BASELINE CANDIDATE

Both files should come from the same machine: a wall-clock ratio between
two machines measures the machines, not the code.

``--check`` turns the comparison into a CI drift gate::

    python benchmarks/compare.py --check BASELINE CANDIDATE \
        --time-tolerance 3.0 --metric-rtol 0.05

Every benchmark present in both files must satisfy

* ``candidate mean <= baseline mean * time-tolerance`` — the factor is
  deliberately generous because the committed baseline and the CI runner
  are different machines; it still catches pathological slowdowns; and
* every numeric ``extra_info`` metric (perturbation distance, accuracy,
  ...) within ``|candidate - baseline| <= metric-atol + metric-rtol *
  |baseline|`` (the ``allclose`` convention, so zero-valued baselines like
  a fully-degraded accuracy stay gateable) — metrics are deterministic up
  to BLAS/platform rounding, so tight tolerances catch real drift.

Exit status is non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def load_benchmarks(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {bench["name"]: bench for bench in payload["benchmarks"]}


def print_speedups(baseline: dict, candidate: dict) -> int:
    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 1

    base_means = {name: baseline[name]["stats"]["mean"] for name in shared}
    cand_means = {name: candidate[name]["stats"]["mean"] for name in shared}
    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>9}  {'candidate':>9}  {'speedup':>8}")
    print("-" * (width + 32))
    ratios = []
    for name in shared:
        ratio = base_means[name] / cand_means[name]
        ratios.append(ratio)
        print(f"{name:<{width}}  {base_means[name]:>8.2f}s  {cand_means[name]:>8.2f}s  "
              f"{ratio:>7.2f}x")
    print("-" * (width + 32))
    total = sum(base_means.values()) / sum(cand_means.values())
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print(f"{'total wall-clock':<{width}}  {sum(base_means.values()):>8.2f}s  "
          f"{sum(cand_means.values()):>8.2f}s  {total:>7.2f}x")
    print(f"{'geometric mean':<{width}}  {'':>9}  {'':>9}  {geomean:>7.2f}x")

    missing = sorted(set(baseline) ^ set(candidate))
    if missing:
        print(f"\n(not in both files: {', '.join(missing)})")
    return 0


def check_drift(baseline: dict, candidate: dict, time_tolerance: float,
                metric_rtol: float, metric_atol: float,
                overhead_limit: float = None) -> int:
    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 1

    failures = []
    if overhead_limit is not None:
        # The telemetry overhead ratio is measured *within* the candidate
        # run (tracing on vs off, interleaved, min-based), so unlike the
        # cross-machine wall-clocks it supports a tight absolute gate.
        for name in sorted(candidate):
            ratio = candidate[name].get("extra_info", {}).get("overhead_ratio")
            if not isinstance(ratio, (int, float)):
                continue
            flag = "ok" if ratio <= overhead_limit else "OVERHEAD"
            if flag != "ok":
                failures.append(
                    f"{name}: telemetry overhead x{ratio:.3f} exceeds "
                    f"the x{overhead_limit:.2f} limit")
            print(f"{name}: telemetry overhead x{ratio:.3f} "
                  f"(limit x{overhead_limit:.2f}) [{flag}]")
    for name in shared:
        base = baseline[name]
        cand = candidate[name]
        base_mean = base["stats"]["mean"]
        cand_mean = cand["stats"]["mean"]
        status = "ok"
        if cand_mean > base_mean * time_tolerance:
            status = "SLOW"
            failures.append(
                f"{name}: wall-clock {cand_mean:.2f}s exceeds "
                f"{base_mean:.2f}s x {time_tolerance:.2f}")
        print(f"{name}: {base_mean:.2f}s -> {cand_mean:.2f}s "
              f"(limit {base_mean * time_tolerance:.2f}s) [{status}]")

        base_info = base.get("extra_info", {})
        cand_info = cand.get("extra_info", {})
        for key, base_value in sorted(base_info.items()):
            if not isinstance(base_value, (int, float)):
                continue
            cand_value = cand_info.get(key)
            if cand_value is None:
                failures.append(f"{name}: metric {key!r} missing from candidate")
                continue
            delta = abs(cand_value - base_value)
            limit = metric_atol + metric_rtol * abs(base_value)
            flag = "ok" if delta <= limit else "DRIFT"
            if flag != "ok":
                failures.append(
                    f"{name}: metric {key!r} drifted "
                    f"{base_value!r} -> {cand_value!r} "
                    f"(|delta| {delta:.4g} > {limit:.4g})")
            print(f"  {key}: {base_value!r} -> {cand_value!r} "
                  f"(|delta| {delta:.4g}, limit {limit:.4g}) [{flag}]")

    missing = sorted(set(baseline) ^ set(candidate))
    if missing:
        print(f"(not in both files: {', '.join(missing)})")
    if failures:
        print("\nDRIFT GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\ndrift gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="pytest-benchmark JSON to compare against")
    parser.add_argument("candidate", help="pytest-benchmark JSON to judge")
    parser.add_argument("--check", action="store_true",
                        help="gate the candidate against the baseline with "
                             "tolerances instead of printing speedups")
    parser.add_argument("--time-tolerance", type=float, default=3.0,
                        metavar="FACTOR",
                        help="max allowed candidate/baseline wall-clock "
                             "ratio in --check mode (default 3.0)")
    parser.add_argument("--metric-rtol", type=float, default=0.05,
                        metavar="RTOL",
                        help="relative drift tolerance for extra_info "
                             "metrics in --check mode (default 0.05)")
    parser.add_argument("--metric-atol", type=float, default=0.02,
                        metavar="ATOL",
                        help="absolute drift tolerance for extra_info "
                             "metrics in --check mode (default 0.02)")
    parser.add_argument("--overhead-limit", type=float, default=None,
                        metavar="FACTOR",
                        help="in --check mode, max allowed telemetry "
                             "overhead_ratio reported by any candidate "
                             "benchmark (e.g. 1.03 = 3%% overhead)")
    args = parser.parse_args(argv)

    baseline = load_benchmarks(args.baseline)
    candidate = load_benchmarks(args.candidate)
    if args.check:
        return check_drift(baseline, candidate, args.time_tolerance,
                           args.metric_rtol, args.metric_atol,
                           overhead_limit=args.overhead_limit)
    return print_speedups(baseline, candidate)


if __name__ == "__main__":
    raise SystemExit(main())
