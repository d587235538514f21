#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed baseline.

Reads both google-benchmark output ({"benchmarks": [{"name",
"real_time", "time_unit", ...}]}) and the BenchJsonWriter format the
figure harnesses emit ({"benchmarks": [{"name", "ns_per_op", ...}]}).
Benchmarks present in both files are compared on ns/op, each side's
value being the median of that name's iteration rows (one row per
repetition, so a run with --benchmark_repetitions=N compares its N
repetitions' median rather than whichever came last); a benchmark
slower than baseline by more than --tolerance (default 25%) counts as
a regression and flips the exit code to 1. Entries present on only one
side (e.g. a new benchmark without a committed baseline yet, or a
baseline record the run skipped) are reported and skipped, never
failed; a missing baseline *file* is a graceful skip, so the check
works before its baseline lands. A missing fresh file or a fully
disjoint name set is an error unless --allow-disjoint is passed (used
for merged multi-binary files where a run may contribute a subset) —
otherwise a benchmark rename could silently turn the gate vacuous.

Wired as a *non-blocking* CI step (continue-on-error): shared-runner
perf is advisory. Locally:

    ./build/bench_micro --benchmark_out=build/BENCH_micro.json \
        --benchmark_out_format=json
    tools/check_bench_regression.py --fresh build/BENCH_micro.json

    # server + live-update throughput (one merged file; run the pair
    # in this order — the server bench starts the file fresh, the
    # update bench merges into it):
    (cd build && ./bench_server_throughput && ./bench_update_throughput)
    tools/check_bench_regression.py \
        --baseline bench/baselines/BENCH_server.json \
        --fresh build/BENCH_server.json

To refresh a baseline after an intentional perf change, run with
--update-baselines: the committed baseline file is rewritten in place
from the fresh run (fresh records win; baseline-only records are kept,
so merged multi-binary baselines survive a partial run). The old
manual flow — overwriting the file by hand — is superseded. Commit the
rewritten file.

    tools/check_bench_regression.py --fresh build/BENCH_micro.json \
        --update-baselines

Baselines are machine-relative: numbers from a different host class
shift uniformly and the ratio check absorbs part of that, but for a
trustworthy CI comparison the baseline should be refreshed from the
CI job's own uploaded bench-json artifact rather than a developer
machine. (This, plus shared-runner noise, is why the CI step is
advisory rather than blocking.)
"""

import argparse
import json
import os
import statistics
import sys

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "bench", "baselines",
                                "BENCH_micro.json")


def load_ns_per_op(path):
    """Returns {benchmark name: median ns/op} from either format."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for record in doc.get("benchmarks", []):
        name = record.get("name")
        if name is None:
            continue
        # google-benchmark emits aggregate rows (mean/median/stddev)
        # alongside iteration rows when repetitions are configured;
        # compare only the plain iteration rows.
        if record.get("run_type", "iteration") != "iteration":
            continue
        if "ns_per_op" in record:  # BenchJsonWriter format
            ns = float(record["ns_per_op"])
        elif "real_time" in record:  # google-benchmark format
            unit = _UNIT_TO_NS.get(record.get("time_unit", "ns"))
            if unit is None:
                continue
            ns = float(record["real_time"]) * unit
        else:
            continue
        rows.setdefault(name, []).append(ns)
    return {name: statistics.median(ns) for name, ns in rows.items()}


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return "%.2f%s" % (ns / scale, unit)
    return "%.0fns" % ns


def load_records(path):
    """Returns the raw record list of a BENCH json ([] when absent)."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        doc = json.load(f)
    return [r for r in doc.get("benchmarks", []) if r.get("name")]


def update_baselines(baseline_path, fresh_path):
    """Rewrites `baseline_path` from `fresh_path` (fresh names win)."""
    if not os.path.exists(fresh_path):
        print("ERROR: no fresh output at %s" % fresh_path)
        return 1
    fresh = load_records(fresh_path)
    if not fresh:
        print("ERROR: %s holds no benchmark records" % fresh_path)
        return 1
    fresh_names = {r["name"] for r in fresh}
    kept = [r for r in load_records(baseline_path)
            if r["name"] not in fresh_names]
    merged = fresh + kept
    os.makedirs(os.path.dirname(os.path.abspath(baseline_path)),
                exist_ok=True)
    with open(baseline_path, "w") as f:
        json.dump({"benchmarks": merged}, f, indent=2)
        f.write("\n")
    print("rewrote %s: %d record(s) from %s, %d kept from the old "
          "baseline" % (baseline_path, len(fresh), fresh_path, len(kept)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Benchmark regression check against a committed "
                    "baseline.")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline JSON "
                             "(default: bench/baselines/BENCH_micro.json)")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH JSON to check")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown as a fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--allow-disjoint", action="store_true",
                        help="exit 0 when the fresh file is missing or "
                             "shares no benchmark names with the "
                             "baseline (for merged multi-binary files "
                             "like BENCH_server.json, where a run may "
                             "legitimately contribute only a subset); "
                             "without it, a vacuous comparison fails "
                             "loudly so renames can't silently disable "
                             "the gate")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baseline file in place from "
                             "the fresh run instead of comparing: fresh "
                             "records replace same-named baseline "
                             "records, baseline-only records are kept "
                             "(for merged multi-binary files). Exits 0 "
                             "on success")
    args = parser.parse_args()

    if args.update_baselines:
        return update_baselines(args.baseline, args.fresh)

    if not os.path.exists(args.baseline):
        print("no baseline at %s — nothing to compare (ok)" % args.baseline)
        return 0
    if not os.path.exists(args.fresh):
        if args.allow_disjoint:
            print("no fresh output at %s — bench not run here (skip, ok)"
                  % args.fresh)
            return 0
        print("ERROR: no fresh output at %s" % args.fresh)
        return 1
    baseline = load_ns_per_op(args.baseline)
    fresh = load_ns_per_op(args.fresh)

    common = sorted(set(baseline) & set(fresh))
    if not common:
        if args.allow_disjoint:
            # Disjoint record sets (e.g. only one contributing binary
            # ran): nothing comparable is not a regression.
            print("no benchmarks in common between %s and %s — skip (ok)"
                  % (args.baseline, args.fresh))
            return 0
        print("ERROR: no benchmarks in common between %s and %s"
              % (args.baseline, args.fresh))
        return 1

    regressions, improvements = [], []
    width = max(len(n) for n in common)
    print("%-*s %10s %10s %8s" % (width, "benchmark", "baseline", "fresh",
                                  "ratio"))
    for name in common:
        ratio = fresh[name] / baseline[name] if baseline[name] > 0 else 1.0
        flag = ""
        if ratio > 1.0 + args.tolerance:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        elif ratio < 1.0 - args.tolerance:
            improvements.append((name, ratio))
            flag = "  (improved)"
        print("%-*s %10s %10s %7.2fx%s"
              % (width, name, format_ns(baseline[name]),
                 format_ns(fresh[name]), ratio, flag))

    only_base = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))
    if only_base:
        print("missing from fresh run (%d): %s"
              % (len(only_base), ", ".join(only_base)))
    if only_fresh:
        print("new benchmarks (%d, no baseline yet): %s"
              % (len(only_fresh), ", ".join(only_fresh)))

    print()
    if regressions:
        print("FAIL: %d benchmark(s) regressed beyond %.0f%%:"
              % (len(regressions), args.tolerance * 100))
        for name, ratio in regressions:
            print("  %s: %.2fx" % (name, ratio))
        return 1
    print("OK: %d benchmark(s) within %.0f%% of baseline (%d improved)"
          % (len(common), args.tolerance * 100, len(improvements)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
