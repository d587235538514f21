#!/usr/bin/env python3
"""Diff two Prometheus text exposition dumps by series catalog.

Usage:
    tools/s3_metrics_diff.py --baseline bench/baselines/BENCH_server_metrics.prom \
        --fresh build/BENCH_server_metrics.prom [--strict]

Parses both files into (family, kind, label-keys) tuples and reports:
  - families present only in the baseline (a metric DISAPPEARED —
    dashboards and alerts keyed on it silently go dark), the case this
    gate exists for;
  - families present only in the fresh dump (new coverage — fine, but
    listed so the baseline gets refreshed);
  - families whose TYPE or label-key set changed (a breaking reshape
    of an existing series).

Values are deliberately NOT compared: sample magnitudes vary run to
run; the catalog is the contract.

Exit code is 0 unless --strict is passed AND a family disappeared or
changed shape. A missing baseline file is a graceful skip (the check
works before its baseline lands); a missing fresh file is an error.
CI runs it with --strict, as a blocking step of the bench-regression
job, on both committed catalogs.
"""

import argparse
import os
import re
import sys

SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+\S+(?:\s+\S+)?$")
LABEL_KEY_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="')
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def parse(path):
    """Returns {family: {"kind": str, "label_keys": set}}."""
    families = {}
    kinds = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# TYPE "):
                parts = line.split(None, 3)
                if len(parts) >= 4:
                    kinds[parts[2]] = parts[3]
                continue
            if not line or line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                continue
            name, labelblock = m.group(1), m.group(2) or ""
            family = name
            for suffix in HIST_SUFFIXES:
                if name.endswith(suffix) and name[: -len(suffix)] in kinds:
                    family = name[: -len(suffix)]
                    break
            keys = set(LABEL_KEY_RE.findall(labelblock))
            keys.discard("le")  # histogram bucket label, not identity
            entry = families.setdefault(
                family, {"kind": kinds.get(family, "untyped"),
                         "label_keys": set()})
            entry["label_keys"] |= keys
    # Families declared (HELP/TYPE) but with no samples still count:
    # the catalog is the contract, traffic is not.
    for family, kind in kinds.items():
        families.setdefault(family, {"kind": kind, "label_keys": set()})
    return families


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on disappeared/reshaped families")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        print(f"metrics-diff: no baseline at {args.baseline}; skipping "
              "(commit the fresh dump to create one)")
        return 0
    if not os.path.exists(args.fresh):
        print(f"metrics-diff: fresh dump {args.fresh} missing", file=sys.stderr)
        return 2

    base = parse(args.baseline)
    fresh = parse(args.fresh)

    disappeared = sorted(set(base) - set(fresh))
    appeared = sorted(set(fresh) - set(base))
    reshaped = []
    for family in sorted(set(base) & set(fresh)):
        b, f = base[family], fresh[family]
        if b["kind"] != f["kind"]:
            reshaped.append(f"{family}: kind {b['kind']} -> {f['kind']}")
        elif b["label_keys"] != f["label_keys"]:
            reshaped.append(
                f"{family}: label keys {sorted(b['label_keys'])} -> "
                f"{sorted(f['label_keys'])}")

    print(f"metrics-diff: {len(base)} baseline families, "
          f"{len(fresh)} fresh families")
    for family in disappeared:
        print(f"  DISAPPEARED  {family} ({base[family]['kind']})")
    for line in reshaped:
        print(f"  RESHAPED     {line}")
    for family in appeared:
        print(f"  new          {family} ({fresh[family]['kind']})")
    if not disappeared and not reshaped and not appeared:
        print("  catalogs identical")

    if args.strict and (disappeared or reshaped):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
