#!/usr/bin/env python3
"""Distills bench_scale JSON runs into BENCH_scale.json and gates them.

Reads one or more JSON files produced by bench/bench_scale --json, merges
their rows into a {policy x shard-count x coflow-count} matrix, writes a
compact BENCH_scale.json, and enforces two floors:

  * modeled speedup: for each guarded policy, modeled events/s at
    GUARD_SHARDS shards must be at least MIN_SPEEDUP x the 1-shard value
    at GUARD_COFLOWS coflows. The modeled time is main-thread CPU plus
    the shard critical path (max per-shard CPU per parallel region), so
    the ratio holds on any host - including single-core CI runners where
    wall clock cannot show parallel speedup.
  * absolute throughput: the 1-shard wall events/s at GUARD_COFLOWS must
    clear MIN_SERIAL_EVENTS_PER_S for every guarded policy, so a broad
    serial regression cannot hide inside a still-healthy ratio.

Usage: tools/bench_scale_report.py <run.json> [<run.json> ...] [-o out.json]
Exits non-zero when any floor is missed or guard data is absent.
"""
import json
import sys

MIN_SPEEDUP = 1.8
MIN_SERIAL_EVENTS_PER_S = 2.0
GUARD_COFLOWS = 10000
GUARD_SHARDS = 4
# drf exercises the parallel demand-refresh/progress path. tcp@N, the only
# other sharded policy, runs in the unguarded smoke sweep.
GUARDED_POLICIES = ("drf",)

REQUIRED_FIELDS = (
    "policy",
    "shards",
    "coflows",
    "events",
    "wall_seconds",
    "main_cpu_seconds",
    "shard_critical_seconds",
)


def load_rows(paths):
    rows = []
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        if report.get("benchmark") != "bench_scale":
            raise ValueError(f"{path}: not a bench_scale JSON report")
        for row in report.get("rows", []):
            missing = [k for k in REQUIRED_FIELDS if k not in row]
            if missing:
                raise ValueError(f"{path}: row missing fields {missing}")
            rows.append(row)
    return rows


def main(argv):
    args = argv[1:]
    out_path = "BENCH_scale.json"
    if "-o" in args:
        i = args.index("-o")
        if i + 1 >= len(args):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        out_path = args[i + 1]
        del args[i : i + 2]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    try:
        rows = load_rows(args)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"::error::{err}")
        return 1

    matrix = {}
    for row in rows:
        modeled = row["main_cpu_seconds"] + row["shard_critical_seconds"]
        cell = {
            "events": row["events"],
            "wall_events_per_s": (
                row["events"] / row["wall_seconds"]
                if row["wall_seconds"] > 0
                else 0.0
            ),
            "modeled_seconds": modeled,
            "modeled_events_per_s": (
                row["events"] / modeled if modeled > 0 else 0.0
            ),
        }
        for extra in ("locality", "racks"):
            if extra in row:
                cell[extra] = row[extra]
        matrix.setdefault(row["policy"], {}).setdefault(
            str(row["coflows"]), {}
        )[str(row["shards"])] = cell

    failures = []
    for policy, by_coflows in sorted(matrix.items()):
        for coflows, by_shards in sorted(
            by_coflows.items(), key=lambda kv: int(kv[0])
        ):
            base = by_shards.get("1")
            for shards, cell in sorted(
                by_shards.items(), key=lambda kv: int(kv[0])
            ):
                speedup = None
                if base is not None and base["modeled_events_per_s"] > 0:
                    speedup = (
                        cell["modeled_events_per_s"]
                        / base["modeled_events_per_s"]
                    )
                    cell["modeled_speedup_vs_1shard"] = speedup
                print(
                    f"{policy:>8} @{int(coflows):>6} coflows, "
                    f"{int(shards)} shard(s): "
                    f"wall {cell['wall_events_per_s']:8.1f} ev/s, "
                    f"modeled {cell['modeled_events_per_s']:8.1f} ev/s"
                    + (f", speedup {speedup:5.2f}x" if speedup else "")
                )

    for policy in GUARDED_POLICIES:
        by_shards = matrix.get(policy, {}).get(str(GUARD_COFLOWS), {})
        base = by_shards.get("1")
        target = by_shards.get(str(GUARD_SHARDS))
        if base is None or target is None:
            failures.append(
                f"{policy}@{GUARD_COFLOWS}: missing "
                f"{'1-shard' if base is None else f'{GUARD_SHARDS}-shard'} "
                "guard cell"
            )
            continue
        if base["wall_events_per_s"] < MIN_SERIAL_EVENTS_PER_S:
            failures.append(
                f"{policy}@{GUARD_COFLOWS}: serial wall throughput "
                f"{base['wall_events_per_s']:.1f} ev/s below floor "
                f"{MIN_SERIAL_EVENTS_PER_S} ev/s"
            )
        speedup = target.get("modeled_speedup_vs_1shard", 0.0)
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{policy}@{GUARD_COFLOWS}: modeled {GUARD_SHARDS}-shard "
                f"speedup {speedup:.2f}x below floor {MIN_SPEEDUP}x"
            )

    out = {
        "description": (
            "Event-replay throughput per {policy, shard count, coflow "
            "count}: wall events/s plus the modeled events/s (main-thread "
            "CPU + shard critical path) that the speedup guard uses; "
            "speedup = modeled events/s vs the same policy at 1 shard"
        ),
        "source": "bench/bench_scale.cc",
        "guard": {
            "min_modeled_speedup": MIN_SPEEDUP,
            "min_serial_wall_events_per_s": MIN_SERIAL_EVENTS_PER_S,
            "coflows": GUARD_COFLOWS,
            "shards": GUARD_SHARDS,
            "policies": list(GUARDED_POLICIES),
        },
        "matrix": matrix,
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")

    if failures:
        for failure in failures:
            print(f"::error::{failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
