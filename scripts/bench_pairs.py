#!/usr/bin/env python3
"""Write a ``BENCH_<label>.json`` from the benchmark records of two checkouts.

    python3 scripts/bench_pairs.py --parent PARENT --change CHANGE \\
        --label LABEL --summary TEXT

PARENT and CHANGE are checkouts in which ``perfbench/run.py`` has run with
``--trace 0``, one run per (workload, seed), so that each holds
``.perfbench/records/<workload>-seed<N>-trace0.json``.  Seeds that only one
side has are left out.  For every workload and end-to-end metric the file
holds both sides' per-seed values, their medians and inclusive quartiles,
and how many seeds the change is better on; it also holds the steal ticks
and failed operations of every run and each side's machine facts.  Which
direction is better comes from the change's ``BENCHMARK.json``.  The file
is written to the current directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SIDES = ("parent", "change")
PROTOCOL = (
    "one run per (workload, seed, side) from each side's own checkout; seeds {seeds}; "
    "odd seeds run the parent first, even seeds the change first; workloads "
    "interleaved per seed; the first pass of every run is warm-up and excluded by the "
    "benchmark; medians and quartiles over the seeds"
)


def read_records(checkout: Path) -> dict:
    """{workload: {seed: record}} of the untraced runs of one checkout."""
    records: dict = {}
    for path in sorted((checkout / ".perfbench" / "records").glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        records.setdefault(record["workload"], {})[record["seed"]] = record
    return records


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def better_pairs(parent: list[float], change: list[float], higher: bool) -> str:
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return f"{wins}/{len(parent)}" + (f" ({ties} ties)" if ties else "")


def metric_summary(name: str, seeds: list[int], runs: dict, better: dict) -> dict:
    values = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds] for side in SIDES}
    entry = {"unit": runs["change"][seeds[0]]["metrics"][name]["unit"],
             "better": better.get(name, "higher")}
    for side in SIDES:
        entry[side] = {str(s): v for s, v in zip(seeds, values[side])}
    for side in SIDES:
        entry[f"{side}_median"] = statistics.median(values[side])
    for side in SIDES:
        entry[f"{side}_quartiles"] = quartiles(values[side])
    entry["change_better_pairs"] = better_pairs(values["parent"], values["change"],
                                                entry["better"] == "higher")
    return entry


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def build(parent: Path, change: Path, label: str, summary: str) -> dict:
    records = {"parent": read_records(parent), "change": read_records(change)}
    benchmark = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = {}
    all_seeds: set[int] = set()
    seconds: set[float] = set()
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs = {side: records[side].get(workload, {}) for side in SIDES}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        if not seeds:
            continue
        all_seeds.update(seeds)
        seconds.update(runs[side][s]["seconds"] for side in SIDES for s in seeds)
        entry = {name: metric_summary(name, seeds, runs, better)
                 for name in runs["change"][seeds[0]]["metrics"]}
        entry["steal_ticks"] = {side: {str(s): runs[side][s]["steal_ticks"] for s in seeds}
                                for side in SIDES}
        entry["failed_ops"] = {side: sum(runs[side][s]["failed"] for s in seeds)
                               for side in SIDES}
        workloads[workload] = entry
    if not workloads:
        raise SystemExit("bench_pairs: no workload has untraced records on both sides")
    if len(seconds) != 1:
        raise SystemExit(f"bench_pairs: runs of different lengths {sorted(seconds)}")

    def first_machine(side):
        workload = next(iter(workloads))
        return records[side][workload][min(records[side][workload])]["machine"]

    seed_list = sorted(all_seeds)
    seed_text = (f"{seed_list[0]}-{seed_list[-1]}"
                 if seed_list == list(range(seed_list[0], seed_list[-1] + 1))
                 else ", ".join(map(str, seed_list)))
    return {
        "label": label,
        "summary": summary,
        "command": (f"python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {next(iter(seconds)):g} --trace 0"),
        "protocol": PROTOCOL.format(seeds=seed_text),
        "cpu": cpu_model(),
        "machine": {side: first_machine(side) for side in SIDES},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--summary", required=True, help="one line on what changed")
    args = parser.parse_args(argv)
    bench = build(args.parent, args.change, args.label, args.summary)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(out)
    for workload, entry in bench["workloads"].items():
        for name, m in entry.items():
            if "parent_median" in m:
                print(f"{workload:16s} {name:12s} {m['parent_median']:.6g} -> "
                      f"{m['change_median']:.6g} {m['unit']} "
                      f"(change better on {m['change_better_pairs']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
