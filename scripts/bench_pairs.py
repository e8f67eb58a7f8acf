#!/usr/bin/env python3
"""Write a ``BENCH_<label>.json`` from the benchmark records of two checkouts.

    python3 scripts/bench_pairs.py --parent PARENT --change CHANGE \\
        --label LABEL --summary TEXT \\
        [--run [--seeds 1-5] [--seconds 30] [--workloads W1,W2]]

PARENT and CHANGE are checkouts in which ``perfbench/run.py`` has run with
``--trace 0``, one run per (workload, seed), so that each holds
``.perfbench/records/<workload>-seed<N>-trace0.json``.  With ``--run`` the
script makes those runs itself first: for each seed in turn, each workload
in turn (by default every workload of the change's ``BENCHMARK.json``) on
both sides, the parent first on odd seeds and the change first on even
ones; the file then covers only those seeds and workloads.  Seeds that only
one side has are left out.  For every workload and end-to-end metric the file
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
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PROTOCOL = (
    "one run per (workload, seed, side) from each side's own checkout; seeds {seeds}; "
    "odd seeds run the parent first, even seeds the change first; workloads "
    "interleaved per seed; the first pass of every run is warm-up and excluded by the "
    "benchmark; medians and quartiles over the seeds"
)


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``1-5``, ``1,3,5`` or a mix of the two."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_pairs(parent: Path, change: Path, seeds: list[int], seconds: float,
              workloads: list[str]) -> None:
    """One untraced ``perfbench/run.py`` run per (seed, workload, side)."""
    for seed in seeds:
        order = (parent, change) if seed % 2 else (change, parent)
        for workload in workloads:
            for checkout in order:
                argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", f"{seconds:g}", "--trace", "0"]
                print(f"bench_pairs: {checkout}: {' '.join(argv)}", flush=True)
                code = subprocess.run([sys.executable, *argv], cwd=checkout).returncode
                if code != 0:
                    raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} "
                                     f"exited {code}")


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


def benchmark_workloads(change: Path) -> list[str]:
    """The workloads of the change's ``BENCHMARK.json``, in its order."""
    benchmark = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in benchmark["workloads"]]


def build(parent: Path, change: Path, label: str, summary: str,
          only_seeds: list[int] | None = None, only_workloads: list[str] | None = None) -> dict:
    """The BENCH document, optionally restricted to some seeds and workloads."""
    records = {"parent": read_records(parent), "change": read_records(change)}
    benchmark = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = {}
    all_seeds: set[int] = set()
    seconds: set[float] = set()
    for workload in only_workloads or benchmark_workloads(change):
        runs = {side: records[side].get(workload, {}) for side in SIDES}
        seeds = set(runs["parent"]) & set(runs["change"])
        seeds = sorted(seeds & set(only_seeds) if only_seeds else seeds)
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
    parser.add_argument("--run", action="store_true",
                        help="run the benchmark in both checkouts first")
    parser.add_argument("--seeds", type=parse_seeds, default="1-5",
                        help="with --run: seeds such as 1-5 or 1,3,5 (default 1-5)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="with --run: seconds per run (default 30)")
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        help="with --run: comma-separated workloads (default: all)")
    args = parser.parse_args(argv)
    if args.run:
        workloads = args.workloads or benchmark_workloads(args.change)
        run_pairs(args.parent, args.change, args.seeds, args.seconds, workloads)
        bench = build(args.parent, args.change, args.label, args.summary,
                      args.seeds, workloads)
    else:
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
