#!/usr/bin/env python3
"""Run the benchmark in two checkouts and write a ``BENCH_<label>.json``.

    python3 scripts/bench_pairs.py --parent PARENT --change CHANGE \\
        --label LABEL --summary TEXT \\
        [--seeds 1-10] [--seconds 30] [--workloads W1,W2]

The script runs ``perfbench/run.py --trace 0`` once per (seed, workload,
side): for each seed in turn, each workload in turn (by default every
workload of the change's ``BENCHMARK.json``) on both sides, the parent first
on odd seeds and the change first on even ones.  Each run's record,
``.perfbench/records/<workload>-seed<N>-trace0.json`` in its checkout, is
read right after the run that wrote it, so the file holds only the values of
this one interleaved round.  For every workload and end-to-end metric the
file holds both sides' per-seed values, their medians and inclusive
quartiles, and how many seeds the change is better on; it also holds the
steal ticks and failed operations of every run and each side's machine
facts.  Which direction is better comes from the change's
``BENCHMARK.json``.  The file is written to the current directory.

Each metric also gets the median of the per-seed ratios change/parent and a
distribution-free interval for it (Kalibera & Jones, ISMM 2013): the k-th
smallest to the k-th largest ratio, for the largest k whose coverage
1 - 2 P(Binomial(n, 1/2) < k) is at least ``RATIO_COVERAGE``; of 10 ratios,
the 2nd to the 9th smallest, with coverage 1 - 2 * 11/1024 = 97.9%.  The
verdict is ``better`` or ``worse`` only when that interval excludes 1, and
``no verdict`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
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
#: Least coverage of the interval on the median ratio change/parent.
RATIO_COVERAGE = 0.95


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``1-5``, ``1,3,5`` or a mix of the two."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_pairs(parent: Path, change: Path, seeds: list[int], seconds: float,
              workloads: list[str]) -> dict:
    """{side: {workload: {seed: record}}} of one untraced ``perfbench/run.py``
    run per (seed, workload, side), each record read right after its run."""
    checkouts = dict(zip(SIDES, (parent, change)))
    runs: dict = {side: {workload: {} for workload in workloads} for side in SIDES}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                checkout = checkouts[side]
                argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", f"{seconds:g}", "--trace", "0"]
                print(f"bench_pairs: {checkout}: {' '.join(argv)}", flush=True)
                code = subprocess.run([sys.executable, *argv], cwd=checkout).returncode
                if code != 0:
                    raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} "
                                     f"exited {code}")
                record = checkout / ".perfbench" / "records" / f"{workload}-seed{seed}-trace0.json"
                runs[side][workload][seed] = json.loads(record.read_text(encoding="utf-8"))
    return runs


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def better_pairs(parent: list[float], change: list[float], higher: bool) -> str:
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return f"{wins}/{len(parent)}" + (f" ({ties} ties)" if ties else "")


def median_interval(n: int) -> tuple[int, float] | None:
    """``(k, coverage)``: the k-th smallest and k-th largest of n values
    bound their median with probability ``coverage`` for any continuous
    distribution; the largest k whose coverage is at least
    ``RATIO_COVERAGE``, or None when n is too small for any."""
    bound = None
    for k in range(1, n // 2 + 1):
        coverage = 1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n
        if coverage < RATIO_COVERAGE:
            break
        bound = (k, coverage)
    return bound


def ratio_summary(parent: list[float], change: list[float], higher: bool) -> dict:
    """The median of the per-seed ratios change/parent, its interval and
    coverage (:func:`median_interval`) and the verdict they give."""
    entry = {"ratio_median": None, "ratio_interval": None, "ratio_coverage": None,
             "verdict": "no verdict"}
    if 0 in parent:
        return entry
    ratios = sorted(c / p for p, c in zip(parent, change))
    entry["ratio_median"] = statistics.median(ratios)
    bound = median_interval(len(ratios))
    if bound is not None:
        k, entry["ratio_coverage"] = bound
        low, high = entry["ratio_interval"] = [ratios[k - 1], ratios[-k]]
        if not low <= 1.0 <= high:
            entry["verdict"] = "better" if (low > 1.0) == higher else "worse"
    return entry


def ratio_text(entry: dict) -> str:
    """The ratio keys of a metric's entry as one short phrase."""
    if entry["ratio_median"] is None:
        return entry["verdict"]
    interval = entry["ratio_interval"]
    bounds = "" if interval is None else " in [{:.4g}, {:.4g}]".format(*interval)
    return f"ratio {entry['ratio_median']:.4g}{bounds}: {entry['verdict']}"


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
    higher = entry["better"] == "higher"
    entry["change_better_pairs"] = better_pairs(values["parent"], values["change"], higher)
    entry.update(ratio_summary(values["parent"], values["change"], higher))
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


def build(runs: dict, better: dict, seconds: float, label: str, summary: str) -> dict:
    """The BENCH document of the runs :func:`run_pairs` returns; ``better``
    maps an end-to-end metric to ``"higher"`` or ``"lower"``."""
    workloads = {}
    for workload, change_runs in runs["change"].items():
        seeds = sorted(change_runs)
        side_runs = {side: runs[side][workload] for side in SIDES}
        entry = {name: metric_summary(name, seeds, side_runs, better)
                 for name in change_runs[seeds[0]]["metrics"]}
        entry["steal_ticks"] = {side: {str(s): side_runs[side][s]["steal_ticks"] for s in seeds}
                                for side in SIDES}
        entry["failed_ops"] = {side: sum(side_runs[side][s]["failed"] for s in seeds)
                               for side in SIDES}
        workloads[workload] = entry

    first = next(iter(runs["change"]))
    seed_list = sorted(runs["change"][first])
    seed_text = (f"{seed_list[0]}-{seed_list[-1]}"
                 if seed_list == list(range(seed_list[0], seed_list[-1] + 1))
                 else ", ".join(map(str, seed_list)))
    return {
        "label": label,
        "summary": summary,
        "command": (f"python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {seconds:g} --trace 0"),
        "protocol": PROTOCOL.format(seeds=seed_text),
        "cpu": cpu_model(),
        "machine": {side: runs[side][first][seed_list[0]]["machine"] for side in SIDES},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--summary", required=True, help="one line on what changed")
    parser.add_argument("--seeds", type=parse_seeds, default="1-10",
                        help="seeds such as 1-10 or 1,3,5 (default 1-10)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds per run (default 30)")
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        help="comma-separated workloads (default: all)")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = run_pairs(args.parent, args.change, args.seeds, args.seconds, workloads)
    bench = build(runs, better, args.seconds, args.label, args.summary)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(out)
    for workload, entry in bench["workloads"].items():
        for name, m in entry.items():
            if "parent_median" in m:
                print(f"{workload:16s} {name:12s} {m['parent_median']:.6g} -> "
                      f"{m['change_median']:.6g} {m['unit']} "
                      f"(change better on {m['change_better_pairs']}; {ratio_text(m)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
