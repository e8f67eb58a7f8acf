#!/usr/bin/env python3
"""dsvkernel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run measures one workload in one
worker process (``worker.py``) with the BLAS thread count pinned to 1, and
prints a few ``#`` lines for people followed by one JSON line:

* ``--trace 0``: ops_per_s, setup_s, peak_rss_mb and ok_ops_frac.  set-up
  time is the median over fresh processes (the worker plus SETUP_PROBES
  set-up-only ones around it), each timed from its start to its first timed
  operation.
* ``--trace 1``: the per-layer metrics of a traced run (see NOTES.md).

Machine facts, every pass and the steal ticks of /proc/stat before and
after the run are written to ``.perfbench/records/`` in the checkout.  The
run exits with code 2 when the checkout holds no program to measure and 1
when a worker fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-diabetes", "sweep-small", "simulate-box", "boundary-export")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REQUIRED = ("src/dsvkernel/__init__.py", "data/iris.csv", "data/diabetes.csv")
SETUP_PROBES = 8
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ops_frac": "ratio"}
LAYER_UNITS = {"busy_s": "s", "_ms": "ms", "cpu_s": "s", "overhead_frac": "ratio"}
PER_LAYER = (
    "rng.busy_s", "rng.calls", "rng.items",
    "data.busy_s", "data.rows",
    "kernel.busy_s", "kernel.gram.busy_s", "kernel.gram.entries",
    "kernel.gram_cross.busy_s", "kernel.gram_cross.entries",
    "fock.busy_s", "fock.circuit_kernel.busy_s", "fock.circuit_kernel.calls",
    "fock.circuit_kernel.p50_ms", "fock.circuit_kernel.p97_ms",
    "fock.matrix_exp.busy_s", "fock.matrix_exp.calls", "fock.ladder_ops.busy_s",
    "svm.busy_s", "svm.train_binary.busy_s", "svm.train_binary.calls", "svm.sweeps",
    "svm.n_support", "svm.nonconverged", "svm.decision_values.busy_s",
    "svm.predict.points", "svm.load_model.busy_s",
    "experiment.busy_s", "experiment.boundary_grid.busy_s", "experiment.bytes_written",
    "cli.busy_s", "run.cpu_s", "trace.overhead_frac",
)


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "bytes" if name.endswith("bytes_written") else "count"


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs (the 8th field of /proc/stat)."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def end_to_end(result: dict, setups: list[float]) -> dict:
    """The end-to-end metrics of an untraced run, from the worker's result."""
    plain = [p for p in result["passes"] if not p["traced"]]
    return {
        "ops_per_s": sum(p["ops"] for p in plain) / sum(p["seconds"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ops_frac": 1.0 - result["failed"] / result["attempted"],
    }


class Failure(Exception):
    """A worker failed or ran out of time; the run reports no result."""


def run_worker(args, workdir: Path, deadline: float, setup_only: bool, env) -> tuple[dict, float]:
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(result_path)]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise Failure("worker ran out of time") from None
    if code != 0 or not result_path.exists():
        raise Failure(f"worker exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, result["ready_at"] - started


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a dsvkernel checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in BLAS_ENV})
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    steal_before = steal_ticks()
    try:
        setups = []
        probes = SETUP_PROBES if args.trace == 0 else 0
        # Half the probes run before the measured worker and half after it, so
        # the set-up samples span the run rather than one moment of it.
        for i in range(probes + 1):
            measured = i == probes // 2
            out, setup_s = run_worker(args, workdir / f"process-{i}", deadline, not measured, env)
            setups.append(setup_s)
            if measured:
                result = out
    except Failure as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after = steal_ticks()

    if args.trace == 0:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]}
                   for name, v in end_to_end(result, setups).items()}
    else:
        metrics = {name: {"value": result["layers"][name], "unit": unit_of(name)}
                   for name in PER_LAYER}

    machine = result["machine"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setups_s": setups,
        "steal_ticks": {"before": steal_before, "after": steal_after},
        "metrics": metrics, "failed_in_layer": result.get("layers", {}).get("failed_in_layer"),
        **{k: result[k] for k in ("attempted", "failed", "problems", "inputs", "passes")},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (records / f"{stem}.spans.json").write_text(
            json.dumps(result["spans_of_first_traced_pass"]), encoding="utf-8")

    stolen = (steal_after - steal_before) if None not in (steal_before, steal_after) else "n/a"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{len(result['passes'])} passes, {result['attempted']} operations")
    print(f"# machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} blas={machine['blas']} "
          f"threads={machine['blas_threads']} steal_ticks_during_run={stolen}")
    if result["inputs"]:
        print(f"# inputs: {json.dumps(result['inputs'])}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_ops_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for problem in result["problems"][:10]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
