"""One benchmark process: set-up, timed passes, then the checks.

``run.py`` starts this file with the BLAS thread count already pinned in the
environment, waits for it and reads the JSON it writes to ``--result``.
With ``--setup-only`` it stops after set-up, so ``run.py`` can time set-up
in several fresh processes.

Untraced runs cycle the input (pass k uses ``inputs(seed, k)``) to average
over many inputs, then replay input 0 as the last pass.  Traced runs repeat
input 0, alternating an untraced and a traced pass, so the trace's overhead
and its per-pass counts compare like with like.  Outputs are kept on disk
and checked after the timed loop, so the checks add nothing to the peak
resident memory of the timed work.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from run import BLAS_ENV
from workloads import Verdict


@dataclass
class Pass:
    input_key: str  # equal for passes over equal inputs
    traced: bool
    seconds: float
    cpu_s: float
    outdir: Path
    out: object
    ops: int
    error: str | None = None
    layer: dict | None = None
    verdict: Verdict | None = None


def _tree_digest(outdir: Path, out) -> str:
    h = hashlib.sha256(repr(out).encode())
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(outdir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, tracer: spans.Tracer | None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.passes: list[Pass] = []
        self.first_spans: dict | None = None
        self._kept: dict[tuple[str, str], Pass] = {}
        self._inputs: dict[str, object] = {}

    def one_pass(self, k: int, traced: bool) -> None:
        inp = self.workload.inputs(self.seed, k)
        current = self.workload.workdir / "current"
        shutil.rmtree(current, ignore_errors=True)
        current.mkdir(parents=True)
        error = None
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                out = self.workload.run(inp, current)
            except Exception as err:  # counted as failed operations below
                out, error = None, f"{type(err).__name__}: {err}"
            seconds, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
        finally:
            if traced:
                self.tracer.uninstall()
        layer = None
        if traced:
            layer = self.tracer.metrics()
            if self.first_spans is None:
                self.first_spans = spans.spans_to_json(self.tracer.spans)
            self.tracer.reset()
        input_key = hashlib.sha256(repr(inp).encode()).hexdigest()
        self._inputs[input_key] = inp
        record = Pass(input_key, traced, seconds, cpu_s, current, out, self.workload.ops(inp),
                      error, layer)
        key = (input_key, _tree_digest(current, (out, error)))
        if key in self._kept:  # same input, same outputs: the same verdict
            shutil.rmtree(current)
            record.outdir = self._kept[key].outdir
        else:
            record.outdir = current.rename(self.workload.workdir / f"pass-{len(self.passes)}")
            self._kept[key] = record
        self.passes.append(record)

    def measure(self, seconds: float, traced: bool) -> None:
        start = time.perf_counter()
        if traced:
            while True:
                self.one_pass(0, False)
                self.one_pass(0, True)
                pairs = len(self.passes) // 2
                elapsed = time.perf_counter() - start
                if pairs >= 2 and elapsed + elapsed / pairs >= seconds:
                    return
        k = 0
        while True:
            self.one_pass(k, False)
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed + 2.0 * elapsed / k >= seconds:
                break
        self.one_pass(0, False)  # the replay of the first input

    def check(self) -> None:
        verdicts: dict[Path, Verdict] = {}
        for p in self.passes:
            if p.outdir not in verdicts:
                if p.error is not None:
                    verdicts[p.outdir] = Verdict(p.ops, p.ops, b"", [f"raised {p.error}"])
                else:
                    inp = self._inputs[p.input_key]
                    verdicts[p.outdir] = self.workload.check(inp, p.outdir, p.out)
            p.verdict = verdicts[p.outdir]


def summarize(passes: list[Pass]) -> dict:
    """Attempted and failed operations over all passes.

    Besides each pass's own checks, a pass fails as a whole when its
    deterministic output differs from the first pass over the same input
    (the replay check), or when a traced pass's deterministic layer counts
    differ from the first traced pass over that input.
    """
    attempted = failed = 0
    problems: list[str] = []
    first_body: dict[str, bytes] = {}
    first_counts: dict[str, dict] = {}
    for i, p in enumerate(passes):
        v = p.verdict
        pass_failed = v.failed
        problems += [f"pass {i}: {msg}" for msg in v.problems]
        if first_body.setdefault(p.input_key, v.body) != v.body:
            pass_failed = v.ops
            problems.append(f"pass {i}: output differs from the first pass over its input")
        if p.layer is not None:
            counts = {name: p.layer[name] for name in spans.DETERMINISTIC_COUNTS}
            if first_counts.setdefault(p.input_key, counts) != counts:
                pass_failed = v.ops
                problems.append(f"pass {i}: layer counts differ from the first traced pass")
        attempted += v.ops
        failed += pass_failed
    return {"attempted": attempted, "failed": failed, "problems": problems}


def per_layer(passes: list[Pass]) -> dict:
    """Per-layer metrics of a traced run: median seconds over the traced
    passes, counts of the first one (the others must equal it), and the run's
    own CPU time and tracing overhead."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    first = traced[0].layer
    out = {}
    for name, value in first.items():
        if name in spans.DETERMINISTIC_COUNTS or not isinstance(value, float):
            out[name] = value
        else:
            out[name] = statistics.median(p.layer[name] for p in traced)
    out["run.cpu_s"] = statistics.median(p.cpu_s for p in plain)
    out["trace.overhead_frac"] = (sum(p.seconds for p in traced)
                                  / sum(p.seconds for p in plain) - 1.0)
    return out


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through ctypes."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError as err:
        threads = {"unreadable": str(err)}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    program = workloads.import_program()
    workload = workloads.WORKLOADS[args.workload](program, Path(args.workdir))
    workload.setup(args.seed)
    ready_at = time.monotonic()
    result: dict = {"ready_at": ready_at}
    if not args.setup_only:
        runner = Runner(workload, args.seed, spans.Tracer(program) if args.trace else None)
        runner.measure(args.seconds, bool(args.trace))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check()
        result.update(summarize(runner.passes))
        result["passes"] = [
            {"traced": p.traced, "seconds": p.seconds, "cpu_s": p.cpu_s,
             "ops": p.verdict.ops, "failed": p.verdict.failed}
            for p in runner.passes
        ]
        result["machine"] = machine_facts()
        result["inputs"] = workload.facts()
        if args.trace:
            result["layers"] = per_layer(runner.passes)
            result["spans_of_first_traced_pass"] = runner.first_spans
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
