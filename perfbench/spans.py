"""In-memory spans around the public functions of each dsvkernel module.

The tracer wraps functions from the outside: it replaces the module
attribute and every name another package module bound with ``from x import
y`` (for example ``svm.gram`` or ``experiment.circuit_kernel``), and the
methods of ``SplitMix64`` on the class itself.  Nothing inside ``src/`` is
edited, and ``uninstall`` restores the original objects, so untraced passes
run the unmodified program.

Each span records its name, start, end and parent span.  A span's self time
is its duration minus the time its children cover; the program is single
threaded, so children never overlap and that time is the sum of their
durations.  Calls the RNG makes into itself (``random`` inside ``uniforms``,
``randbelow`` inside ``shuffle``) are not spans of their own, so
``rng.calls`` and ``rng.items`` count what the other layers asked for.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from pathlib import Path

LAYERS = ("rng", "data", "kernel", "fock", "svm", "experiment", "cli")

#: Spans whose points count towards ``svm.predict.points`` when no other
#: prediction span encloses them.
PREDICTION_SPANS = frozenset({
    "svm.decision_values", "svm.predict_labels", "svm.predict_multiclass_batch",
    "svm.accuracy",
})

#: Per-layer counts that depend only on the inputs; they must repeat exactly
#: between passes over the same input.  ``experiment.bytes_written`` is not
#: one: reports carry their wall times under ``timings``.
DETERMINISTIC_COUNTS = (
    "rng.calls", "rng.items", "data.rows", "kernel.gram.entries",
    "kernel.gram_cross.entries", "fock.circuit_kernel.calls", "fock.matrix_exp.calls",
    "svm.train_binary.calls", "svm.sweeps", "svm.n_support", "svm.nonconverged",
    "svm.predict.points",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts", "child_s", "failed")

    def __init__(self, name: str, layer: str, start: float, parent: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict | None = None
        self.child_s = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _rows(x) -> int:
    return int(x.n_samples) if hasattr(x, "n_samples") else int(len(x))


def _first_arg_rows(args, kwargs, result) -> dict:
    return {"rows": _rows(args[0])}


def _result_rows(args, kwargs, result) -> dict:
    return {"rows": _rows(result)}


def _items(n_index: int):
    def count(args, kwargs, result) -> dict:
        return {"items": int(args[n_index])}
    return count


def _shuffle_items(args, kwargs, result) -> dict:
    return {"items": len(args[1])}


def _one_item(args, kwargs, result) -> dict:
    return {"items": 1}


def _gram_entries(args, kwargs, result) -> dict:
    return {"entries": int(result.size) ** 2}


def _cross_entries(args, kwargs, result) -> dict:
    return {"entries": int(result.size)}


def _train_binary(args, kwargs, result) -> dict:
    return {
        "sweeps": len(result.objective_history),
        "n_support": int(result.n_support),
        "nonconverged": 0 if result.converged else 1,
    }


def _points(args, kwargs, result) -> dict:
    return {"points": _rows(args[1])}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(result)}


def _report_bytes(args, kwargs, result) -> dict:
    report = args[0]
    out_dir = Path(result).parent
    total = os.path.getsize(result)
    for gamma in report.models:
        total += os.path.getsize(out_dir / f"model_gamma_{gamma!r}.json")
    return {"bytes": total}


#: (module, function, counter) for every public function that does work.
FUNCTIONS = (
    ("data", "load_csv", _result_rows),
    ("data", "select_features", _result_rows),
    ("data", "pca_fit", _first_arg_rows),
    ("data", "pca_transform", _result_rows),
    ("data", "standardize_fit", _first_arg_rows),
    ("data", "standardize_apply", _result_rows),
    ("data", "split", _first_arg_rows),
    ("data", "make_moons", _result_rows),
    ("data", "make_circles", _result_rows),
    ("data", "make_spirals", _result_rows),
    ("data", "save_csv", _first_arg_rows),
    ("kernel", "gram", _gram_entries),
    ("kernel", "gram_cross", _cross_entries),
    ("kernel", "kernel_vec", None),
    ("kernel", "kernel_scalar", None),
    ("fock", "ladder_ops", None),
    ("fock", "matrix_exp", None),
    ("fock", "displacement", None),
    ("fock", "squeeze", None),
    ("fock", "circuit_kernel", None),
    ("svm", "train_binary", _train_binary),
    ("svm", "train_multiclass", None),
    ("svm", "decision_values", _points),
    ("svm", "predict_labels", _points),
    ("svm", "predict_multiclass_batch", _points),
    ("svm", "accuracy", _points),
    ("svm", "save_model", None),
    ("svm", "load_model", None),
    ("experiment", "build_dataset", None),
    ("experiment", "run_experiment", None),
    ("experiment", "sweep", None),
    ("experiment", "write_report", _report_bytes),
    ("experiment", "boundary_grid", _file_bytes),
    ("experiment", "apply_transform_chain", None),
    ("experiment", "simulate_overlap", None),
    ("cli", "main", None),
)

#: SplitMix64 methods: (method, counter).
RNG_METHODS = (
    ("random", _one_item),
    ("uniforms", _items(1)),
    ("normal", _one_item),
    ("normals", _items(1)),
    ("randbelow", _one_item),
    ("shuffle", _shuffle_items),
    ("permutation", _items(1)),
)


class Tracer:
    """Records spans while installed; ``reset`` starts a new pass."""

    def __init__(self, package_modules: dict):
        """``package_modules`` maps short names (``"svm"``) to the imported
        dsvkernel modules; every one of them is scanned for bound names."""
        self.modules = package_modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._last_error = None

    def _wrap(self, name: str, layer: str, fn, counter):
        tracer = self
        is_rng = layer == "rng"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if is_rng and stack and tracer.spans[stack[-1]].layer == "rng":
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = Span(name, layer, time.perf_counter(), parent)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                # counted only where raised, not in every span it unwinds
                span.failed = err is not tracer._last_error
                tracer._last_error = err
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        rng_class = self.modules["rng"].SplitMix64
        for method, counter in RNG_METHODS:
            original = rng_class.__dict__[method]
            self._saved.append((rng_class, method, original))
            setattr(rng_class, method, self._wrap(f"rng.{method}", "rng", original, counter))
        for module_name, function, counter in FUNCTIONS:
            original = getattr(self.modules[module_name], function)
            traced = self._wrap(f"{module_name}.{function}", module_name, original, counter)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def metrics(self) -> dict:
        """Per-layer numbers of the spans recorded since the last reset."""
        return layer_metrics(self.spans)


def layer_metrics(spans: list[Span]) -> dict:
    """Busy (self) seconds and work counts per layer and per function.

    ``<layer>.busy_s`` sums the self time of every span of the layer, so the
    seven layer figures partition the traced time.  ``<layer>.<fn>.busy_s``
    is the self time of that function alone.
    """
    busy = {layer: 0.0 for layer in LAYERS}
    fn_busy: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    totals = {"rng.items": 0, "data.rows": 0, "kernel.gram.entries": 0,
              "kernel.gram_cross.entries": 0, "svm.sweeps": 0, "svm.n_support": 0,
              "svm.nonconverged": 0, "svm.predict.points": 0,
              "experiment.bytes_written": 0}
    failed = {layer: 0 for layer in LAYERS}
    circuit_ms = []
    for span in spans:
        busy[span.layer] += span.self_s
        fn_busy[span.name] = fn_busy.get(span.name, 0.0) + span.self_s
        fn_calls[span.name] = fn_calls.get(span.name, 0) + 1
        failed[span.layer] += span.failed
        if span.name == "fock.circuit_kernel":
            circuit_ms.append(span.duration * 1e3)
        counts = span.counts
        if counts is None:  # no counter, or the call raised
            continue
        if span.layer == "rng":
            totals["rng.items"] += counts["items"]
        elif span.layer == "data":
            totals["data.rows"] += counts["rows"]
        if span.name == "kernel.gram":
            totals["kernel.gram.entries"] += counts["entries"]
        elif span.name == "kernel.gram_cross":
            totals["kernel.gram_cross.entries"] += counts["entries"]
        elif span.name == "svm.train_binary":
            totals["svm.sweeps"] += counts["sweeps"]
            totals["svm.n_support"] += counts["n_support"]
            totals["svm.nonconverged"] += counts["nonconverged"]
        elif span.name in PREDICTION_SPANS:
            enclosed = span.parent >= 0 and spans[span.parent].name in PREDICTION_SPANS
            if not enclosed:
                totals["svm.predict.points"] += counts["points"]
        elif span.name in ("experiment.write_report", "experiment.boundary_grid"):
            totals["experiment.bytes_written"] += counts["bytes"]

    def pct(q: int) -> float:
        if not circuit_ms:
            return 0.0
        if len(circuit_ms) == 1:
            return circuit_ms[0]
        return statistics.quantiles(circuit_ms, n=100, method="inclusive")[q - 1]

    out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    out.update({
        "rng.calls": sum(n for name, n in fn_calls.items() if name.startswith("rng.")),
        "kernel.gram.busy_s": fn_busy.get("kernel.gram", 0.0),
        "kernel.gram_cross.busy_s": fn_busy.get("kernel.gram_cross", 0.0),
        "fock.circuit_kernel.busy_s": fn_busy.get("fock.circuit_kernel", 0.0),
        "fock.circuit_kernel.calls": fn_calls.get("fock.circuit_kernel", 0),
        "fock.circuit_kernel.p50_ms": pct(50),
        "fock.circuit_kernel.p97_ms": pct(97),
        "fock.matrix_exp.busy_s": fn_busy.get("fock.matrix_exp", 0.0),
        "fock.matrix_exp.calls": fn_calls.get("fock.matrix_exp", 0),
        "fock.ladder_ops.busy_s": fn_busy.get("fock.ladder_ops", 0.0),
        "svm.train_binary.busy_s": fn_busy.get("svm.train_binary", 0.0),
        "svm.train_binary.calls": fn_calls.get("svm.train_binary", 0),
        "svm.decision_values.busy_s": fn_busy.get("svm.decision_values", 0.0),
        "svm.load_model.busy_s": fn_busy.get("svm.load_model", 0.0),
        "experiment.boundary_grid.busy_s": fn_busy.get("experiment.boundary_grid", 0.0),
    })
    out.update(totals)
    out["failed_in_layer"] = failed
    return out


def spans_to_json(spans: list[Span]) -> dict:
    """Columnar form of one pass's spans, for writing out after the run."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    return {
        "names": names,
        "name": [index[s.name] for s in spans],
        "start_s": [round(s.start - t0, 9) for s in spans],
        "end_s": [round(s.end - t0, 9) for s in spans],
        "parent": [s.parent for s in spans],
        "failed": [i for i, s in enumerate(spans) if s.failed],
    }
