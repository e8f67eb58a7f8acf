"""The benchmark's four workloads.

A workload sets up once, then runs passes.  ``inputs(seed, k)`` builds the
input of pass k from the workload seed alone; ``run`` is the timed body and
calls only public functions of the program, looked up on their modules at
call time so the tracer's wrappers take effect; ``check`` (untimed) judges
the pass's outputs and counts failed operations.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
IRIS_CSV = DATA / "iris.csv"
DIABETES_CSV = DATA / "diabetes.csv"
MODULES = ("rng", "data", "kernel", "fock", "svm", "experiment", "cli")

#: The gamma grid of scripts/run_benchmarks.py.
GAMMA_GRID = (0.06, 0.1, 0.25, 0.5, 0.8, 1.0, 1.5, 2.5, 5.0, 10.0)

#: The quoted working widths of scripts/run_synthetic.py.
SYNTHETIC = (("moons", 1.5), ("circles", 0.8), ("spirals", 0.06))

#: The validated simulator box: |x| <= 1, r <= 0.8, cutoff 64.
BOX_POINTS = 7
BOX_R = (0.0, 0.4, 0.8)
BOX_THETA = (0.0, math.pi / 4.0, math.pi / 2.0)
BOX_CUTOFF = 64

BOUNDARY_RESOLUTION = 300
BOUNDARY_GAMMA = "1.5"
#: Seeds boundary-export trains its models at, so that a run averages over
#: models whose support-vector counts differ.
MODEL_SEEDS = 4
#: Padding per side that boundary grids document.
BOUNDARY_PADDING = 0.10


def import_program() -> dict:
    """Import dsvkernel from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "dsvkernel" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dsvkernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"dsvkernel.{name}") for name in MODULES}
    location = Path(modules["cli"].__file__).resolve().parent
    if location != (SRC / "dsvkernel").resolve():
        raise ImportError(f"dsvkernel was imported from {location}, not {SRC}")
    return modules


@dataclass
class Verdict:
    """Outcome of checking one pass."""

    ops: int
    failed: int
    body: bytes  # the deterministic output, compared between passes over one input
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, program: dict, workdir: Path):
        self.p = program
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        """Work done once before the first timed pass."""

    def inputs(self, seed: int, k: int):
        raise NotImplementedError

    def ops(self, inp) -> int:
        """Operations a pass over ``inp`` attempts."""
        raise NotImplementedError

    def run(self, inp, outdir: Path):
        raise NotImplementedError

    def check(self, inp, outdir: Path, out) -> Verdict:
        raise NotImplementedError

    def facts(self) -> dict:
        """Facts about the inputs set-up made, kept in the run's record."""
        return {}


def _row_gammas(spec) -> list[float]:
    """Report rows: the spec's gammas plus the gamma = 1 baseline."""
    return list(spec.gammas) + ([] if 1.0 in spec.gammas else [1.0])


class _Sweeps(Workload):
    """Experiments whose reports and model files are checked from outside.

    An input is a list of (directory name, harness function, spec); one
    operation is one gamma row of a report.
    """

    def ops(self, inp) -> int:
        return sum(len(_row_gammas(spec)) for _, _, spec in inp)

    def run(self, inp, outdir: Path):
        exp = self.p["experiment"]
        for name, function, spec in inp:
            if function == "sweep":
                exp.sweep(spec, spec.gammas, out_dir=outdir / name)
            else:
                exp.run_experiment(spec, out_dir=outdir / name)

    def check(self, inp, outdir: Path, out) -> Verdict:
        total = Verdict(0, 0, b"")
        for name, _, spec in inp:
            verdict = self._check_report(spec, outdir / name)
            total.ops += verdict.ops
            total.failed += verdict.failed
            total.body += name.encode() + b"\n" + verdict.body
            total.problems += [f"{name}: {p}" for p in verdict.problems]
        return total

    def _training_rows(self, spec):
        """The benchmark's own re-split of the rows the harness trains on,
        rebuilt by ``checks`` from the spec.  Generated datasets are the one
        input taken from the program (``build_dataset``, i.e. ``data.make_*``)."""
        dataset = spec.dataset
        if isinstance(dataset, self.p["experiment"].FileSpec):
            features, labels = checks.file_rows(dataset.path, dataset.label_column,
                                                dataset.feature_columns, dataset.pca_components)
        else:
            generated = self.p["experiment"].build_dataset(dataset, spec.seed)
            features, labels = np.asarray(generated.features), np.asarray(generated.labels)
        train = checks.train_indices(labels, spec.train_fraction, spec.seed, spec.stratified)
        features, labels = features[train], labels[train]
        if spec.standardize:
            features = checks.standardize(features)
        return features, labels

    def _check_report(self, spec, report_dir: Path) -> Verdict:
        gammas = _row_gammas(spec)
        try:
            doc = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            return Verdict(len(gammas), len(gammas), b"", [f"report unreadable: {err}"])
        doc.pop("timings", None)
        body = json.dumps(doc, sort_keys=True).encode()
        rows = {row["gamma"]: row for row in doc.get("rows", [])}
        features, labels = self._training_rows(spec)
        distances = {}
        verdict = Verdict(len(gammas), 0, body)
        for gamma in gammas:
            problems = self._row_problems(spec, report_dir, rows.get(gamma), gamma,
                                          features, labels, distances)
            verdict.failed += bool(problems)
            verdict.problems += [f"gamma {gamma!r}: {p}" for p in problems]
        return verdict

    def _row_problems(self, spec, report_dir, row, gamma, features, labels, distances):
        if row is None:
            return ["row missing from the report"]
        try:
            path = report_dir / f"model_gamma_{gamma!r}.json"
            model = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            return [f"model unreadable: {err}"]
        problems = []
        if float(model["kernel"]["gamma"]) != gamma:
            problems.append(f"model gamma {model['kernel']['gamma']!r}")
        n_support = 0
        for (neg, pos), machine in checks.machines_of(model):
            mask = (labels == neg) | (labels == pos)
            rows = features[mask]
            if (neg, pos) not in distances:
                distances[(neg, pos)] = checks.sq_distances(rows, rows)
            y = np.where(labels[mask] == pos, 1.0, -1.0)
            problems += [f"machine {(neg, pos)}: {p}" for p in checks.machine_problems(
                rows, y, machine, gamma, spec.c, spec.tol, distances[(neg, pos)])]
            n_support += len(machine["support_indices"])
        if row["converged"] is not True:
            problems.append("row not converged")
        if row["n_sv"] != n_support:
            problems.append(f"n_sv {row['n_sv']} but the machines hold {n_support}")
        return problems


class SweepDiabetes(_Sweeps):
    name = "sweep-diabetes"

    def inputs(self, seed: int, k: int):
        exp = self.p["experiment"]
        spec = exp.ExperimentSpec(
            dataset=exp.FileSpec(path=str(DIABETES_CSV), pca_components=2),
            gammas=GAMMA_GRID, standardize=True, seed=seed + k,
        )
        return [("diabetes", "sweep", spec)]


class SweepSmall(_Sweeps):
    name = "sweep-small"

    def inputs(self, seed: int, k: int):
        exp = self.p["experiment"]
        entries = [
            (kind, "run_experiment",
             exp.ExperimentSpec(dataset=exp.GeneratorSpec(kind, n=300), gammas=(gamma,),
                                seed=seed + k))
            for kind, gamma in SYNTHETIC
        ]
        iris = exp.FileSpec(path=str(IRIS_CSV), label_column="species",
                            feature_columns=("sepal_width", "petal_width"))
        entries.append(("iris", "sweep", exp.ExperimentSpec(
            dataset=iris, gammas=GAMMA_GRID, standardize=True, seed=seed + k)))
        return entries


class SimulateBox(Workload):
    name = "simulate-box"

    def inputs(self, seed: int, k: int):
        """One point in each of 7 equal cells of [-1, 1), for xp and xq alike,
        crossed with every r and theta: 441 pairs."""
        rng = np.random.default_rng([seed & (2**64 - 1), k])
        edges = np.linspace(-1.0, 1.0, BOX_POINTS + 1)
        points = edges[:-1] + rng.random(BOX_POINTS) * (edges[1] - edges[0])
        return [(float(xp), float(xq), r, theta)
                for r in BOX_R for theta in BOX_THETA for xp in points for xq in points]

    def ops(self, inp) -> int:
        return len(inp)

    def run(self, inp, outdir: Path):
        fock = self.p["fock"]
        out = []
        for xp, xq, r, theta in inp:
            try:
                out.append(fock.circuit_kernel(xp, xq, fock.SqueezeParams(r, theta), BOX_CUTOFF))
            except Exception as err:  # a failed operation, reported by check
                out.append(f"{type(err).__name__}: {err}")
        return out

    def check(self, inp, outdir: Path, out) -> Verdict:
        problems = checks.simulator_failures(inp, out)
        return Verdict(self.ops(inp), len(problems), repr(out).encode(), problems)


class BoundaryExport(Workload):
    name = "boundary-export"

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.p["cli"].main(argv)
        return code, stdout.getvalue() + stderr.getvalue()

    def setup(self, seed: int) -> None:
        """Train, through the CLI, a one-vs-one iris model and a binary moons
        model at each of the seeds seed .. seed + MODEL_SEEDS - 1."""
        self.models = []
        self.n_support = {}
        for model_seed in range(seed, seed + MODEL_SEEDS):
            models = self.workdir / "models" / str(model_seed)
            models.mkdir(parents=True, exist_ok=True)
            moons_csv = models / "moons.csv"
            commands = [
                ["train", "--data", str(IRIS_CSV), "--label-column", "species",
                 "--features", "sepal_width,petal_width", "--standardize",
                 "--gamma", BOUNDARY_GAMMA, "--seed", str(model_seed),
                 "--out", str(models / "iris.json")],
                ["data", "generate", "--dataset", "moons", "--n", "300",
                 "--seed", str(model_seed), "--out", str(moons_csv)],
                ["train", "--data", str(moons_csv), "--gamma", BOUNDARY_GAMMA,
                 "--seed", str(model_seed), "--out", str(models / "moons.json")],
            ]
            for argv in commands:
                code, text = self._cli(argv)
                if code != 0:
                    raise RuntimeError(f"set-up command {argv} exited {code}: {text}")
            pair = [("iris", models / "iris.json", IRIS_CSV),
                    ("moons", models / "moons.json", moons_csv)]
            self.models.append(pair)
            for name, path, _ in pair:
                model = json.loads(path.read_text(encoding="utf-8"))
                self.n_support[f"{name}@{model_seed}"] = sum(
                    len(m["support_indices"]) for _, m in checks.machines_of(model))

    def facts(self) -> dict:
        return {"n_support": self.n_support}

    def inputs(self, seed: int, k: int):
        """Pass k exports the models trained at seed + k mod MODEL_SEEDS."""
        return self.models[k % MODEL_SEEDS]

    def ops(self, inp) -> int:
        return BOUNDARY_RESOLUTION ** 2 * len(inp)

    def run(self, inp, outdir: Path):
        out = {}
        for name, model, data in inp:
            out[name] = (
                self._cli(["boundary", "--model", str(model), "--data", str(data),
                           "--resolution", str(BOUNDARY_RESOLUTION),
                           "--out", str(outdir / f"{name}_grid.csv")]),
                self._cli(["evaluate", "--model", str(model), "--data", str(data)]),
            )
        return out

    def check(self, inp, outdir: Path, out) -> Verdict:
        verdict = Verdict(self.ops(inp), 0, b"")
        for name, model_path, data_path in inp:
            (code, text), (eval_code, eval_text) = out[name]
            grid = outdir / f"{name}_grid.csv"
            csv_text = grid.read_text(encoding="utf-8") if grid.exists() else ""
            verdict.body += f"{name}\n{text}{eval_text}{csv_text}".encode()
            failed, problems = self._model_failures(
                model_path, data_path, code, csv_text, eval_code, eval_text)
            verdict.failed += failed
            verdict.problems += [f"{name}: {p}" for p in problems]
        return verdict

    def _model_failures(self, model_path, data_path, code, csv_text, eval_code, eval_text):
        points = BOUNDARY_RESOLUTION ** 2
        if code != 0:
            return points, [f"boundary exited {code}"]
        model = json.loads(model_path.read_text(encoding="utf-8"))
        names, raw, labels = checks.read_table(data_path, model["label_column"])
        features = checks.apply_chain(names, raw, model["preprocessing"])
        lattice = checks.boundary_lattice(features, BOUNDARY_RESOLUTION, BOUNDARY_PADDING)
        failed = checks.boundary_failures(model, lattice, csv_text)
        problems = [f"{failed} lattice points disagree with the model"] if failed else []
        expected = checks.correct_count(model, features, labels, model["label_names"]) / len(labels)
        try:
            reported = json.loads(eval_text)["accuracy"] if eval_code == 0 else None
        except (ValueError, KeyError):
            reported = None
        if reported != expected:
            # the model's export is not trusted when its evaluation is wrong
            failed = points
            problems.append(f"evaluate reported {reported!r}, expected {expected!r}")
        return failed, problems


WORKLOADS = {w.name: w for w in (SweepDiabetes, SweepSmall, SimulateBox, BoundaryExport)}
