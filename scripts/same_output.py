#!/usr/bin/env python3
"""Check that two checkouts give the same output on a fixed list of CLI commands.

    python3 scripts/same_output.py --parent PARENT --change CHANGE

Each checkout runs every command of :func:`commands` in turn, in a fresh
directory of its own that starts with a copy of its ``data/iris.csv`` and
``data/diabetes.csv``, an ``iris-nan.csv`` and an ``iris-inf.csv`` with one
``nan`` or ``inf`` feature cell and a ``nan-bias.json`` model whose bias is
``NaN``, as ``python -m dsvkernel.cli`` with ``PYTHONPATH=<checkout>/src``.  The
parent runs with ``OPENBLAS_NUM_THREADS=1`` and the change with ``2``, so
the comparison also shows that no output depends on the BLAS thread count;
``--parent . --change .`` compares a checkout with itself at one and two
threads.  The script then compares each command's exit code, stdout and
stderr, and every file the commands wrote; ``report.json`` files are
compared without their ``timings``, which hold wall-clock times.  It prints
each difference and exits 1 if there is one, 0 if there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
#: ``OPENBLAS_NUM_THREADS`` of each side.
BLAS_THREADS = {"parent": "1", "change": "2"}
DATA_FILES = ("iris.csv", "diabetes.csv")
#: A two-class model for ``moons.csv`` whose bias JSON writes as ``NaN``.
NAN_BIAS_MODEL = {
    "version": 2, "type": "one_vs_one", "kernel": {"gamma": 1.5}, "classes": [0, 1],
    "machines": [{"pair": [0, 1], "support_indices": [0, 1], "alpha_y": [-1.0, 1.0],
                  "support_vectors": [[0.0, 0.5], [1.0, -0.5]], "bias": float("nan"),
                  "converged": True}],
}
SEEDS = (1, 2, 3, 4)
RESOLUTIONS = (2, 15, 41, 77, 150, 299, 300)
TRAIN_FLAGS = {
    "iris": ["--data", "iris.csv", "--label-column", "species",
             "--features", "sepal_width,petal_width", "--standardize"],
    "moons": ["--data", "moons.csv"],
    "diabetes": ["--data", "diabetes.csv", "--pca", "2", "--standardize"],
}


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in the order they run; later commands read the
    files earlier ones write."""
    cmds = [
        ("simulate-overlap", ["simulate", "overlap", "--xp", "0.3", "--xq", "-0.2",
                              "--r", "0.5", "--theta", "0.1"]),
        ("simulate-overlap-outside-box", ["simulate", "overlap", "--xp", "9", "--xq", "-9",
                                          "--r", "1.5"]),
        # the widening form (gamma 0.25), gamma 0.1 at cutoff 128, and r = -0
        ("simulate-overlap-widening", ["simulate", "overlap", "--xp", "0.3", "--xq", "-0.2",
                                       "--r", "0.6931471805599453",
                                       "--theta", "1.5707963267948966"]),
        ("simulate-overlap-cutoff-128", ["simulate", "overlap", "--xp", "0.3", "--xq", "-0.2",
                                         "--r", "1.1512925464970227",
                                         "--theta", "1.5707963267948966", "--cutoff", "128"]),
        ("simulate-overlap-negative-zero", ["simulate", "overlap", "--xp", "0.3", "--xq", "-0.2",
                                            "--r=-0"]),
        ("data-generate-moons", ["data", "generate", "--dataset", "moons", "--n", "300",
                                 "--seed", "1", "--out", "moons.csv"]),
        ("data-generate-circles", ["data", "generate", "--dataset", "circles", "--n", "200",
                                   "--radius-ratio", "0.3", "--noise-sigma", "0.05",
                                   "--seed", "2", "--out", "circles.csv"]),
        ("data-generate-spirals", ["data", "generate", "--dataset", "spirals", "--n", "200",
                                   "--turns", "1.5", "--seed", "3", "--out", "spirals.csv"]),
    ]
    # evaluate and boundary read the label column from the model file
    for name, flags in TRAIN_FLAGS.items():
        csv = flags[1]
        for seed in SEEDS:
            model = f"{name}-{seed}.json"
            cmds.append((f"train-{name}-{seed}", ["train", *flags, "--gamma", "1.5",
                                                  "--seed", str(seed), "--out", model]))
            cmds.append((f"evaluate-{name}-{seed}", ["evaluate", "--model", model,
                                                     "--data", csv]))
            cmds += [(f"boundary-{name}-{seed}-{r}",
                      ["boundary", "--model", model, "--data", csv,
                       "--resolution", str(r), "--out", f"{name}-{seed}-{r}.csv"])
                     for r in RESOLUTIONS]
    diabetes = TRAIN_FLAGS["diabetes"]
    cmds += [
        ("train-diabetes-squeezed", ["train", *diabetes, "--r", "0.3", "--theta", "0.2",
                                     "--out", "diabetes-squeezed.json"]),
        ("train-diabetes-one-pass", ["train", *diabetes, "--gamma", "1", "--max-passes", "1",
                                     "--out", "diabetes-one-pass.json"]),
        ("train-moons-tol-1", ["train", "--data", "moons.csv", "--gamma", "1", "--tol", "1",
                               "--out", "moons-tol-1.json"]),
        ("evaluate-dimension-mismatch", ["evaluate", "--model", "moons-1.json",
                                         "--data", "diabetes.csv"]),
        ("boundary-non-finite", ["boundary", "--model", "iris-1.json", "--data",
                                 "iris-nan.csv", "--out", "iris-nan-grid.csv"]),
        ("train-pca-non-finite", ["train", "--data", "iris-nan.csv", "--label-column",
                                  "species", "--pca", "2", "--gamma", "1.5",
                                  "--out", "iris-nan-pca.json"]),
        ("train-standardize-non-finite", ["train", "--data", "iris-inf.csv",
                                          "--label-column", "species", "--standardize",
                                          "--gamma", "1.5", "--out", "iris-inf.json"]),
        ("evaluate-nan-bias", ["evaluate", "--model", "nan-bias.json", "--data", "moons.csv"]),
        ("boundary-nan-bias", ["boundary", "--model", "nan-bias.json", "--data", "moons.csv",
                               "--resolution", "15", "--out", "nan-bias-grid.csv"]),
        ("gram-iris-validate", ["kernel", "gram", "--data", "iris.csv", "--label-column",
                                "species", "--gamma", "1.5", "--validate",
                                "--out", "gram-iris.csv"]),
        ("gram-diabetes", ["kernel", "gram", "--data", "diabetes.csv", "--gamma", "0.5",
                           "--out", "gram-diabetes.csv"]),
        ("gram-moons-validate", ["kernel", "gram", "--data", "moons.csv", "--gamma", "2.5",
                                 "--validate", "--out", "gram-moons.csv"]),
        ("gram-iris-features-pca", ["kernel", "gram", "--data", "iris.csv", "--label-column",
                                    "species", "--features", "sepal_width,petal_length",
                                    "--pca", "1", "--gamma", "1", "--out", "gram-iris-pca.csv"]),
        ("sweep-diabetes", ["sweep", *diabetes, "--seed", "7", "--out", "sweep-diabetes"]),
        ("sweep-spirals", ["sweep", "--dataset", "spirals", "--n", "200", "--seed", "1",
                           "--out", "sweep-spirals"]),
        ("sweep-circles", ["sweep", "--dataset", "circles", "--n", "120", "--radius-ratio",
                           "0.4", "--seed", "2", "--out", "sweep-circles"]),
        ("sweep-iris", ["sweep", *TRAIN_FLAGS["iris"], "--seed", "3", "--out", "sweep-iris"]),
        ("kernel-eval-gamma", ["kernel", "eval", "--xp", "0.3,-1.2", "--xq", "1.1,0.4",
                               "--gamma", "1.5"]),
        ("kernel-eval-squeeze", ["kernel", "eval", "--xp", "0.3,-1.2", "--xq", "1.1,0.4",
                                 "--r", "0.3", "--theta", "0.2"]),
    ]
    return cmds


def _non_finite_inputs(work: Path) -> None:
    """``iris-nan.csv`` and ``iris-inf.csv``: ``iris.csv`` with the second
    cell of its first row, a sepal width, set to ``nan`` or ``inf``; and
    ``nan-bias.json``."""
    header, first, *rest = (work / "iris.csv").read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    for value in ("nan", "inf"):
        cells[1] = value
        text = "\n".join([header, ",".join(cells), *rest]) + "\n"
        (work / f"iris-{value}.csv").write_text(text, encoding="utf-8")
    (work / "nan-bias.json").write_text(json.dumps(NAN_BIAS_MODEL), encoding="utf-8")


def run_side(checkout: Path, work: Path, cmds, blas_threads: str) -> dict:
    """Run ``cmds`` for one checkout in the empty directory ``work`` with
    ``OPENBLAS_NUM_THREADS=blas_threads``; returns each command's (exit code,
    stdout, stderr) by name."""
    for name in DATA_FILES:
        shutil.copyfile(checkout / "data" / name, work / name)
    _non_finite_inputs(work)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": str((checkout / "src").resolve())}
    results = {}
    for name, argv in cmds:
        done = subprocess.run([sys.executable, "-m", "dsvkernel.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True, check=False)
        results[name] = (done.returncode, done.stdout, done.stderr)
    return results


def _file_body(path: Path):
    if path.name == "report.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("timings", None)
        return doc
    return path.read_bytes()


def _first_difference(parent, change) -> str:
    """The first differing line of two outputs, or the two exit codes."""
    if isinstance(parent, int):
        return f"{parent} -> {change}"
    for k, (p, c) in enumerate(zip(parent.splitlines() + [""], change.splitlines() + [""]), 1):
        if p != c:
            return f"line {k}: {p!r} -> {c!r}"
    return "in line endings only"


def differences(results: dict, works: dict) -> list[str]:
    """One line per differing command stream or file, parent against change."""
    found = []
    for name, parent in results["parent"].items():
        change = results["change"][name]
        for field, p, c in zip(("exit code", "stdout", "stderr"), parent, change):
            if p != c:
                found.append(f"{name}: {field} differs, {_first_difference(p, c)}")
    files = {side: {p.relative_to(works[side]) for p in works[side].rglob("*") if p.is_file()}
             for side in SIDES}
    for rel in sorted(files["parent"] | files["change"]):
        present = [side for side in SIDES if rel in files[side]]
        if len(present) == 1:
            found.append(f"{rel}: only in the {present[0]}")
        elif _file_body(works["parent"] / rel) != _file_body(works["change"] / rel):
            found.append(f"{rel}: contents differ")
    return found


def compare(parent: Path, change: Path, cmds=None) -> list[str]:
    """Run ``cmds`` (default :func:`commands`) in both checkouts and list the
    differences."""
    cmds = commands() if cmds is None else cmds
    with tempfile.TemporaryDirectory(prefix="same_output_") as tmp:
        works = {side: Path(tmp) / side for side in SIDES}
        results = {}
        for side, checkout in zip(SIDES, (parent, change)):
            works[side].mkdir()
            results[side] = run_side(checkout, works[side], cmds, BLAS_THREADS[side])
        return differences(results, works)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    args = parser.parse_args(argv)
    found = compare(args.parent, args.change)
    for line in found:
        print(line)
    print(f"{len(commands())} commands, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
