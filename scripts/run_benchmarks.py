#!/usr/bin/env python3
"""Gamma sweeps on the two benchmark tables: iris restricted to sepal width
and petal width, and the diabetes table reduced to two principal components.

Both pipelines standardize on the training split before kernel evaluation.
"""

import argparse
from pathlib import Path

from dsvkernel import experiment as exp


def run(name: str, dataset: exp.FileSpec, seed: int, out: str | None) -> None:
    spec = exp.ExperimentSpec(dataset=dataset, gammas=exp.DEFAULT_GAMMA_GRID,
                              standardize=True, seed=seed)
    out_dir = Path(out) / f"{name}_seed{seed}" if out else None
    report = exp.sweep(spec, spec.gammas, out_dir=out_dir)
    best = report.row_for(report.selected_gamma)
    base = report.baseline_row()
    print(
        f"{name:<10} seed={seed} gamma*={report.selected_gamma:<5} "
        f"test acc {best.test_acc:.4f} (baseline {base.test_acc:.4f}, "
        f"delta {best.test_acc - base.test_acc:+.4f})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="seeds 0..N-1")
    parser.add_argument("--iris", default="data/iris.csv")
    parser.add_argument("--diabetes", default="data/diabetes.csv")
    parser.add_argument("--out", default=None, help="directory for report files")
    args = parser.parse_args()

    for seed in range(args.seeds):
        run(
            "iris",
            exp.FileSpec(
                path=args.iris,
                label_column="species",
                feature_columns=("sepal_width", "petal_width"),
            ),
            seed,
            args.out,
        )
    if Path(args.diabetes).exists():
        for seed in range(args.seeds):
            run("diabetes", exp.FileSpec(path=args.diabetes, pca_components=2), seed, args.out)
    else:
        print(f"diabetes table not found at {args.diabetes}; skipping")


if __name__ == "__main__":
    main()
