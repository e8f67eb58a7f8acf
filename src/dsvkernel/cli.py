"""Command-line interface.

Subcommands: ``data generate``, ``kernel eval``, ``kernel gram``,
``simulate overlap``, ``train``, ``evaluate``, ``sweep``, ``boundary``.
Results go to stdout as JSON or to files named by ``--out``.  ``--seed``
drives data generation and train/test splits only; training is
deterministic given the training rows.

Exit codes: 0 success, 2 invalid input, 3 numerical non-convergence,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment as exp
from .data import (
    SplitSpec,
    load_csv,
    pca_fit,
    pca_transform,
    recode_labels,
    save_csv,
    select_features,
    split,
    standardize_apply,
    standardize_fit,
)
from .errors import DsvKernelError, NonConvergenceError
from .fock import DEFAULT_CUTOFF, SqueezeParams
from .kernel import KernelConfig, gram, kernel_vec
from .svm import SvmConfig, accuracy, load_model, save_model, train_multiclass

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

DEFAULT_SWEEP_GRID = (0.06, 0.1, 0.25, 0.5, 0.8, 1.0, 1.5, 2.5, 5.0, 10.0)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise DsvKernelError(f"cannot parse vector from {text!r}") from None


def _kernel_config(args) -> KernelConfig:
    if args.gamma is not None and args.r is not None:
        raise DsvKernelError("give either --gamma or --r/--theta, not both")
    if args.gamma is not None:
        return KernelConfig.direct(args.gamma)
    if args.r is not None:
        return KernelConfig.from_squeeze(SqueezeParams(args.r, args.theta))
    raise DsvKernelError("a kernel needs --gamma or --r (with optional --theta)")


def _add_kernel_flags(parser) -> None:
    parser.add_argument("--gamma", type=float, default=None, help="kernel width")
    parser.add_argument("--r", type=float, default=None, help="squeezing magnitude")
    parser.add_argument("--theta", type=float, default=0.0, help="squeezing phase (rad)")


def _add_file_dataset_flags(parser) -> None:
    parser.add_argument("--data", required=True, help="input CSV")
    parser.add_argument("--label-column", default="label")
    parser.add_argument("--features", default=None,
                        help="comma-separated feature columns (default: all)")
    parser.add_argument("--pca", type=int, default=None, metavar="K",
                        help="reduce to K principal components before splitting")


def _cmd_data_generate(args) -> int:
    spec = exp.GeneratorSpec(
        kind=args.dataset,
        n=args.n,
        noise_sigma=args.noise_sigma,
        radius_ratio=args.radius_ratio,
        turns=args.turns,
    )
    dataset = exp.build_dataset(spec, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    _emit({"out": str(out), "n_samples": dataset.n_samples,
           "provenance": dataset.provenance})
    return EXIT_OK


def _cmd_kernel_eval(args) -> int:
    config = _kernel_config(args)
    xp = _parse_vector(args.xp)
    xq = _parse_vector(args.xq)
    value = kernel_vec(xp, xq, config.gamma)
    _emit({"xp": list(xp), "xq": list(xq), "gamma": config.gamma, "value": value})
    return EXIT_OK


def _cmd_kernel_gram(args) -> int:
    config = _kernel_config(args)
    dataset = load_csv(args.data, args.label_column)
    gram_matrix = gram(dataset.features, config.gamma)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    gram_matrix.write_csv(out)
    payload = {
        "out": str(out),
        "size": gram_matrix.size,
        "gamma": gram_matrix.gamma,
        "fingerprint": gram_matrix.data_fingerprint,
    }
    if args.validate:
        payload["min_eigenvalue"] = gram_matrix.min_eigenvalue()
    _emit(payload)
    return EXIT_OK


def _cmd_simulate_overlap(args) -> int:
    _emit(exp.simulate_overlap(args.xp, args.xq, args.r, args.theta, args.cutoff))
    return EXIT_OK


def _build_training_frames(args):
    """Load a CSV, apply CLI preprocessing, and split; returns the frames and
    the serialized transform chain needed to replay the preprocessing."""
    features = args.features.split(",") if args.features else None
    dataset = load_csv(args.data, args.label_column, features)
    chain: list[dict] = []
    if features:
        chain.append({"kind": "select", "names": features})
    if args.pca is not None:
        from .data import pca_fit, pca_transform

        scaler = standardize_fit(dataset)
        dataset = standardize_apply(scaler, dataset)
        chain.append({"kind": "standardize", "scaler": scaler.to_dict()})
        pca_model = pca_fit(dataset, args.pca)
        dataset = pca_transform(pca_model, dataset)
        chain.append({"kind": "pca", "model": pca_model.to_dict()})
    train_ds, test_ds = split(dataset, SplitSpec(args.train_fraction, args.seed, True))
    if args.standardize:
        scaler = standardize_fit(train_ds)
        train_ds = standardize_apply(scaler, train_ds)
        test_ds = standardize_apply(scaler, test_ds)
        chain.append({"kind": "standardize", "scaler": scaler.to_dict()})
    return dataset, train_ds, test_ds, chain


def _cmd_train(args) -> int:
    config = SvmConfig(c=args.c, tol=args.tol, max_passes=args.max_passes,
                       kernel=_kernel_config(args))
    dataset, train_ds, test_ds, chain = _build_training_frames(args)
    model = train_multiclass(train_ds, config)
    converged = all(m.converged for _, m in model.machines)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model, extra={
        "preprocessing": chain,
        "label_column": args.label_column,
        "label_names": list(dataset.label_names),
        "seed": args.seed,
    })
    _emit({
        "model": str(out),
        "train_acc": accuracy(model, train_ds),
        "test_acc": accuracy(model, test_ds),
        "n_sv": sum(m.n_support for _, m in model.machines),
        "converged": converged,
    })
    if not converged:
        raise NonConvergenceError("training did not reach its tolerance; model saved anyway")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model, payload = load_model(args.model)
    label_column = args.label_column or payload.get("label_column", "label")
    dataset = load_csv(args.data, label_column)
    dataset = exp.apply_transform_chain(dataset, payload.get("preprocessing", []))
    if payload.get("label_names") is not None:
        dataset = recode_labels(dataset, payload["label_names"])
    _emit({"accuracy": accuracy(model, dataset), "n_samples": dataset.n_samples})
    return EXIT_OK


def _dataset_spec_from_args(args) -> exp.GeneratorSpec | exp.FileSpec:
    if args.dataset is not None and args.data is not None:
        raise DsvKernelError("give either --dataset (generator) or --data (CSV), not both")
    if args.dataset is not None:
        return exp.GeneratorSpec(kind=args.dataset, n=args.n, noise_sigma=args.noise_sigma,
                                 radius_ratio=args.radius_ratio, turns=args.turns)
    if args.data is not None:
        return exp.FileSpec(
            path=args.data,
            label_column=args.label_column,
            feature_columns=tuple(args.features.split(",")) if args.features else None,
            pca_components=args.pca,
        )
    raise DsvKernelError("a dataset is required: --dataset or --data")


def _cmd_sweep(args) -> int:
    spec = exp.ExperimentSpec(
        dataset=_dataset_spec_from_args(args),
        gammas=tuple(args.gamma) if args.gamma else DEFAULT_SWEEP_GRID,
        c=args.c,
        tol=args.tol,
        max_passes=args.max_passes,
        train_fraction=args.train_fraction,
        standardize=args.standardize,
        seed=args.seed,
    )
    report = exp.sweep(spec, spec.gammas, out_dir=args.out)
    doc = report.to_json_dict()
    _emit({
        "out": str(Path(args.out) / "report.json"),
        "selected_gamma": report.selected_gamma,
        "rows": doc["rows"],
    })
    if not all(r.converged for r in report.rows):
        raise NonConvergenceError("at least one training run did not converge")
    return EXIT_OK


def _cmd_boundary(args) -> int:
    model, payload = load_model(args.model)
    label_column = args.label_column or payload.get("label_column", "label")
    dataset = load_csv(args.data, label_column)
    dataset = exp.apply_transform_chain(dataset, payload.get("preprocessing", []))
    bounds = (
        (float(dataset.features[:, 0].min()), float(dataset.features[:, 0].max())),
        (float(dataset.features[:, 1].min()), float(dataset.features[:, 1].max())),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    exp.boundary_grid(model, bounds, args.resolution, out)
    _emit({"out": str(out), "resolution": args.resolution, "bounds": bounds})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsvkernel",
        description="Tunable-width Gaussian kernels, their truncated-basis "
                    "simulator, and kernel-SVM experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("data", help="dataset utilities")
    data_sub = p_data.add_subparsers(dest="subcommand", required=True)
    p_gen = data_sub.add_parser("generate", help="write a synthetic dataset CSV")
    p_gen.add_argument("--dataset", required=True, choices=("moons", "circles", "spirals"))
    p_gen.add_argument("--n", type=int, default=300)
    p_gen.add_argument("--noise-sigma", type=float, default=None,
                       help="generator noise (default depends on the dataset)")
    p_gen.add_argument("--radius-ratio", type=float, default=0.5)
    p_gen.add_argument("--turns", type=float, default=2.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_data_generate)

    p_kernel = sub.add_parser("kernel", help="kernel evaluations")
    kernel_sub = p_kernel.add_subparsers(dest="subcommand", required=True)
    p_eval = kernel_sub.add_parser("eval", help="kernel value of one pair")
    p_eval.add_argument("--xp", required=True, help="comma-separated coordinates")
    p_eval.add_argument("--xq", required=True)
    _add_kernel_flags(p_eval)
    p_eval.set_defaults(func=_cmd_kernel_eval)
    p_gram = kernel_sub.add_parser("gram", help="write a Gram matrix CSV")
    _add_file_dataset_flags(p_gram)
    _add_kernel_flags(p_gram)
    p_gram.add_argument("--validate", action="store_true",
                        help="also report the minimum eigenvalue")
    p_gram.add_argument("--out", required=True)
    p_gram.set_defaults(func=_cmd_kernel_gram)

    p_sim = sub.add_parser("simulate", help="truncated-basis simulator")
    sim_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    p_overlap = sim_sub.add_parser(
        "overlap", help="detection probability vs closed form for one pair"
    )
    p_overlap.add_argument("--xp", type=float, required=True)
    p_overlap.add_argument("--xq", type=float, required=True)
    p_overlap.add_argument("--r", type=float, required=True)
    p_overlap.add_argument("--theta", type=float, default=0.0)
    p_overlap.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p_overlap.set_defaults(func=_cmd_simulate_overlap)

    p_train = sub.add_parser("train", help="train on the 70:30 split of a CSV")
    _add_file_dataset_flags(p_train)
    _add_kernel_flags(p_train)
    p_train.add_argument("--c", type=float, default=1.0)
    p_train.add_argument("--tol", type=float, default=1e-3)
    p_train.add_argument("--max-passes", type=int, default=200)
    p_train.add_argument("--train-fraction", type=float, default=0.7)
    p_train.add_argument("--standardize", action="store_true")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.set_defaults(func=_cmd_train)

    p_evaluate = sub.add_parser("evaluate", help="accuracy of a saved model on a CSV")
    p_evaluate.add_argument("--model", required=True)
    p_evaluate.add_argument("--data", required=True)
    p_evaluate.add_argument("--label-column", default=None,
                            help="defaults to the column stored in the model")
    p_evaluate.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="gamma grid search with reports")
    p_sweep.add_argument("--dataset", choices=("moons", "circles", "spirals"), default=None)
    p_sweep.add_argument("--n", type=int, default=300)
    p_sweep.add_argument("--noise-sigma", type=float, default=None)
    p_sweep.add_argument("--radius-ratio", type=float, default=0.5)
    p_sweep.add_argument("--turns", type=float, default=2.0)
    p_sweep.add_argument("--data", default=None, help="CSV instead of a generator")
    p_sweep.add_argument("--label-column", default="label")
    p_sweep.add_argument("--features", default=None)
    p_sweep.add_argument("--pca", type=int, default=None)
    p_sweep.add_argument("--gamma", type=float, action="append", default=None,
                         help="repeatable; defaults to a standard grid")
    p_sweep.add_argument("--c", type=float, default=1.0)
    p_sweep.add_argument("--tol", type=float, default=1e-3)
    p_sweep.add_argument("--max-passes", type=int, default=200)
    p_sweep.add_argument("--train-fraction", type=float, default=0.7)
    p_sweep.add_argument("--standardize", action="store_true")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_boundary = sub.add_parser("boundary", help="decision-value lattice CSV")
    p_boundary.add_argument("--model", required=True)
    p_boundary.add_argument("--data", required=True,
                            help="CSV giving the bounding box (model preprocessing applies)")
    p_boundary.add_argument("--label-column", default=None)
    p_boundary.add_argument("--resolution", type=int, default=exp.DEFAULT_BOUNDARY_RESOLUTION)
    p_boundary.add_argument("--out", required=True)
    p_boundary.set_defaults(func=_cmd_boundary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as err:
        print(f"dsvkernel: non-convergence: {err}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except DsvKernelError as err:
        print(f"dsvkernel: error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"dsvkernel: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
