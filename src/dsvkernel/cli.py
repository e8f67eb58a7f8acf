"""Command-line interface.

Subcommands: ``data generate``, ``kernel eval``, ``kernel gram``,
``simulate overlap``, ``train``, ``evaluate``, ``sweep``, ``boundary``.
Results go to stdout as JSON or to files named by ``--out``.  ``--seed``
drives data generation and train/test splits only; training is
deterministic given the training rows.

``train`` (a one-gamma spec) and ``sweep`` share the preprocessing of
:func:`dsvkernel.experiment.prepare`, so every model file either writes
carries the transform chain and label coding that ``evaluate`` and
``boundary`` replay on a raw CSV.

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
from .data import load_csv, recode_labels, save_csv
from .errors import MALFORMED_ERRORS, DsvKernelError, InvalidInputError, NonConvergenceError
from .fock import DEFAULT_CUTOFF, SqueezeParams
from .kernel import KernelConfig, gram, kernel_vec, sq_distances
from .svm import SvmConfig, accuracy, load_model, save_model

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4


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


def _add_file_dataset_flags(parser, required: bool) -> None:
    parser.add_argument("--data", required=required, help="input CSV")
    parser.add_argument("--label-column", default="label")
    parser.add_argument("--features", default=None,
                        help="comma-separated feature columns (default: all)")
    parser.add_argument("--pca", type=int, default=None, metavar="K",
                        help="reduce to K principal components before splitting")


def _add_generator_flags(parser, required: bool) -> None:
    parser.add_argument("--dataset", required=required, choices=("moons", "circles", "spirals"))
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--noise-sigma", type=float, default=None,
                        help="generator noise (default depends on the dataset)")
    parser.add_argument("--radius-ratio", type=float, default=exp.GeneratorSpec.radius_ratio)
    parser.add_argument("--turns", type=float, default=exp.GeneratorSpec.turns)


def _add_training_flags(parser) -> None:
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--max-passes", type=int, default=200)
    parser.add_argument("--train-fraction", type=float, default=0.7)
    parser.add_argument("--standardize", action="store_true")
    parser.add_argument("--seed", type=int, default=0)


def _generator_spec(args) -> exp.GeneratorSpec:
    return exp.GeneratorSpec(kind=args.dataset, n=args.n, noise_sigma=args.noise_sigma,
                             radius_ratio=args.radius_ratio, turns=args.turns)


def _file_spec(args) -> exp.FileSpec:
    return exp.FileSpec(
        path=args.data,
        label_column=args.label_column,
        feature_columns=tuple(args.features.split(",")) if args.features else None,
        pca_components=args.pca,
    )


def _experiment_spec(args, dataset, gammas) -> exp.ExperimentSpec:
    return exp.ExperimentSpec(dataset=dataset, gammas=gammas, c=args.c, tol=args.tol,
                              max_passes=args.max_passes, train_fraction=args.train_fraction,
                              standardize=args.standardize, seed=args.seed)


def _load_model_and_data(args):
    """The model, its JSON document and ``--data`` mapped through the
    model's stored preprocessing into its feature space.

    Only the columns of the chain's leading ``select`` entry are read (every
    column when there is none), so only they must hold finite numbers; a
    malformed chain is left for :func:`apply_transform_chain` to report."""
    model, payload = load_model(args.model)
    label_column = args.label_column or payload.get("label_column", "label")
    chain = payload.get("preprocessing", [])
    try:
        names = list(chain[0]["names"]) if chain[0]["kind"] == "select" else None
    except MALFORMED_ERRORS:
        names = None
    dataset = load_csv(args.data, label_column, names)
    return model, payload, exp.apply_transform_chain(dataset, chain)


def _cmd_data_generate(args) -> int:
    dataset = exp.build_dataset(_generator_spec(args), args.seed)
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
    dataset = exp.build_dataset(_file_spec(args), seed=0)  # a file consumes no seed
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
        # eigvalsh errs by a small multiple of size * eps * ||K||_2 <= size^2 * eps
        tolerance = gram_matrix.size ** 2 * sys.float_info.epsilon
        payload["positive_semidefinite"] = gram_matrix.min_eigenvalue() >= -tolerance
    _emit(payload)
    return EXIT_OK


def _cmd_simulate_overlap(args) -> int:
    _emit(exp.simulate_overlap(args.xp, args.xq, args.r, args.theta, args.cutoff))
    return EXIT_OK


def _cmd_train(args) -> int:
    kernel = _kernel_config(args)
    config = SvmConfig(c=args.c, tol=args.tol, max_passes=args.max_passes, kernel=kernel)
    spec = _experiment_spec(args, _file_spec(args), (kernel.gamma,))
    _, train_ds, test_ds, replay = exp.prepare(spec)
    sq = sq_distances(train_ds.features, train_ds.features)
    model, train_acc, test_acc = exp.fit_and_score(train_ds, test_ds, config, sq)
    converged = all(m.converged for _, m in model.machines)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model, extra={**replay, "seed": args.seed})
    _emit({
        "model": str(out),
        "train_acc": train_acc,
        "test_acc": test_acc,
        "n_sv": sum(m.n_support for _, m in model.machines),
        "converged": converged,
    })
    if not converged:
        raise NonConvergenceError("training did not reach its tolerance; model saved anyway")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model, payload, dataset = _load_model_and_data(args)
    if payload.get("label_names") is not None:
        try:
            dataset = recode_labels(dataset, payload["label_names"])
        except MALFORMED_ERRORS as err:
            raise InvalidInputError(f"malformed label_names: {type(err).__name__}: {err}") from None
    _emit({"accuracy": accuracy(model, dataset), "n_samples": dataset.n_samples})
    return EXIT_OK


def _dataset_spec_from_args(args) -> exp.GeneratorSpec | exp.FileSpec:
    if args.dataset is not None and args.data is not None:
        raise DsvKernelError("give either --dataset (generator) or --data (CSV), not both")
    if args.dataset is not None:
        return _generator_spec(args)
    if args.data is not None:
        return _file_spec(args)
    raise DsvKernelError("a dataset is required: --dataset or --data")


def _cmd_sweep(args) -> int:
    gammas = tuple(args.gamma) if args.gamma else exp.DEFAULT_GAMMA_GRID
    spec = _experiment_spec(args, _dataset_spec_from_args(args), gammas)
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
    model, _, dataset = _load_model_and_data(args)
    bounds = (
        (float(dataset.features[:, 0].min()), float(dataset.features[:, 0].max())),
        (float(dataset.features[:, 1].min()), float(dataset.features[:, 1].max())),
    )
    out = Path(args.out)
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
    _add_generator_flags(p_gen, required=True)
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
    _add_file_dataset_flags(p_gram, required=True)
    _add_kernel_flags(p_gram)
    p_gram.add_argument("--validate", action="store_true",
                        help="also report whether the Gram is positive semidefinite")
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
    _add_file_dataset_flags(p_train, required=True)
    _add_kernel_flags(p_train)
    _add_training_flags(p_train)
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.set_defaults(func=_cmd_train)

    p_evaluate = sub.add_parser("evaluate", help="accuracy of a saved model on a CSV")
    p_evaluate.add_argument("--model", required=True)
    p_evaluate.add_argument("--data", required=True)
    p_evaluate.add_argument("--label-column", default=None,
                            help="defaults to the column stored in the model")
    p_evaluate.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="gamma grid search with reports")
    _add_generator_flags(p_sweep, required=False)
    _add_file_dataset_flags(p_sweep, required=False)
    p_sweep.add_argument("--gamma", type=float, action="append", default=None,
                         help="repeatable; defaults to a standard grid")
    _add_training_flags(p_sweep)
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
