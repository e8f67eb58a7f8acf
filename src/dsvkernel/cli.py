"""Command-line interface.

Subcommands: ``data generate``, ``kernel eval``, ``kernel gram``,
``simulate overlap``, ``train``, ``evaluate``, ``sweep``, ``boundary``.
Results go to stdout as JSON or to files named by ``--out``.  ``--seed``
drives data generation and train/test splits only; training is
deterministic given the training rows.

``train`` (a one-gamma spec) and ``sweep`` share ``experiment.prepare``
and ``experiment.fit_and_score``, so every model file either writes carries
the transform chain and label coding that ``evaluate`` and ``boundary``
replay on a raw CSV through ``experiment.apply_transform_chain``.

Exit codes: 0 success, 4 I/O failure, and for a package error the
``exit_code`` of its class: 2 invalid input, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import experiment as exp
from .data import LABEL_COLUMN, atomic_write_text, pretty_json, recode_labels, save_csv
from .errors import (
    MALFORMED_ERRORS,
    DsvKernelError,
    InvalidDimensionError,
    InvalidInputError,
    NonConvergenceError,
)
from .fock import SqueezeParams
from .kernel import KernelConfig, data_fingerprint, gram, kernel_vec
from .svm import accuracy, load_model, save_model

EXIT_IO = 4  # an OSError; each package error carries its own exit_code

GENERATOR_FLAGS = ("n", "noise_sigma", "radius_ratio", "turns")  # GeneratorSpec's settings


def _emit(payload: dict) -> None:
    sys.stdout.write(pretty_json(payload) + "\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise DsvKernelError(f"cannot parse vector from {text!r}") from None


def _given(args, *names) -> dict:
    """The named flags the command line set, by name.  Flags that feed a
    spec have no default of their own, so an unset one keeps the spec's."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _refuse_flags(args, names, message: str) -> None:
    """Exit 2 with ``message`` and the flags among ``names`` the command line set."""
    flags = ", ".join("--" + name.replace("_", "-") for name in _given(args, *names))
    if flags:
        raise DsvKernelError(message + flags)


def _kernel_config(args) -> KernelConfig:
    if args.gamma is not None and args.r is not None:
        raise DsvKernelError("give either --gamma or --r/--theta, not both")
    if args.gamma is not None:
        return KernelConfig(args.gamma)
    if args.r is not None:
        return KernelConfig.from_squeeze(SqueezeParams(args.r, **_given(args, "theta")))
    raise DsvKernelError("a kernel needs --gamma or --r (with optional --theta)")


def _add_kernel_flags(parser) -> None:
    parser.add_argument("--gamma", type=float, help="kernel width")
    parser.add_argument("--r", type=float, help="squeezing magnitude")
    parser.add_argument("--theta", type=float, help="squeezing phase (rad)")


def _add_file_dataset_flags(parser, required: bool) -> None:
    parser.add_argument("--data", required=required, help="input CSV")
    parser.add_argument("--label-column")
    parser.add_argument("--features", help="comma-separated feature columns (default: all)")
    parser.add_argument("--pca", type=int, metavar="K",
                        help="reduce to K principal components before splitting")


def _add_generator_flags(parser, required: bool) -> None:
    parser.add_argument("--dataset", required=required, choices=tuple(exp.GENERATORS))
    parser.add_argument("--n", type=int)
    parser.add_argument("--noise-sigma", type=float,
                        help="generator noise (default depends on the dataset)")
    parser.add_argument("--radius-ratio", type=float)
    parser.add_argument("--turns", type=float)


def _add_training_flags(parser) -> None:
    parser.add_argument("--c", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-passes", type=int)
    parser.add_argument("--train-fraction", type=float)
    parser.add_argument("--standardize", action="store_true")
    parser.add_argument("--seed", type=int)


def _generator_spec(args) -> exp.GeneratorSpec:
    spec = exp.GeneratorSpec(kind=args.dataset, **_given(args, *GENERATOR_FLAGS))
    other = [name for name in GENERATOR_FLAGS if name not in ("n", "noise_sigma", *spec.shape())]
    _refuse_flags(args, other, f"--dataset {spec.kind} takes no ")
    return spec


def _file_spec(args) -> exp.FileSpec:
    return exp.FileSpec(
        path=args.data,
        feature_columns=tuple(args.features.split(",")) if args.features else None,
        pca_components=args.pca,
        **_given(args, "label_column"),
    )


def _experiment_spec(args, dataset, gammas) -> exp.ExperimentSpec:
    return exp.ExperimentSpec(dataset=dataset, gammas=gammas, standardize=args.standardize,
                              **_given(args, "c", "tol", "max_passes", "train_fraction", "seed"))


def _load_model_and_data(args):
    """The model, its JSON document and ``--data`` mapped through the
    model's stored preprocessing into its feature space, as wide as the model."""
    model, payload = load_model(args.model)
    label_column = args.label_column or payload.get("label_column", LABEL_COLUMN)
    dataset = exp.apply_transform_chain(args.data, label_column, payload.get("preprocessing", []))
    width = model.machines[0][1].support_vectors.shape[1]
    if dataset.n_features != width:
        raise InvalidDimensionError(
            f"feature dimensions differ: train {width}, test {dataset.n_features}")
    return model, payload, dataset


def _cmd_data_generate(args) -> None:
    dataset = exp.build_dataset(_generator_spec(args), **_given(args, "seed"))
    out = Path(args.out)
    save_csv(dataset, out)
    _emit({"out": str(out), "n_samples": dataset.n_samples,
           "provenance": dataset.provenance})


def _cmd_kernel_eval(args) -> None:
    config = _kernel_config(args)
    xp = _parse_vector(args.xp)
    xq = _parse_vector(args.xq)
    value = kernel_vec(xp, xq, config.gamma)
    _emit({"xp": list(xp), "xq": list(xq), "gamma": config.gamma, "value": value})


def _cmd_kernel_gram(args) -> None:
    config = _kernel_config(args)
    dataset = exp.build_dataset(_file_spec(args))  # a file consumes no seed
    gram_matrix = gram(dataset.features, config.gamma)
    fingerprint = data_fingerprint(dataset.features)
    out = Path(args.out)
    # two "#" header lines, then one line of repr floats per row, streamed
    header = f"# gamma={config.gamma!r}\n# fingerprint={fingerprint}\n"
    rows = (",".join(map(repr, row.tolist())) + "\n" for row in gram_matrix.values)
    atomic_write_text(out, chain([header], rows))
    payload = {
        "out": str(out),
        "size": gram_matrix.size,
        "gamma": config.gamma,
        "fingerprint": fingerprint,
    }
    if args.validate:
        # eigvalsh errs by a small multiple of size * eps * ||K||_2 <= size^2 * eps
        tolerance = gram_matrix.size ** 2 * sys.float_info.epsilon
        min_eigenvalue = float(np.linalg.eigvalsh(gram_matrix.values)[0])
        payload["positive_semidefinite"] = min_eigenvalue >= -tolerance
    _emit(payload)


def _cmd_simulate_overlap(args) -> None:
    _emit(exp.simulate_overlap(args.xp, args.xq, args.r, **_given(args, "theta", "cutoff")))


def _cmd_train(args) -> None:
    kernel = _kernel_config(args)
    spec = _experiment_spec(args, _file_spec(args), (kernel.gamma,))
    _, train_ds, test_ds, replay, sq = exp.prepare(spec)
    model, row = exp.fit_and_score(train_ds, test_ds, spec.svm_config(kernel), sq)
    out = Path(args.out)
    save_model(out, model, extra={**replay, "seed": spec.seed})
    _emit({
        "model": str(out),
        "train_acc": row.train_acc,
        "test_acc": row.test_acc,
        "n_sv": row.n_sv,
        "converged": row.converged,
    })
    if not row.converged:
        raise NonConvergenceError("training did not reach its tolerance; model saved anyway")


def _cmd_evaluate(args) -> None:
    model, payload, dataset = _load_model_and_data(args)
    if payload.get("label_names") is not None:
        try:
            dataset = recode_labels(dataset, payload["label_names"])
        except MALFORMED_ERRORS as err:
            raise InvalidInputError(f"malformed label_names: {type(err).__name__}: {err}") from None
    _emit({"accuracy": accuracy(model, dataset), "n_samples": dataset.n_samples})


def _dataset_spec_from_args(args) -> exp.GeneratorSpec | exp.FileSpec:
    if args.dataset is not None and args.data is not None:
        raise DsvKernelError("give either --dataset (generator) or --data (CSV), not both")
    if args.dataset is None and args.data is None:
        raise DsvKernelError("a dataset is required: --dataset or --data")
    if args.dataset is not None:
        source, other, misplaced = "--dataset", "--data", ("label_column", "features", "pca")
    else:
        source, other, misplaced = "--data", "--dataset", GENERATOR_FLAGS
    _refuse_flags(args, misplaced, f"{other} flags given with {source}: ")
    return _generator_spec(args) if args.dataset is not None else _file_spec(args)


def _cmd_sweep(args) -> None:
    gammas = tuple(args.gamma) if args.gamma else exp.DEFAULT_GAMMA_GRID
    spec = _experiment_spec(args, _dataset_spec_from_args(args), gammas)
    report = exp.sweep(spec, spec.gammas, out_dir=args.out)
    _emit({
        "out": str(Path(args.out) / "report.json"),
        "selected_gamma": report.selected_gamma,
        "rows": [r.to_dict() for r in report.rows],
    })
    if not all(r.converged for r in report.rows):
        raise NonConvergenceError("at least one training run did not converge")


def _cmd_boundary(args) -> None:
    model, _, dataset = _load_model_and_data(args)
    bounds = tuple((float(c.min()), float(c.max())) for c in dataset.features.T)
    out = Path(args.out)
    exp.boundary_grid(model, bounds, args.resolution, out)
    _emit({"out": str(out), "resolution": args.resolution, "bounds": bounds})


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
    p_gen.add_argument("--seed", type=int)
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
    p_overlap.add_argument("--theta", type=float)
    p_overlap.add_argument("--cutoff", type=int)
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
    p_evaluate.add_argument("--label-column", help="defaults to the column stored in the model")
    p_evaluate.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="gamma grid search with reports")
    _add_generator_flags(p_sweep, required=False)
    _add_file_dataset_flags(p_sweep, required=False)
    p_sweep.add_argument("--gamma", type=float, action="append",
                         help="repeatable, each value once; defaults to a standard grid")
    _add_training_flags(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_boundary = sub.add_parser("boundary", help="decision-value lattice CSV")
    p_boundary.add_argument("--model", required=True)
    p_boundary.add_argument("--data", required=True,
                            help="CSV giving the bounding box (model preprocessing applies)")
    p_boundary.add_argument("--label-column")
    p_boundary.add_argument("--resolution", type=int, default=exp.DEFAULT_BOUNDARY_RESOLUTION)
    p_boundary.add_argument("--out", required=True)
    p_boundary.set_defaults(func=_cmd_boundary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DsvKernelError as err:
        print(f"dsvkernel: {err.label}: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"dsvkernel: i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
