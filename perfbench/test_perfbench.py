"""The benchmark's own tests: each correctness check trips on a corrupted
output and the failure is counted against the operations attempted.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

PROGRAM = workloads.import_program()
HERE = Path(__file__).resolve().parent


def test_simulator_check_counts_a_perturbed_probability_and_a_raise(tmp_path):
    box = workloads.SimulateBox(PROGRAM, tmp_path)
    pairs = box.inputs(0, 0)[::55]
    out = box.run(pairs, tmp_path)
    assert box.check(pairs, tmp_path, out).failed == 0
    perturbed = list(out)
    perturbed[3] += 2e-6
    assert box.check(pairs, tmp_path, perturbed).failed == 1
    raised = list(out)
    raised[1] = "CutoffExceededError: cutoff too small"
    assert box.check(pairs, tmp_path, raised).failed == 1


@pytest.fixture
def boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BOUNDARY_RESOLUTION", 40)
    export = workloads.BoundaryExport(PROGRAM, tmp_path)
    export.setup(0)
    inp = export.inputs(0, 0)
    out = export.run(inp, tmp_path)
    assert export.check(inp, tmp_path, out).failed == 0
    return export, inp, out, tmp_path


def _edit_row(path: Path, row: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    edit(fields)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_boundary_check_counts_one_flipped_label(boundary):
    export, inp, out, outdir = boundary

    def flip(fields):
        fields[3] = str((int(fields[3]) + 1) % 3)

    _edit_row(outdir / "iris_grid.csv", 7, flip)
    verdict = export.check(inp, outdir, out)
    assert (verdict.ops, verdict.failed) == (2 * 40 * 40, 1)


def test_boundary_check_counts_one_perturbed_decision_value(boundary):
    export, inp, out, outdir = boundary

    def nudge(fields):
        fields[2] = repr(float(fields[2]) + 1e-6)

    _edit_row(outdir / "moons_grid.csv", 100, nudge)
    assert export.check(inp, outdir, out).failed == 1


def test_boundary_check_fails_a_model_whose_evaluation_is_wrong(boundary):
    export, inp, out, outdir = boundary
    grid_result, (code, text) = out["moons"]
    wrong = dict(json.loads(text), accuracy=0.5)
    out = dict(out, moons=(grid_result, (code, json.dumps(wrong))))
    assert export.check(inp, outdir, out).failed == 40 * 40


@pytest.fixture
def moons_sweep(tmp_path):
    sweeps = workloads.SweepSmall(PROGRAM, tmp_path)
    inp = [entry for entry in sweeps.inputs(0, 0) if entry[0] == "moons"]
    sweeps.run(inp, tmp_path)
    verdict = sweeps.check(inp, tmp_path, None)
    assert (verdict.ops, verdict.failed) == (2, 0)
    return sweeps, inp, tmp_path / "moons" / "model_gamma_1.5.json"


@pytest.mark.parametrize("workload", [workloads.SweepDiabetes, workloads.SweepSmall])
def test_the_checks_rebuild_the_training_rows_the_program_trains_on(workload, tmp_path):
    exp, data = PROGRAM["experiment"], PROGRAM["data"]
    for seed in (0, 7):
        for _, _, spec in workload(PROGRAM, tmp_path).inputs(seed, 0):
            dataset = exp.build_dataset(spec.dataset, spec.seed)
            train, _ = data.split(
                dataset, data.SplitSpec(spec.train_fraction, spec.seed, spec.stratified))
            if spec.standardize:
                train = data.standardize_apply(data.standardize_fit(train), train)
            features, labels = workload(PROGRAM, tmp_path)._training_rows(spec)
            assert labels.tolist() == train.labels.tolist()
            assert features == pytest.approx(train.features, rel=1e-12, abs=1e-12)


def _edit_machine(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc["machines"][0])
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_sweep_check_counts_an_unbalanced_multiplier(moons_sweep):
    sweeps, inp, model = moons_sweep
    _edit_machine(model, lambda m: m["alpha_y"].__setitem__(0, m["alpha_y"][0] * 1.01))
    verdict = sweeps.check(inp, model.parent.parent, None)
    assert verdict.failed == 1
    assert any("sum(alpha*y)" in p for p in verdict.problems)


def test_sweep_check_counts_a_feasible_but_unoptimal_machine(moons_sweep):
    sweeps, inp, model = moons_sweep
    _edit_machine(model, lambda m: m.__setitem__("alpha_y", [a / 2 for a in m["alpha_y"]]))
    verdict = sweeps.check(inp, model.parent.parent, None)
    assert verdict.failed == 1
    assert all("optimality gap" in p for p in verdict.problems)


def test_sweep_check_counts_a_missing_report(moons_sweep):
    sweeps, inp, model = moons_sweep
    (model.parent / "report.json").unlink()
    assert sweeps.check(inp, model.parent.parent, None).failed == 2


def _pass(k, body, layer=None, ops=10, failed=0):
    record = worker.Pass(str(k), layer is not None, 1.0, 1.0, Path("."), None, ops, layer=layer)
    record.verdict = workloads.Verdict(ops, failed, body)
    return record


def test_replay_mismatch_fails_the_whole_pass_and_lowers_ok_ops_frac():
    summary = worker.summarize([_pass(0, b"a"), _pass(1, b"b", failed=1), _pass(0, b"a!")])
    assert (summary["attempted"], summary["failed"]) == (30, 11)
    values = run.end_to_end(dict(summary, passes=[{"traced": False, "ops": 30, "seconds": 3.0}],
                                 peak_rss_mb=1.0), [0.5])
    assert values["ok_ops_frac"] == pytest.approx(19 / 30)


def test_layer_count_mismatch_fails_the_traced_pass():
    counts = {name: 1 for name in spans.DETERMINISTIC_COUNTS}
    summary = worker.summarize([_pass(0, b"a", counts), _pass(0, b"a", dict(counts, **{
        "svm.sweeps": 2}))])
    assert summary["failed"] == 10


def test_tracer_patches_every_bound_name_and_restores_it():
    tracer = spans.Tracer(PROGRAM)
    svm, kernel, exp = PROGRAM["svm"], PROGRAM["kernel"], PROGRAM["experiment"]
    originals = (svm.gram, exp.circuit_kernel, PROGRAM["rng"].SplitMix64.permutation)
    tracer.install()
    try:
        assert svm.gram is kernel.gram and svm.gram is not originals[0]
        assert exp.circuit_kernel is PROGRAM["fock"].circuit_kernel
    finally:
        tracer.uninstall()
    assert (svm.gram, exp.circuit_kernel, PROGRAM["rng"].SplitMix64.permutation) == originals


def test_traced_counts_and_self_times_of_a_small_fit(tmp_path):
    exp = PROGRAM["experiment"]
    spec = exp.ExperimentSpec(dataset=exp.GeneratorSpec("moons", n=40), gammas=(1.5,), seed=0)
    tracer = spans.Tracer(PROGRAM)
    tracer.install()
    try:
        exp.run_experiment(spec, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["svm.train_binary.calls"] == 2
    assert metrics["kernel.gram.entries"] == 2 * 28 * 28
    assert metrics["rng.items"] >= 40 + 80  # uniforms and normals of make_moons
    assert metrics["svm.predict.points"] == 2 * 40  # accuracy on train and test
    roots = sum(s.duration for s in tracer.spans if s.parent < 0)
    layers = sum(metrics[f"{layer}.busy_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(roots, rel=1e-9)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-box", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_failure_is_counted_once_in_the_layer_that_raised_it():
    exp = PROGRAM["experiment"]
    tracer = spans.Tracer(PROGRAM)
    tracer.install()
    try:
        with pytest.raises(PROGRAM["fock"].CutoffExceededError):
            exp.simulate_overlap(0.0, 10.0, 0.3, 0.0)
    finally:
        tracer.uninstall()
    failed = tracer.metrics()["failed_in_layer"]
    assert failed["fock"] == 1 and sum(failed.values()) == 1
