"""scripts/bench_pairs.py on synthetic runs and stub checkouts."""

import importlib.util
import json
import shutil
import statistics

import pytest
from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(workload, seed, ops, rss, machine, failed=0):
    return {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
        "machine": machine,
        "steal_ticks": {"before": 100 + seed, "after": 101 + seed},
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
        "attempted": 10, "failed": failed,
    }


def _runs(workload, values, machine):
    """{workload: {seed: record}} of one side from (seed, ops, rss[, failed]) tuples."""
    return {workload: {seed: _record(workload, seed, ops, rss, machine, *failed)
                       for seed, ops, rss, *failed in values}}


def test_medians_quartiles_and_pairs():
    runs = {
        "parent": _runs("sweep-diabetes", [
            (1, 10.0, 40.0), (2, 12.0, 41.0), (3, 11.0, 42.0), (4, 13.0, 43.0),
            (5, 14.0, 44.0),
        ], {"nproc": 2, "numpy": "old"}),
        "change": _runs("sweep-diabetes", [
            (1, 20.0, 40.0), (2, 11.0, 40.5), (3, 30.0, 42.0), (4, 25.0, 44.0),
            (5, 15.0, 43.0, 1),
        ], {"nproc": 2, "numpy": "new"}),
    }
    better = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
    bench = bench_pairs.build(runs, better, 30.0, "demo", "a demo")
    assert list(bench) == ["label", "summary", "command", "protocol", "cpu", "machine",
                           "workloads"]
    assert list(bench["workloads"]) == ["sweep-diabetes"]
    sweep = bench["workloads"]["sweep-diabetes"]
    ops = sweep["ops_per_s"]
    assert list(ops) == ["unit", "better", "parent", "change", "parent_median",
                         "change_median", "parent_quartiles", "change_quartiles",
                         "change_better_pairs", "ratio_median", "ratio_interval",
                         "ratio_coverage", "verdict"]
    assert ops["unit"] == "1/s" and ops["better"] == "higher"
    assert ops["parent"] == {"1": 10.0, "2": 12.0, "3": 11.0, "4": 13.0, "5": 14.0}
    assert ops["change"]["5"] == 15.0
    assert ops["parent_median"] == 12.0 and ops["change_median"] == 20.0
    assert ops["parent_quartiles"] == [11.0, 13.0]
    assert ops["change_quartiles"] == [15.0, 25.0]
    assert ops["change_better_pairs"] == "4/5"
    # no interval of 5 ratios reaches 95% coverage
    assert ops["ratio_median"] == 25.0 / 13.0
    assert ops["ratio_interval"] is None and ops["verdict"] == "no verdict"
    rss = sweep["peak_rss_mb"]
    assert rss["better"] == "lower"
    assert rss["change_better_pairs"] == "2/5 (2 ties)"
    assert sweep["steal_ticks"]["change"]["3"] == {"before": 103, "after": 104}
    assert sweep["failed_ops"] == {"parent": 0, "change": 1}
    assert bench["machine"] == {"parent": {"nproc": 2, "numpy": "old"},
                                "change": {"nproc": 2, "numpy": "new"}}
    assert bench["command"].endswith("--seconds 30 --trace 0")
    assert "seeds 1-5;" in bench["protocol"]


def test_median_interval_coverage():
    assert bench_pairs.median_interval(10) == (2, 1 - 2 * 11 / 1024)
    assert bench_pairs.median_interval(6) == (1, 1 - 2 / 64)
    assert bench_pairs.median_interval(5) is None
    assert bench_pairs.median_interval(20)[0] == 6  # coverage 0.9586; k = 7 gives 0.8847


#: Ten parent values of one metric, and per-seed ratios change/parent.
PARENT = [50.0, 52.0, 47.0, 55.0, 60.0, 49.0, 51.0, 58.0, 53.0, 45.0]
RATIOS = {
    # one pair slower, yet the interval from the 2nd to the 9th smallest clears 1
    "gain": [1.10, 0.97, 1.08, 1.12, 1.06, 1.02, 1.09, 1.11, 1.07, 1.05],
    # the same but for one flat pair, the 2nd smallest: 9 of 10 pairs better, no verdict
    "flat": [1.10, 0.97, 1.08, 1.12, 1.06, 1.00, 1.09, 1.11, 1.07, 1.05],
    # a control workload whose host drifts 3-6% slower on every pair
    "drift": [0.97, 0.95, 0.96, 0.94, 0.97, 0.96, 0.95, 0.97, 0.96, 0.95],
    # spread across 1: no verdict either way
    "noise": [1.10, 0.90, 1.05, 0.95, 1.20, 0.85, 1.02, 0.99, 1.01, 0.97],
}


@pytest.mark.parametrize("case, better, interval, verdict", [
    ("gain", "higher", [1.02, 1.11], "better"),
    ("gain", "lower", [1.02, 1.11], "worse"),
    ("flat", "higher", [1.00, 1.11], "no verdict"),
    ("drift", "higher", [0.95, 0.97], "worse"),
    ("drift", "lower", [0.95, 0.97], "better"),
    ("noise", "higher", [0.90, 1.10], "no verdict"),
])
def test_ratio_interval_and_verdict(case, better, interval, verdict):
    change = [p * r for p, r in zip(PARENT, RATIOS[case])]
    runs = {side: _runs("boundary-export", [(seed, value, 40.0) for seed, value
                                            in enumerate(values, start=1)], {})
            for side, values in (("parent", PARENT), ("change", change))}
    entry = bench_pairs.build(runs, {"ops_per_s": better}, 30.0, "demo", "a demo")[
        "workloads"]["boundary-export"]["ops_per_s"]
    assert entry["ratio_interval"] == pytest.approx(interval)
    assert entry["ratio_median"] == pytest.approx(statistics.median(RATIOS[case]))
    assert entry["ratio_coverage"] == 1 - 2 * 11 / 1024
    assert entry["verdict"] == verdict


#: A perfbench/run.py that logs its side, workload and seed, then writes the
#: record a real untraced run would.
STUB_RUN = """
import argparse, json, pathlib
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
with open({log!r}, "a") as f:
    f.write(f"{{root.name}} {{a.workload}} {{a.seed}} {{a.seconds}} {{a.trace}}\\n")
records = root / ".perfbench" / "records"
records.mkdir(parents=True, exist_ok=True)
record = {{
    "workload": a.workload, "seed": int(a.seed), "seconds": float(a.seconds), "trace": 0,
    "machine": {{}}, "steal_ticks": {{"before": 0, "after": 0}}, "attempted": 1, "failed": 0,
    "metrics": {{"ops_per_s": {{"value": {ops} + int(a.seed), "unit": "1/s"}}}},
}}
(records / f"{{a.workload}}-seed{{a.seed}}-trace0.json").write_text(json.dumps(record))
"""


def _stub_checkout(root, name, log, ops, older=()):
    """A checkout whose perfbench/run.py is STUB_RUN, holding the records of
    older (workload, seed, ops, rss) runs."""
    checkout = root / name
    records = checkout / ".perfbench" / "records"
    records.mkdir(parents=True)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    for workload, seed, old_ops, rss in older:
        record = _record(workload, seed, old_ops, rss, {"older": True})
        (records / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    (checkout / "perfbench").mkdir()
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN.format(log=str(log), ops=ops))
    return checkout


def test_main_writes_the_labelled_file(tmp_path, capsys, monkeypatch):
    log = tmp_path / "order.log"
    parent = _stub_checkout(tmp_path, "parent", log, 10.0)
    change = _stub_checkout(tmp_path, "change", log, 20.0)
    monkeypatch.chdir(tmp_path)
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--label", "demo", "--summary", "a demo",
                             "--seconds", "3", "--workloads", "sweep-diabetes"])
    assert code == 0
    assert len(log.read_text().splitlines()) == 20  # the default seeds 1-10, both sides
    written = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert written["label"] == "demo" and written["summary"] == "a demo"
    assert "seeds 1-10;" in written["protocol"]
    assert ("sweep-diabetes   ops_per_s    15.5 -> 25.5 1/s (change better on 10/10; "
            "ratio 1.646 in [1.526, 1.833]: better)") in capsys.readouterr().out


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-5") == [1, 2, 3, 4, 5]
    assert bench_pairs.parse_seeds("2,7-8,11") == [2, 7, 8, 11]


def test_run_interleaves_sides_and_workloads(tmp_path, monkeypatch):
    # both checkouts already hold records of every (workload, seed) this round runs
    log = tmp_path / "order.log"
    older = [(workload, seed, 1.0, 1.0) for workload in ("sweep-diabetes", "boundary-export")
             for seed in (1, 2)]
    parent = _stub_checkout(tmp_path, "parent", log, 10.0, older)
    change = _stub_checkout(tmp_path, "change", log, 20.0, older)
    monkeypatch.chdir(tmp_path)
    code = bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--label", "demo",
        "--summary", "a demo", "--seeds", "1-2", "--seconds", "3",
        "--workloads", "sweep-diabetes,boundary-export",
    ])
    assert code == 0
    assert log.read_text().splitlines() == [
        "parent sweep-diabetes 1 3 0", "change sweep-diabetes 1 3 0",
        "parent boundary-export 1 3 0", "change boundary-export 1 3 0",
        "change sweep-diabetes 2 3 0", "parent sweep-diabetes 2 3 0",
        "change boundary-export 2 3 0", "parent boundary-export 2 3 0",
    ]
    written = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert list(written["workloads"]) == ["sweep-diabetes", "boundary-export"]
    for workload in written["workloads"].values():
        assert workload["ops_per_s"]["parent"] == {"1": 11.0, "2": 12.0}
        assert workload["ops_per_s"]["change"] == {"1": 21.0, "2": 22.0}
        assert list(workload) == ["ops_per_s", "steal_ticks", "failed_ops"]
    assert written["machine"] == {"parent": {}, "change": {}}
    assert written["command"].endswith("--seconds 3 --trace 0")
    assert "seeds 1-2;" in written["protocol"]


def test_a_failed_run_stops_the_script(tmp_path):
    log = tmp_path / "order.log"
    parent = _stub_checkout(tmp_path, "parent", log, 10.0)
    change = _stub_checkout(tmp_path, "change", log, 20.0)
    (change / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    with pytest.raises(SystemExit, match="seed 1"):
        bench_pairs.run_pairs(parent, change, [1], 3.0, ["sweep-diabetes"])
    assert log.read_text().splitlines() == ["parent sweep-diabetes 1 3 0"]
