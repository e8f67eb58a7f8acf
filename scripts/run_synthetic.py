#!/usr/bin/env python3
"""Train/test the tunable-width kernel against the gamma = 1 baseline on the
three synthetic datasets, over a range of seeds.

For each dataset the comparison gamma is the quoted working value (moons 1.5,
circles 0.8, spirals 0.06); reports land under --out as JSON.
"""

import argparse
import statistics
from pathlib import Path

from dsvkernel import experiment as exp

COMPARISON_GAMMAS = {"moons": 1.5, "circles": 0.8, "spirals": 0.06}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--out", default=None, help="directory for report files")
    args = parser.parse_args()

    print(f"{'dataset':<10} {'gamma':>6} {'median test acc':>16} {'median @1.0':>12} "
          f"{'wins/ties/losses':>17}")
    for kind, gamma in COMPARISON_GAMMAS.items():
        at_gamma, at_unit = [], []
        for seed in range(args.seeds):
            spec = exp.ExperimentSpec(
                dataset=exp.GeneratorSpec(kind, n=args.n),
                gammas=(gamma,),
                c=args.c,
                seed=seed,
            )
            out_dir = Path(args.out) / f"{kind}_seed{seed}" if args.out else None
            report = exp.run_experiment(spec, out_dir=out_dir)
            at_gamma.append(report.row_for(gamma).test_acc)
            at_unit.append(report.baseline_row().test_acc)
        pairs = list(zip(at_gamma, at_unit))
        tally = (f"{sum(p > q for p, q in pairs)}/{sum(p == q for p, q in pairs)}/"
                 f"{sum(p < q for p, q in pairs)}")
        print(
            f"{kind:<10} {gamma:>6} {statistics.median(at_gamma):>16.4f} "
            f"{statistics.median(at_unit):>12.4f} {tally:>17}"
        )


if __name__ == "__main__":
    main()
