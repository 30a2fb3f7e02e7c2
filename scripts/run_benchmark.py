#!/usr/bin/env python3
"""End-to-end benchmark on the synthetic fixture family: trains the fixed
classifier and the homophily predictor once, then evaluates the ablation
arms, the filtering-ratio sweep, structural-noise robustness, and the
random-drop comparison on fresh noisy test samples (one per seed).

Usage: python3 scripts/run_benchmark.py [--out reports] [--seeds 0,1,...,9]
       [--heterophilic]
"""

import argparse
import sys
from pathlib import Path

from graphost.experiments import parse_seeds, run_study, write_report
from graphost.fixtures import make_fixture


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--heterophilic", action="store_true",
        help="swap intra/inter probabilities and run in heterophilic mode",
    )
    args = parser.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    p, q = (0.02, 0.05) if args.heterophilic else (0.05, 0.02)
    print(f"training fixture (p={p}, q={q}, 4-layer classifier)...")
    fx = make_fixture(
        intra_prob=p, inter_prob=q, seed=args.base_seed,
        num_layers=4, predictor_hidden=64,
    )
    print(f"mode={fx.mode}  predictor val AUC="
          f"{fx.predictor.metadata['val_roc_auc']:.4f}")

    reports = run_study(fx.classifier, fx.predictor, fx.test_graph, fx.config, seeds)
    for name, report in reports.items():
        write_report(out, name, report.to_dict(), "", csv_rows=report.to_csv_rows())
        print(f"\n== {name}")
        for arm in report.arm_values:
            print(f"  {arm:20s} {report.mean(arm):.4f} +- {report.std(arm):.4f}")
    print(f"\nreports written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
