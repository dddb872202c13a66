#!/usr/bin/env python3
"""Run the bundled low-data experiment: three training modes at a 20% data
fraction across five seeds, then a sign-test summary of the per-seed
accuracies. Writes data under data/lowdata, and under runs/lowdata the
sweep.csv plus one directory per cell (fraction-0.2-<mode>-seed-<seed>/)
holding its checkpoint.txt, stats.csv and test_predictions.jsonl.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from actknow.experiments import sign_test_p, sweep_fraction
from actknow.scenarios import LOWDATA_SPEC, ensure_generated, lowdata_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default="data/lowdata")
    parser.add_argument("--out-dir", default="runs/lowdata")
    args = parser.parse_args()

    ensure_generated(LOWDATA_SPEC, args.data_dir)
    cfg = lowdata_experiment(args.data_dir, args.out_dir)
    rows = sweep_fraction(cfg)

    acc = {mode: [a for _, m, _, a in rows if m == mode] for mode in cfg.modes}
    print()
    for mode, values in acc.items():
        print(f"{mode:10s} mean {np.mean(values):.4f}  per-seed {[round(v, 3) for v in values]}")
    base, act = acc["base-know"], acc["act-know"]
    wins = sum(a > b for a, b in zip(act, base))
    losses = sum(b > a for a, b in zip(act, base))
    print(f"base-know - text-only = {(np.mean(base) - np.mean(acc['text-only'])) * 100:.1f} points")
    print(f"act-know vs base-know: {wins} wins, {losses} losses, "
          f"{len(base) - wins - losses} ties, sign-test p = {sign_test_p(wins, losses):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
