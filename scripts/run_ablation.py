#!/usr/bin/env python3
"""Sweep the subgraph node budget on the bundled noisy-KG scenario.

Small budgets truncate the planted reasoning path, large ones flood the
subgraph with clutter paths between noise mentions, so accuracy should
peak at an interior budget. Writes data under data/noisy, and under
runs/noisy the ablation.csv plus one directory per budget (max-nodes-<b>/)
holding its checkpoint.txt, stats.csv and test_predictions.jsonl.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from actknow.experiments import ablate_subgraph
from actknow.scenarios import NOISY_SPEC, ensure_generated, noisy_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default="data/noisy")
    parser.add_argument("--out-dir", default="runs/noisy")
    args = parser.parse_args()

    ensure_generated(NOISY_SPEC, args.data_dir)
    cfg = noisy_experiment(args.data_dir, args.out_dir)
    accs = dict(ablate_subgraph(cfg))

    budgets = list(cfg.node_budgets)
    interior = budgets[1:-1]
    peak = max(interior, key=lambda b: accs[b])
    shape = "interior peak" if accs[peak] > max(accs[budgets[0]], accs[budgets[-1]]) else "no interior peak"
    print(f"{shape}: best interior budget {peak} at {accs[peak]:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
