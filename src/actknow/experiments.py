"""The cell runner and the two headline experiments, shared by the command
line, the runner scripts and the acceptance tests so every entry point
writes the same bytes.

* run_cell: train one cell and write its files into one directory.
* sweep_fraction: test accuracy for every training fraction x mode x seed
  cell, written to `sweep.csv`.
* ablate_subgraph: test accuracy for every subgraph node budget, written to
  `ablation.csv`.

Both CSVs go through csv.writer (CRLF line ends) with repr floats.
"""

from __future__ import annotations

import csv
import json
import os
from math import comb

from .atomic import atomic_write
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, train_settings
from .pipeline import Pipeline, load_pipeline, prepare_split, run_training, training_config_for, training_sample
from .training import PreparedQuestion, TrainConfig, TrainResult, evaluate, write_stats_csv

SWEEP_HEADER = ["fraction", "mode", "seed", "accuracy"]
ABLATION_HEADER = ["max_nodes", "accuracy"]


def prepare_splits(
    pipe: Pipeline, tc: TrainConfig
) -> tuple[list[PreparedQuestion], list[PreparedQuestion] | None, list[PreparedQuestion] | None]:
    """Train, dev and test questions; None for a split that is not supplied."""
    train_qs = prepare_split(pipe, "train", tc)
    dev_qs, test_qs = (prepare_split(pipe, split, tc) if split in pipe.items else None for split in ("dev", "test"))
    return train_qs, dev_qs, test_qs


def write_jsonl(path: str, rows: list[dict]) -> None:
    with atomic_write(path) as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def run_cell(pipe: Pipeline, tc: TrainConfig, train_qs: list[PreparedQuestion], dev_qs: list[PreparedQuestion] | None,
             test_qs: list[PreparedQuestion] | None, cell_dir: str) -> tuple[TrainResult, float | None]:
    """Train one cell on exactly `train_qs` and write `checkpoint.txt` (tc's
    TrainConfig fields and the best state) and `stats.csv` into cell_dir.
    With test questions, score the best state on them and write the rows to
    `test_predictions.jsonl`.
    Returns the training result and the test accuracy (None without test
    questions)."""
    model, result = run_training(pipe, tc, train_qs, dev_qs)
    os.makedirs(cell_dir, exist_ok=True)
    save_checkpoint(os.path.join(cell_dir, "checkpoint.txt"), result.best_state, train_settings(tc))
    write_stats_csv(os.path.join(cell_dir, "stats.csv"), result.stats)
    if test_qs is None:
        return result, None
    model.load_state_arrays(result.best_state)
    accuracy, rows = evaluate(test_qs, model, tc)
    write_jsonl(os.path.join(cell_dir, "test_predictions.jsonl"), rows)
    return result, accuracy


def _write_csv(cfg: ExperimentConfig, kind: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{kind}.csv")
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"{kind} {path}")


def sweep_fraction(cfg: ExperimentConfig) -> list[tuple[float, str, int, float]]:
    """Train every fraction x mode x seed cell, in that nesting order, on
    splits prepared once; return (fraction, mode, seed, test accuracy) rows
    and write them to `sweep.csv` in cfg.out_dir, and each cell's files
    (run_cell) to `fraction-<repr(fraction)>-<mode>-seed-<seed>/` there.

    The whole train split is prepared once, and each cell draws its
    fraction sample from it. The splits carry subgraphs only when a mode
    other than text-only is swept; text-only cells ignore them."""
    cfg.require("kg", "corpus", "train", "test")
    pipe = load_pipeline(cfg)
    configs = [training_config_for(cfg, mode=mode, data_fraction=1.0) for mode in cfg.modes]
    train_qs, dev_qs, test_qs = prepare_splits(pipe, next((tc for tc in configs if tc.graph_side), configs[0]))

    rows = []
    for fraction in cfg.fractions:
        for mode in cfg.modes:
            for seed in cfg.seeds:
                tc = training_config_for(cfg, mode=mode, seed=seed, data_fraction=fraction)
                cell_dir = os.path.join(cfg.out_dir, f"fraction-{float(fraction)!r}-{mode}-seed-{seed}")
                _, acc = run_cell(pipe, tc, training_sample(train_qs, tc), dev_qs, test_qs, cell_dir)
                rows.append((fraction, mode, seed, acc))
                print(f"fraction {fraction} mode {mode} seed {seed}: accuracy {acc:.4f}")

    _write_csv(cfg, "sweep", SWEEP_HEADER, [[repr(float(f)), m, s, repr(a)] for f, m, s, a in rows])
    return rows


def ablate_subgraph(cfg: ExperimentConfig) -> list[tuple[int, float]]:
    """Prepare the splits and train once per node budget; return
    (max_nodes, test accuracy) rows and write them to `ablation.csv` in
    cfg.out_dir, and each cell's files (run_cell) to `max-nodes-<budget>/`
    there."""
    cfg.require("kg", "corpus", "train", "test")
    pipe = load_pipeline(cfg)

    rows = []
    for budget in cfg.node_budgets:
        tc = training_config_for(cfg, max_nodes=budget)
        _, acc = run_cell(pipe, tc, *prepare_splits(pipe, tc), os.path.join(cfg.out_dir, f"max-nodes-{budget}"))
        rows.append((budget, acc))
        print(f"max_nodes {budget}: accuracy {acc:.4f}")

    _write_csv(cfg, "ablation", ABLATION_HEADER, [[b, repr(a)] for b, a in rows])
    return rows


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test over decided pairs, ties dropped: the chance of at
    least `wins` successes in wins + losses fair coin flips."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(comb(n, k) for k in range(wins, n + 1)) / 2**n
