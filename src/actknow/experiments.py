"""The cell runner and the two headline experiments, shared by the command
line, the runner scripts and the acceptance tests so every entry point
writes the same bytes.

* run_cell: train one cell and write its files into one directory.
* run_cells: the cells of `train`, the sweep or the ablation, in order, on
  one loaded pipeline.
* sweep_fraction: test accuracy for every training fraction x mode x seed
  cell, written to `sweep.csv`.
* ablate_subgraph: test accuracy for every subgraph node budget, written to
  `ablation.csv`.

Both CSVs go through csv.writer (CRLF line ends) with repr floats.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from collections.abc import Iterator
from math import comb

from .atomic import atomic_write
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, train_settings
from .pipeline import Pipeline, load_pipeline, prepare_split, run_training, training_config_for, training_indices
from .training import PreparedQuestion, TrainConfig, TrainResult, evaluate, write_stats_csv

SWEEP_HEADER = ["fraction", "mode", "seed", "accuracy"]
ABLATION_HEADER = ["max_nodes", "accuracy"]


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


def run_cells(cfg: ExperimentConfig, cells: list[tuple[str, dict]]) -> Iterator[tuple[TrainResult, float | None]]:
    """Run each (directory under cfg.out_dir, TrainConfig overrides) cell in
    order on one loaded pipeline, yielding run_cell's result as each cell
    finishes. Each split is prepared once per run of consecutive cells that
    share max_nodes, with subgraphs when any cell of the run has a graph
    side; a cell without one never reads them. Of train, that is the union
    of the run's training samples (training_indices), and each cell trains
    on its own sample of it."""
    pipe = load_pipeline(cfg)
    configs = [(name, training_config_for(cfg, **overrides)) for name, overrides in cells]
    for _, run in itertools.groupby(configs, key=lambda cell: cell[1].max_nodes):
        run = list(run)
        tc = next((tc for _, tc in run if tc.graph_side), run[0][1])
        dev_qs, test_qs = (prepare_split(pipe, split, tc) if split in pipe.items else None for split in ("dev", "test"))
        samples = [training_indices(pipe.items["train"], cell_tc) for _, cell_tc in run]
        union = sorted(set().union(*samples))
        prepared = dict(zip(union, prepare_split(pipe, "train", tc, union)))
        for (name, cell_tc), sample in zip(run, samples):
            yield run_cell(pipe, cell_tc, [prepared[i] for i in sample], dev_qs, test_qs,
                           os.path.join(cfg.out_dir, name))


def sweep_fraction(cfg: ExperimentConfig) -> list[tuple[float, str, int, float]]:
    """Train every fraction x mode x seed cell, in that nesting order; return
    (fraction, mode, seed, test accuracy) rows and write them to `sweep.csv`
    in cfg.out_dir, and each cell's files (run_cell) to
    `fraction-<repr(fraction)>-<mode>-seed-<seed>/` there."""
    cfg.require("kg", "corpus", "train", "test")
    grid = [(fraction, mode, seed) for fraction in cfg.fractions for mode in cfg.modes for seed in cfg.seeds]
    cells = [(f"fraction-{float(f)!r}-{m}-seed-{s}", dict(mode=m, seed=s, data_fraction=f)) for f, m, s in grid]
    rows = []
    for (fraction, mode, seed), (_, acc) in zip(grid, run_cells(cfg, cells)):
        rows.append((fraction, mode, seed, acc))
        print(f"fraction {fraction} mode {mode} seed {seed}: accuracy {acc:.4f}")

    _write_csv(cfg, "sweep", SWEEP_HEADER, [[repr(float(f)), m, s, repr(a)] for f, m, s, a in rows])
    return rows


def ablate_subgraph(cfg: ExperimentConfig) -> list[tuple[int, float]]:
    """Train once per node budget; return (max_nodes, test accuracy) rows and
    write them to `ablation.csv` in cfg.out_dir, and each cell's files
    (run_cell) to `max-nodes-<budget>/` there."""
    cfg.require("kg", "corpus", "train", "test")
    cells = [(f"max-nodes-{budget}", {"max_nodes": budget}) for budget in cfg.node_budgets]
    rows = []
    for budget, (_, acc) in zip(cfg.node_budgets, run_cells(cfg, cells)):
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
