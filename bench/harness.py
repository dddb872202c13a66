"""The benchmark's workloads, one timed pass over a workload, and the two
kinds of run built from passes.

A pass runs a bundled scenario the way `actknow train` and
`actknow ablate-subgraph` do: load_pipeline, then per training cell
prepare_split, run_training, save_checkpoint plus write_stats_csv, and a
final evaluate on test. One caller waits for each cell before the next
(closed loop, one client). Inputs come from `synth.generate` with the
scenario spec and the workload seed; generating them is never timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from actknow import checkpoint, pipeline, scenarios, synth, training
from actknow.config import ExperimentConfig

from hostspeed import HostSpeed
from layers import instrument, per_layer_metrics
from spans import Tracer, by_name, ratio

SETUP_SAMPLES = 3  # set-up samples before the first pass, and again after each pass
SETUP_CALLS = 10  # load_pipeline calls averaged in one set-up sample
GENERATE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    spec: synth.SyntheticSpec
    experiment: Callable[[str, str], ExperimentConfig]
    # (cell name, TrainConfig overrides) for each training cell, in run order
    cells: Callable[[ExperimentConfig], list[tuple[str, dict]]]


# why each workload is here: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lowdata-act",
            scenarios.LOWDATA_SPEC,
            scenarios.lowdata_experiment,
            lambda cfg: [("act-know", {"mode": "act-know", "seed": 0, "data_fraction": 0.2})],
        ),
        Workload(
            "lowdata-text",
            scenarios.LOWDATA_SPEC,
            scenarios.lowdata_experiment,
            lambda cfg: [("text-only", {"mode": "text-only", "seed": 0, "data_fraction": 0.2})],
        ),
        Workload(
            "noisy-ablation",
            scenarios.NOISY_SPEC,
            scenarios.noisy_experiment,
            lambda cfg: [(f"max-nodes-{b}", {"max_nodes": b}) for b in cfg.node_budgets],
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


# run as `python3 -c _GENERATE <spec json> <out dir>`
_GENERATE = """
import json, os, sys
from actknow import synth
report = synth.generate(synth.SyntheticSpec(**json.loads(sys.argv[1])), sys.argv[2])
with open(os.path.join(sys.argv[2], "report.json"), "w", encoding="utf-8") as fh:
    json.dump(report, fh)
"""


def ensure_data(spec: synth.SyntheticSpec, data_root: str) -> tuple[str, dict]:
    """Directory holding the task generated from `spec`, and its verifier
    report. Tasks are cached under `data_root`, keyed by the whole spec
    (seed included). Generation runs in a child process, so its memory does
    not count towards the benchmark's peak resident size."""
    key = hashlib.sha256(json.dumps(dataclasses.asdict(spec), sort_keys=True).encode()).hexdigest()[:12]
    final = os.path.join(data_root, f"seed{spec.seed}-{key}")
    report_path = os.path.join(final, "report.json")
    if not os.path.isfile(report_path):
        os.makedirs(data_root, exist_ok=True)
        tmp = os.path.join(data_root, f".tmp-{key}-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))}
        # subprocess.run waits for the child, and kills and reaps it on timeout
        try:
            done = subprocess.run([sys.executable, "-c", _GENERATE, json.dumps(dataclasses.asdict(spec)), tmp],
                                  env=env, stdout=subprocess.DEVNULL, timeout=GENERATE_TIMEOUT_S)
            status = done.returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        if status != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"generating the task for seed {spec.seed} failed (exit {status})")
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(report_path, encoding="utf-8") as fh:
        return final, json.load(fh)


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Cell:
    name: str
    prepare_s: float = 0.0
    train_s: float = 0.0
    accuracy: float = math.nan
    digest: str = ""  # of stats.csv, the checkpoint and the test predictions
    error: str | None = None
    rows: list[dict] = field(default_factory=list, repr=False)  # test predictions


@dataclass
class Pass:
    total_s: float
    eval_questions: int
    eval_s: float
    cells: list[Cell]

    @property
    def prepare_s(self) -> float:
        return sum(c.prepare_s for c in self.cells)

    @property
    def train_s(self) -> float:
        return sum(c.train_s for c in self.cells)

    @property
    def eval_qps(self) -> float:
        return ratio(self.eval_questions, self.eval_s)  # 0 when every cell failed before evaluating


def _digest(cell_dir: str, rows: list[dict]) -> str:
    h = hashlib.sha256()
    for name in ("stats.csv", "checkpoint.txt"):
        with open(os.path.join(cell_dir, name), "rb") as fh:
            h.update(fh.read())
    h.update(json.dumps([(r["id"], r["predicted"], r["logits"]) for r in rows]).encode())
    return h.hexdigest()


def _run_cell(pipe, cfg: ExperimentConfig, cell: Cell, overrides: dict, cell_dir: str,
              now: Callable[[], float]) -> None:
    tc = pipeline.training_config_for(cfg, **overrides)
    t0 = now()
    train_qs = pipeline.prepare_split(pipe, "train", tc)
    dev_qs = pipeline.prepare_split(pipe, "dev", tc) if "dev" in pipe.items else None
    test_qs = pipeline.prepare_split(pipe, "test", tc)
    t1 = now()
    model, result = pipeline.run_training(pipe, tc, train_qs, dev_qs)
    t2 = now()
    checkpoint.save_checkpoint(os.path.join(cell_dir, "checkpoint.txt"), result.best_state)
    training.write_stats_csv(os.path.join(cell_dir, "stats.csv"), result.stats)
    model.load_state_arrays(result.best_state)
    cell.accuracy, cell.rows = training.evaluate(test_qs, model, tc)
    cell.prepare_s, cell.train_s = t1 - t0, t2 - t1
    if not all(math.isfinite(row["loss"]) for row in result.stats):
        cell.error = "non-finite loss in stats"


def run_pass(workload: Workload, data_dir: str, out_dir: str, speed: HostSpeed | None = None) -> Pass:
    """One timed pass over every cell of the workload. A cell that raises is
    recorded as failed and the pass goes on with the next cell. With
    `speed`, the reference loop runs after every `training.evaluate` call,
    and the timings are read from its clock, which stops meanwhile.

    Every `training.evaluate` call is clocked for eval_qps: the per-epoch
    train and dev evaluations inside training and the final test
    evaluation. A single final evaluation lasts a fraction of a second, too
    short to time steadily on a shared host; these calls run the same
    eval-mode scoring spread over the whole pass.
    """
    now = speed.now if speed is not None else time.perf_counter
    cfg = workload.experiment(data_dir, out_dir)
    cells = [(Cell(name), overrides) for name, overrides in workload.cells(cfg)]
    for cell, _ in cells:
        os.makedirs(os.path.join(out_dir, cell.name), exist_ok=True)

    clock = Tracer(run_id="evaluate")
    questions: list[int] = []  # per evaluate call

    def after_evaluate(span, result, qs, *args, **kwargs):
        questions.append(len(qs))
        if speed is not None:
            speed.lap()

    clock.wrap(training, "evaluate", "training.evaluate", after=after_evaluate)
    try:
        t0 = now()
        pipe = pipeline.load_pipeline(cfg)
        for cell, overrides in cells:
            try:
                _run_cell(pipe, cfg, cell, overrides, os.path.join(out_dir, cell.name), now)
            except Exception:  # noqa: BLE001 - a failing cell is counted, not fatal
                cell.error = traceback.format_exc()
        total_s = now() - t0
    finally:
        clock.unwrap_all()

    for cell, _ in cells:
        if cell.error is None:
            cell.digest = _digest(os.path.join(out_dir, cell.name), cell.rows)
    return Pass(total_s=total_s, eval_questions=sum(questions),
                eval_s=by_name(clock.spans)["training.evaluate"]["s"], cells=[cell for cell, _ in cells])


def time_setup(workload: Workload, data_dir: str, out_dir: str, speed: HostSpeed) -> list[float]:
    """SETUP_SAMPLES set-up samples, then a lap of the reference loop. A
    sample is the mean wall time of a load_pipeline call over SETUP_CALLS
    calls in a row: one call takes milliseconds, too short to time steadily
    on a shared host."""
    cfg = workload.experiment(data_dir, out_dir)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(SETUP_CALLS):
            pipeline.load_pipeline(cfg)
        samples.append((time.perf_counter() - t0) / SETUP_CALLS)
    speed.lap()
    return samples


# ---------------------------------------------------------------------------
# runs


class Checks:
    """Counts cells and failures, and compares every cell's outputs with
    those of the first pass that produced them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}
        self.accuracies: dict[str, float] = {}
        self.problems: list[str] = []

    def accuracy(self) -> float:
        """Mean test accuracy over the cells of the first pass; deterministic
        for a seed, and the same in every pass that passed the checks."""
        return sum(self.accuracies.values()) / len(self.accuracies) if self.accuracies else math.nan

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def add(self, p: Pass, label: str) -> None:
        for cell in p.cells:
            self.attempted += 1
            expected = self.reference.setdefault(cell.name, cell.digest)
            self.accuracies.setdefault(cell.name, cell.accuracy)
            if cell.error is not None:
                self.failed += 1
                self.fail(f"{label} cell {cell.name}: {cell.error}")
            elif cell.digest != expected:
                self.failed += 1
                self.fail(f"{label} cell {cell.name}: outputs differ from the first pass")


def measure(workload: Workload, data_dir: str, out_dir: str, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Repeat the workload untraced for about `seconds`; return (metric
    values, the samples behind them). At least one pass runs.

    Set-up is sampled before the first pass and again after every pass.
    Each timing is the median of its samples divided by the run's host
    slowdown (hostspeed.py); eval_qps is multiplied by it. The medians as
    measured are kept under "wall".
    """
    speed = HostSpeed()
    speed.lap()
    setups = time_setup(workload, data_dir, out_dir, speed)
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, data_dir, out_dir, speed)
        checks.add(p, f"pass {len(passes) + 1}")
        passes.append(p)
        setups += time_setup(workload, data_dir, out_dir, speed)
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the time asked for
        if elapsed + elapsed / len(passes) > seconds:
            break

    samples = {
        "setup_s": setups,
        "prepare_s": [p.prepare_s for p in passes],
        "train_s": [p.train_s for p in passes],
        "eval_qps": [p.eval_qps for p in passes],
        "total_s": [p.total_s for p in passes],
    }
    wall = {name: statistics.median(v) for name, v in samples.items()}
    slowdown = speed.slowdown()
    values = {name: v * slowdown if name == "eval_qps" else v / slowdown for name, v in wall.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["wall"] = wall
    samples["reference_laps_s"] = speed.laps
    samples["slowdown"] = slowdown
    return values, samples


def trace(workload: Workload, data_dir: str, out_dir: str, run_id: str, checks: Checks) -> tuple[dict, str]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    plain = run_pass(workload, data_dir, out_dir)
    checks.add(plain, "untraced pass")
    tracer = Tracer(run_id=run_id)
    with instrument(tracer):
        traced = run_pass(workload, data_dir, out_dir)
    checks.add(traced, "traced pass")
    values = per_layer_metrics(tracer)
    values["training.evaluate.test_accuracy"] = checks.accuracy()
    values["trace.overhead_s"] = traced.total_s - plain.total_s
    spans_path = os.path.join(out_dir, "spans.jsonl")
    tracer.write_jsonl(spans_path)
    return values, spans_path
