#!/usr/bin/env python3
"""actknow benchmark: one command, one workload per run.

    python3 bench/run.py --workload lowdata-act --seed 7 --seconds 30 --trace 0

With --trace 0 the workload is repeated for about --seconds seconds with no
instrumentation. The end-to-end metrics are medians over the passes,
scaled by the host's slowdown during the run (hostspeed.py).
With --trace 1 it runs once untraced and once traced, and reports the
per-layer metrics of the traced pass plus the tracing overhead. Either way
every cell's stats.csv, checkpoint and test predictions must be identical
across passes. The last line printed is one JSON object; see README.md.
"""

from __future__ import annotations

import os

# autodiff is single-threaded by contract; pin BLAS before numpy loads so
# both commits of a comparison run with the same setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("eval_qps", "questions/s", "higher"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# printed and recorded, but not in BENCHMARK.json: on a shared host its
# spread over runs exceeds the largest bound allowed there (see README.md)
UNBOUNDED = [("prepare_s", "s", "lower")]

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="synth spec seed; default: the scenario's bundled seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced run repeats the workload (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "actknow", "__init__.py")):
        print(f"error: no actknow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # these import actknow, so they load only once its sources are known to be there
    import envinfo
    from harness import WORKLOADS, Checks, ensure_data, measure, trace
    from layers import PER_LAYER

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = workload.spec if args.seed is None else dataclasses.replace(workload.spec, seed=args.seed)
    env = envinfo.record(ROOT)

    data_dir, report = ensure_data(spec, os.path.join(BENCH_DIR, "data"))
    checks = Checks()
    if report["failures"]:
        checks.fail(f"synth verifier reported {len(report['failures'])} failures")

    run_id = f"{workload.name}-seed{spec.seed}-trace{args.trace}"
    out_dir = os.path.join(BENCH_DIR, "out", run_id)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        values, spans_path = trace(workload, data_dir, out_dir, run_id, checks)
        listed, shown, samples = PER_LAYER, PER_LAYER, {}
    else:
        values, samples = measure(workload, data_dir, out_dir, args.seconds, checks)
        listed, shown, spans_path = END_TO_END, END_TO_END + UNBOUNDED, None
    env["loadavg_end"] = os.getloadavg()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in listed}
    result = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": workload.name, "seed": spec.seed,
                   "passes": len(samples.get("total_s", ())), "test_accuracy": checks.accuracy(),
                   "environment": env,
                   "samples": samples, "spans": spans_path, "problems": checks.problems}, fh, indent=1)

    print(f"workload {workload.name}  seed {spec.seed}  trace {args.trace}  "
          f"cells {checks.attempted}  failed {checks.failed}  test accuracy {checks.accuracy():.6g}")
    if samples:
        print(f"passes {len(samples['total_s'])}  host slowdown {samples['slowdown']:.4g}  "
              f"medians as measured {json.dumps(samples['wall'])}")
    print("environment " + json.dumps(env))
    for name, unit, better in shown:
        line = f"  {name:<42} {values[name]:>14.6g} {unit:<12} ({better} is better)"
        if samples.get(name):
            v = samples[name]
            line += f"  as measured: n={len(v)} min={min(v):.6g} max={max(v):.6g}"
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
