"""Command-line entry points.

Subcommands: train, eval, sweep-fraction, ablate-subgraph, gen-synth.
Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .checkpoint import load_checkpoint
from .config import ExperimentConfig, parse_setting, resolve_config, stored_train_config
from .errors import ConfigError
from .experiments import ablate_subgraph, run_cells, sweep_fraction, write_jsonl
from .pipeline import build_model, load_pipeline, prepare_split
from .synth import SyntheticSpec, generate
from .training import TrainConfig, evaluate

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through the normal
    # config-error path instead so bad usage exits 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)

    # Python 3.11's argparse drops a lone "--" from an option's values, so
    # --name=-- would hand on [] instead of the text "--"
    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> object:
        if arg_strings == ["--"] and action.nargs is None:
            return "--"
        return super()._get_values(action, arg_strings)


_FILES = ("kg", "corpus", "train", "dev", "test", "out_dir")
_TRAIN = tuple(f.name for f in dataclasses.fields(TrainConfig))

# the ExperimentConfig fields each subcommand reads, and so its flags and
# the config-file keys it accepts. eval scores with the checkpoint's own
# settings and tensors, the node features among them outside text-only,
# so it reads no node-features file; each sweep cell sets the fields its
# loop varies
READS = {
    "train": (*_FILES, "node_features", *_TRAIN),
    "eval": (*_FILES, "checkpoint", "split"),
    "sweep-fraction": (*_FILES, "node_features", *(n for n in _TRAIN if n not in ("mode", "seed", "data_fraction")),
                       "fractions", "modes", "seeds"),
    "ablate-subgraph": (*_FILES, "node_features", *(n for n in _TRAIN if n != "max_nodes"), "node_budgets"),
}


def _add_config_flags(parser: argparse.ArgumentParser, settings: type, reads: tuple[str, ...]) -> None:
    """One flag per field of the dataclass `settings` named in `reads`, in
    field order, named after it."""
    parser.set_defaults(settings=settings, reads=reads)
    for f in dataclasses.fields(settings):
        if f.name not in reads:
            continue
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, tuple):
            parser.add_argument(flag, dest=f.name, metavar="LIST", help="comma separated values")
        elif isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, dest=f.name)


def _flag_values(args: argparse.Namespace) -> dict[str, object]:
    """Each given flag's value typed by config.parse_setting; a bool flag is
    already typed by its action."""
    values: dict[str, object] = {}
    for name in args.reads:
        raw = getattr(args, name)
        if raw is not None:
            values[name] = raw if isinstance(raw, bool) else parse_setting(args.settings, name, raw)
    return values


def _resolved(args: argparse.Namespace) -> ExperimentConfig | SyntheticSpec:
    return resolve_config(args.settings, _flag_values(args), args.config, args.command, args.reads)


def build_parser() -> argparse.ArgumentParser:
    # no flag abbreviations: sweep-fraction would read --seed as --seeds
    # and --mode as --modes
    parser = _Parser(prog="actknow", description="knowledge-infused multiple choice QA experiments",
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("train", "train one model and save the best checkpoint"),
                           ("eval", "evaluate a saved checkpoint on one split"),
                           ("sweep-fraction", "accuracy across training-set fractions, modes and seeds"),
                           ("ablate-subgraph", "accuracy across subgraph node budgets")):
        p = sub.add_parser(command, help=about, allow_abbrev=False)
        p.add_argument("--config", help="key = value settings file")
        _add_config_flags(p, ExperimentConfig, READS[command])

    p_gen = sub.add_parser("gen-synth", help="generate and verify a synthetic task", allow_abbrev=False)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(config=None)
    _add_config_flags(p_gen, SyntheticSpec, tuple(f.name for f in dataclasses.fields(SyntheticSpec)))
    return parser


def cmd_train(args: argparse.Namespace) -> None:
    cfg = _resolved(args)
    cfg.require("kg", "corpus", "train")
    [(result, test_accuracy)] = run_cells(cfg, [("", {})])
    print(f"best {'dev' if cfg.dev else 'train'} accuracy {result.best_accuracy:.4f} at epoch {result.best_epoch}")
    if test_accuracy is not None:
        print(f"test accuracy {test_accuracy:.4f}")
    print(f"files in {cfg.out_dir}")


def cmd_eval(args: argparse.Namespace) -> None:
    cfg = _resolved(args)
    cfg.require("kg", "corpus", "checkpoint", cfg.split)
    settings, state = load_checkpoint(cfg.checkpoint)
    # the train split is scored whole, not as the sample training read
    tc = dataclasses.replace(stored_train_config(cfg.checkpoint, settings), data_fraction=1.0)
    pipe = load_pipeline(cfg)
    # built as train builds it, so every tensor's shape is checked against the data
    model = build_model(pipe, tc)
    try:
        model.load_state_arrays(state)
    except ConfigError as exc:
        raise ConfigError(f"{cfg.checkpoint}: {exc}") from exc
    questions = prepare_split(pipe, cfg.split, tc)
    acc, rows = evaluate(questions, model, tc, with_details=True)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "eval.jsonl")
    write_jsonl(out_path, rows)
    print(f"{cfg.split} accuracy {acc:.4f} over {len(rows)} questions")
    print(f"details {out_path}")


def cmd_sweep_fraction(args: argparse.Namespace) -> None:
    sweep_fraction(_resolved(args))


def cmd_ablate_subgraph(args: argparse.Namespace) -> None:
    ablate_subgraph(_resolved(args))


def cmd_gen_synth(args: argparse.Namespace) -> None:
    spec = _resolved(args)
    report = generate(spec, args.out_dir)
    print(
        f"generated {report['questions']} questions over {report['chains']} chains "
        f"({report['entities']} entities, {report['sentences']} corpus sentences)"
    )
    print("splits " + " ".join(f"{k}={v}" for k, v in report["splits"].items()))
    print(
        f"verifier: {report['kg_answerable']}/{report['total']} answerable from the graph, "
        f"{report['lexically_answerable']} answerable from text overlap, "
        f"{report['bait_present']} with a lexical bait"
    )
    if report["failures"]:
        for line in report["failures"][:10]:
            print(f"verifier failure: {line}", file=sys.stderr)
        raise RuntimeError(f"verification failed for {len(report['failures'])} checks")
    print(f"files in {args.out_dir}")


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep-fraction": cmd_sweep_fraction,
    "ablate-subgraph": cmd_ablate_subgraph,
    "gen-synth": cmd_gen_synth,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the exit-code contract needs a catch-all
        log.exception("command failed")
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
