"""Which actknow functions the traced run wraps, and the per-layer metrics
derived from what the wrappers record.

Each wrapper is installed at the call site: on the module attribute that
the caller looks up when it calls (`training.encode_text`, not
`encoders.encode_text`, because `training` imported the name). Layers are
named after the module that defines the function. The code is
single-threaded and has no queues, so no waiting time is recorded.
"""

from __future__ import annotations

import contextlib
import inspect
import os

from actknow import autodiff, checkpoint, nli, optim, pipeline, training

from spans import Tracer, by_name, distinct_ratio, mean_per_interval, percentile, ratio

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = [
    ("pipeline.load_pipeline.s", "s", "lower"),
    ("pipeline.prepare_split.s", "s", "lower"),
    ("pipeline.prepare_split.self_s", "s", "lower"),
    ("pipeline.run_training.self_s", "s", "lower"),
    ("retrieval.retrieve.calls", "count", "lower"),
    ("retrieval.retrieve.s", "s", "lower"),
    ("retrieval.retrieve.distinct_query_ratio", "ratio", "higher"),
    ("retrieval.retrieve.empty_ratio", "ratio", "lower"),
    ("nli.convert.calls", "count", "lower"),
    ("nli.convert.self_s", "s", "lower"),
    ("subgraph.identify_concepts.calls", "count", "lower"),
    ("subgraph.identify_concepts.s", "s", "lower"),
    ("subgraph.connect_concepts.calls", "count", "lower"),
    ("subgraph.connect_concepts.s", "s", "lower"),
    ("subgraph.nodes_p50", "count", "lower"),
    ("subgraph.nodes_p90", "count", "lower"),
    ("subgraph.no_subgraph_ratio", "ratio", "lower"),
    ("subgraph.paths_per_seed_pair", "ratio", "higher"),
    ("kg.train_kg_embeddings.calls", "count", "lower"),
    ("kg.train_kg_embeddings.s", "s", "lower"),
    ("kg.train_kg_embeddings.distinct_ratio", "ratio", "higher"),
    ("encoders.encode_text.calls", "count", "lower"),
    ("encoders.encode_text.s", "s", "lower"),
    ("encoders.gcn_forward.calls", "count", "lower"),
    ("encoders.gcn_forward.s", "s", "lower"),
    ("encoders.er_attention.calls", "count", "lower"),
    ("encoders.er_attention.s", "s", "lower"),
    ("encoders.er_attention.calls_per_step", "count", "lower"),
    ("encoders.graph_zero_weight_ratio", "ratio", "lower"),
    ("training.score_question.train_calls", "count", "lower"),
    ("training.score_question.eval_calls", "count", "lower"),
    ("training.entropy_passes", "count", "lower"),
    ("training.score_question.self_s", "s", "lower"),
    ("training.evaluate.calls", "count", "lower"),
    ("training.evaluate.s", "s", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.tape_nodes_per_backward_p50", "count", "lower"),
    ("optim.Adam.step.calls", "count", "lower"),
    ("optim.Adam.step.s", "s", "lower"),
    ("checkpoint.save_checkpoint.calls", "count", "lower"),
    ("checkpoint.save_checkpoint.s", "s", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("training.evaluate.test_accuracy", "fraction", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _binder(fn):
    """Map a call's positional and keyword arguments to parameter names."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def tape_size(loss: autodiff.Tensor) -> int:
    """Tape nodes `autodiff.backward` walks from this loss: the loss and
    every ancestor that requires a gradient."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _install(t: Tracer) -> None:
    c, s = t.counters, t.samples

    def on_retrieve(span, result, *args, **kwargs):
        a = bind_retrieve(args, kwargs)
        s["retrieve.keys"].append((a["query"], a["k"]))
        c["retrieve.empty"] += not result

    def on_convert(span, result, *args, **kwargs):
        c["choices"] += len(result)

    def on_connect(span, result, *args, **kwargs):
        seeds = len(set(bind_connect(args, kwargs)["seeds"]))
        s["subgraph.nodes"].append(result.n_nodes)
        c["subgraph.paths"] += len(result.paths)
        c["subgraph.seed_pairs"] += seeds * (seeds - 1) // 2

    def on_kg(span, result, *args, **kwargs):
        a = bind_kg(args, kwargs)
        s["kg.keys"].append(tuple((k, id(v) if k == "graph" else v) for k, v in a.items()))

    def scale_of(slot: int) -> None:
        # graph (slot 0) and knowledge (slot 1) outputs are scaled by the
        # enclosing score_question call's weights
        parent = t.current()
        if parent is not None and parent.name == "training.score_question":
            c["graph_outputs"] += 1
            c["graph_outputs_zero"] += parent.info[slot] == 0.0

    def before_er(*args, **kwargs):
        scale_of(1)
        s["er.step_marks"].append(c["adam_steps"])

    def before_score(*args, **kwargs):
        a = bind_score(args, kwargs)
        weights = tuple(float(w) for w in a["weights"])
        if a["train"]:
            c["score.train"] += 1
        else:
            c["score.eval"] += 1
            c["entropy_passes"] += a["config"].mode == "act-know" and weights == (1.0, 1.0)
        return weights

    def before_backward(loss, *args, **kwargs):
        s["tape_nodes"].append(tape_size(loss))

    def on_step(span, result, *args, **kwargs):
        c["adam_steps"] += 1

    def on_save(span, result, *args, **kwargs):
        c["checkpoint.bytes"] += os.path.getsize(bind_save(args, kwargs)["path"])

    bind_retrieve = _binder(nli.retrieve)
    bind_connect = _binder(training.connect_concepts)
    bind_kg = _binder(pipeline.train_kg_embeddings)
    bind_score = _binder(training.score_question)
    bind_save = _binder(checkpoint.save_checkpoint)

    t.wrap(pipeline, "load_pipeline", "pipeline.load_pipeline")
    t.wrap(pipeline, "prepare_split", "pipeline.prepare_split")
    t.wrap(pipeline, "run_training", "pipeline.run_training")
    t.wrap(pipeline, "train_kg_embeddings", "kg.train_kg_embeddings", after=on_kg)
    t.wrap(nli, "retrieve", "retrieval.retrieve", after=on_retrieve)
    t.wrap(training, "convert", "nli.convert", after=on_convert)
    t.wrap(training, "identify_concepts", "subgraph.identify_concepts")
    t.wrap(training, "connect_concepts", "subgraph.connect_concepts", after=on_connect)
    t.wrap(training, "encode_text", "encoders.encode_text")
    t.wrap(training, "gcn_forward", "encoders.gcn_forward", before=lambda *a, **k: scale_of(0))
    t.wrap(training, "er_attention", "encoders.er_attention", before=before_er)
    t.wrap(training, "score_question", "training.score_question", before=before_score)
    t.wrap(training, "evaluate", "training.evaluate")
    t.wrap(autodiff, "backward", "autodiff.backward", before=before_backward)
    t.wrap(optim.Adam, "step", "optim.Adam.step", after=on_step)
    t.wrap(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", after=on_save)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans into `tracer` while the block runs; the original
    functions are back in place afterwards, also when the block raises."""
    try:
        _install(tracer)
        yield tracer
    finally:
        tracer.unwrap_all()


def per_layer_metrics(t: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric that the tracer alone gives: all but test
    accuracy and trace.overhead_s, which need the passes themselves."""
    agg = by_name(t.spans)
    c, s = t.counters, t.samples
    out = {
        "pipeline.load_pipeline.s": agg["pipeline.load_pipeline"]["s"],
        "pipeline.prepare_split.s": agg["pipeline.prepare_split"]["s"],
        "pipeline.prepare_split.self_s": agg["pipeline.prepare_split"]["self_s"],
        "pipeline.run_training.self_s": agg["pipeline.run_training"]["self_s"],
        "retrieval.retrieve.distinct_query_ratio": distinct_ratio(s["retrieve.keys"]),
        "retrieval.retrieve.empty_ratio": ratio(c["retrieve.empty"], agg["retrieval.retrieve"]["calls"]),
        "nli.convert.self_s": agg["nli.convert"]["self_s"],
        "subgraph.nodes_p50": percentile(s["subgraph.nodes"], 50),
        "subgraph.nodes_p90": percentile(s["subgraph.nodes"], 90),
        "subgraph.no_subgraph_ratio": ratio(c["choices"] - agg["subgraph.connect_concepts"]["calls"], c["choices"]),
        "subgraph.paths_per_seed_pair": ratio(c["subgraph.paths"], c["subgraph.seed_pairs"]),
        "kg.train_kg_embeddings.distinct_ratio": distinct_ratio(s["kg.keys"]),
        "encoders.er_attention.calls_per_step": mean_per_interval(s["er.step_marks"]),
        "encoders.graph_zero_weight_ratio": ratio(c["graph_outputs_zero"], c["graph_outputs"]),
        "training.score_question.train_calls": c["score.train"],
        "training.score_question.eval_calls": c["score.eval"],
        "training.entropy_passes": c["entropy_passes"],
        "training.score_question.self_s": agg["training.score_question"]["self_s"],
        "autodiff.tape_nodes_per_backward_p50": percentile(s["tape_nodes"], 50),
        "checkpoint.save_checkpoint.bytes": c["checkpoint.bytes"],
        "trace.spans": len(t.spans),
    }
    for name in ("retrieval.retrieve", "nli.convert", "subgraph.identify_concepts",
                 "subgraph.connect_concepts", "kg.train_kg_embeddings", "encoders.encode_text",
                 "encoders.gcn_forward", "encoders.er_attention", "training.evaluate",
                 "autodiff.backward", "optim.Adam.step", "checkpoint.save_checkpoint"):
        out.setdefault(f"{name}.calls", agg[name]["calls"])
        out.setdefault(f"{name}.s", agg[name]["s"])
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}
