"""Synthetic multiple-hop QA task generator with an exhaustive verifier.

The generator builds disjoint two-hop relation chains (stem entity, middle
entity, answer entity) and asks which entity the stem entity reaches. The
corpus never states the final hop and never mentions answer entities, so
no question is answerable from text overlap: the retrieved premise for
the correct choice never contains its token, while a planted "bait"
distractor does co-occur with the stem entity in the corpus. Solving the
task requires following the graph.

Optional noise knobs add extra entities mentioned alongside the stem
entity, plus random edges among them, to study how the subgraph node
budget trades signal against clutter.

Entity and relation names are pseudowords so nothing leaks from real text.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError
from .kg import KnowledgeGraph, load_triples, normalize_label
from .nli import RETRIEVE_K, QAItem, convert, load_qa_jsonl, save_qa_jsonl
from .retrieval import build_index, load_corpus, tokenize
from .subgraph import identify_concepts

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# every fixed word used by the sentence/stem templates; pseudowords must
# avoid them so mention scanning stays clean
_RESERVED = {
    "what", "which", "where", "who", "when", "why", "how",
    "does", "the", "then", "people", "say", "can", "really", "fast",
    "near", "at", "night", "while", "and", "watched", "entry", "weather",
    "stayed", "calm", "all", "day", "road", "was", "long", "quiet",
    "river", "rested", "beside", "dawn", "travelers", "crossed", "valley",
}

# relations on the path from a stem entity to its answer
HOPS = 2
# relation labels the graph draws from, and wrong choices per question:
# one bait and DISTRACTOR_COUNT - 1 answers of other chains
N_RELATIONS = 6
DISTRACTOR_COUNT = 3
# the shares of questions (or, split by chain, of chains) in train and dev;
# test takes the rest
TRAIN_FRACTION = 0.7
DEV_FRACTION = 0.1
# random draws of a pair of noise entities allowed per noise edge asked for
NOISE_DRAWS_PER_EDGE = 20


@dataclass
class SyntheticSpec:
    n_entities: int = 200
    n_questions: int = 600
    seed: int = 0
    noise_entities: int = 0
    noise_edges: int = 0
    premise_noise: int = 0
    node_dim: int = 32
    feature_noise: float = 0.3
    split_by_chain: bool = False

    def validate(self) -> None:
        if self.n_questions < 1:
            raise ConfigError("n_questions must be >= 1")
        if self.node_dim < 1:
            raise ConfigError("node_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a range that nan falls outside of
        if not 0 <= self.feature_noise < math.inf:
            raise ConfigError(f"feature_noise must be finite and >= 0, got {self.feature_noise}")
        if self.noise_entities < 0 or self.noise_edges < 0 or self.premise_noise < 0:
            raise ConfigError("noise knobs must be >= 0")
        pairs = self.noise_entities * (self.noise_entities - 1) // 2
        if self.noise_edges > pairs:
            raise ConfigError(
                f"noise_edges={self.noise_edges} exceeds the {pairs} pairs of {self.noise_entities} noise entities"
            )
        if self.premise_noise > 0 and self.noise_entities < self.premise_noise:
            raise ConfigError("premise_noise needs at least that many noise entities")
        bait = max(1, self.n_entities // 10)
        chains = (self.n_entities - bait) // (HOPS + 1)
        if chains < 3:
            raise ConfigError(
                f"n_entities={self.n_entities} leaves only {chains} chains; need at least 3"
            )
        n, unit = (chains, "chains") if self.split_by_chain else (self.n_questions, "questions")
        n_train, n_dev = _split_sizes(n)
        if n_train < 1 or n_dev < 1 or n - n_train - n_dev < 1:
            raise ConfigError(f"{n} {unit} are too few to split into train, dev and test")


def _split_sizes(n: int) -> tuple[int, int]:
    """The train and dev sizes of a split of n questions or chains; test
    takes the rest."""
    return int(np.floor(TRAIN_FRACTION * n)), int(np.floor(DEV_FRACTION * n))


@dataclass
class _Chain:
    stem: str
    answer: str
    middle: str
    relations: list[str]


def _pseudowords(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        w = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), size=3))
        if w in taken or w in _RESERVED:
            continue
        taken.add(w)
        words.append(w)
    return words


def _stem(chain: _Chain) -> str:
    return f"what does the {chain.stem} {chain.relations[0]} then {chain.relations[1]} ?"


def generate(spec: SyntheticSpec, out_dir: str) -> dict:
    """Write kg.tsv, corpus.txt, node_features.txt and the three question
    splits into out_dir, then re-verify the files. Returns the verifier
    report plus basic counts."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1001]))
    os.makedirs(out_dir, exist_ok=True)

    per_chain = HOPS + 1
    bait_count = max(1, spec.n_entities // 10)
    n_chains = (spec.n_entities - bait_count) // per_chain
    bait_count = spec.n_entities - per_chain * n_chains

    taken: set[str] = set()
    relations = _pseudowords(rng, N_RELATIONS, taken)
    noise_labels = _pseudowords(rng, spec.noise_entities, taken)
    stem_labels = _pseudowords(rng, n_chains, taken)
    middle_labels = _pseudowords(rng, n_chains, taken)
    answer_labels = _pseudowords(rng, n_chains, taken)
    bait_labels = _pseudowords(rng, bait_count, taken)

    chains = []
    for i in range(n_chains):
        rels = [relations[int(rng.integers(0, N_RELATIONS))] for _ in range(HOPS)]
        chains.append(_Chain(stem=stem_labels[i], answer=answer_labels[i], middle=middle_labels[i], relations=rels))

    # an unused draw: every file generated after this point depends on the
    # RNG stream it advances, so removing it would change them all
    rng.permutation(n_chains)

    # ----- knowledge graph triples, in id-significant order: ids follow first
    # appearance, and both seed truncation and seed-pair processing prefer
    # low ids, so chain entities come first and noise entities last
    triples: list[tuple[str, str, str]] = []
    for chain in chains:
        triples.append((chain.stem, chain.relations[0], chain.middle))
        triples.append((chain.middle, chain.relations[1], chain.answer))
    for i, bait in enumerate(bait_labels):  # bait entities live in their own ring
        other = bait_labels[(i + 1) % len(bait_labels)]
        if other != bait:
            triples.append((bait, relations[int(rng.integers(0, N_RELATIONS))], other))
    seen_edges: set[tuple[str, str]] = set()
    if spec.noise_edges:
        made = 0
        guard = 0
        while made < spec.noise_edges and guard < spec.noise_edges * NOISE_DRAWS_PER_EDGE:
            guard += 1
            x = noise_labels[int(rng.integers(0, len(noise_labels)))]
            y = noise_labels[int(rng.integers(0, len(noise_labels)))]
            if x == y or (x, y) in seen_edges or (y, x) in seen_edges:
                continue
            seen_edges.add((x, y))
            triples.append((x, relations[int(rng.integers(0, N_RELATIONS))], y))
            made += 1
        if made < spec.noise_edges:
            raise ConfigError(f"noise_edges: placed {made} of {spec.noise_edges} noise edges in {guard} draws")

    kg_path = os.path.join(out_dir, "kg.tsv")
    with atomic_write(kg_path) as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")

    # ----- questions: every chain contributes its share, distractors drawn
    # from the other chains' answers, then a seeded question-level split
    base_q = spec.n_questions // n_chains
    extra_q = spec.n_questions % n_chains
    pool = [c.answer for c in chains]

    qid = 0
    bait_sentences: list[str] = []
    all_items: list[QAItem] = []
    chain_of: list[int] = []
    for ci, chain in enumerate(chains):
        for _ in range(base_q + (1 if ci < extra_q else 0)):
            bait = bait_labels[int(rng.integers(0, len(bait_labels)))]
            candidates = [a for a in pool if a != chain.answer]
            picks = rng.permutation(len(candidates))[: DISTRACTOR_COUNT - 1]
            wrong = [bait] + [candidates[i] for i in picks]
            choices = [chain.answer] + wrong
            perm = rng.permutation(len(choices))
            shuffled = [choices[i] for i in perm]
            answer_index = int(np.where(perm == 0)[0][0])
            all_items.append(
                QAItem(
                    id=f"q{qid:05d}",
                    stem=_stem(chain),
                    choices=shuffled,
                    answer_index=answer_index,
                )
            )
            qid += 1
            chain_of.append(ci)
            line = f"the {chain.stem} can {chain.relations[0]} near the {bait} at night"
            if spec.premise_noise:
                # noise entities ride along in the lines retrieval favors,
                # so they end up mentioned in most premises
                picks = rng.permutation(len(noise_labels))[: spec.premise_noise]
                parts = " and ".join(f"the {noise_labels[i]}" for i in picks)
                line += f" while {parts} watched"
            bait_sentences.append(line)

    if spec.split_by_chain:
        # hold out whole chains: test questions share no entities with
        # training ones, so only graph structure can generalize
        chain_order = rng.permutation(n_chains)
        c_train, c_dev = _split_sizes(n_chains)
        group = {}
        for pos, ci in enumerate(chain_order):
            name = "train" if pos < c_train else "dev" if pos < c_train + c_dev else "test"
            group[int(ci)] = name
        buckets: dict[str, list[QAItem]] = {"train": [], "dev": [], "test": []}
        for item, ci in zip(all_items, chain_of):
            buckets[group[ci]].append(item)
        split_items = {name: sorted(items, key=lambda q: q.id) for name, items in buckets.items()}
    else:
        order = rng.permutation(len(all_items))
        n_train, n_dev = _split_sizes(len(all_items))
        split_items = {
            "train": sorted((all_items[i] for i in order[:n_train]), key=lambda q: q.id),
            "dev": sorted((all_items[i] for i in order[n_train : n_train + n_dev]), key=lambda q: q.id),
            "test": sorted((all_items[i] for i in order[n_train + n_dev :]), key=lambda q: q.id),
        }

    # ----- corpus: per-chain support lines (the final hop and the answer are
    # never stated), per-question bait lines, plus fixed filler
    sentences = [f"people say the {chain.stem} can {chain.relations[0]} really fast" for chain in chains]
    sentences.extend(bait_sentences)
    for i in range(25):
        sentences.append(f"entry {i} the weather stayed calm and the road was long")
    deduped = list(dict.fromkeys(sentences))
    corpus_path = os.path.join(out_dir, "corpus.txt")
    with atomic_write(corpus_path) as fh:
        fh.write("\n".join(deduped) + "\n")

    # ----- node features: clustered per entity role, standing in for
    # pretrained embeddings where related things have related vectors;
    # feature_noise bounds a per-entity noise level, so some entities sit
    # close to their cluster center and others far from it
    pools = {}
    for label in stem_labels:
        pools[label] = "stem"
    for label in middle_labels:
        pools[label] = "middle"
    for label in answer_labels:
        pools[label] = "answer"
    for label in bait_labels:
        pools[label] = "bait"
    for label in noise_labels:
        pools[label] = "noise"
    centers = {}
    for pool in ("stem", "middle", "answer", "bait", "noise"):
        vec = rng.normal(0.0, 1.0, size=spec.node_dim)
        centers[pool] = vec / np.linalg.norm(vec)
    features_path = os.path.join(out_dir, "node_features.txt")
    with atomic_write(features_path) as fh:
        for label, pool in pools.items():
            level = rng.uniform(0.0, spec.feature_noise)
            vec = centers[pool] + rng.normal(0.0, level, size=spec.node_dim)
            fh.write(label + " " + " ".join(repr(float(v)) for v in vec) + "\n")

    split_paths = {}
    for name, items in split_items.items():
        path = os.path.join(out_dir, f"{name}.jsonl")
        save_qa_jsonl(path, items)
        split_paths[name] = path

    report = verify_task(kg_path, corpus_path, list(split_paths.values()))
    report.update(
        {
            "entities": spec.n_entities + spec.noise_entities,
            "chains": n_chains,
            "questions": qid,
            "sentences": len(deduped),
            "splits": {name: len(items) for name, items in split_items.items()},
        }
    )
    return report


# ---------------------------------------------------------------------------
# verifier


def _paths_up_to(graph: KnowledgeGraph, src: int, max_len: int) -> dict[int, set[int]]:
    """All entities reachable from src by a simple path, keyed by exact path
    length, brute-force enumeration."""
    reach: dict[int, set[int]] = {length: set() for length in range(1, max_len + 1)}

    def walk(node: int, visited: tuple[int, ...], depth: int) -> None:
        if depth == max_len:
            return
        for nb in graph.adjacency[node]:
            if nb in visited:
                continue
            reach[depth + 1].add(nb)
            walk(nb, visited + (nb,), depth + 1)

    walk(src, (src,), 0)
    return reach


def verify_task(kg_path: str, corpus_path: str, split_paths: list[str]) -> dict:
    """Re-check every question from the written files.

    A question passes when the correct choice lies on a simple path of
    exactly HOPS from the stem entity, no distractor is reachable
    within HOPS, the correct choice's token never appears in its
    retrieved premise (the RETRIEVE_K sentences the model reads), and at
    least one distractor's token appears in its own premise (the lexical
    bait).
    """
    graph = load_triples(kg_path)
    corpus = load_corpus(corpus_path)
    index = build_index(corpus)

    total = 0
    kg_answerable = 0
    lexically_answerable = 0
    bait_present = 0
    failures: list[str] = []
    for path in split_paths:
        for item in load_qa_jsonl(path):
            total += 1
            mentions = identify_concepts(tokenize(item.stem), graph)
            if len(set(mentions)) != 1:
                failures.append(f"{item.id}: stem should mention exactly one entity")
                continue
            src = mentions[0]
            reach = _paths_up_to(graph, src, HOPS)
            within = set().union(*reach.values())

            ok = True
            correct_label = normalize_label(item.choices[item.answer_index])
            correct_ent = graph.entity_ids.get(correct_label)
            if correct_ent is None or correct_ent not in reach[HOPS]:
                failures.append(f"{item.id}: correct choice not at hop {HOPS}")
                ok = False
            for i, choice in enumerate(item.choices):
                if i == item.answer_index:
                    continue
                ent = graph.entity_ids.get(normalize_label(choice))
                if ent is not None and ent in within:
                    failures.append(f"{item.id}: distractor {choice!r} reachable within {HOPS}")
                    ok = False
            if ok:
                kg_answerable += 1

            bait_here = False
            # the premise the model reads for each choice
            for i, (choice, pair) in enumerate(zip(item.choices, convert(item, index, corpus, RETRIEVE_K))):
                overlap = bool(set(tokenize(choice)) & set(pair.premise))
                if i == item.answer_index:
                    if overlap:
                        lexically_answerable += 1
                        failures.append(f"{item.id}: correct token appears in its premise")
                elif overlap:
                    bait_here = True
            if bait_here:
                bait_present += 1
            else:
                failures.append(f"{item.id}: no distractor token in its premise")

    return {
        "total": total,
        "kg_answerable": kg_answerable,
        "lexically_answerable": lexically_answerable,
        "bait_present": bait_present,
        "failures": failures,
    }
