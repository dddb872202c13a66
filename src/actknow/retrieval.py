"""In-memory inverted index with BM25 ranking (k1=1.2, b=0.75).

The whole corpus is one sentence per line, kept only as its tokens: a
premise is the concatenation of its sentences' token lists, never re-joined
text. Scores use the always-positive idf variant
ln(1 + (N - df + 0.5) / (df + 0.5)), and duplicate query tokens count once.
Ties break by ascending sentence id.

Scoring is impact-based: the first query that uses a token turns its postings
into numpy arrays of sentence ids and impacts (idf times tf saturation),
which the index keeps for every later query. A query adds the impacts of its
tokens in sorted-token order, so each score is the same float sum as adding
idf * weight posting by posting.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .textfile import read_lines

K1 = 1.2
B = 0.75

_TOKEN = re.compile(r"\w+")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def has_token(text: str) -> bool:
    """Whether tokenize(text) is non-empty, without building the list:
    lowercasing never makes or unmakes a word character."""
    return _TOKEN.search(text) is not None


@dataclass
class Corpus:
    tokenized: list[list[str]]  # one token list per sentence, in file order


def corpus_from_sentences(sentences: list[str]) -> Corpus:
    return Corpus(tokenized=[tokenize(s) for s in sentences])


def load_corpus(path: str) -> Corpus:
    sentences = [line for line in read_lines(path) if line.strip()]
    if not sentences:
        raise ConfigError(f"{path}: empty corpus")
    return corpus_from_sentences(sentences)


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[int, int]]]  # token -> [(sentence_id, tf)], id-ascending
    doc_lengths: list[int]
    avg_doc_length: float
    doc_count: int
    # token -> (sentence ids, impacts), filled by the first query using the token
    impacts: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False, compare=False)


def build_index(corpus: Corpus) -> InvertedIndex:
    if not corpus.tokenized:
        raise ConfigError("cannot index an empty corpus")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths = []
    for sid, tokens in enumerate(corpus.tokenized):
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for tok, tf in counts.items():
            postings.setdefault(tok, []).append((sid, tf))
    total = sum(doc_lengths)
    avg = total / len(doc_lengths) if doc_lengths else 0.0
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=avg,
        doc_count=len(doc_lengths),
    )


def bm25_idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def bm25_term_weight(tf: int, doc_length: int, avg_doc_length: float) -> float:
    norm = K1 * (1.0 - B + B * doc_length / avg_doc_length)
    return tf * (K1 + 1.0) / (tf + norm)


def _token_impacts(index: InvertedIndex, tok: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The token's posting ids and their BM25 impacts, built on first use;
    None for a token no sentence contains."""
    cached = index.impacts.get(tok)
    if cached is None and tok in index.postings:
        plist = index.postings[tok]
        ids, tfs = np.array(plist, dtype=np.int64).T
        lengths = np.array([index.doc_lengths[sid] for sid, _ in plist], dtype=np.int64)
        weights = bm25_term_weight(tfs, lengths, index.avg_doc_length)
        cached = index.impacts[tok] = (ids, bm25_idf(index.doc_count, len(plist)) * weights)
    return cached


def retrieve(index: InvertedIndex, query: str, k: int) -> list[tuple[int, float]]:
    """Top-k (sentence_id, score) for the query; only sentences sharing at
    least one query token are candidates."""
    if k < 1:
        raise ConfigError(f"retrieve: k must be >= 1, got {k}")
    scores = np.zeros(index.doc_count)
    for tok in sorted(set(tokenize(query))):
        hit = _token_impacts(index, tok)
        if hit is not None:
            ids, impacts = hit
            scores[ids] += impacts
    # every impact is > 0 (the idf variant is positive), so the nonzero
    # scores are exactly the sentences sharing a query token
    candidates = np.flatnonzero(scores)
    top = candidates[np.lexsort((candidates, -scores[candidates]))][:k]
    return [(int(sid), float(scores[sid])) for sid in top]
