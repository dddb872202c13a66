"""Turn multiple-choice questions into premise/hypothesis pairs.

The hypothesis swaps the first WH word of the stem for the candidate answer
and drops the trailing question mark. Premises come from BM25 retrieval
over the sentence corpus. Text stops here: a pair holds token lists, the
premise the retrieved sentences' corpus tokens in rank order, and the
hypothesis tokenized once. Concatenating per-sentence tokens gives the
tokens of the sentences joined by spaces: a token is a run of word
characters, so none spans a space.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .atomic import atomic_write
from .errors import ConfigError
from .retrieval import Corpus, InvertedIndex, has_token, retrieve, tokenize
from .textfile import read_lines

# premise sentences retrieved per choice, for the model and the task verifier alike
RETRIEVE_K = 5

_WH = re.compile(r"\b(what|which|where|who|when|why|how)\b", re.IGNORECASE)


@dataclass
class QAItem:
    id: str
    stem: str
    choices: list[str]
    answer_index: int


@dataclass
class NLIPair:
    premise: list[str]     # tokens of the retrieved sentences, best first
    hypothesis: list[str]  # tokens of make_hypothesis(stem, choice)


def _strip_trailing_question_mark(text: str) -> str:
    out = text.rstrip()
    if out.endswith("?"):
        out = out[:-1].rstrip()
    return out


def make_hypothesis(stem: str, choice: str) -> str:
    """Replace the first WH word with the choice; with no WH word, append the
    choice after the stem instead. The trailing '?' is dropped either way."""
    match = _WH.search(stem)
    if match:
        rewritten = stem[: match.start()] + choice + stem[match.end():]
        return _strip_trailing_question_mark(rewritten)
    return _strip_trailing_question_mark(stem) + " " + choice


def convert(item: QAItem, index: InvertedIndex, corpus: Corpus, k: int) -> list[NLIPair]:
    """One premise/hypothesis pair per answer choice, in choice order.

    The retrieval query is the stem plus the choice text; a query matching
    nothing yields an empty premise.
    """
    pairs = []
    for choice in item.choices:
        hits = retrieve(index, item.stem + " " + choice, k)
        premise = [tok for sid, _ in hits for tok in corpus.tokenized[sid]]
        pairs.append(NLIPair(premise=premise, hypothesis=tokenize(make_hypothesis(item.stem, choice))))
    return pairs


# ---------------------------------------------------------------------------
# dataset files: JSON lines with id, question, choices, answer_index


def load_qa_jsonl(path: str) -> list[QAItem]:
    """Questions in file order. Ids must be unique, so that each row of an
    evaluation names one question. The question and every choice must hold a
    word token: a choice of "?" would have no text of its own to score."""
    items: list[QAItem] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        try:
            qid, stem, choices, answer = obj["id"], obj["question"], obj["choices"], obj["answer_index"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: missing or malformed field: {exc}") from exc
        # a string is iterable and a bool is an int: neither may stand in,
        # and no other JSON value is turned into text
        for field, value in (("id", qid), ("question", stem)):
            if not isinstance(value, str):
                raise ConfigError(f"{path}:{lineno}: {field} must be a string, got {value!r}")
        if not isinstance(choices, list):
            raise ConfigError(f"{path}:{lineno}: choices must be a list, got {choices!r}")
        if not all(isinstance(c, str) for c in choices):
            raise ConfigError(f"{path}:{lineno}: choices must be strings, got {choices!r}")
        if not has_token(stem):
            raise ConfigError(f"{path}:{lineno}: question has no word token, got {stem!r}")
        if not all(map(has_token, choices)):
            raise ConfigError(f"{path}:{lineno}: every choice needs a word token, got {choices!r}")
        if isinstance(answer, bool) or not isinstance(answer, int):
            raise ConfigError(f"{path}:{lineno}: answer_index must be an integer, got {answer!r}")
        if qid in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate id {qid!r}, first on line {first_line[qid]}")
        first_line[qid] = lineno
        if len(choices) < 2:
            raise ConfigError(f"{path}:{lineno}: need at least 2 choices")
        if not 0 <= answer < len(choices):
            raise ConfigError(f"{path}:{lineno}: answer_index {answer} out of range")
        items.append(QAItem(id=qid, stem=stem, choices=choices, answer_index=answer))
    if not items:
        raise ConfigError(f"{path}: no questions found")
    return items


def save_qa_jsonl(path: str, items: list[QAItem]) -> None:
    with atomic_write(path) as fh:
        for item in items:
            fh.write(
                json.dumps(
                    {
                        "id": item.id,
                        "question": item.stem,
                        "choices": item.choices,
                        "answer_index": item.answer_index,
                    }
                )
                + "\n"
            )
