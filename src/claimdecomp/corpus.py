"""Ingestion of generated passages, example banks, and knowledge documents.

File formats are JSON Lines throughout:

* generations: ``{"topic": ..., "generator": ..., "output": ...}``
* example bank: ``{"sentence": ..., "subclaims": [...], "conllu": optional}``
* knowledge corpus: ``{"title": ..., "text": ...}``
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .conllu import SentenceParse


class CorpusError(ValueError):
    """Unreadable or malformed corpus input."""


@dataclass(frozen=True)
class Sentence:
    text: str
    index: int
    parse: SentenceParse | None = None


@dataclass(frozen=True)
class Passage:
    """One generated biography: who it is about, which LM wrote it, its text."""

    topic: str
    generator: str
    text: str
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class ExampleEntry:
    sentence: str
    subclaims: tuple[str, ...]
    conllu: str | None = None


@dataclass(frozen=True)
class ExampleBank:
    entries: tuple[ExampleEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class KnowledgeDoc:
    title: str
    text: str


# --- sentence splitting -----------------------------------------------------

_TERMINATORS = ".!?"
_OPENERS = "(["
_CLOSERS = ")]"
_QUOTES = "\"'“”‘’"

# Words whose trailing period never ends a sentence. Case-sensitive: "no."
# is an ordinary word, "No." is an abbreviation.
PROTECTED_ABBREVIATIONS = frozenset({
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "Rev.", "Hon.", "St.", "Gen.",
    "Capt.", "Col.", "Sgt.", "Lt.", "Sr.", "Jr.", "Inc.", "Co.", "Corp.",
    "Ltd.", "No.", "Vol.", "Fig.", "Mt.", "Ft.", "vs.", "etc.", "e.g.", "i.e.",
    "Jan.", "Feb.", "Mar.", "Apr.", "Jun.", "Jul.", "Aug.", "Sep.", "Sept.",
    "Oct.", "Nov.", "Dec.",
})

# Single capital + period ("A.") and dotted letter runs ("U.S.", "e.g.").
_DOTTED_ABBREV = re.compile(r"^(?:[A-Za-z]\.){2,}$|^[A-Z]\.$")
_LAST_WORD = re.compile(r"(\S+)$")


def _is_boundary(text: str, i: int) -> bool:
    n = len(text)
    j = i + 1
    if j >= n or not text[j].isspace():
        return False
    while j < n and text[j].isspace():
        j += 1
    if j >= n:
        return False
    nxt = text[j]
    if not (nxt.isupper() or nxt.isdigit() or nxt in _QUOTES):
        return False
    if text[i] == ".":
        match = _LAST_WORD.search(text[: i + 1])
        word = match.group(1).lstrip("([" + _QUOTES) if match else ""
        if word in PROTECTED_ABBREVIATIONS or _DOTTED_ABBREV.match(word):
            return False
    return True


def split_sentences(text: str) -> list[str]:
    """Rule-based splitter: {. ! ?} followed by whitespace and an
    uppercase letter, quote, or digit; protected abbreviations and
    parenthesized spans are never split."""
    sentences: list[str] = []
    start = 0
    depth = 0
    for i, ch in enumerate(text):
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth = max(0, depth - 1)
        elif ch in _TERMINATORS and depth == 0 and _is_boundary(text, i):
            piece = text[start: i + 1].strip()
            if piece:
                sentences.append(piece)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# --- passages ----------------------------------------------------------------

_INVALID_RESPONSE = re.compile(
    r"^\s*(i'?m sorry|i am sorry|i do not have|i don't have)", re.IGNORECASE)


def is_invalid_response(text: str) -> bool:
    """Empty outputs and refusal boilerplate count as invalid LM responses."""
    return not text.strip() or bool(_INVALID_RESPONSE.match(text))


def make_passage(topic: str, generator: str, text: str) -> Passage:
    if not topic or not generator:
        raise CorpusError("topic and generator must be non-empty")
    sentences = tuple(
        Sentence(text=s, index=i) for i, s in enumerate(split_sentences(text)))
    return Passage(topic=topic, generator=generator, text=text, sentences=sentences)


def load_generations(path: str | Path, drop_invalid: bool = False) -> list[Passage]:
    """Load one passage per JSONL record; invalid LM responses are retained
    unless ``drop_invalid`` is set."""
    passages: list[Passage] = []
    for where, record in _records(path):
        topic, generator, output = (_text(where, record, name)
                                    for name in ("topic", "generator", "output"))
        if drop_invalid and is_invalid_response(output):
            continue
        try:
            passages.append(make_passage(topic, generator, output))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
    return passages


def attach_parses(passages: list[Passage], parses: list[SentenceParse]) -> list[Passage]:
    """Assign parses to sentences positionally, passage by passage.

    When a parse carries a ``# text`` comment it must match the sentence text
    exactly (after whitespace normalization).
    """
    total = sum(len(p.sentences) for p in passages)
    if total != len(parses):
        raise CorpusError(
            f"parse count mismatch: {total} sentences but {len(parses)} parses")
    out: list[Passage] = []
    cursor = 0
    for passage in passages:
        new_sentences = []
        for sentence in passage.sentences:
            parse = parses[cursor]
            cursor += 1
            expected = parse.text_comment
            if expected is not None and " ".join(expected.split()) != " ".join(sentence.text.split()):
                raise CorpusError(
                    f"parse text mismatch for {passage.generator}/{passage.topic} "
                    f"sentence {sentence.index}: {expected!r} != {sentence.text!r}")
            new_sentences.append(dataclasses.replace(sentence, parse=parse))
        out.append(dataclasses.replace(passage, sentences=tuple(new_sentences)))
    return out


# --- example banks and knowledge docs ----------------------------------------

def load_example_bank(path: str | Path) -> ExampleBank:
    entries: list[ExampleEntry] = []
    seen: set[str] = set()
    for where, record in _records(path):
        sentence = _text(where, record, "sentence")
        subclaims = record.get("subclaims")
        conllu = record.get("conllu")
        if not sentence:
            raise CorpusError(f"{where}: missing field 'sentence'")
        if not subclaims:
            raise CorpusError(f"{where}: entry has no subclaims")
        if not (isinstance(subclaims, list) and all(isinstance(c, str) for c in subclaims)):
            raise CorpusError(f"{where}: field 'subclaims' must be a list of strings")
        if conllu is not None and not isinstance(conllu, str):
            raise CorpusError(f"{where}: field 'conllu' must be a string")
        if sentence in seen:
            raise CorpusError(f"{where}: duplicate sentence {sentence!r}")
        seen.add(sentence)
        entries.append(ExampleEntry(sentence=sentence, subclaims=tuple(subclaims),
                                    conllu=conllu))
    return ExampleBank(entries=tuple(entries))


def load_knowledge(path: str | Path) -> list[KnowledgeDoc]:
    docs: list[KnowledgeDoc] = []
    seen: set[str] = set()
    for where, record in _records(path):
        title, text = _text(where, record, "title"), _text(where, record, "text")
        if title in seen:
            raise CorpusError(f"{where}: duplicate title {title!r}")
        seen.add(title)
        docs.append(KnowledgeDoc(title=title, text=text))
    return docs


# --- JSONL reading -------------------------------------------------------------

def _records(path: str | Path) -> Iterator[tuple[str, dict]]:
    """("<path>: line <n>", record) for each non-blank line of a JSONL file.
    A line that is not a JSON object is a CorpusError naming the path and
    line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: malformed record: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: expected a JSON object, got {line.strip()[:60]}")
            yield where, record


def _text(where: str, record: dict, name: str) -> str:
    if record.get(name) is None:
        raise CorpusError(f"{where}: missing field {name!r}")
    if not isinstance(record[name], str):
        raise CorpusError(f"{where}: field {name!r} must be a string, got {record[name]!r}")
    return record[name]
