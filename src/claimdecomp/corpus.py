"""Ingestion of generated passages, example banks, and knowledge documents.

File formats are JSON Lines throughout:

* generations: ``{"topic": ..., "generator": ..., "output": ...}``
* example bank: ``{"sentence": ..., "subclaims": [...], "conllu": optional}``
* knowledge corpus: ``{"title": ..., "text": ...}``
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

if typing.TYPE_CHECKING:  # annotations only: a run without parses never loads conllu
    from .conllu import SentenceParse


class CorpusError(ValueError):
    """Unreadable or malformed corpus input."""


# The report files' last row, after one row per generator.
MACRO_ROW = "macro-average"


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


@dataclass(frozen=True, eq=False)
class ExampleBank:
    """Compared and hashed by identity, so a bank's retrieval vectors are
    cached per bank object without hashing its entries."""

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
    unless ``drop_invalid`` is set. A (topic, generator) pair names one
    record: the stages key their outputs by it. A generator may not be named
    ``MACRO_ROW``, the reports' average row."""
    passages: list[Passage] = []
    seen: set[tuple[str, str]] = set()
    for where, record in _records(path):
        _check_fields(where, record, _GENERATION_TYPES)
        key = (record["topic"], record["generator"])
        if record["generator"] == MACRO_ROW:
            raise CorpusError(f"{where}: generator {MACRO_ROW!r} names the reports' average row")
        if key in seen:
            raise CorpusError(f"{where}: repeated topic and generator {key!r}")
        seen.add(key)
        if drop_invalid and is_invalid_response(record["output"]):
            continue
        try:
            passages.append(make_passage(record["topic"], record["generator"], record["output"]))
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
        _check_fields(where, record, _ENTRY_TYPES)
        sentence, subclaims = record["sentence"], tuple(record["subclaims"])
        if not sentence:
            raise CorpusError(f"{where}: missing field 'sentence'")
        if not subclaims:
            raise CorpusError(f"{where}: entry has no subclaims")
        if sentence in seen:
            raise CorpusError(f"{where}: duplicate sentence {sentence!r}")
        seen.add(sentence)
        entries.append(ExampleEntry(sentence=sentence, subclaims=subclaims,
                                    conllu=record.get("conllu")))
    return ExampleBank(entries=tuple(entries))


def load_knowledge(path: str | Path) -> list[KnowledgeDoc]:
    docs: list[KnowledgeDoc] = []
    seen: set[str] = set()
    for where, record in _records(path):
        _check_fields(where, record, _DOC_TYPES)
        if record["title"] in seen:
            raise CorpusError(f"{where}: duplicate title {record['title']!r}")
        seen.add(record["title"])
        docs.append(KnowledgeDoc(title=record["title"], text=record["text"]))
    return docs


# --- JSON reading ----------------------------------------------------------------

# What each input file's records must hold: the fields of the thing built
# from them. No class is built from a generations record as it is.
_GENERATION_TYPES = {"topic": str, "generator": str, "output": str}
_ENTRY_TYPES = typing.get_type_hints(ExampleEntry)
_DOC_TYPES = typing.get_type_hints(KnowledgeDoc)


def _records(path: str | Path) -> Iterator[tuple[str, dict]]:
    """("<path>: line <n>", record) for each non-blank line of a JSONL file.
    A line that is not one UTF-8 JSON object is a CorpusError naming the
    path and line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}: line {lineno}"
                yield where, _json_object(where, line)


def _json_object(where: str, data: bytes | str) -> dict:
    """The JSON object that ``data``, text or UTF-8 bytes, holds; anything
    else, undecodable bytes included, is a CorpusError naming ``where``."""
    try:
        value = json.loads(data if isinstance(data, str) else data.decode("utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise CorpusError(f"{where}: malformed JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise CorpusError(f"{where}: expected a JSON object, got {value!r:.60}")
    return value


@contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """A temp file beside ``path``, ``.<name>.tmp``, for the block to write.
    It is renamed over ``path`` when the block ends and removed when the
    block raises, so a reader of ``path`` never sees a partial file. Its one
    name per target lets the next write truncate and rename what a killed
    run left; two runs that write one target at once are not supported. A
    missing parent directory is made first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fits(kind, value) -> bool:
    """Whether a value read from JSON has the type hint ``kind``: a bool is
    not an int, and a list stands for a tuple. No checked field is a float."""
    if type(kind) is type:
        # most fields are a plain class; skip the typing introspection
        return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return any(_fits(k, value) for k in args)
    if origin is dict:
        return isinstance(value, dict) and all(_fits(args[1], v) for v in value.values())
    # list[X], tuple[X, ...] or a fixed-length tuple[X, Y]: JSON has only lists
    if not isinstance(value, list):
        return False
    if origin is list or args[1:] == (...,):
        return all(_fits(args[0], v) for v in value)
    return len(value) == len(args) and all(map(_fits, args, value))


def _check_fields(where: str, record: dict, kinds: dict[str, object]) -> None:
    """Raise a CorpusError naming ``where`` unless every field in ``kinds``
    fits ``record.get(name)``."""
    for name, kind in kinds.items():
        value = record.get(name)
        # an exact type match, the common case, fits without calling _fits
        if type(value) is not kind and not _fits(kind, value):
            described = kind.__name__ if type(kind) is type else kind
            raise CorpusError(f"{where}: field {name!r} must be {described}, got {value!r}")
