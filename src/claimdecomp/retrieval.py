"""Chunked BM25 retrieval over the knowledge corpus.

Documents are split into consecutive chunks of at most ``chunk_words``
whitespace words. Scoring follows BM25 with the +1-inside-log idf variant
(scores stay non-negative):

    score(q, c) = sum over query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avglen))
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

The index holds, built once: per term its postings (ascending chunk
positions and their term frequencies) and idf, per chunk the length part of
the denominator, and per document title the range of its chunk positions.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import typing
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusError, KnowledgeDoc, _check_fields, _json_object

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
DEFAULT_CHUNK_WORDS = 256

INDEX_FORMAT_VERSION = 1

_NON_TERM = re.compile(r"[^a-z0-9\s]+")


class RetrievalError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace words with non-alphanumerics stripped."""
    return _NON_TERM.sub("", text.lower()).split()


@dataclass(frozen=True, slots=True)
class Chunk:
    doc_title: str
    ordinal: int
    text: str
    length: int


@dataclass(frozen=True)
class Index:
    chunks: tuple[Chunk, ...]
    chunk_words: int
    k1: float
    b: float
    # term -> (chunk positions, term frequencies), positions ascending
    postings: dict[str, tuple[array, array]]
    idf: dict[str, float]
    # per chunk: k1 * (1 - b + b * len / avglen)
    norms: array
    # doc_title -> [first, end) chunk positions
    title_ranges: dict[str, tuple[int, int]]

    def has_title(self, title: str) -> bool:
        return title in self.title_ranges


def build_index(docs: list[KnowledgeDoc], chunk_words: int = DEFAULT_CHUNK_WORDS,
                k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Index:
    if chunk_words < 1:
        raise RetrievalError("chunk_words must be >= 1")
    titles = [d.title for d in docs]
    if len(titles) != len(set(titles)):
        raise RetrievalError("duplicate document titles")

    pieces = []
    for doc in docs:
        words = doc.text.split()
        for ordinal, start in enumerate(range(0, len(words), chunk_words)):
            pieces.append((doc.title, ordinal, " ".join(words[start: start + chunk_words])))
    return _index(pieces, chunk_words, k1, b)


def _index(pieces: Iterable[tuple[str, int, str]], chunk_words: int,
           k1: float, b: float) -> Index:
    """Index over (doc_title, ordinal, text) chunks; the chunks of one title
    must be consecutive."""
    chunks = []
    postings: dict[str, tuple[array, array]] = {}
    title_ranges: dict[str, tuple[int, int]] = {}
    for position, (title, ordinal, text) in enumerate(pieces):
        terms = tokenize(text)
        chunks.append(Chunk(doc_title=title, ordinal=ordinal, text=text, length=len(terms)))
        for term, tf in Counter(terms).items():
            if term not in postings:
                postings[term] = (array("I"), array("I"))
            positions, tfs = postings[term]
            positions.append(position)
            tfs.append(tf)
        first, _ = title_ranges.get(title, (position, position))
        if first != position and chunks[position - 1].doc_title != title:
            raise RetrievalError(f"chunks of document {title!r} are not consecutive")
        title_ranges[title] = (first, position + 1)

    n = len(chunks)
    idf = {term: math.log(1.0 + (n - len(positions) + 0.5) / (len(positions) + 0.5))
           for term, (positions, _) in postings.items()}
    avg = sum(c.length for c in chunks) / n if chunks else 0.0
    norms = array("d", (k1 * (1.0 - b + b * c.length / avg) if avg > 0 else k1
                        for c in chunks))
    return Index(chunks=tuple(chunks), chunk_words=chunk_words, k1=k1, b=b,
                 postings=postings, idf=idf, norms=norms, title_ranges=title_ranges)


def search(index: Index, query: str, k: int,
           restrict_title: str | None = None) -> list[tuple[Chunk, float]]:
    """Top-k chunks with positive BM25 score, best first; ties broken by
    (doc_title, ordinal). ``restrict_title`` limits scoring to one document."""
    if k < 1:
        raise RetrievalError("k must be >= 1")
    if restrict_title is not None:
        if restrict_title not in index.title_ranges:
            return []
        first, end = index.title_ranges[restrict_title]
    norms, k1_plus_1 = index.norms, index.k1 + 1.0
    scores: dict[int, float] = {}
    # Each chunk's score is summed in query-term order (repeats included)
    # from 0.0, the order of the formula above, so scores do not depend on
    # the postings layout.
    for term in tokenize(query):
        if term not in index.postings:
            continue
        positions, tfs = index.postings[term]
        idf = index.idf[term]
        if restrict_title is not None:
            lo, hi = bisect_left(positions, first), bisect_left(positions, end)
            positions, tfs = positions[lo:hi], tfs[lo:hi]
        for position, tf in zip(positions, tfs):
            scores[position] = (scores.get(position, 0.0)
                                + idf * tf * k1_plus_1 / (tf + norms[position]))
    chunks = index.chunks
    best = heapq.nsmallest(
        k, ((position, s) for position, s in scores.items() if s > 0.0),
        key=lambda item: (-item[1], chunks[item[0]].doc_title, chunks[item[0]].ordinal,
                          item[0]))
    return [(chunks[position], s) for position, s in best]


# What a saved index holds: build_index's settings and each chunk's title,
# ordinal and text. save_index writes these fields and load_index checks them.
_SETTING_TYPES = {name: kind for name, kind in typing.get_type_hints(build_index).items()
                  if name in ("chunk_words", "k1", "b")} | {"chunks": list[dict]}
_CHUNK_TYPES = {name: kind for name, kind in typing.get_type_hints(Chunk).items()
                if name in ("doc_title", "ordinal", "text")}


def save_index(index: Index, path: str | Path) -> None:
    """Persist as versioned JSON; term statistics are rebuilt on load."""
    payload = {
        "version": INDEX_FORMAT_VERSION,
        "chunk_words": index.chunk_words,
        "k1": index.k1,
        "b": index.b,
        "chunks": [{name: getattr(c, name) for name in _CHUNK_TYPES} for c in index.chunks],
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def load_index(path: str | Path) -> Index:
    """The index saved at ``path``; a file that is not a whole index of this
    format version, such as one cut short, is a RetrievalError."""
    where = f"malformed index file {path}"
    try:
        payload = _json_object(where, Path(path).read_bytes())
    except CorpusError as exc:
        raise RetrievalError(str(exc)) from exc
    version = payload.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise RetrievalError(f"unsupported index version {version!r}")
    try:
        _check_fields(where, payload, _SETTING_TYPES)
        for position, chunk in enumerate(payload["chunks"]):
            _check_fields(f"{where}: chunk {position}", chunk, _CHUNK_TYPES)
        return _index([(c["doc_title"], c["ordinal"], c["text"]) for c in payload["chunks"]],
                      payload["chunk_words"], payload["k1"], payload["b"])
    except CorpusError as exc:
        raise RetrievalError(str(exc)) from exc
    except RetrievalError as exc:
        raise RetrievalError(f"{where}: {exc}") from exc
