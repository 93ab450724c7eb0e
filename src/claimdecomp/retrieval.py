"""Chunked BM25 retrieval over the knowledge corpus.

Documents are split into consecutive chunks of at most ``chunk_words``
whitespace words. Scoring follows BM25 with the +1-inside-log idf variant
(scores stay non-negative):

    score(q, c) = sum over query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avglen))
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .corpus import KnowledgeDoc

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
DEFAULT_CHUNK_WORDS = 256

INDEX_FORMAT_VERSION = 1

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


class RetrievalError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace words with non-alphanumerics stripped."""
    out = []
    for word in text.split():
        term = _NON_ALNUM.sub("", word.lower())
        if term:
            out.append(term)
    return out


@dataclass(frozen=True)
class Chunk:
    doc_title: str
    ordinal: int
    text: str
    term_counts: Counter

    @property
    def length(self) -> int:
        return sum(self.term_counts.values())


@dataclass(frozen=True)
class Index:
    chunks: tuple[Chunk, ...]
    doc_freq: dict[str, int]
    avg_length: float
    titles: frozenset[str]
    chunk_words: int
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def has_title(self, title: str) -> bool:
        return title in self.titles


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
    """Index over (doc_title, ordinal, text) chunks with their term
    statistics and the set of their titles."""
    chunks = tuple(Chunk(doc_title=title, ordinal=ordinal, text=text,
                         term_counts=Counter(tokenize(text)))
                   for title, ordinal, text in pieces)
    doc_freq: dict[str, int] = {}
    for chunk in chunks:
        for term in chunk.term_counts:
            doc_freq[term] = doc_freq.get(term, 0) + 1
    total_len = sum(c.length for c in chunks)
    avg = total_len / len(chunks) if chunks else 0.0
    return Index(chunks=chunks, doc_freq=doc_freq, avg_length=avg,
                 titles=frozenset(c.doc_title for c in chunks),
                 chunk_words=chunk_words, k1=k1, b=b)


def _idf(index: Index, term: str) -> float:
    n = len(index.chunks)
    df = index.doc_freq.get(term, 0)
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def score_chunk(index: Index, query_terms: list[str], chunk: Chunk) -> float:
    score = 0.0
    norm = index.k1 * (1.0 - index.b + index.b * chunk.length / index.avg_length) \
        if index.avg_length > 0 else index.k1
    for term in query_terms:
        tf = chunk.term_counts.get(term, 0)
        if tf == 0:
            continue
        score += _idf(index, term) * tf * (index.k1 + 1.0) / (tf + norm)
    return score


def search(index: Index, query: str, k: int,
           restrict_title: str | None = None) -> list[tuple[Chunk, float]]:
    """Top-k chunks with positive BM25 score, best first; ties broken by
    (doc_title, ordinal). ``restrict_title`` limits scoring to one document."""
    if k < 1:
        raise RetrievalError("k must be >= 1")
    query_terms = tokenize(query)
    scored = []
    for chunk in index.chunks:
        if restrict_title is not None and chunk.doc_title != restrict_title:
            continue
        s = score_chunk(index, query_terms, chunk)
        if s > 0.0:
            scored.append((chunk, s))
    scored.sort(key=lambda item: (-item[1], item[0].doc_title, item[0].ordinal))
    return scored[:k]


def save_index(index: Index, path: str | Path) -> None:
    """Persist as versioned JSON; term statistics are rebuilt on load."""
    payload = {
        "version": INDEX_FORMAT_VERSION,
        "chunk_words": index.chunk_words,
        "k1": index.k1,
        "b": index.b,
        "chunks": [
            {"doc_title": c.doc_title, "ordinal": c.ordinal, "text": c.text}
            for c in index.chunks
        ],
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def load_index(path: str | Path) -> Index:
    """The index saved at ``path``; a file that is not a whole index of this
    format version, such as one cut short, is a RetrievalError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise RetrievalError(f"malformed index file {path}: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != INDEX_FORMAT_VERSION:
        raise RetrievalError(f"unsupported index version {version!r}")
    try:
        return _index(((c["doc_title"], c["ordinal"], c["text"]) for c in payload["chunks"]),
                      payload["chunk_words"], payload["k1"], payload["b"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise RetrievalError(f"malformed index file {path}: bad or missing field "
                             f"{exc}") from exc
