"""Chunked BM25 retrieval over the knowledge corpus.

Documents are split into consecutive chunks of at most ``chunk_words``
whitespace words. Scoring follows BM25 with the +1-inside-log idf variant
(scores stay non-negative), at the fixed K1 and B below:

    score(q, c) = sum over query terms t of
        idf(t) * tf * (K1 + 1) / (tf + K1 * (1 - B + B * len / avglen))
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

The index holds, built once: per term its postings (ascending chunk
positions and their term frequencies) and idf, per chunk the length part of
the denominator, and per document title the range of its chunk positions.
"""

from __future__ import annotations

import binascii
import heapq
import json
import math
import re
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import lt
from pathlib import Path

from .corpus import CorpusError, KnowledgeDoc, _check_fields, _json_object, _replacing

# BM25's k1 and b: Pyserini's defaults, which FActScore's retrieval uses
K1 = 0.9
B = 0.4
DEFAULT_CHUNK_WORDS = 256
DEFAULT_TOP_K = 5

INDEX_FORMAT_VERSION = 3

_NON_TERM = re.compile(r"[^a-z0-9\s]+")
# Standard base64 digits with at most two trailing pads; with a length that is
# a multiple of 4, this is canonical base64. It rejects all that binascii's
# strict_mode (Python 3.11+) rejects, and excess padding too.
_BASE64 = re.compile(r"[A-Za-z0-9+/]*={0,2}")


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
    # term -> (chunk positions, term frequencies), positions ascending; the
    # arrays have the typecodes of _typecodes
    postings: dict[str, tuple[array, array]]
    idf: dict[str, float]
    # per chunk: K1 * (1 - B + B * len / avglen)
    norms: array
    # doc_title -> [first, end) chunk positions
    title_ranges: dict[str, tuple[int, int]]

    def has_title(self, title: str) -> bool:
        return title in self.title_ranges


def build_index(docs: list[KnowledgeDoc], chunk_words: int = DEFAULT_CHUNK_WORDS) -> Index:
    _check_chunk_words(chunk_words)
    titles = [d.title for d in docs]
    if len(titles) != len(set(titles)):
        raise RetrievalError("duplicate document titles")

    # Chunk every document first: the chunk count sets the positions' typecode.
    pieces = []
    title_ranges: dict[str, tuple[int, int]] = {}
    for doc in docs:
        words = doc.text.split()
        first = len(pieces)
        for ordinal, start in enumerate(range(0, len(words), chunk_words)):
            pieces.append((doc.title, ordinal, " ".join(words[start: start + chunk_words])))
        if len(pieces) > first:
            title_ranges[doc.title] = (first, len(pieces))
    position_code, tf_code = _typecodes(len(pieces), chunk_words)
    chunks = []
    postings: dict[str, tuple[array, array]] = {}
    for position, (title, ordinal, text) in enumerate(pieces):
        terms = tokenize(text)
        chunks.append(Chunk(title, ordinal, text, len(terms)))
        for term, tf in Counter(terms).items():
            pair = postings.get(term)
            if pair is None:
                pair = postings[term] = (array(position_code), array(tf_code))
            pair[0].append(position)
            pair[1].append(tf)
    return _with_statistics(chunks, postings, title_ranges, chunk_words)


def _check_chunk_words(chunk_words: int) -> None:
    if chunk_words < 1:
        raise RetrievalError(f"chunk_words must be >= 1, got {chunk_words}")


def _typecodes(chunks: int, chunk_words: int) -> tuple[str, str]:
    """The narrowest unsigned array typecodes that hold the chunk count and
    chunk_words, so they hold chunk positions and tfs."""
    def narrowest(bound: int) -> str:
        return next((code for code in "BHI" if bound < 1 << 8 * array(code).itemsize), "Q")

    return narrowest(chunks), narrowest(chunk_words)


def _with_statistics(chunks: list[Chunk], postings: dict[str, tuple[array, array]],
                     title_ranges: dict[str, tuple[int, int]], chunk_words: int) -> Index:
    """The index over these chunks and postings, with idf and norms computed."""
    n = len(chunks)
    idf = {term: math.log(1.0 + (n - len(positions) + 0.5) / (len(positions) + 0.5))
           for term, (positions, _) in postings.items()}
    avg = sum(c.length for c in chunks) / n if chunks else 0.0
    norms = array("d", (K1 * (1.0 - B + B * c.length / avg) if avg > 0 else K1
                        for c in chunks))
    return Index(chunks=tuple(chunks), chunk_words=chunk_words,
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
    norms, k1_plus_1 = index.norms, K1 + 1.0
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


# A saved index (format version 3) is one JSON object: "version",
# "chunk_words", the titles in chunk order with each title's chunk count, each
# chunk's text and length, and the terms with their postings: each term's
# posting count, then every term's positions, then every term's tfs, in term
# order. idf and norms are rebuilt on load. Integer sequences are packed:
# base64 of little-endian array bytes, in the typecodes of _typecodes: that of
# the chunk count for title chunk counts, posting counts and positions, and
# that of chunk_words for lengths and tfs.
_PACKED = ("title_chunks", "lengths", "counts", "positions", "tfs")
_FIELD_TYPES = ({"version": int, "chunk_words": int}
                | dict.fromkeys(("titles", "texts", "terms"), list[str])
                | dict.fromkeys(_PACKED, str))


def _pack(items: array) -> bytes:
    """A packed field's JSON string."""
    if sys.byteorder == "big":
        items = array(items.typecode, items)
        items.byteswap()
    return b'"' + binascii.b2a_base64(items, newline=False) + b'"'


def _unpack(payload: dict, name: str, typecode: str) -> array:
    """The packed field ``name``, removed from ``payload`` so that its string
    is freed once decoded."""
    items = array(typecode)
    packed = payload.pop(name)
    if len(packed) % 4 or not _BASE64.fullmatch(packed):
        raise RetrievalError(f"field {name!r} is not base64")
    data = binascii.a2b_base64(packed)  # reads the ASCII str in place, without a copy
    del packed
    if len(data) % items.itemsize:
        raise RetrievalError(f"field {name!r} holds {len(data)} bytes, not a whole number "
                             f"of {items.itemsize}-byte items")
    items.frombytes(data)
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _saved_fields(index: Index) -> Iterator[tuple[str, bytes]]:
    """(name, JSON value) of each saved field, encoded one at a time."""
    def encoded(value) -> bytes:
        return json.dumps(value, ensure_ascii=False).encode("utf-8")

    by_chunks, by_words = _typecodes(len(index.chunks), index.chunk_words)
    postings = index.postings.values()
    yield "version", encoded(INDEX_FORMAT_VERSION)
    yield "chunk_words", encoded(index.chunk_words)
    yield "titles", encoded(list(index.title_ranges))
    yield "title_chunks", _pack(array(by_chunks, (end - first for first, end
                                                  in index.title_ranges.values())))
    yield "texts", encoded([c.text for c in index.chunks])
    yield "lengths", _pack(array(by_words, (c.length for c in index.chunks)))
    yield "terms", encoded(list(index.postings))
    yield "counts", _pack(array(by_chunks, (len(positions) for positions, _ in postings)))
    for name, code, part in (("positions", by_chunks, 0), ("tfs", by_words, 1)):
        joined = array(code)
        for pair in postings:
            joined.extend(pair[part])  # a TypeError, not a wrong file, if not of ``code``
        yield name, _pack(joined)


def save_index(index: Index, path: str | Path) -> None:
    """Write ``index`` to ``path`` in format version 3. The file is written
    to a temp file beside it and renamed into place, so an interrupted save
    leaves any earlier file at ``path`` whole."""
    with _replacing(Path(path)) as tmp, open(tmp, "wb") as fh:
        opening = b"{"
        for name, value in _saved_fields(index):
            fh.write(b'%s"%s": ' % (opening, name.encode("ascii")))
            fh.write(value)
            opening = b", "
        fh.write(b"}")


def load_index(path: str | Path) -> Index:
    """The index saved at ``path``. A file that is not a whole, consistent
    index of this format version, such as one cut short or one of another
    version, is a RetrievalError naming ``path``."""
    where = f"malformed index file {path}"
    try:
        # read_text drops the file's bytes before the JSON is parsed
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RetrievalError(f"{where}: not UTF-8: {exc}") from exc
    try:
        payload = _json_object(where, text)
    except CorpusError as exc:
        raise RetrievalError(str(exc)) from exc
    del text
    version = payload.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise RetrievalError(f"{where}: format version {version!r}; "
                             "rebuild it with claimdecomp index build")
    try:
        _check_fields(where, payload, _FIELD_TYPES)
        return _decode(payload)
    except CorpusError as exc:
        raise RetrievalError(str(exc)) from exc
    except RetrievalError as exc:
        raise RetrievalError(f"{where}: {exc}") from exc


def _decode(payload: dict) -> Index:
    """The index a type-checked payload holds, after checking that its parts
    agree; the packed fields are removed from ``payload``."""
    _check_chunk_words(payload["chunk_words"])
    titles, texts, terms = payload["titles"], payload["texts"], payload["terms"]
    n = len(texts)
    by_chunks, by_words = _typecodes(n, payload["chunk_words"])
    if len(set(titles)) != len(titles):
        raise RetrievalError("titles are not unique")
    title_chunks = _unpack(payload, "title_chunks", by_chunks)
    if len(title_chunks) != len(titles) or 0 in title_chunks or sum(title_chunks) != n:
        raise RetrievalError(f"title_chunks must hold one count >= 1 per title, "
                             f"summing to the {n} texts")
    lengths = _unpack(payload, "lengths", by_words)
    if len(lengths) != n:
        raise RetrievalError(f"lengths must hold one length per text, got {len(lengths)} "
                             f"for {n} texts")
    if len(set(terms)) != len(terms):
        raise RetrievalError("terms are not unique")
    counts, positions, tfs = (_unpack(payload, name, code) for name, code in (
        ("counts", by_chunks), ("positions", by_chunks), ("tfs", by_words)))
    if len(counts) != len(terms) or 0 in counts or sum(counts) != len(positions):
        raise RetrievalError(f"counts must hold one count >= 1 per term, summing to the "
                             f"{len(positions)} positions")
    if len(tfs) != len(positions):
        raise RetrievalError(f"positions and tfs differ in length: {len(positions)} "
                             f"and {len(tfs)}")
    if 0 in tfs:
        raise RetrievalError("a tf is 0")

    postings: dict[str, tuple[array, array]] = {}
    end = 0
    for term, count in zip(terms, counts):
        start, end = end, end + count
        term_positions = positions[start:end]
        # map(lt, ...) compares in C, with no Python frame per posting
        if term_positions[-1] >= n or not all(map(lt, term_positions,
                                                  islice(term_positions, 1, None))):
            raise RetrievalError(f"positions of term {term!r} are not strictly ascending "
                                 f"below the {n} texts")
        postings[term] = (term_positions, tfs[start:end])

    ends = list(accumulate(title_chunks))
    title_ranges = dict(zip(titles, zip([0, *ends], ends)))
    chunks: list[Chunk] = []
    for title, (first, end) in title_ranges.items():
        chunks += map(Chunk, repeat(title), range(end - first), texts[first:end],
                      lengths[first:end])
    return _with_statistics(chunks, postings, title_ranges, payload["chunk_words"])
