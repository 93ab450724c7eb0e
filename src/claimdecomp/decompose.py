"""Prompted claim decomposition: method registry, in-context example
retrieval, prompt assembly under a token budget, completion parsing.

A prompt is the concatenation of per-example blocks (instruction, example
sentence, optional dependency parse, "- " subclaim lines) followed by a
final block holding the instruction and the target sentence. The examples
are the static ones followed by the retrieved ones; when the estimated
token count exceeds the budget, or the endpoint rejects the prompt as too
long, examples are dropped one at a time from the end of that list. If no
example is left and the prompt still does not fit, the original sentence
is returned as its own single subclaim.
"""

from __future__ import annotations

import heapq
import logging
import math
import re
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from weakref import WeakKeyDictionary

from . import conllu as conllu_mod
from .corpus import ExampleBank, ExampleEntry, Passage, Sentence, load_example_bank
from .llm import (CHARS_PER_TOKEN, CompletionClient, ContextLengthError,
                  GenerationSettings, complete_text)
from .predarg import PredArgMethod, extract_predications, fluency_rewrite, render_predication

logger = logging.getLogger(__name__)


class DecomposeError(ValueError):
    """Bad method configuration or unusable inputs."""


INSTRUCTION_FACTSCORE = "Please breakdown the following sentence into independent facts:"
INSTRUCTION_WICE = "Segment the following sentence into individual facts:"
INSTRUCTION_CHEN = (
    "Given the following sentence, tell me what claims they are making. "
    "Please split the sentence as much as possible, but do not include "
    "information not in the sentence:")
INSTRUCTION_CONLLU = (
    "The sentence below is given in CoNLL-U format. Word lines contain the "
    "annotation of a word/token/node in 10 fields separated by single tab "
    "characters. Sentences consist of one or more word lines. Please break "
    "down the following sentence given in CoNLL-U format into independent facts:")
INSTRUCTION_RND = "Please decompose the following sentence into individual facts:"


@dataclass(frozen=True)
class MethodConfig:
    """One prompted decomposition method."""

    name: str
    instruction: str
    static_count: int
    retrieved_count: int
    include_parse: bool = False
    example_bank: ExampleBank | None = None
    # Static examples are the first bank entries; retrieval draws from the rest.
    static_examples: tuple[ExampleEntry, ...] = field(init=False, compare=False, repr=False)
    retrieval_pool: ExampleBank = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        entries = self.example_bank.entries if self.example_bank is not None else ()
        object.__setattr__(self, "static_examples", entries[: self.static_count])
        object.__setattr__(self, "retrieval_pool", ExampleBank(entries[self.static_count:]))

    def with_bank(self, bank: ExampleBank) -> "MethodConfig":
        if len(bank) < self.static_count + self.retrieved_count:
            raise DecomposeError(
                f"method {self.name!r} needs at least "
                f"{self.static_count + self.retrieved_count} bank entries, got {len(bank)}")
        if self.include_parse and any(e.conllu is None for e in bank.entries):
            raise DecomposeError(
                f"method {self.name!r} needs parse-bearing bank entries")
        return replace(self, example_bank=bank)


def builtin_configs() -> dict[str, MethodConfig]:
    """The prompted methods and their example-count configurations."""
    configs = [
        MethodConfig("factscore", INSTRUCTION_FACTSCORE, static_count=7, retrieved_count=1),
        MethodConfig("wice", INSTRUCTION_WICE, static_count=6, retrieved_count=0),
        MethodConfig("chen", INSTRUCTION_CHEN, static_count=7, retrieved_count=1),
        MethodConfig("conllu", INSTRUCTION_CONLLU, static_count=1, retrieved_count=1,
                     include_parse=True),
        MethodConfig("rnd", INSTRUCTION_RND, static_count=7, retrieved_count=1),
        MethodConfig("fs2", INSTRUCTION_FACTSCORE, static_count=1, retrieved_count=1),
    ]
    return {c.name: c for c in configs}


Method = MethodConfig | PredArgMethod


def method_registry() -> dict[str, Method]:
    registry: dict[str, Method] = dict(builtin_configs())
    registry["predpatt"] = PredArgMethod()
    return registry


def default_bank() -> ExampleBank:
    """The bundled manually decomposed example bank."""
    return load_example_bank(Path(__file__).parent / "data" / "rnd_example_bank.jsonl")


@dataclass(frozen=True)
class Subclaim:
    text: str
    topic: str
    generator: str
    sentence_index: int
    method: str
    ordinal: int

    def __post_init__(self) -> None:
        if not self.text or "\n" in self.text:
            raise DecomposeError(f"subclaim text must be a non-empty single line: {self.text!r}")


# --- in-context example retrieval ---------------------------------------------

_WORD = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def _tfidf(words: list[str], size: int, doc_freq: dict[str, int]) -> dict[str, float]:
    counts: dict[str, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    return {t: c * (math.log((1 + size) / (1 + doc_freq.get(t, 0))) + 1.0)
            for t, c in counts.items()}


def _norm(vector: dict[str, float]) -> float:
    return math.sqrt(sum(v * v for v in vector.values()))


@dataclass(frozen=True)
class _BankVectors:
    """A bank's document frequencies, the norms of its entries' TF-IDF
    vectors and, per term, the (position, weight) of each entry holding it."""

    doc_freq: dict[str, int]
    norms: tuple[float, ...]
    postings: dict[str, list[tuple[int, float]]]


# The vectors of each live bank. A result is stored only once it is whole;
# threads that miss together each build their own.
_VECTORS: WeakKeyDictionary[ExampleBank, _BankVectors] = WeakKeyDictionary()


def _bank_vectors(bank: ExampleBank) -> _BankVectors:
    if (cached := _VECTORS.get(bank)) is not None:
        return cached
    docs = [_tokens(e.sentence) for e in bank.entries]
    doc_freq: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    vectors = [_tfidf(doc, len(docs), doc_freq) for doc in docs]
    postings: dict[str, list[tuple[int, float]]] = {}
    for position, vector in enumerate(vectors):
        for term, weight in vector.items():
            postings.setdefault(term, []).append((position, weight))
    _VECTORS[bank] = result = _BankVectors(doc_freq, tuple(map(_norm, vectors)), postings)
    return result


def retrieve_examples(bank: ExampleBank, sentence: str, k: int) -> list[ExampleEntry]:
    """Top-k bank entries by TF-IDF cosine similarity to ``sentence``,
    excluding exact sentence matches; ties broken by bank order."""
    if k > len(bank):
        raise DecomposeError(f"k={k} exceeds bank size {len(bank)}")
    if k == 0:
        return []

    bank_vectors = _bank_vectors(bank)
    query = _tfidf(_tokens(sentence), len(bank), bank_vectors.doc_freq)
    query_norm = _norm(query)
    # Only entries sharing a term with the query have a nonzero dot product,
    # each summed in query-term order.
    products: dict[int, list[float]] = {}
    for term, weight in query.items():
        for position, doc_weight in bank_vectors.postings.get(term, ()):
            products.setdefault(position, []).append(weight * doc_weight)
    entries = bank.entries
    scored = []
    for position, parts in products.items():
        cosine = sum(parts) / (query_norm * bank_vectors.norms[position])
        if cosine > 0.0 and entries[position].sentence != sentence:
            scored.append((-cosine, position))
    chosen = [position for _, position in heapq.nsmallest(k, scored)]
    # the entries scoring 0 follow in bank order
    taken = set(chosen)
    chosen += islice((position for position, entry in enumerate(entries)
                      if position not in taken and entry.sentence != sentence),
                     k - len(chosen))
    return [entries[position] for position in chosen]


# --- prompt assembly -----------------------------------------------------------

@dataclass(frozen=True)
class AssembledPrompt:
    text: str
    static_used: int
    retrieved_used: int
    over_budget: bool


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text) / CHARS_PER_TOKEN)


def _parse_text(parse) -> str | None:
    if parse is None:
        return None
    if isinstance(parse, str):
        return parse.rstrip("\n")
    return conllu_mod.serialize([parse]).rstrip("\n")


def _block(instruction: str, sentence: str, subclaims=None, parse_text=None) -> str:
    lines = [instruction, sentence]
    if parse_text is not None:
        lines.append(parse_text)
    if subclaims:
        lines.extend(f"- {c}" for c in subclaims)
    return "\n".join(lines)


def assemble_prompt(config: MethodConfig, sentence: str,
                    retrieved: list[ExampleEntry], budget: int,
                    parse=None, example_cap: int | None = None) -> AssembledPrompt:
    """Build the prompt over the static examples followed by the retrieved
    ones, dropping examples from the end until the estimate fits ``budget``.

    ``example_cap`` keeps only that many leading examples before the budget
    applies (used for endpoint-driven retries). A prompt that still exceeds
    the budget with zero examples is returned flagged ``over_budget`` so the
    caller can back off.
    """
    if not sentence:
        raise DecomposeError("sentence must be non-empty")
    if example_cap is not None and example_cap < 0:
        raise DecomposeError(f"example_cap must be >= 0, got {example_cap}")
    target_parse = _parse_text(parse) if config.include_parse else None
    if config.include_parse and target_parse is None:
        raise DecomposeError(f"method {config.name!r} requires a sentence parse")

    static = config.static_examples
    blocks = [
        _block(config.instruction, e.sentence, e.subclaims,
               e.conllu.rstrip("\n") if config.include_parse and e.conllu else None)
        for e in [*static, *retrieved][:example_cap]
    ]
    final = _block(config.instruction, sentence, parse_text=target_parse)
    while True:
        text = "\n\n".join([*blocks, final])
        fits = estimate_tokens(text) <= budget
        if fits or not blocks:
            static_used = min(len(blocks), len(static))
            return AssembledPrompt(
                text=text,
                static_used=static_used,
                retrieved_used=len(blocks) - static_used,
                over_budget=not fits,
            )
        blocks.pop()


# --- completion parsing ---------------------------------------------------------

_MARKER = re.compile(r"(?:(?:[-•]|\d+\.)\s+)+")


def parse_subclaims(completion: str) -> list[str]:
    """Extract subclaim lines from a completion.

    Lines that start with one or more markers ("-", "•" or "N.", each
    followed by whitespace) are taken with the markers removed; if no line
    is marked, every non-empty line is kept as-is.
    """
    marked_claims: list[str] = []
    plain_lines: list[str] = []
    for raw in completion.split("\n"):
        line = raw.strip()
        if not line:
            continue
        marker = _MARKER.match(line)
        if marker is None:
            plain_lines.append(line)
        elif claim := line[marker.end():]:
            marked_claims.append(claim)
    return marked_claims if marked_claims else plain_lines


# --- decomposition --------------------------------------------------------------

def _prompted_claim_texts(config: MethodConfig, sentence_text: str, parse,
                          client: CompletionClient,
                          settings: GenerationSettings) -> list[str]:
    if config.example_bank is None and config.static_count + config.retrieved_count > 0:
        raise DecomposeError(f"method {config.name!r} has no example bank attached")
    pool = config.retrieval_pool
    retrieved = retrieve_examples(pool, sentence_text, min(config.retrieved_count, len(pool)))
    budget = settings.context_window - settings.max_tokens

    cap: int | None = None
    while cap is None or cap >= 0:
        assembled = assemble_prompt(config, sentence_text, retrieved, budget,
                                    parse=parse, example_cap=cap)
        if assembled.over_budget:
            break
        try:
            response = complete_text(client, assembled.text, settings)
        except ContextLengthError:
            # The endpoint's window is smaller than estimated: one example fewer.
            cap = assembled.static_used + assembled.retrieved_used - 1
            continue
        claims = parse_subclaims(response.text)
        if not claims:
            logger.debug("empty decomposition for sentence: %.60s", sentence_text)
        return claims
    # Over budget, or rejected by the endpoint, with no example left: the
    # sentence itself becomes the single subclaim.
    return [" ".join(sentence_text.split())]


def _predarg_claim_texts(parse, client: CompletionClient,
                         settings: GenerationSettings) -> list[str]:
    if parse is None:
        raise DecomposeError("predicate-argument decomposition requires a parse")
    return [fluency_rewrite(client, render_predication(parse, p), settings)
            for p in extract_predications(parse)]


def decompose_sentence(method: Method, sentence: Sentence | str,
                       client: CompletionClient,
                       settings: GenerationSettings = GenerationSettings(),
                       topic: str = "", generator: str = "") -> list[Subclaim]:
    """Decompose one sentence into subclaims via the given method."""
    if isinstance(sentence, Sentence):
        text, index, parse = sentence.text, sentence.index, sentence.parse
    else:
        text, index, parse = sentence, 0, None

    if isinstance(method, PredArgMethod):
        claims = _predarg_claim_texts(parse, client, settings)
    else:
        claims = _prompted_claim_texts(method, text, parse, client, settings)

    claims = [c for c in claims if c.strip()]
    return [
        Subclaim(text=c, topic=topic, generator=generator,
                 sentence_index=index, method=method.name, ordinal=i)
        for i, c in enumerate(claims)
    ]


def decompose_passage(method: Method, passage: Passage,
                      client: CompletionClient,
                      settings: GenerationSettings = GenerationSettings()) -> list[Subclaim]:
    """Decompose every sentence of a passage, one after another; output
    ordered by sentence."""
    if method.include_parse:
        for sentence in passage.sentences:
            if sentence.parse is None:
                raise DecomposeError(
                    f"method {method.name!r} requires a parse but sentence "
                    f"{sentence.index} of {passage.generator}/{passage.topic} has none")

    return [claim for sentence in passage.sentences
            for claim in decompose_sentence(method, sentence, client, settings,
                                            topic=passage.topic, generator=passage.generator)]
