"""Prompted claim decomposition: method registry, in-context example
retrieval, prompt assembly under a token budget, completion parsing.

A prompt is the concatenation of per-example blocks (instruction, example
sentence, optional dependency parse, "- " subclaim lines) followed by a
final block holding the instruction and the target sentence. When the
estimated token count exceeds the budget, examples are dropped one at a
time (most recently retrieved first, then static examples from the end).
If even the zero-example prompt does not fit, the original sentence is
returned as its own single subclaim.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from importlib import resources

from . import conllu as conllu_mod
from .corpus import ExampleBank, ExampleEntry, Passage, Sentence, load_example_bank
from .llm import (CompletionClient, ContextLengthError, GenerationSettings,
                  complete_text)
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

    @property
    def static_examples(self) -> tuple[ExampleEntry, ...]:
        if self.example_bank is None:
            return ()
        return self.example_bank.entries[: self.static_count]

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
    path = resources.files("claimdecomp.data") / "rnd_example_bank.jsonl"
    with resources.as_file(path) as real_path:
        return load_example_bank(real_path)


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


def retrieve_examples(bank: ExampleBank, sentence: str, k: int) -> list[ExampleEntry]:
    """Top-k bank entries by TF-IDF cosine similarity to ``sentence``,
    excluding exact sentence matches; ties broken by bank order."""
    if k > len(bank):
        raise DecomposeError(f"k={k} exceeds bank size {len(bank)}")
    if k == 0:
        return []

    docs = [_tokens(e.sentence) for e in bank.entries]
    n_docs = len(docs)
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1

    def idf(term: str) -> float:
        return math.log((1 + n_docs) / (1 + df.get(term, 0))) + 1.0

    def vector(words: list[str]) -> dict[str, float]:
        counts: dict[str, int] = {}
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        return {t: c * idf(t) for t, c in counts.items()}

    def cosine(a: dict[str, float], b: dict[str, float]) -> float:
        if not a or not b:
            return 0.0
        dot = sum(v * b[t] for t, v in a.items() if t in b)
        norm = math.sqrt(sum(v * v for v in a.values())) * math.sqrt(
            sum(v * v for v in b.values()))
        return dot / norm if norm else 0.0

    query = vector(_tokens(sentence))
    scored = []
    for position, entry in enumerate(bank.entries):
        if entry.sentence == sentence:
            continue
        scored.append((-cosine(query, vector(docs[position])), position, entry))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [entry for _, _, entry in scored[:k]]


# --- prompt assembly -----------------------------------------------------------

@dataclass(frozen=True)
class AssembledPrompt:
    text: str
    static_used: int
    retrieved_used: int
    over_budget: bool


def estimate_tokens(text: str, chars_per_token: float = 4.0) -> int:
    return math.ceil(len(text) / chars_per_token)


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
                    parse=None, chars_per_token: float = 4.0,
                    example_cap: int | None = None) -> AssembledPrompt:
    """Build the prompt, dropping examples until the estimate fits ``budget``.

    ``example_cap`` additionally limits the total example count before the
    budget loop runs (used for endpoint-driven retries). A prompt that still
    exceeds the budget with zero examples is returned flagged ``over_budget``
    so the caller can back off.
    """
    if not sentence:
        raise DecomposeError("sentence must be non-empty")
    static = list(config.static_examples)
    dynamic = list(retrieved)
    if example_cap is not None:
        while len(static) + len(dynamic) > example_cap:
            if dynamic:
                dynamic.pop()
            else:
                static.pop()

    target_parse = _parse_text(parse) if config.include_parse else None
    if config.include_parse and target_parse is None:
        raise DecomposeError(f"method {config.name!r} requires a sentence parse")

    while True:
        blocks = [
            _block(config.instruction, e.sentence, e.subclaims,
                   e.conllu.rstrip("\n") if config.include_parse and e.conllu else None)
            for e in static + dynamic
        ]
        final = _block(config.instruction, sentence, parse_text=target_parse)
        text = "\n\n".join(blocks + [final])
        fits = estimate_tokens(text, chars_per_token) <= budget
        if fits or not (static or dynamic):
            return AssembledPrompt(
                text=text,
                static_used=len(static),
                retrieved_used=len(dynamic),
                over_budget=not fits,
            )
        if dynamic:
            dynamic.pop()
        else:
            static.pop()


# --- completion parsing ---------------------------------------------------------

_MARKERS = (re.compile(r"^[-•]\s+"), re.compile(r"^\d+\.\s+"))


def _strip_markers(line: str) -> tuple[str, bool]:
    stripped = line.strip()
    marked = False
    changed = True
    while changed:
        changed = False
        for marker in _MARKERS:
            new = marker.sub("", stripped)
            if new != stripped:
                stripped, marked, changed = new.strip(), True, True
    return stripped, marked


def parse_subclaims(completion: str) -> list[str]:
    """Extract subclaim lines from a completion.

    Lines marked with "-", "•", or "N." are taken with the marker removed;
    if no line is marked, every non-empty line is kept as-is.
    """
    marked_claims: list[str] = []
    plain_lines: list[str] = []
    for raw in completion.split("\n"):
        line = raw.strip()
        if not line:
            continue
        text, marked = _strip_markers(line)
        if marked:
            if text:
                marked_claims.append(text)
        else:
            plain_lines.append(line)
    return marked_claims if marked_claims else plain_lines


# --- decomposition --------------------------------------------------------------

def _retrieval_pool(config: MethodConfig) -> ExampleBank:
    # Static examples are the first bank entries; retrieval draws from the rest.
    if config.example_bank is None:
        return ExampleBank(entries=())
    return ExampleBank(entries=config.example_bank.entries[config.static_count:])


def _prompted_claim_texts(config: MethodConfig, sentence_text: str, parse,
                          client: CompletionClient,
                          settings: GenerationSettings) -> list[str]:
    if config.example_bank is None and config.static_count + config.retrieved_count > 0:
        raise DecomposeError(f"method {config.name!r} has no example bank attached")
    pool = _retrieval_pool(config)
    k = min(config.retrieved_count, len(pool))
    retrieved = retrieve_examples(pool, sentence_text, k)
    budget = settings.context_window - settings.max_tokens

    cap: int | None = None
    while True:
        assembled = assemble_prompt(
            config, sentence_text, retrieved, budget,
            parse=parse, chars_per_token=settings.chars_per_token, example_cap=cap)
        if assembled.over_budget:
            # Even the zero-example prompt does not fit: the sentence itself
            # becomes the single subclaim.
            return [" ".join(sentence_text.split())]
        try:
            response = complete_text(client, assembled.text, settings)
        except ContextLengthError:
            used = assembled.static_used + assembled.retrieved_used
            if used == 0:
                return [" ".join(sentence_text.split())]
            cap = used - 1
            continue
        break

    claims = parse_subclaims(response.text)
    if not claims:
        logger.warning("empty decomposition for sentence: %.60s", sentence_text)
    return claims


def _predarg_claim_texts(method: PredArgMethod, parse,
                         client: CompletionClient | None,
                         settings: GenerationSettings) -> list[str]:
    if parse is None:
        raise DecomposeError("predicate-argument decomposition requires a parse")
    if isinstance(parse, str):
        parsed = conllu_mod.parse_conllu(parse)
        if len(parsed) != 1:
            raise DecomposeError("expected exactly one parse")
        parse = parsed[0]
    rendered = [render_predication(parse, p)
                for p in extract_predications(parse, method.options)]
    if method.rewrite and client is not None:
        return [fluency_rewrite(client, text, settings) for text in rendered]
    return rendered


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
        claims = _predarg_claim_texts(method, parse, client, settings)
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
    needs_parse = isinstance(method, PredArgMethod) or (
        isinstance(method, MethodConfig) and method.include_parse)
    if needs_parse:
        for sentence in passage.sentences:
            if sentence.parse is None:
                raise DecomposeError(
                    f"method {method.name!r} requires a parse but sentence "
                    f"{sentence.index} of {passage.generator}/{passage.topic} has none")

    return [claim for sentence in passage.sentences
            for claim in decompose_sentence(method, sentence, client, settings,
                                            topic=passage.topic, generator=passage.generator)]
