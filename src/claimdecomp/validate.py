"""Binary support judgments for subclaims.

Two validator contexts: the original sentence that was decomposed, and
text retrieved from the knowledge source. The validator prompt is fixed:

    <context>
    <blank line>
    Claim: <claim>
    True or False?

The completion's first alphabetic token decides the verdict; anything that
is not "true"/"false" counts as unsupported and is tallied in ``stats``
("unparseable", beside "empty_context") so a flaky model cannot abort a run.
Every request uses ``VALIDATOR_SETTINGS``, and every judgment's
``validator_id`` is the validator client's ``model``.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass

from .decompose import Subclaim
from .llm import (CHARS_PER_TOKEN, CompletionClient, GenerationSettings, MapFn, complete_all,
                  completion_request)
# Unused here, but perfbench/tracer.py wraps validate.complete_text by name.
from .llm import complete_text  # noqa: F401
from .retrieval import DEFAULT_TOP_K, Index, search

logger = logging.getLogger(__name__)

CONTEXT_ORIGINAL_SENTENCE = "original_sentence"
CONTEXT_KNOWLEDGE_SOURCE = "knowledge_source"

VALIDATOR_SETTINGS = GenerationSettings(
    temperature=0.0, max_tokens=128, context_window=2048)


class ValidateError(RuntimeError):
    pass


@dataclass(frozen=True)
class SupportJudgment:
    claim: Subclaim
    context_kind: str
    supported: bool
    validator_id: str
    context_snapshot: str


def build_support_prompt(context: str, claim: str) -> str:
    return f"{context}\n\nClaim: {claim}\nTrue or False?"


_FIRST_WORD = re.compile(r"[A-Za-z]+")


def parse_verdict(completion: str) -> bool | None:
    match = _FIRST_WORD.search(completion)
    if not match:
        return None
    word = match.group(0).lower()
    if word == "true":
        return True
    if word == "false":
        return False
    return None


def _verdicts(client: CompletionClient, pairs: list[tuple[str, str]],
              stats: Counter | None, map_fn: MapFn) -> list[tuple[str, bool]]:
    """For each (context, claim) pair, in order, the context cut to the
    validator's window and whether it supports the claim. A claim whose cut
    context is empty is unsupported without a validator call; the others go
    to the validator as one batch. Only the requests go through ``map_fn``;
    verdict parsing and counting stay in this thread."""
    pairs = [(_truncate_context(context, claim), claim) for context, claim in pairs]
    responses = iter(complete_all(client, [
        completion_request(client, build_support_prompt(*pair), VALIDATOR_SETTINGS)
        for pair in pairs if pair[0]], map_fn))
    verdicts = []
    for context, claim in pairs:
        if not context:
            logger.debug("empty context for claim %.60s", claim)
            if stats is not None:
                stats["empty_context"] += 1
            verdicts.append((context, False))
            continue
        text = next(responses).text
        verdict = parse_verdict(text)
        if verdict is None:
            logger.debug("unparseable validator answer %r for claim %.60s", text[:40], claim)
            if stats is not None:
                stats["unparseable"] += 1
        verdicts.append((context, verdict is True))
    return verdicts


def judge_support(client: CompletionClient, context: str, claim: str,
                  stats: Counter | None = None) -> bool:
    """Whether ``context`` supports ``claim``, judged as the stages judge a
    subclaim: against the context cut to the validator's window, and
    unsupported without a call when nothing of it is left."""
    if not claim:
        raise ValidateError("claim must be non-empty")
    return _verdicts(client, [(context, claim)], stats, map)[0][1]


def _judgments(client: CompletionClient, claims: list[Subclaim], contexts: list[str],
               context_kind: str, stats: Counter | None, map_fn: MapFn) -> list[SupportJudgment]:
    """A judgment of each claim against its context (see ``_verdicts``), in order."""
    verdicts = _verdicts(client, [(context, claim.text)
                                  for claim, context in zip(claims, contexts)], stats, map_fn)
    return [SupportJudgment(claim=claim, context_kind=context_kind, supported=supported,
                            validator_id=client.model, context_snapshot=context)
            for claim, (context, supported) in zip(claims, verdicts)]


def judge_decomposition(client: CompletionClient, claims: list[tuple[Subclaim, str]],
                        stats: Counter | None = None,
                        map_fn: MapFn = map) -> list[SupportJudgment]:
    """Judge each (subclaim, source sentence) pair: is the subclaim supported
    by the sentence it was decomposed from?"""
    return _judgments(client, [claim for claim, _ in claims],
                      [sentence for _, sentence in claims], CONTEXT_ORIGINAL_SENTENCE,
                      stats, map_fn)


def _truncate_context(context: str, claim: str) -> str:
    budget_tokens = VALIDATOR_SETTINGS.context_window - VALIDATOR_SETTINGS.max_tokens
    overhead = len(build_support_prompt("", claim))
    allowed = int(budget_tokens * CHARS_PER_TOKEN) - overhead
    if allowed < 0:
        return ""
    return context[:allowed]


def judge_facts(client: CompletionClient, index: Index, subclaims: list[Subclaim],
                stats: Counter | None = None, map_fn: MapFn = map) -> list[SupportJudgment]:
    """Judge each subclaim against the ``DEFAULT_TOP_K`` knowledge-source
    chunks retrieved for it.

    Retrieval is restricted to the document titled with the subclaim's
    topic when the index has one, falling back to the whole corpus.
    """
    contexts = []
    for claim in subclaims:
        restrict = claim.topic if index.has_title(claim.topic) else None
        hits = search(index, claim.text, DEFAULT_TOP_K, restrict_title=restrict)
        contexts.append("\n\n".join(chunk.text for chunk, _ in hits))
    return _judgments(client, subclaims, contexts, CONTEXT_KNOWLEDGE_SOURCE, stats, map_fn)


# --- NLI ----------------------------------------------------------------------

@dataclass(frozen=True)
class NliVerdict:
    entailment: float
    neutral: float
    contradiction: float

    def __post_init__(self) -> None:
        probs = (self.entailment, self.neutral, self.contradiction)
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ValidateError(f"probabilities out of range: {probs}")
        if abs(sum(probs) - 1.0) > 1e-3:
            raise ValidateError(f"probabilities do not sum to 1: {probs}")

    @property
    def is_entailment(self) -> bool:
        return (self.entailment >= self.neutral
                and self.entailment >= self.contradiction)


class StaticNliClient:
    """Offline NLI stub: a fixed verdict, or one keyed by (premise, hypothesis)."""

    def __init__(self, verdict: NliVerdict | None = None,
                 table: dict[tuple[str, str], NliVerdict] | None = None):
        self.verdict = verdict
        self.table = table or {}

    def classify(self, premise: str, hypothesis: str) -> NliVerdict:
        if (premise, hypothesis) in self.table:
            return self.table[(premise, hypothesis)]
        if self.verdict is None:
            raise ValidateError("no verdict configured")
        return self.verdict


def nli_entails(endpoint, premise: str, hypothesis: str) -> bool:
    """True iff the service's argmax class is entailment."""
    verdict = endpoint.classify(premise, hypothesis)
    return verdict.is_entailment
