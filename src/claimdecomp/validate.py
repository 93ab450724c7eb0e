"""Binary support judgments for subclaims.

Two validator contexts: the original sentence that was decomposed, and
text retrieved from the knowledge source. The validator prompt is fixed:

    <context>
    <blank line>
    Claim: <claim>
    True or False?

The completion's first alphabetic token decides the verdict; anything that
is not "true"/"false" counts as unsupported and is tallied as a warning so
a flaky model cannot abort a long run.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

import requests

from .corpus import Passage
from .decompose import Subclaim
from .llm import CompletionClient, GenerationSettings, complete_text
from .retrieval import Index, search

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


@dataclass
class ValidationStats:
    """Counts of degraded-path fallbacks, reported alongside scores."""

    unparseable: int = 0
    empty_context: int = 0


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


def judge_support(client: CompletionClient, context: str, claim: str,
                  settings: GenerationSettings = VALIDATOR_SETTINGS,
                  stats: ValidationStats | None = None) -> bool:
    if not claim:
        raise ValidateError("claim must be non-empty")
    response = complete_text(client, build_support_prompt(context, claim), settings)
    verdict = parse_verdict(response.text)
    if verdict is None:
        logger.warning("unparseable validator answer %r for claim %.60s",
                       response.text[:40], claim)
        if stats is not None:
            stats.unparseable += 1
        return False
    return verdict


def judge_decomposition(client: CompletionClient, sentence: str,
                        subclaims: list[Subclaim],
                        validator_id: str = "llm",
                        settings: GenerationSettings = VALIDATOR_SETTINGS,
                        stats: ValidationStats | None = None) -> list[SupportJudgment]:
    """Judge each subclaim against the sentence it was decomposed from."""
    return [
        SupportJudgment(
            claim=claim,
            context_kind=CONTEXT_ORIGINAL_SENTENCE,
            supported=judge_support(client, sentence, claim.text, settings, stats),
            validator_id=validator_id,
            context_snapshot=sentence,
        )
        for claim in subclaims
    ]


def _truncate_context(context: str, claim: str,
                      settings: GenerationSettings) -> str:
    budget_tokens = settings.context_window - settings.max_tokens
    overhead = len(build_support_prompt("", claim))
    allowed = int(budget_tokens * settings.chars_per_token) - overhead
    if allowed < 0:
        return ""
    return context[:allowed]


def judge_facts(client: CompletionClient, index: Index, passage: Passage,
                subclaims: list[Subclaim], k: int = 5,
                validator_id: str = "llm",
                settings: GenerationSettings = VALIDATOR_SETTINGS,
                stats: ValidationStats | None = None) -> list[SupportJudgment]:
    """Judge each subclaim against retrieved knowledge-source chunks.

    Retrieval is restricted to the passage's topic document when the index
    has one, falling back to the whole corpus. An empty context yields an
    unsupported judgment without a validator call.
    """
    restrict = passage.topic if index.has_title(passage.topic) else None
    judgments = []
    for claim in subclaims:
        hits = search(index, claim.text, k, restrict_title=restrict) if index.chunks else []
        context = _truncate_context(
            "\n\n".join(chunk.text for chunk, _ in hits), claim.text, settings)
        if not context:
            logger.warning("empty retrieval context for claim %.60s", claim.text)
            if stats is not None:
                stats.empty_context += 1
            supported = False
        else:
            supported = judge_support(client, context, claim.text, settings, stats)
        judgments.append(SupportJudgment(
            claim=claim,
            context_kind=CONTEXT_KNOWLEDGE_SOURCE,
            supported=supported,
            validator_id=validator_id,
            context_snapshot=context,
        ))
    return judgments


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


class HttpNliClient:
    """POST {premise, hypothesis} to an NLI service returning the three
    class probabilities."""

    def __init__(self, url: str, timeout_s: float = 60.0,
                 session: requests.Session | None = None):
        self.url = url
        self.timeout_s = timeout_s
        self._session = session or requests.Session()

    def classify(self, premise: str, hypothesis: str) -> NliVerdict:
        try:
            resp = self._session.post(
                self.url, json={"premise": premise, "hypothesis": hypothesis},
                timeout=self.timeout_s)
        except requests.RequestException as exc:
            raise ValidateError(f"NLI request failed: {exc}") from exc
        if resp.status_code != 200:
            raise ValidateError(f"NLI service HTTP {resp.status_code}")
        data = resp.json()
        return NliVerdict(
            entailment=data["entailment"],
            neutral=data["neutral"],
            contradiction=data["contradiction"],
        )


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
