"""Scores over per-passage judgment counts.

* decomposition score: average number of sentence-supported subclaims per
  passage (no length penalty).
* factual-precision score: per-passage fraction of subclaims supported by
  the knowledge source, averaged over passages; the filtered variant keeps
  only sentence-supported subclaims (numerator and denominator both shrink).
* coherence: percentage of all subclaims in a group supported by their
  original sentence (ratio of sums within a group).

Macro averaging happens per generator first, then arithmetically across
generators.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields

from .decompose import Subclaim
from .validate import SupportJudgment


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PassageResult:
    topic: str
    generator: str
    method: str
    n_subclaims: int
    n_supported_by_sentence: int
    n_supported_by_knowledge: int
    n_supported_by_knowledge_filtered: int

    def __post_init__(self) -> None:
        counts = (self.n_supported_by_sentence, self.n_supported_by_knowledge,
                  self.n_supported_by_knowledge_filtered)
        if any(c < 0 or c > self.n_subclaims for c in counts):
            raise MetricsError(f"supported counts must lie in [0, n_subclaims]: {self}")
        if self.n_supported_by_knowledge_filtered > self.n_supported_by_sentence:
            raise MetricsError(
                f"filtered knowledge count exceeds sentence-supported count: {self}")


def _mean(values: Iterable[float]) -> float:
    """The mean of a non-empty run of numbers, as ``statistics.fmean`` gives it."""
    values = list(values)
    return math.fsum(values) / len(values)


def _require_results(results: list[PassageResult]) -> None:
    if not results:
        raise MetricsError("no passage results")
    methods = {r.method for r in results}
    if len(methods) > 1:
        raise MetricsError(f"results mix methods: {sorted(methods)}")


def decomp_score(results: list[PassageResult]) -> float:
    """Mean sentence-supported subclaim count per passage."""
    _require_results(results)
    return _mean(r.n_supported_by_sentence for r in results)


def avg_subclaims(results: list[PassageResult]) -> float:
    _require_results(results)
    return _mean(r.n_subclaims for r in results)


def fact_score(results: list[PassageResult], use_filter: bool = False) -> float:
    """Mean per-passage supported fraction, in [0, 1], with no length
    penalty.

    With ``use_filter`` the score is computed over only the subclaims the
    sentence validator kept.
    """
    _require_results(results)
    scores = []
    for r in results:
        if use_filter:
            numerator, denominator = r.n_supported_by_knowledge_filtered, r.n_supported_by_sentence
        else:
            numerator, denominator = r.n_supported_by_knowledge, r.n_subclaims
        if denominator == 0:
            scores.append(0.0)
        else:
            scores.append(numerator / denominator)
    return _mean(scores)


def coherence_pct(results: list[PassageResult]) -> float:
    """100 x (total sentence-supported subclaims) / (total subclaims)."""
    _require_results(results)
    total = sum(r.n_subclaims for r in results)
    if total == 0:
        raise MetricsError("no subclaims in group")
    supported = sum(r.n_supported_by_sentence for r in results)
    return 100.0 * supported / total


def macro_average(per_lm: dict[str, float]) -> float:
    """Arithmetic mean across generators."""
    if not per_lm:
        raise MetricsError("empty per-generator map")
    return _mean(per_lm.values())


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise MetricsError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise MetricsError("need at least 2 pairs")
    mx, my = _mean(xs), _mean(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    # Scale each centred column to unit max before squaring, so tiny or huge
    # inputs neither underflow into subnormals nor overflow.
    sx = max(map(abs, dx))
    sy = max(map(abs, dy))
    if sx == 0.0 or sy == 0.0:
        raise MetricsError("zero variance in an input column")
    dx = [d / sx for d in dx]
    dy = [d / sy for d in dy]
    denom = math.sqrt(math.fsum(d * d for d in dx)) * math.sqrt(math.fsum(d * d for d in dy))
    return math.fsum(a * b for a, b in zip(dx, dy)) / denom


# --- aggregation ----------------------------------------------------------------

def results_from_judgments(
        subclaims: list[Subclaim],
        sentence_judgments: list[SupportJudgment] | None = None,
        knowledge_judgments: list[SupportJudgment] | None = None) -> list[PassageResult]:
    """Fold raw judgment records into per-passage counts.

    Judgments are matched to subclaims by (generator, topic, method, sentence
    index, ordinal); each judgment list, when given, must cover every
    subclaim, and each judgment must be of that subclaim's text.
    """
    def key(c: Subclaim) -> tuple:
        return (c.generator, c.topic, c.method, c.sentence_index, c.ordinal)

    def by_key(judgments: list[SupportJudgment] | None) -> dict[tuple, SupportJudgment] | None:
        return None if judgments is None else {key(j.claim): j for j in judgments}

    def supported(claim: Subclaim, judgments: dict[tuple, SupportJudgment] | None,
                  kind: str, stage: str) -> bool:
        if judgments is None:
            return False
        judgment = judgments.get(key(claim))
        if judgment is None:
            raise MetricsError(f"missing {kind} judgment for {key(claim)}")
        if judgment.claim != claim:
            raise MetricsError(f"{kind} judgment for {key(claim)} is of {judgment.claim.text!r}, "
                               f"but the subclaim reads {claim.text!r}; rerun {stage}")
        return judgment.supported

    sentence_map, knowledge_map = by_key(sentence_judgments), by_key(knowledge_judgments)
    grouped: dict[tuple[str, str, str], list[Subclaim]] = {}
    for claim in subclaims:
        grouped.setdefault((claim.generator, claim.topic, claim.method), []).append(claim)

    results = []
    for (generator, topic, method), claims in grouped.items():
        n_sentence = n_knowledge = n_filtered = 0
        for claim in claims:
            sentence_ok = supported(claim, sentence_map, "sentence", "decompscore")
            knowledge_ok = supported(claim, knowledge_map, "knowledge", "factscore")
            n_sentence += sentence_ok
            n_knowledge += knowledge_ok
            n_filtered += sentence_ok and knowledge_ok
        results.append(PassageResult(
            topic=topic, generator=generator, method=method,
            n_subclaims=len(claims),
            n_supported_by_sentence=n_sentence,
            n_supported_by_knowledge=n_knowledge,
            n_supported_by_knowledge_filtered=n_filtered,
        ))
    return results


@dataclass(frozen=True)
class LmMetrics:
    decomp_score: float
    avg_subclaims: float
    coherence_pct: float
    fact_score: float
    filtered_fact_score: float


@dataclass(frozen=True)
class MethodReport:
    method: str
    per_lm: dict[str, LmMetrics]
    macro: LmMetrics


def method_report(results: list[PassageResult]) -> MethodReport:
    """Per-generator metrics plus their macro average."""
    _require_results(results)
    method = results[0].method
    by_lm: dict[str, list[PassageResult]] = {}
    for r in results:
        by_lm.setdefault(r.generator, []).append(r)

    per_lm = {
        lm: LmMetrics(
            decomp_score=decomp_score(group),
            avg_subclaims=avg_subclaims(group),
            coherence_pct=coherence_pct(group),
            fact_score=fact_score(group),
            filtered_fact_score=fact_score(group, use_filter=True),
        )
        for lm, group in by_lm.items()
    }
    macro = LmMetrics(**{
        f.name: macro_average({lm: getattr(m, f.name) for lm, m in per_lm.items()})
        for f in fields(LmMetrics)})
    return MethodReport(method=method, per_lm=per_lm, macro=macro)
