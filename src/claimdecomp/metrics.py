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

import logging
from dataclasses import dataclass

import numpy as np

from .decompose import Subclaim
from .validate import SupportJudgment

logger = logging.getLogger(__name__)


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PassageResult:
    topic: str
    generator: str
    method: str
    n_subclaims: int
    n_supported_by_sentence: int
    n_supported_by_knowledge: int = 0
    n_supported_by_knowledge_filtered: int = 0

    def __post_init__(self) -> None:
        counts = (self.n_supported_by_sentence, self.n_supported_by_knowledge,
                  self.n_supported_by_knowledge_filtered)
        if any(c < 0 or c > self.n_subclaims for c in counts):
            raise MetricsError(f"supported counts must lie in [0, n_subclaims]: {self}")
        if self.n_supported_by_knowledge_filtered > self.n_supported_by_sentence:
            raise MetricsError(
                f"filtered knowledge count exceeds sentence-supported count: {self}")


def _require_results(results: list[PassageResult]) -> None:
    if not results:
        raise MetricsError("no passage results")
    methods = {r.method for r in results}
    if len(methods) > 1:
        raise MetricsError(f"results mix methods: {sorted(methods)}")


def decomp_score(results: list[PassageResult]) -> float:
    """Mean sentence-supported subclaim count per passage."""
    _require_results(results)
    return float(np.mean([r.n_supported_by_sentence for r in results]))


def avg_subclaims(results: list[PassageResult]) -> float:
    _require_results(results)
    return float(np.mean([r.n_subclaims for r in results]))


def fact_score(results: list[PassageResult], use_filter: bool = False,
               length_penalty_gamma: float | None = None) -> float:
    """Mean per-passage supported fraction, in [0, 1].

    With ``use_filter`` the score is computed over only the subclaims the
    sentence validator kept. ``length_penalty_gamma`` enables the optional
    short-passage penalty multiplier min(1, n_subclaims / gamma); off by
    default.
    """
    _require_results(results)
    scores = []
    for r in results:
        if use_filter:
            numerator, denominator = r.n_supported_by_knowledge_filtered, r.n_supported_by_sentence
        else:
            numerator, denominator = r.n_supported_by_knowledge, r.n_subclaims
        if denominator == 0:
            logger.warning("passage %s/%s has zero denominator; scoring 0",
                           r.generator, r.topic)
            score = 0.0
        else:
            score = numerator / denominator
        if length_penalty_gamma:
            score *= min(1.0, r.n_subclaims / length_penalty_gamma)
        scores.append(score)
    return float(np.mean(scores))


def coherence_pct(results: list[PassageResult]) -> float:
    """100 x (total sentence-supported subclaims) / (total subclaims)."""
    _require_results(results)
    total = sum(r.n_subclaims for r in results)
    if total == 0:
        raise MetricsError("no subclaims in group")
    supported = sum(r.n_supported_by_sentence for r in results)
    return 100.0 * supported / total


def apply_filter(subclaims: list[Subclaim],
                 sentence_judgments: list[SupportJudgment]) -> list[Subclaim]:
    """Keep exactly the subclaims judged supported by their sentence."""
    if len(subclaims) != len(sentence_judgments):
        raise MetricsError(
            f"{len(subclaims)} subclaims but {len(sentence_judgments)} judgments")
    return [c for c, j in zip(subclaims, sentence_judgments) if j.supported]


def macro_average(per_lm: dict[str, float]) -> float:
    """Arithmetic mean across generators."""
    if not per_lm:
        raise MetricsError("empty per-generator map")
    return float(np.mean(list(per_lm.values())))


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise MetricsError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise MetricsError("need at least 2 pairs")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    # Scale each centred column to unit max before squaring, so tiny or huge
    # inputs neither underflow into subnormals nor overflow.
    sx = float(np.max(np.abs(dx)))
    sy = float(np.max(np.abs(dy)))
    if sx == 0.0 or sy == 0.0:
        raise MetricsError("zero variance in an input column")
    dx /= sx
    dy /= sy
    denom = float(np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy)))
    return float(np.sum(dx * dy) / denom)


# --- aggregation ----------------------------------------------------------------

def results_from_judgments(
        subclaims: list[Subclaim],
        sentence_judgments: list[SupportJudgment] | None = None,
        knowledge_judgments: list[SupportJudgment] | None = None) -> list[PassageResult]:
    """Fold raw judgment records into per-passage counts.

    Judgments are matched to subclaims by (generator, topic, sentence index,
    ordinal); each judgment list, when given, must cover every subclaim.
    """
    def key(c: Subclaim) -> tuple:
        return (c.generator, c.topic, c.method, c.sentence_index, c.ordinal)

    sentence_map = {key(j.claim): j.supported for j in sentence_judgments or []}
    knowledge_map = {key(j.claim): j.supported for j in knowledge_judgments or []}

    grouped: dict[tuple[str, str, str], list[Subclaim]] = {}
    order: list[tuple[str, str, str]] = []
    for claim in subclaims:
        group = (claim.generator, claim.topic, claim.method)
        if group not in grouped:
            grouped[group] = []
            order.append(group)
        grouped[group].append(claim)

    results = []
    for group in order:
        generator, topic, method = group
        claims = grouped[group]
        n_sentence = n_knowledge = n_filtered = 0
        for claim in claims:
            k = key(claim)
            if sentence_judgments is not None and k not in sentence_map:
                raise MetricsError(f"missing sentence judgment for {k}")
            if knowledge_judgments is not None and k not in knowledge_map:
                raise MetricsError(f"missing knowledge judgment for {k}")
            sentence_ok = sentence_map.get(k, False)
            knowledge_ok = knowledge_map.get(k, False)
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
    macro = LmMetrics(
        decomp_score=macro_average({lm: m.decomp_score for lm, m in per_lm.items()}),
        avg_subclaims=macro_average({lm: m.avg_subclaims for lm, m in per_lm.items()}),
        coherence_pct=macro_average({lm: m.coherence_pct for lm, m in per_lm.items()}),
        fact_score=macro_average({lm: m.fact_score for lm, m in per_lm.items()}),
        filtered_fact_score=macro_average(
            {lm: m.filtered_fact_score for lm, m in per_lm.items()}),
    )
    return MethodReport(method=method, per_lm=per_lm, macro=macro)
