import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimdecomp.decompose import Subclaim
from claimdecomp.metrics import (LmMetrics, MetricsError, PassageResult,
                                 avg_subclaims, coherence_pct, decomp_score,
                                 fact_score, macro_average, method_report,
                                 pearson, results_from_judgments)
from claimdecomp.validate import SupportJudgment


def result(sentence=0, knowledge=0, filtered=0, total=10, topic="t",
           generator="g", method="m"):
    return PassageResult(topic=topic, generator=generator, method=method,
                         n_subclaims=total, n_supported_by_sentence=sentence,
                         n_supported_by_knowledge=knowledge,
                         n_supported_by_knowledge_filtered=filtered)


class TestPassageResult:
    def test_count_bounds(self):
        with pytest.raises(MetricsError):
            result(sentence=11, total=10)

    def test_filtered_bounded_by_sentence_supported(self):
        with pytest.raises(MetricsError):
            result(sentence=2, knowledge=5, filtered=3, total=10)


class TestDecompScore:
    def test_mean(self):
        results = [result(sentence=3, topic="a"), result(sentence=5, topic="b"),
                   result(sentence=4, topic="c")]
        assert decomp_score(results) == 4.0

    def test_all_zero(self):
        assert decomp_score([result(sentence=0)]) == 0.0

    def test_single(self):
        assert decomp_score([result(sentence=7)]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            decomp_score([])

    def test_mixed_methods_rejected(self):
        with pytest.raises(MetricsError):
            decomp_score([result(method="a"), result(method="b")])


class TestFactScore:
    def test_fraction(self):
        assert fact_score([result(knowledge=6, total=8)]) == 0.75

    def test_all_supported(self):
        assert fact_score([result(knowledge=10, total=10)]) == 1.0

    def test_mean_of_per_passage_scores(self):
        results = [result(knowledge=5, total=10, topic="a"),
                   result(knowledge=10, total=10, topic="b")]
        assert fact_score(results) == 0.75

    def test_filtered_variant(self):
        r = result(sentence=5, knowledge=6, filtered=4, total=10)
        assert fact_score([r], use_filter=True) == 4 / 5

    def test_zero_denominator_scores_zero(self):
        assert fact_score([result(total=0)]) == 0.0
        assert fact_score([result(sentence=0, total=5)], use_filter=True) == 0.0

    def test_length_penalty_off_by_default(self):
        short = result(knowledge=2, total=2)
        assert fact_score([short]) == 1.0

    def test_range(self):
        assert 0.0 <= fact_score([result(knowledge=3, total=7)]) <= 1.0


class TestCoherence:
    def test_ratio_of_sums(self):
        results = [result(sentence=42, total=43)]
        assert round(coherence_pct(results), 2) == 97.67

    def test_all_supported(self):
        assert coherence_pct([result(sentence=10, total=10)]) == 100.0

    def test_none_supported(self):
        assert coherence_pct([result(sentence=0, total=10)]) == 0.0

    def test_group_pooling(self):
        # ratio of sums, not mean of ratios
        results = [result(sentence=1, total=1, topic="a"),
                   result(sentence=0, total=3, topic="b")]
        assert coherence_pct(results) == 25.0

    def test_zero_total_rejected(self):
        with pytest.raises(MetricsError):
            coherence_pct([result(total=0)])


class TestMacroAverage:
    def test_mean(self):
        assert macro_average({"a": 1.0, "b": 3.0}) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            macro_average({})


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_matches_scipy(self):
        from scipy import stats
        rng = random.Random(7)
        xs = [rng.uniform(0, 100) for _ in range(30)]
        ys = [rng.uniform(0, 100) for _ in range(30)]
        assert pearson(xs, ys) == pytest.approx(stats.pearsonr(xs, ys)[0], abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(MetricsError):
            pearson([1], [2])

    def test_zero_variance(self):
        with pytest.raises(MetricsError):
            pearson([1, 1, 1], [2, 4, 6])

    def test_zero_variance_in_ys(self):
        with pytest.raises(MetricsError, match="zero variance"):
            pearson([2, 4, 6], [1, 1, 1])

    def test_two_pairs_suffice(self):
        assert pearson([1, 2], [3, 5]) == pytest.approx(1.0)
        assert pearson([1, 2], [5, 3]) == pytest.approx(-1.0)

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=12),
           st.floats(min_value=0.1, max_value=10), st.floats(min_value=-5, max_value=5))
    def test_symmetric_and_affine_invariant(self, xs, scale, shift):
        ys = [2.5 * x + 1 + ((-1) ** i) * (i + 1) for i, x in enumerate(xs)]
        try:
            base = pearson(xs, ys)
        except MetricsError:
            return  # degenerate sample: zero variance
        assert abs(base - pearson(ys, xs)) < 1e-12
        transformed = [scale * y + shift for y in ys]
        assert abs(base - pearson(xs, transformed)) < 1e-9


def _synthetic_claims_and_judgments(seed, n_passages=20):
    rng = random.Random(seed)
    claims, sentence_j, knowledge_j = [], [], []
    for p in range(n_passages):
        topic, generator = f"topic{p}", f"lm{p % 3}"
        for i in range(rng.randint(1, 6)):
            c = Subclaim(text=f"claim {p}.{i}", topic=topic, generator=generator,
                         sentence_index=0, method="m", ordinal=i)
            claims.append(c)
            s_ok, k_ok = rng.random() < 0.8, rng.random() < 0.5
            sentence_j.append(SupportJudgment(
                claim=c, context_kind="original_sentence", supported=s_ok,
                validator_id="mock", context_snapshot="s"))
            knowledge_j.append(SupportJudgment(
                claim=c, context_kind="knowledge_source", supported=k_ok,
                validator_id="mock", context_snapshot="k"))
    return claims, sentence_j, knowledge_j


class TestResultsFromJudgments:
    def test_counts_match_brute_force(self):
        claims, sentence_j, knowledge_j = _synthetic_claims_and_judgments(13)
        results = results_from_judgments(claims, sentence_j, knowledge_j)

        s_map = {(j.claim.topic, j.claim.ordinal): j.supported for j in sentence_j}
        k_map = {(j.claim.topic, j.claim.ordinal): j.supported for j in knowledge_j}
        for r in results:
            mine = [c for c in claims if c.topic == r.topic]
            assert r.n_subclaims == len(mine)
            assert r.n_supported_by_sentence == sum(
                s_map[(c.topic, c.ordinal)] for c in mine)
            assert r.n_supported_by_knowledge == sum(
                k_map[(c.topic, c.ordinal)] for c in mine)
            assert r.n_supported_by_knowledge_filtered == sum(
                s_map[(c.topic, c.ordinal)] and k_map[(c.topic, c.ordinal)]
                for c in mine)

    def test_no_knowledge_judgments_count_nothing_supported_by_knowledge(self):
        claims, sentence_j, _ = _synthetic_claims_and_judgments(7)
        results = results_from_judgments(claims, sentence_judgments=sentence_j)
        assert any(r.n_supported_by_sentence for r in results)
        for r in results:
            assert r.n_supported_by_knowledge == r.n_supported_by_knowledge_filtered == 0

    def test_missing_judgment_rejected(self):
        claims, sentence_j, _ = _synthetic_claims_and_judgments(5)
        with pytest.raises(MetricsError, match="missing"):
            results_from_judgments(claims, sentence_j[:-1])

    @pytest.mark.parametrize("kind, stage", [("sentence", "decompscore"),
                                             ("knowledge", "factscore")])
    def test_judgment_of_other_text_rejected(self, kind, stage):
        # the same key, but the subclaim was rewritten after it was judged
        claims, sentence_j, knowledge_j = _synthetic_claims_and_judgments(5)
        claims[0] = Subclaim(text="a rewritten claim", topic=claims[0].topic,
                             generator=claims[0].generator, sentence_index=0,
                             method="m", ordinal=0)
        key = (claims[0].generator, claims[0].topic, "m", 0, 0)
        judgments = {"sentence": sentence_j, "knowledge": knowledge_j}
        with pytest.raises(MetricsError) as caught:
            results_from_judgments(claims, **{f"{kind}_judgments": judgments[kind]})
        assert str(caught.value) == (
            f"{kind} judgment for {key} is of 'claim 0.0', but the subclaim reads "
            f"'a rewritten claim'; rerun {stage}")


class TestProperties:
    def test_filtered_denominator_property_randomized(self):
        rng = random.Random(42)
        for _ in range(1000):
            total = rng.randint(1, 30)
            sentence = rng.randint(0, total)
            knowledge = rng.randint(0, total)
            filtered = rng.randint(0, min(sentence, knowledge))
            r = result(sentence=sentence, knowledge=knowledge,
                       filtered=filtered, total=total)
            assert r.n_supported_by_sentence <= r.n_subclaims
            # all sentence-supported -> same numerator and denominator as unfiltered
            all_kept = result(sentence=total, knowledge=knowledge,
                              filtered=knowledge, total=total)
            assert fact_score([all_kept], use_filter=True) == fact_score([all_kept])

    def test_decomp_equals_coherence_times_mean_subclaims(self):
        claims, sentence_j, knowledge_j = _synthetic_claims_and_judgments(99)
        results = results_from_judgments(claims, sentence_j, knowledge_j)
        by_lm = {}
        for r in results:
            by_lm.setdefault(r.generator, []).append(r)
        for group in by_lm.values():
            expected = coherence_pct(group) / 100.0 * avg_subclaims(group)
            assert decomp_score(group) == pytest.approx(expected, abs=1e-9)


class TestMethodReport:
    def test_single_passage(self):
        report = method_report([result(sentence=2, knowledge=3, filtered=1, total=4,
                                       generator="g", method="rnd")])
        one = LmMetrics(decomp_score=2.0, avg_subclaims=4.0, coherence_pct=50.0,
                        fact_score=0.75, filtered_fact_score=0.5)
        assert (report.method, report.per_lm, report.macro) == ("rnd", {"g": one}, one)

    def test_macro_is_mean_of_per_lm(self):
        claims, sentence_j, knowledge_j = _synthetic_claims_and_judgments(7)
        results = results_from_judgments(claims, sentence_j, knowledge_j)
        report = method_report(results)
        for field in LmMetrics.__dataclass_fields__:
            values = [getattr(m, field) for m in report.per_lm.values()]
            assert getattr(report.macro, field) == pytest.approx(
                sum(values) / len(values))
