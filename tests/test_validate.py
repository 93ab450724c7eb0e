from collections import Counter

import pytest

from claimdecomp import (KnowledgeDoc, MockCompletionClient, build_index,
                         judge_decomposition, judge_facts, judge_support,
                         nli_entails)
from claimdecomp.decompose import Subclaim
from claimdecomp.llm import CHARS_PER_TOKEN, CachingClient, ContextLengthError
from claimdecomp.retrieval import DEFAULT_TOP_K
from claimdecomp.validate import (CONTEXT_KNOWLEDGE_SOURCE,
                                  CONTEXT_ORIGINAL_SENTENCE, VALIDATOR_SETTINGS,
                                  NliVerdict, StaticNliClient, ValidateError,
                                  _truncate_context, build_support_prompt, parse_verdict)


def claim(text, i=0, topic="T", generator="g", method="rnd"):
    return Subclaim(text=text, topic=topic, generator=generator,
                    sentence_index=0, method=method, ordinal=i)


WINDOW_CHARS = (VALIDATOR_SETTINGS.context_window - VALIDATOR_SETTINGS.max_tokens) \
    * CHARS_PER_TOKEN


class WindowedClient(MockCompletionClient):
    """Rejects a prompt longer than the validator's window, as an endpoint does."""

    def complete(self, request):
        if len(request.prompt) > WINDOW_CHARS:
            raise ContextLengthError(f"{len(request.prompt)} characters")
        return super().complete(request)


class TestPrompt:
    def test_exact_layout(self):
        assert build_support_prompt("Some context.", "A claim.") == (
            "Some context.\n\nClaim: A claim.\nTrue or False?")

    def test_claim_appears_exactly_once(self):
        prompt = build_support_prompt("Context about a topic.", "Unique claim text")
        assert prompt.count("Unique claim text") == 1


class TestTruncateContext:
    def test_keeps_what_fits_and_cuts_the_rest(self):
        text = "Ada was born in Zurich."
        allowed = int(WINDOW_CHARS) - len(build_support_prompt("", text))
        fits = "x" * allowed
        assert _truncate_context(fits, text) == fits
        assert _truncate_context(fits + "y", text) == fits


class TestParseVerdict:
    @pytest.mark.parametrize("completion,expected", [
        ("True", True), ("true", True), (" TRUE!", True), ("True.", True),
        ("False", False), ("False.", False), ("  false, because", False),
        ("maybe", None), ("", None), ("100%", None),
    ])
    def test_cases(self, completion, expected):
        assert parse_verdict(completion) is expected


class TestJudgeSupport:
    def test_true(self):
        client = MockCompletionClient(default="True")
        assert judge_support(client, "ctx", "claim") is True

    def test_false_with_period(self):
        client = MockCompletionClient(default="False.")
        assert judge_support(client, "ctx", "claim") is False

    def test_unparseable_counts_as_unsupported_with_warning(self):
        client = MockCompletionClient(default="maybe")
        stats = Counter()
        assert judge_support(client, "ctx", "claim", stats=stats) is False
        assert stats == Counter(unparseable=1)

    def test_empty_claim_rejected(self):
        with pytest.raises(ValidateError):
            judge_support(MockCompletionClient(default="True"), "ctx", "")

    def test_validator_settings_used(self):
        client = MockCompletionClient(default="True")
        judge_support(client, "ctx", "claim")
        request = client.calls[0]
        assert request.temperature == 0.0
        assert request.max_tokens == 128

    def test_context_cut_to_validator_window(self):
        sentence = "The composer lived in Zurich. " + "filler " * 1455
        client = WindowedClient(default="True")
        assert judge_support(client, sentence, "composer claim") is True
        assert client.calls[0].prompt == build_support_prompt(
            _truncate_context(sentence, "composer claim"), "composer claim")

    def test_empty_context_unsupported_without_a_call(self):
        client = MockCompletionClient(default="True")
        stats = Counter()
        assert judge_support(client, "", "claim", stats=stats) is False
        assert client.calls == []
        assert stats == Counter(empty_context=1)


class TestJudgeDecomposition:
    def test_empty_list(self):
        assert judge_decomposition(MockCompletionClient(default="True"), []) == []

    def test_all_true(self):
        client = MockCompletionClient(default="True")
        claims = [claim("a", 0), claim("b", 1), claim("c", 2)]
        judgments = judge_decomposition(client, [(c, "The sentence.") for c in claims])
        assert len(judgments) == 3
        assert all(j.supported for j in judgments)
        assert all(j.context_kind == CONTEXT_ORIGINAL_SENTENCE for j in judgments)
        assert all(j.context_snapshot == "The sentence." for j in judgments)
        assert [j.claim for j in judgments] == claims

    def test_keyed_by_claim(self):
        client = MockCompletionClient(rules=[
            ("Claim: supported one", "True"),
            ("Claim: unsupported one", "False"),
        ])
        judgments = judge_decomposition(
            client, [(claim("supported one", 0), "s"), (claim("unsupported one", 1), "s")])
        assert [j.supported for j in judgments] == [True, False]

    def test_empty_sentence_unsupported_without_a_call(self):
        client = MockCompletionClient(default="True")
        stats = Counter()
        judgments = judge_decomposition(
            client, [(claim("a", 0), ""), (claim("b", 1), "The sentence.")], stats=stats)
        assert [j.supported for j in judgments] == [False, True]
        assert [j.context_snapshot for j in judgments] == ["", "The sentence."]
        assert [r.prompt for r in client.calls] == [
            build_support_prompt("The sentence.", "b")]
        assert stats == Counter(empty_context=1)

    def test_claim_that_fills_the_window_alone_unsupported_without_a_call(self):
        # the prompt overflows with no context at all, so no prefix of the
        # sentence fits, though it is longer than the overflow
        long_claim = claim("Ada " * 1925)
        overflow = len(build_support_prompt("", long_claim.text)) - WINDOW_CHARS
        sentence = "Ada was born in Zurich. " * 10
        assert 0 < overflow < len(sentence)
        client = MockCompletionClient(default="True")
        stats = Counter()
        judgments = judge_decomposition(client, [(long_claim, sentence)], stats=stats)
        assert [(j.supported, j.context_snapshot) for j in judgments] == [(False, "")]
        assert client.calls == []
        assert stats == Counter(empty_context=1)

    def test_sentence_cut_to_validator_window(self):
        sentence = "The composer lived in Zurich. " + "filler " * 1455
        assert len(sentence) > WINDOW_CHARS
        judgments = judge_decomposition(WindowedClient(default="True"),
                                        [(claim("composer claim"), sentence)])
        assert judgments[0].supported
        snapshot = judgments[0].context_snapshot
        assert len(snapshot) < len(sentence) and sentence.startswith(snapshot)


class TestJudgeFacts:
    def _index(self):
        return build_index([
            KnowledgeDoc("T", "The topic document mentions a composer and Zurich."),
            KnowledgeDoc("Other", "Unrelated text about films."),
        ], chunk_words=16)

    def test_empty_index_all_unsupported_without_calls(self):
        index = build_index([], 16)
        client = MockCompletionClient(default="True")
        stats = Counter()
        judgments = judge_facts(client, index, [claim("composer claim")],
                                stats=stats)
        assert [j.supported for j in judgments] == [False]
        assert stats == Counter(empty_context=1)
        assert client.calls == []

    def test_all_true(self):
        client = MockCompletionClient(default="True")
        judgments = judge_facts(client, self._index(), [claim("The composer lived in Zurich.")])
        assert all(j.supported for j in judgments)
        assert all(j.context_kind == CONTEXT_KNOWLEDGE_SOURCE for j in judgments)

    def test_single_chunk_snapshot(self):
        doc = KnowledgeDoc("T", "Only chunk text mentioning a composer.")
        index = build_index([doc], 32)
        client = MockCompletionClient(default="True")
        judgments = judge_facts(client, index, [claim("composer claim")])
        assert judgments[0].context_snapshot == doc.text

    def test_restricted_to_topic_document(self):
        client = MockCompletionClient(default="True")
        judgments = judge_facts(client, self._index(), [claim("films and composer")])
        assert "topic document" in judgments[0].context_snapshot
        assert "Unrelated" not in judgments[0].context_snapshot

    def test_context_truncated_to_validator_window(self):
        doc = KnowledgeDoc("T", "composer " + "filler " * 5000)
        index = build_index([doc], 6000)
        client = MockCompletionClient(default="True")
        judge_facts(client, index, [claim("composer claim")])
        prompt = client.calls[0].prompt
        assert len(prompt) <= (2048 - 128) * CHARS_PER_TOKEN + 64

    def test_claim_verbatim_once_in_prompt(self):
        client = MockCompletionClient(default="True")
        judge_facts(client, self._index(), [claim("a very unique claim")])
        assert client.calls[0].prompt.count("a very unique claim") == 1

    def test_context_holds_the_top_five_chunks(self):
        doc = KnowledgeDoc("T", " ".join(f"composer w{i}" for i in range(8)))
        index = build_index([doc], 2)
        judgments = judge_facts(MockCompletionClient(default="True"), index,
                                [claim("composer claim")])
        assert len(index.chunks) == 8
        assert len(judgments[0].context_snapshot.split("\n\n")) == DEFAULT_TOP_K == 5


class TestValidatorId:
    """Every judgment names the validator client's model; every request
    uses the fixed validator settings."""

    def _judge_both(self, client):
        index = build_index([KnowledgeDoc("T", "A composer lived in Zurich.")], 16)
        claims = [claim("The composer lived in Zurich.")]
        return [*judge_decomposition(client, [(claims[0], "The sentence.")]),
                *judge_facts(client, index, claims)]

    def test_mock_stamps_mock(self):
        client = MockCompletionClient(default="True")
        judgments = self._judge_both(client)
        assert [j.validator_id for j in judgments] == ["mock", "mock"]
        judge_support(client, "ctx", "claim")
        assert {(r.model, r.max_tokens, r.temperature) for r in client.calls} == {
            ("mock", VALIDATOR_SETTINGS.max_tokens, VALIDATOR_SETTINGS.temperature)}

    def test_caching_client_stamps_inner_model(self, tmp_path):
        inner = MockCompletionClient(default="True")
        inner.model = "inner-model"
        judgments = self._judge_both(CachingClient(inner, tmp_path / "cache"))
        assert [j.validator_id for j in judgments] == ["inner-model", "inner-model"]
        assert {r.model for r in inner.calls} == {"inner-model"}


class TestNli:
    def test_argmax_entailment(self):
        assert NliVerdict(0.9, 0.05, 0.05).is_entailment is True

    def test_argmax_neutral(self):
        assert NliVerdict(0.3, 0.4, 0.3).is_entailment is False

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidateError):
            NliVerdict(0.5, 0.2, 0.2)

    def test_probabilities_in_range(self):
        with pytest.raises(ValidateError):
            NliVerdict(1.2, -0.1, -0.1)

    def test_nli_entails_with_static_client(self):
        endpoint = StaticNliClient(verdict=NliVerdict(0.8, 0.1, 0.1))
        assert nli_entails(endpoint, "premise", "hypothesis") is True
        endpoint = StaticNliClient(verdict=NliVerdict(0.1, 0.1, 0.8))
        assert nli_entails(endpoint, "premise", "hypothesis") is False
