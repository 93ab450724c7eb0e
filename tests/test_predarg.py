import pytest

from claimdecomp import (MockCompletionClient, extract_predications,
                         fluency_rewrite, parse_conllu, render_predication)
from claimdecomp.llm import CompletionError
from claimdecomp.predarg import (FLUENCY_PROMPT_TEMPLATE, FluencyRewriteError,
                                 PredArgError, fluency_prompt)
from claimdecomp.conllu import SentenceParse, Token

# Hand-derived expected (kind, rendering) tuples per oracle sentence.
ORACLE = {
    "p001": [("possessive", "Mary poss dog"), ("verbal", "dog barked")],
    "p002": [("copular", "Aptitude for mathematics is natural")],
    "p003": [("copular", "Bel - Air is/are in California")],
    "p004": [("verbal", "Nash earned degrees")],
    "p005": [("copular", "He is/are a composer")],
    "p006": [("adjectival", "The legacy is/are rich"),
             ("verbal", "The rich legacy endured")],
    "p007": [("appositive", "The friend is/are a doctor"),
             ("verbal", "The friend smiled")],
    "p008": [("verbal", "The man slept"), ("verbal", "The man snored")],
    "p009": [("verbal", "Nash demonstrated aptitude"),
             ("verbal", "Nash earned degrees")],
    "p010": [("verbal", "He captivates audiences"),
             ("verbal", "He captivates filmmakers")],
}


def rendered(parse):
    return [(p.kind, render_predication(parse, p)) for p in extract_predications(parse)]


@pytest.mark.parametrize("sid", sorted(ORACLE))
def test_oracle_sentences(oracle_parses, sid):
    assert rendered(oracle_parses[sid]) == ORACLE[sid]


def test_compatibility_renderings(oracle_parses):
    assert ("copular", "Bel - Air is/are in California") in rendered(oracle_parses["p003"])
    assert ("copular", "Aptitude for mathematics is natural") in rendered(oracle_parses["p002"])


def test_conjunct_count_matches_conjunct_number(oracle_parses):
    # two conjuncts in the object slot -> two predications for that predicate
    preds = extract_predications(oracle_parses["p010"])
    assert len([p for p in preds if p.anchor == 2]) == 2


def test_three_conjuncts_give_three_predications():
    text = (
        "1\tHe\the\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tvisited\tvisit\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tParis\tParis\tPROPN\t_\t_\t2\tobj\t_\t_\n"
        "4\t,\t,\tPUNCT\t_\t_\t5\tpunct\t_\t_\n"
        "5\tRome\tRome\tPROPN\t_\t_\t3\tconj\t_\t_\n"
        "6\tand\tand\tCCONJ\t_\t_\t7\tcc\t_\t_\n"
        "7\tOslo\tOslo\tPROPN\t_\t_\t3\tconj\t_\t_\n"
        "8\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_\n")
    parse = parse_conllu(text)[0]
    out = rendered(parse)
    assert out == [("verbal", "He visited Paris"), ("verbal", "He visited Rome"),
                   ("verbal", "He visited Oslo")]


def test_case_marker_carried_to_conjuncts():
    text = (
        "1\tHe\the\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tworked\twork\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\twith\twith\tADP\t_\t_\t4\tcase\t_\t_\n"
        "4\tNelson\tNelson\tPROPN\t_\t_\t2\tobl\t_\t_\n"
        "5\tand\tand\tCCONJ\t_\t_\t6\tcc\t_\t_\n"
        "6\tSwift\tSwift\tPROPN\t_\t_\t4\tconj\t_\t_\n"
        "7\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_\n")
    parse = parse_conllu(text)[0]
    assert rendered(parse) == [("verbal", "He worked with Nelson"),
                               ("verbal", "He worked with Swift")]


def test_deterministic(oracle_parses):
    for parse in oracle_parses.values():
        assert extract_predications(parse) == extract_predications(parse)


def test_rendering_segments_are_subsequences_of_token_forms(oracle_parses):
    # each stretch between markers keeps surface order and uses only
    # original token forms
    for parse in oracle_parses.values():
        forms = [t.form for t in parse.words]
        for pred in extract_predications(parse):
            text = render_predication(parse, pred)
            for marker in ("is/are", "poss"):
                text = text.replace(f" {marker} ", "|")
            for segment in text.split("|"):
                words = segment.split(" ")
                assert all(w in forms for w in words), (words, forms)
                it = iter(forms)
                assert all(w in it for w in words), (words, forms)


def test_predicate_and_arguments_disjoint(oracle_parses):
    for parse in oracle_parses.values():
        for pred in extract_predications(parse):
            for slot in pred.argument_slots:
                assert not (pred.predicate_tokens & slot)


def test_interjection_yields_nothing():
    parse = parse_conllu("1\tHi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n")[0]
    assert extract_predications(parse) == []


def test_invalid_parse_rejected():
    bad = SentenceParse(tokens=(
        Token("1", "a", "_", "VERB", "_", "_", "0", "root", "_", "_"),
        Token("2", "b", "_", "NOUN", "_", "_", "0", "root", "_", "_")))
    with pytest.raises(PredArgError):
        extract_predications(bad)


def test_render_rejects_foreign_token_ids(oracle_parses):
    parse = oracle_parses["p004"]
    pred = extract_predications(parse)[0]
    other = oracle_parses["p007"]
    import dataclasses
    huge = dataclasses.replace(pred, predicate_tokens=frozenset({99}))
    with pytest.raises(PredArgError):
        render_predication(other, huge)


class TestFluencyRewrite:
    def test_prompt_template_pinned(self):
        assert FLUENCY_PROMPT_TEMPLATE.startswith(
            "Please turn my input utterances into a grammatically correct "
            "natural English sentence")
        assert '"is/are" or "poss"' in FLUENCY_PROMPT_TEMPLATE
        assert ("Input: born 1908 community leader\n"
                "Output: The community leader was born in 1908.") in FLUENCY_PROMPT_TEMPLATE
        assert ("Input: date of death is/are unknown\n"
                "Output: The date of death is unknown.") in FLUENCY_PROMPT_TEMPLATE
        assert ("Input: was an African - American social worker activist\n"
                "Output: They were an African-American social worker activist.") in FLUENCY_PROMPT_TEMPLATE
        assert FLUENCY_PROMPT_TEMPLATE.endswith("Input: {utterance}\nOutput:")

    def test_substitution(self):
        prompt = fluency_prompt("date of death is/are unknown")
        assert prompt.endswith("Input: date of death is/are unknown\nOutput:")
        assert prompt.count("Input:") == 4

    def test_in_prompt_example_pairs_round_trip(self):
        # a client keyed on the exact assembled prompts answers with the
        # expected rewrites
        client = MockCompletionClient(table={
            fluency_prompt("born 1908 community leader"):
                " The community leader was born in 1908.",
            fluency_prompt("date of death is/are unknown"):
                " The date of death is unknown.",
        })
        assert fluency_rewrite(client, "born 1908 community leader") == \
            "The community leader was born in 1908."
        assert fluency_rewrite(client, "date of death is/are unknown") == \
            "The date of death is unknown."

    def test_mock_echo(self):
        class Echo:
            model = "echo"

            def complete(self, request):
                utterance = request.prompt.rsplit("Input: ", 1)[1].split("\n")[0]
                from claimdecomp.llm import CompletionResponse
                return CompletionResponse(text=utterance)

        assert fluency_rewrite(Echo(), "dog barked") == "dog barked"

    def test_first_line_only(self):
        client = MockCompletionClient(default=" Good sentence.\nExtra line.")
        assert fluency_rewrite(client, "x") == "Good sentence."

    def test_rewrite_sends_the_decomposer_settings(self):
        client = MockCompletionClient(default="Good sentence.")
        fluency_rewrite(client, "x")
        assert [(r.max_tokens, r.temperature) for r in client.calls] == [(512, 0.7)]

    def test_empty_utterance_rejected(self):
        with pytest.raises(ValueError):
            fluency_rewrite(MockCompletionClient(), "")

    def test_endpoint_failure_carries_utterance(self):
        class Broken:
            model = "broken"

            def complete(self, request):
                raise CompletionError("down")

        with pytest.raises(FluencyRewriteError) as info:
            fluency_rewrite(Broken(), "dog barked")
        assert info.value.utterance == "dog barked"
