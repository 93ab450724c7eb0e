import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimdecomp import load_example_bank, load_generations, split_sentences
from claimdecomp.corpus import (CorpusError, attach_parses, is_invalid_response,
                                make_passage)
from claimdecomp import parse_conllu


class TestSplitSentences:
    def test_empty(self):
        assert split_sentences("") == []

    def test_unambiguous_terminators(self):
        out = split_sentences("He was born in 1967. He studied theater.")
        assert out == ["He was born in 1967.", "He studied theater."]

    def test_protected_abbreviations(self):
        # hand-applied rule table: "Inc." and "Co." are protected, "1990." is not
        out = split_sentences("He worked at Inc. Co. in 1990. He left.")
        assert out == ["He worked at Inc. Co. in 1990.", "He left."]

    def test_single_capital_initials(self):
        out = split_sentences(
            "A. B. Smith lived in Bel-Air, California. He died in 1980.")
        assert out == ["A. B. Smith lived in Bel-Air, California.",
                       "He died in 1980."]

    def test_dotted_acronym(self):
        out = split_sentences("He lives in the U.S. He is happy.")
        assert out == ["He lives in the U.S. He is happy."] or out == [
            "He lives in the U.S.", "He is happy."]
        # "U.S." is protected, so no split happens
        assert len(out) == 1

    def test_exclamation_question(self):
        assert split_sentences("Stop! Why? Because.") == ["Stop!", "Why?", "Because."]

    def test_digit_continuation(self):
        assert split_sentences("It was 1980. 500 people came.") == [
            "It was 1980.", "500 people came."]

    def test_no_split_inside_parens(self):
        out = split_sentences("He left (it was late. Very late.) and slept.")
        assert out == ["He left (it was late. Very late.) and slept."]

    def test_lowercase_continuation_not_split(self):
        assert split_sentences("He said no. then left.") == ["He said no. then left."]

    @settings(max_examples=200)
    @given(st.text(alphabet=" .!?()'\"abcDEFG0123,-", max_size=80))
    def test_idempotent_on_own_output(self, text):
        for sentence in split_sentences(text):
            assert split_sentences(sentence) == [sentence]

    def test_reconstruction_modulo_whitespace(self):
        text = "Ada was born in 1901.   She died in 1980.\nShe was famous."
        joined = " ".join(split_sentences(text))
        assert " ".join(joined.split()) == " ".join(text.split())


class TestLoadGenerations:
    def test_single_sentence_passage(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text(json.dumps({"topic": "John Nash", "generator": "GPT4",
                                    "output": "Nash was a mathematician."}) + "\n")
        passages = load_generations(path)
        assert len(passages) == 1
        assert passages[0].topic == "John Nash"
        assert len(passages[0].sentences) == 1

    def test_abbreviation_not_split(self, tmp_path):
        path = tmp_path / "g.jsonl"
        record = {"topic": "X", "generator": "ChatGPT",
                  "output": "A. B. Smith lived in Bel-Air, California. He died in 1980."}
        path.write_text(json.dumps(record) + "\n")
        passages = load_generations(path)
        assert [s.text for s in passages[0].sentences] == [
            "A. B. Smith lived in Bel-Air, California.", "He died in 1980."]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("")
        assert load_generations(path) == []

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"topic": "a", "generator": "b", "output": "c"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_generations(path)

    def test_generator_named_as_the_average_row(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"topic": "a", "generator": "b", "output": "c"}\n'
                        '{"topic": "a", "generator": "macro-average", "output": "c"}\n')
        with pytest.raises(CorpusError, match=f"^{path}: line 2: generator 'macro-average' "):
            load_generations(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"topic": "a", "generator": "b"}\n')
        with pytest.raises(CorpusError, match="output"):
            load_generations(path)

    def test_invalid_responses_retained_by_default(self, tmp_path):
        path = tmp_path / "g.jsonl"
        rows = [{"topic": "a", "generator": "m", "output": ""},
                {"topic": "b", "generator": "m",
                 "output": "I'm sorry, I don't have any information on that."}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert len(load_generations(path)) == 2
        assert len(load_generations(path, drop_invalid=True)) == 0

    def test_is_invalid_response(self):
        assert is_invalid_response("")
        assert is_invalid_response("I'm sorry, I don't have any information on X.")
        assert not is_invalid_response("Nash was a mathematician.")

    def test_round_trip(self, tmp_path):
        passages = [make_passage("T1", "m", "One. Two."),
                    make_passage("T2", "m", "Only one.")]
        path = tmp_path / "out.jsonl"
        path.write_text("".join(
            json.dumps({"topic": p.topic, "generator": p.generator, "output": p.text}) + "\n"
            for p in passages))
        loaded = load_generations(path)
        assert [(p.topic, p.generator, p.text) for p in loaded] == [
            (p.topic, p.generator, p.text) for p in passages]

    def test_sentence_indices_contiguous(self):
        passage = make_passage("T", "m", "One. Two. Three.")
        assert [s.index for s in passage.sentences] == [0, 1, 2]

    def test_empty_topic_rejected(self):
        with pytest.raises(CorpusError):
            make_passage("", "m", "Text.")


class TestExampleBank:
    def test_bundled_bank_has_21_entries(self, rnd_bank):
        assert len(rnd_bank) == 21
        assert all(len(e.subclaims) >= 1 for e in rnd_bank.entries)

    def test_single_entry(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(json.dumps({"sentence": "S.", "subclaims": ["A."]}) + "\n")
        bank = load_example_bank(path)
        assert len(bank) == 1
        assert bank.entries[0].conllu is None

    def test_duplicate_sentence_rejected(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        row = json.dumps({"sentence": "S.", "subclaims": ["A."]})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_example_bank(path)

    def test_zero_subclaims_rejected(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text(json.dumps({"sentence": "S.", "subclaims": []}) + "\n")
        with pytest.raises(CorpusError, match="no subclaims"):
            load_example_bank(path)

    def test_conllu_field_preserved(self, data_dir):
        bank = load_example_bank(data_dir / "conllu_bank.jsonl")
        assert all(e.conllu for e in bank.entries)


class TestAttachParses:
    def test_positional_assignment(self):
        passage = make_passage("T", "m", "Nash earned degrees. He was a composer.")
        text = ("1\tNash\tNash\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tearned\tearn\tVERB\t_\t_\t0\troot\t_\t_\n"
                "3\tdegrees\tdegree\tNOUN\t_\t_\t2\tobj\t_\t_\n\n"
                "1\tHe\the\tPRON\t_\t_\t4\tnsubj\t_\t_\n"
                "2\twas\tbe\tAUX\t_\t_\t4\tcop\t_\t_\n"
                "3\ta\ta\tDET\t_\t_\t4\tdet\t_\t_\n"
                "4\tcomposer\tcomposer\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
        attached = attach_parses([passage], parse_conllu(text))
        assert all(s.parse is not None for s in attached[0].sentences)

    def test_count_mismatch(self):
        passage = make_passage("T", "m", "One. Two.")
        text = "1\tHi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n\n"
        with pytest.raises(CorpusError, match="mismatch"):
            attach_parses([passage], parse_conllu(text))

    def test_text_comment_mismatch(self):
        passage = make_passage("T", "m", "One.")
        text = "# text = Something else\n1\tHi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n\n"
        with pytest.raises(CorpusError, match="mismatch"):
            attach_parses([passage], parse_conllu(text))
