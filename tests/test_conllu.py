import dataclasses

import pytest

from claimdecomp import parse_conllu, serialize, validate_parse
from claimdecomp.conllu import ConlluError, SentenceParse, Token

ONE_LINE = "1\tHi\thi\tINTJ\t_\t_\t0\troot\t_\t_"


def test_single_token_sentence():
    parses = parse_conllu(ONE_LINE + "\n")
    assert len(parses) == 1
    assert len(parses[0].tokens) == 1
    assert parses[0].tokens[0].form == "Hi"


def test_two_sentences():
    text = ONE_LINE + "\n\n" + ONE_LINE + "\n"
    assert len(parse_conllu(text)) == 2


def test_nine_fields_rejected_with_line_number():
    bad = "\t".join(ONE_LINE.split("\t")[:9])
    with pytest.raises(ConlluError, match="line 1.*9"):
        parse_conllu(bad + "\n")


def test_empty_field_rejected():
    bad = ONE_LINE.replace("INTJ", "")
    with pytest.raises(ConlluError, match="empty field"):
        parse_conllu(bad + "\n")


def test_empty_input():
    assert parse_conllu("") == []


def test_serialize_empty():
    assert serialize([]) == ""


def test_comment_preserved_and_emitted_first():
    text = "# text = Hi\n" + ONE_LINE + "\n\n"
    parses = parse_conllu(text)
    assert parses[0].comments == ("# text = Hi",)
    assert serialize(parses) == text


def test_file_round_trip_is_byte_identical(ud_sample_text):
    parses = parse_conllu(ud_sample_text)
    assert len(parses) >= 50
    assert serialize(parses) == ud_sample_text


def test_multiword_and_empty_nodes_preserved(ud_sample_text):
    parses = parse_conllu(ud_sample_text)
    multiword = [t for p in parses for t in p.tokens if t.is_multiword]
    empty = [t for p in parses for t in p.tokens if t.is_empty_node]
    assert multiword and empty
    assert all(t.head == "_" for t in multiword + empty)
    # non-word lines are invisible to the graph invariants
    assert all(not validate_parse(p) for p in parses)


def test_text_comment_accessor():
    parses = parse_conllu("# text = Hi\n" + ONE_LINE + "\n\n")
    assert parses[0].text_comment == "Hi"


def _tokens(spec):
    # spec: list of (id, form, head, deprel)
    return tuple(
        Token(id=str(i), form=f, lemma="_", upos="X", xpos="_", feats="_",
              head=str(h), deprel=d, deps="_", misc="_")
        for i, f, h, d in spec)


def test_validate_valid_parse():
    parse = SentenceParse(tokens=_tokens([(1, "a", 2, "nsubj"), (2, "b", 0, "root")]))
    assert validate_parse(parse) == []


def test_validate_multiple_roots():
    parse = SentenceParse(tokens=_tokens([(1, "a", 0, "root"), (2, "b", 0, "root")]))
    assert any("multiple roots" in v for v in validate_parse(parse))


def test_validate_no_root():
    parse = SentenceParse(tokens=_tokens([(1, "a", 2, "dep"), (2, "b", 1, "dep")]))
    violations = validate_parse(parse)
    assert any("no root" in v for v in violations)


def test_validate_dangling_head():
    parse = SentenceParse(tokens=_tokens(
        [(1, "a", 5, "dep"), (2, "b", 0, "root"), (3, "c", 2, "dep")]))
    assert any("dangling head" in v for v in validate_parse(parse))


def test_validate_cycle():
    parse = SentenceParse(tokens=_tokens(
        [(1, "a", 2, "dep"), (2, "b", 1, "dep"), (3, "c", 0, "root")]))
    assert any("cyclic" in v for v in validate_parse(parse))


def test_validate_non_contiguous_ids():
    tokens = _tokens([(1, "a", 0, "root")]) + _tokens([(3, "b", 1, "dep")])
    parse = SentenceParse(tokens=tokens)
    assert any("non-contiguous" in v for v in validate_parse(parse))


def test_parse_rejects_dangling_head_text():
    text = "1\ta\t_\tX\t_\t_\t5\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n"
    with pytest.raises(ConlluError, match="dangling"):
        parse_conllu(text)


def test_serialize_rejects_invalid():
    parse = SentenceParse(tokens=_tokens([(1, "a", 0, "root"), (2, "b", 0, "root")]))
    with pytest.raises(ConlluError, match="multiple roots"):
        serialize([parse])


def test_underscore_is_canonical_empty_field():
    token = Token(id="1", form="Hi", lemma="", upos="", xpos="", feats="",
                  head="0", deprel="root", deps="", misc="")
    assert token.as_line() == "1\tHi\t_\t_\t_\t_\t0\troot\t_\t_"


def test_comment_after_tokens_rejected():
    text = ONE_LINE + "\n# late comment\n"
    with pytest.raises(ConlluError, match="comment"):
        parse_conllu(text)


def test_injected_violation_detection(ud_sample_text):
    """Every injected corruption must be caught in every sentence."""
    parses = parse_conllu(ud_sample_text)
    detected = 0
    total = 0
    for parse in parses:
        words = parse.words
        n = len(words)

        # dangling head on the first word
        mutated = tuple(
            dataclasses.replace(t, head=str(n + 5)) if t is words[0] else t
            for t in parse.tokens)
        total += 1
        detected += any("dangling" in v
                        for v in validate_parse(SentenceParse(tokens=mutated)))

        # second root on the first non-root word
        non_root = next(w for w in words if w.head_value != 0)
        mutated = tuple(
            dataclasses.replace(t, head="0") if t is non_root else t
            for t in parse.tokens)
        total += 1
        detected += any("multiple roots" in v
                        for v in validate_parse(SentenceParse(tokens=mutated)))
    assert detected == total
