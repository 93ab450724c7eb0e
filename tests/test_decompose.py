import math
import re
import weakref

import pytest

from claimdecomp import (MockCompletionClient, assemble_prompt, builtin_configs,
                         decompose_passage, decompose_sentence, load_example_bank,
                         parse_subclaims, retrieve_examples)
from claimdecomp.corpus import ExampleBank, ExampleEntry, Sentence, make_passage
from claimdecomp.llm import CompletionResponse
from claimdecomp import decompose
from claimdecomp.decompose import (AssembledPrompt, DecomposeError, GenerationSettings,
                                   MethodConfig, Subclaim, _bank_vectors, _block, _parse_text,
                                   estimate_tokens, method_registry)
from claimdecomp.predarg import PredArgMethod
from hypothesis import given, settings
from hypothesis import strategies as st

# golden copies of the built-in instructions
PINNED_INSTRUCTIONS = {
    "factscore": "Please breakdown the following sentence into independent facts:",
    "wice": "Segment the following sentence into individual facts:",
    "chen": ("Given the following sentence, tell me what claims they are making. "
             "Please split the sentence as much as possible, but do not include "
             "information not in the sentence:"),
    "conllu": ("The sentence below is given in CoNLL-U format. Word lines contain "
               "the annotation of a word/token/node in 10 fields separated by "
               "single tab characters. Sentences consist of one or more word "
               "lines. Please break down the following sentence given in CoNLL-U "
               "format into independent facts:"),
    "rnd": "Please decompose the following sentence into individual facts:",
    "fs2": "Please breakdown the following sentence into independent facts:",
}

PINNED_COUNTS = {
    "factscore": (7, 1, False),
    "wice": (6, 0, False),
    "chen": (7, 1, False),
    "conllu": (1, 1, True),
    "rnd": (7, 1, False),
    "fs2": (1, 1, False),
}


class TestConfigs:
    def test_instructions_byte_identical(self):
        configs = builtin_configs()
        for name, instruction in PINNED_INSTRUCTIONS.items():
            assert configs[name].instruction == instruction

    def test_example_counts(self):
        configs = builtin_configs()
        for name, (static, retrieved, include_parse) in PINNED_COUNTS.items():
            config = configs[name]
            assert (config.static_count, config.retrieved_count,
                    config.include_parse) == (static, retrieved, include_parse)

    def test_registry_has_predpatt(self):
        registry = method_registry()
        assert isinstance(registry["predpatt"], PredArgMethod)
        assert set(registry) == {"factscore", "wice", "chen", "conllu", "rnd",
                                 "fs2", "predpatt"}

    def test_with_bank_requires_enough_entries(self, rnd_bank):
        config = builtin_configs()["factscore"]
        small = ExampleBank(entries=rnd_bank.entries[:3])
        with pytest.raises(DecomposeError):
            config.with_bank(small)

    def test_with_bank_slices_static_examples_and_retrieval_pool(self, rnd_bank):
        config = builtin_configs()["factscore"].with_bank(rnd_bank)
        assert config.static_examples == rnd_bank.entries[:7]
        assert config.retrieval_pool.entries == rnd_bank.entries[7:]
        assert builtin_configs()["factscore"].retrieval_pool.entries == ()

    def test_conllu_bank_must_carry_parses(self, rnd_bank):
        with pytest.raises(DecomposeError, match="parse"):
            builtin_configs()["conllu"].with_bank(rnd_bank)


class TestRetrieveExamples:
    def test_k_zero(self, rnd_bank):
        assert retrieve_examples(rnd_bank, "anything", 0) == []

    def test_single_entry_bank(self):
        bank = ExampleBank(entries=(ExampleEntry("Only sentence.", ("A.",)),))
        assert retrieve_examples(bank, "unrelated words", 1) == [bank.entries[0]]

    def test_k_exceeding_bank_size(self, rnd_bank):
        with pytest.raises(DecomposeError):
            retrieve_examples(rnd_bank, "s", len(rnd_bank) + 1)

    def test_exact_match_excluded(self, rnd_bank):
        sentence = rnd_bank.entries[0].sentence
        out = retrieve_examples(rnd_bank, sentence, 3)
        assert all(e.sentence != sentence for e in out)

    def test_overlap_oracle(self):
        # hand-computed: with every bank term in exactly one entry, all shared
        # terms carry the same idf weight, so cosine(query, A) is three times
        # cosine(query, B) when the query shares 3 content words with A and 1
        # with B
        entry_a = ExampleEntry("Nash studied mathematics at Carnegie", ("A.",))
        entry_b = ExampleEntry("Hitchcock directed films in Hollywood", ("B.",))
        bank = ExampleBank(entries=(entry_a, entry_b))
        query = "Nash studied mathematics eagerly unlike films"

        w1 = math.log(3 / 2) + 1  # idf of a term present in one of two docs
        doc_norm = w1 * math.sqrt(5)
        dot_a, dot_b = 3 * w1 * w1, 1 * w1 * w1
        assert dot_a / doc_norm > dot_b / doc_norm

        assert retrieve_examples(bank, query, 1) == [entry_a]
        assert retrieve_examples(bank, query, 2) == [entry_a, entry_b]

    def test_tie_broken_by_bank_order(self):
        # same bag of words -> identical similarity -> bank order decides
        entry_a = ExampleEntry("alpha beta", ("A.",))
        entry_b = ExampleEntry("beta alpha", ("B.",))
        bank = ExampleBank(entries=(entry_a, entry_b))
        assert retrieve_examples(bank, "alpha beta gamma", 1) == [entry_a]

    def test_equal_banks_are_separate_cache_keys(self, rnd_bank):
        a, b = ExampleBank(rnd_bank.entries), ExampleBank(rnd_bank.entries)
        assert a != b and a == a
        assert _bank_vectors(a) is _bank_vectors(a)
        assert _bank_vectors(a) is not _bank_vectors(b)
        # a bank's vectors go with it
        vectors = weakref.ref(_bank_vectors(b))
        del b
        assert vectors() is None

    def test_deterministic(self, rnd_bank):
        a = retrieve_examples(rnd_bank, "He studied theater in Seoul.", 4)
        b = retrieve_examples(rnd_bank, "He studied theater in Seoul.", 4)
        assert a == b


def _bound(name, bank):
    return builtin_configs()[name].with_bank(bank)


class TestAssemblePrompt:
    def test_factscore_block_count(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        retrieved = retrieve_examples(
            ExampleBank(entries=rnd_bank.entries[7:]), "He was a composer.", 1)
        prompt = assemble_prompt(config, "He was a composer.", retrieved, budget=100000)
        assert prompt.text.count(config.instruction) == 7 + 1 + 1
        assert not prompt.over_budget
        assert prompt.text.endswith(config.instruction + "\nHe was a composer.")

    def test_wice_block_count(self, rnd_bank):
        config = _bound("wice", rnd_bank)
        prompt = assemble_prompt(config, "He was a composer.", [], budget=100000)
        assert prompt.text.count(config.instruction) == 6 + 0 + 1

    def test_blocks_have_dash_lines_and_blank_separators(self, rnd_bank):
        config = _bound("rnd", rnd_bank)
        prompt = assemble_prompt(config, "Target sentence here.", [], budget=100000)
        blocks = prompt.text.split("\n\n")
        assert len(blocks) == 7 + 1
        for block in blocks[:-1]:
            lines = block.split("\n")
            assert lines[0] == config.instruction
            assert all(line.startswith("- ") for line in lines[2:])

    def test_conllu_blocks_include_parse(self, data_dir, oracle_parses):
        bank = load_example_bank(data_dir / "conllu_bank.jsonl")
        config = _bound("conllu", bank)
        retrieved = retrieve_examples(
            ExampleBank(entries=bank.entries[1:]), "Nash earned degrees .", 1)
        prompt = assemble_prompt(config, "Nash earned degrees .", retrieved,
                                 budget=100000, parse=oracle_parses["p004"])
        assert prompt.text.count(config.instruction) == 1 + 1 + 1
        assert prompt.text.count("\tnsubj\t") >= 3  # parses present in every block

    def test_parse_required_for_conllu(self, data_dir):
        bank = load_example_bank(data_dir / "conllu_bank.jsonl")
        config = _bound("conllu", bank)
        with pytest.raises(DecomposeError, match="parse"):
            assemble_prompt(config, "Sentence.", [], budget=1000)

    def test_drop_order_is_suffix_truncation(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        sentence = "He studied theater in Seoul."
        retrieved = retrieve_examples(
            ExampleBank(entries=rnd_bank.entries[7:]), sentence, 1)

        def example_sequence(budget):
            prompt = assemble_prompt(config, sentence, retrieved, budget)
            static = list(config.static_examples)[: prompt.static_used]
            return static + retrieved[: prompt.retrieved_used]

        full = assemble_prompt(config, sentence, retrieved, budget=10 ** 9)
        max_tokens = estimate_tokens(full.text)
        sequences = [example_sequence(b) for b in range(1, max_tokens + 10, 25)]
        for shorter, longer in zip(sequences, sequences[1:]):
            assert shorter == longer[: len(shorter)]
        assert sequences[-1] == list(config.static_examples) + retrieved

    def test_retrieved_dropped_before_static(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        sentence = "He studied theater in Seoul."
        retrieved = retrieve_examples(
            ExampleBank(entries=rnd_bank.entries[7:]), sentence, 1)
        full = assemble_prompt(config, sentence, retrieved, budget=10 ** 9)
        slightly_small = estimate_tokens(full.text) - 1
        prompt = assemble_prompt(config, sentence, retrieved, budget=slightly_small)
        assert (prompt.static_used, prompt.retrieved_used) == (7, 0)

    def test_zero_example_overflow_flagged(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        prompt = assemble_prompt(config, "word " * 50, [], budget=5)
        assert prompt.over_budget
        assert prompt.static_used == 0 and prompt.retrieved_used == 0

    def test_example_cap(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        retrieved = retrieve_examples(
            ExampleBank(entries=rnd_bank.entries[7:]), "x y z", 1)
        prompt = assemble_prompt(config, "x y z", retrieved, budget=10 ** 9,
                                 example_cap=3)
        assert (prompt.static_used, prompt.retrieved_used) == (3, 0)

    def test_negative_example_cap_rejected(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        with pytest.raises(DecomposeError, match="example_cap"):
            assemble_prompt(config, "x y z", [], budget=10 ** 9, example_cap=-1)


def reference_assemble_prompt(config, sentence, retrieved, budget, parse=None,
                              example_cap=None):
    """Reference implementation with two trimming loops: the cap drops
    retrieved examples, then static ones from the end; the budget loop then
    does the same, rebuilding every block on each pass."""
    static = list(config.static_examples)
    dynamic = list(retrieved)
    if example_cap is not None:
        while len(static) + len(dynamic) > example_cap:
            if dynamic:
                dynamic.pop()
            else:
                static.pop()
    target_parse = _parse_text(parse) if config.include_parse else None
    while True:
        blocks = [
            _block(config.instruction, e.sentence, e.subclaims,
                   e.conllu.rstrip("\n") if config.include_parse and e.conllu else None)
            for e in static + dynamic
        ]
        final = _block(config.instruction, sentence, parse_text=target_parse)
        text = "\n\n".join(blocks + [final])
        fits = estimate_tokens(text) <= budget
        if fits or not (static or dynamic):
            return AssembledPrompt(text=text, static_used=len(static),
                                   retrieved_used=len(dynamic), over_budget=not fits)
        if dynamic:
            dynamic.pop()
        else:
            static.pop()


@st.composite
def prompt_cases(draw, banks):
    """A bound config, up to two retrieved entries, a budget from 1 to past
    the full prompt and a cap of None or 0..n examples."""
    name = draw(st.sampled_from(sorted(banks)))
    bank, sentence, parse = banks[name]
    config = _bound(name, bank)
    pool = bank.entries[config.static_count:]
    retrieved = draw(st.lists(st.sampled_from(pool), max_size=2))
    full = reference_assemble_prompt(config, sentence, retrieved, 10 ** 9, parse)
    budget = draw(st.integers(1, estimate_tokens(full.text) + 10))
    n = len(config.static_examples) + len(retrieved)
    cap = draw(st.none() | st.integers(0, n))
    return config, sentence, retrieved, budget, parse, cap


class TestAssemblePromptOracle:
    @pytest.fixture(scope="class")
    def banks(self, rnd_bank, data_dir, oracle_parses):
        sentence = "He studied theater in Seoul."
        banks = {name: (rnd_bank, sentence, None)
                 for name in ("factscore", "wice", "chen", "rnd", "fs2")}
        banks["conllu"] = (load_example_bank(data_dir / "conllu_bank.jsonl"),
                           "Nash earned degrees .", oracle_parses["p004"])
        return banks

    def test_equals_two_loop_reference(self, banks):
        @settings(max_examples=400, deadline=None)
        @given(prompt_cases(banks))
        def check(case):
            config, sentence, retrieved, budget, parse, cap = case
            assert assemble_prompt(config, sentence, retrieved, budget, parse=parse,
                                   example_cap=cap) == \
                reference_assemble_prompt(config, sentence, retrieved, budget, parse, cap)
        check()


_REFERENCE_MARKERS = (re.compile(r"^[-•]\s+"), re.compile(r"^\d+\.\s+"))


def reference_strip_markers(line):
    """Reference implementation: a fixpoint over the two marker patterns."""
    stripped = line.strip()
    marked = False
    changed = True
    while changed:
        changed = False
        for marker in _REFERENCE_MARKERS:
            new = marker.sub("", stripped)
            if new != stripped:
                stripped, marked, changed = new.strip(), True, True
    return stripped, marked


def reference_parse_subclaims(completion):
    marked_claims, plain_lines = [], []
    for raw in completion.split("\n"):
        line = raw.strip()
        if not line:
            continue
        text, marked = reference_strip_markers(line)
        if marked:
            if text:
                marked_claims.append(text)
        else:
            plain_lines.append(line)
    return marked_claims if marked_claims else plain_lines


class TestParseSubclaims:
    def test_dash_lines(self):
        assert parse_subclaims("- X is Y.\n- X is Z.") == ["X is Y.", "X is Z."]

    def test_numbered(self):
        assert parse_subclaims("1. A\n2. B") == ["A", "B"]

    def test_bullets(self):
        assert parse_subclaims("• A\n• B") == ["A", "B"]

    def test_fallback_keeps_unmarked_lines(self):
        assert parse_subclaims("No facts.") == ["No facts."]

    def test_marked_lines_win_over_unmarked(self):
        assert parse_subclaims("Here are the facts:\n- A\n- B") == ["A", "B"]

    def test_empty(self):
        assert parse_subclaims("") == []
        assert parse_subclaims("\n \n") == []

    def test_stacked_markers(self):
        assert parse_subclaims("- 1. • A\n2.\t- B") == ["A", "B"]

    def test_marker_needs_whitespace(self):
        assert parse_subclaims("-A\n1.5 kg") == ["-A", "1.5 kg"]

    @settings(max_examples=200)
    @given(st.text(alphabet="-•. \nABCab12", max_size=60))
    def test_never_returns_newline_or_marker(self, completion):
        for claim in parse_subclaims(completion):
            assert "\n" not in claim
            assert not claim.startswith("- ")
            assert not claim.startswith("• ")

    @settings(max_examples=1000)
    @given(st.lists(st.lists(st.sampled_from(["-", "•", "1", "23", ".", " ", "\t", "\u00a0",
                                              "\u2003", "A", "b"]),
                             max_size=10).map("".join),
                    max_size=5).map("\n".join))
    def test_equals_fixpoint_reference(self, completion):
        assert parse_subclaims(completion) == reference_parse_subclaims(completion)


class TestDecomposeSentence:
    def test_mock_two_claims(self, rnd_bank):
        config = _bound("rnd", rnd_bank)
        client = MockCompletionClient(default="- A.\n- B.")
        claims = decompose_sentence(config, "The target sentence.", client,
                                    topic="T", generator="g")
        assert [c.text for c in claims] == ["A.", "B."]
        assert [c.ordinal for c in claims] == [0, 1]
        assert claims[0].method == "rnd"

    def test_zero_example_overflow_returns_sentence(self, rnd_bank, monkeypatch):
        config = _bound("rnd", rnd_bank)
        client = MockCompletionClient(default="- should never be used")
        monkeypatch.setattr(decompose, "DECOMPOSER_SETTINGS",
                            GenerationSettings(context_window=20, max_tokens=10))
        sentence = "This sentence is far too long for the tiny window we chose."
        claims = decompose_sentence(config, sentence, client)
        assert [c.text for c in claims] == [sentence]
        assert client.calls == []

    def test_request_sends_the_decomposer_settings(self, rnd_bank):
        client = MockCompletionClient(default="- A.")
        decompose_sentence(_bound("rnd", rnd_bank), "The target sentence.", client)
        assert [(r.max_tokens, r.temperature) for r in client.calls] == [(512, 0.7)]
        assert decompose.DECOMPOSER_SETTINGS.context_window == 4096

    def test_empty_completion_gives_no_claims(self, rnd_bank):
        config = _bound("rnd", rnd_bank)
        client = MockCompletionClient(default="")
        assert decompose_sentence(config, "A sentence.", client) == []

    def test_endpoint_length_error_drops_and_retries(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        seventh_static = config.static_examples[6].sentence
        client = MockCompletionClient(
            default="- A.",
            length_error_substrings=(seventh_static,))
        claims = decompose_sentence(config, "Another target sentence.", client)
        assert [c.text for c in claims] == ["A."]
        # first call includes the trigger example, later calls drop it
        assert len(client.calls) == 3
        assert seventh_static in client.calls[0].prompt
        assert seventh_static not in client.calls[-1].prompt

    def test_length_error_on_every_prompt_drops_every_example(self, rnd_bank):
        config = _bound("factscore", rnd_bank)
        client = MockCompletionClient(length_error_substrings=(config.instruction,))
        claims = decompose_sentence(config, "Another  target sentence.", client)
        assert [c.text for c in claims] == ["Another target sentence."]
        # 7 static + 1 retrieved examples, then one fewer per rejection
        assert [call.prompt.count(config.instruction) - 1 for call in client.calls] == \
            list(range(8, -1, -1))

    def test_length_error_with_no_examples_backs_off(self):
        config = MethodConfig(name="bare", instruction="List facts:",
                              static_count=0, retrieved_count=0)
        client = MockCompletionClient(length_error_substrings=("List facts:",))
        claims = decompose_sentence(config, "Short sentence.", client)
        assert [c.text for c in claims] == ["Short sentence."]


class TestDecomposePassage:
    def test_empty_passage(self, rnd_bank):
        passage = make_passage("T", "g", "")
        config = _bound("rnd", rnd_bank)
        assert decompose_passage(config, passage, MockCompletionClient()) == []

    def test_ordinals_per_sentence(self, rnd_bank):
        passage = make_passage("T", "g", "First sentence here. Second one here.")
        config = _bound("rnd", rnd_bank)
        client = MockCompletionClient(rules=[
            ("First sentence here.", "- a\n- b\n- c"),
            ("Second one here.", "- d\n- e"),
        ])
        claims = decompose_passage(config, passage, client)
        assert len(claims) == 5
        assert [(c.sentence_index, c.ordinal) for c in claims] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_one_retrieval_pool_per_method(self, rnd_bank, monkeypatch):
        passage = make_passage("T", "g", "First sentence here. Second one here. A third.")
        config = _bound("rnd", rnd_bank)
        pools = []
        retrieve = decompose.retrieve_examples
        monkeypatch.setattr(decompose, "retrieve_examples",
                            lambda bank, sentence, k: pools.append(bank) or
                            retrieve(bank, sentence, k))
        decompose_passage(config, passage, MockCompletionClient(default="- a"))
        assert len(pools) == 3
        assert all(pool is config.retrieval_pool for pool in pools)

    def test_parse_requiring_method_without_parses(self, data_dir):
        bank = load_example_bank(data_dir / "conllu_bank.jsonl")
        config = _bound("conllu", bank)
        passage = make_passage("T", "g", "No parse here.")
        with pytest.raises(DecomposeError, match="sentence 0"):
            decompose_passage(config, passage, MockCompletionClient())

    def test_predpatt_without_parses(self):
        passage = make_passage("T", "g", "No parse here.")
        with pytest.raises(DecomposeError, match="'predpatt' requires a parse but sentence 0"):
            decompose_passage(PredArgMethod(), passage, MockCompletionClient())

    @pytest.mark.parametrize("name", ["conllu", "predpatt"])
    def test_sentence_without_parse_refused_before_any_call(self, data_dir, name):
        method = PredArgMethod() if name == "predpatt" else _bound(
            name, load_example_bank(data_dir / "conllu_bank.jsonl"))
        client = MockCompletionClient()
        with pytest.raises(DecomposeError, match=f"method '{name}' requires a parse but "
                                                 "sentence 2 of g/T has none"):
            decompose_sentence(method, Sentence("No parse here.", 2), client,
                               topic="T", generator="g")
        assert client.calls == []

    def test_predpatt_method(self, oracle_parses):
        class Echo:
            """Answers each fluency rewrite with the rendering it was given."""
            model = "echo"

            def complete(self, request):
                utterance = request.prompt.rsplit("Input: ", 1)[1].split("\n")[0]
                return CompletionResponse(text=utterance)

        parse = oracle_parses["p004"]
        sentence = Sentence(text="Nash earned degrees .", index=0, parse=parse)
        claims = decompose_sentence(PredArgMethod(), sentence, client=Echo(),
                                    topic="T", generator="g")
        assert [c.text for c in claims] == ["Nash earned degrees"]
        assert claims[0].method == "predpatt"


def test_decompose_reproducible_with_cached_completions(rnd_bank, tmp_path):
    from claimdecomp import CachingClient

    class Counting(MockCompletionClient):
        pass

    config = _bound("rnd", rnd_bank)
    inner = Counting(default="- A.\n- B.")
    client = CachingClient(inner, tmp_path / "cache")
    first = decompose_sentence(config, "A target sentence.", client)
    calls_after_first = len(inner.calls)
    second = decompose_sentence(config, "A target sentence.", client)
    assert first == second
    assert len(inner.calls) == calls_after_first  # served from cache


def test_subclaim_rejects_multiline():
    with pytest.raises(DecomposeError):
        Subclaim(text="a\nb", topic="t", generator="g", sentence_index=0,
                 method="m", ordinal=0)
