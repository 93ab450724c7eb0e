"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Reference values come from the bundled benchmark tables.
"""

import csv
import dataclasses
import random
import time
from importlib import resources

import pytest

from claimdecomp import (CachingClient, MockCompletionClient, assemble_prompt,
                         build_index, builtin_configs, decompose_sentence,
                         parse_conllu, retrieve_examples, search, serialize,
                         validate_parse)
from claimdecomp import decompose
from claimdecomp.corpus import ExampleBank
from claimdecomp.conllu import ConlluError, SentenceParse
from claimdecomp.decompose import GenerationSettings, Subclaim, estimate_tokens
from claimdecomp.llm import CompletionRequest, CompletionResponse
from claimdecomp.metrics import (coherence_pct, decomp_score, fact_score,
                                 macro_average, pearson, results_from_judgments)
from claimdecomp.validate import NliVerdict, StaticNliClient, SupportJudgment, nli_entails

from test_retrieval import FIVE_DOCS, oracle_score
from test_predarg import ORACLE, rendered


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"acceptance[{criterion}]: {state}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _benchmark_rows(name: str) -> list[dict[str, str]]:
    path = resources.files("claimdecomp.data") / name
    with resources.as_file(path) as real:
        with open(real, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))


# --- criterion 1: correlation reproduction ---------------------------------------

@pytest.mark.parametrize("column,expected", [
    ("factscore", 0.9786),
    ("subclaims", 0.9821),
])
def test_criterion_1_pearson_reproduction(column, expected):
    start = time.monotonic()
    rows_a = _benchmark_rows("benchmark_agreement_a.csv")
    rows_b = _benchmark_rows("benchmark_agreement_b.csv")
    assert len(rows_a) == len(rows_b) == 12
    xs = [float(r[column]) for r in rows_a]
    ys = [float(r[column]) for r in rows_b]
    rho = pearson(xs, ys)
    elapsed = time.monotonic() - start
    ok = abs(rho - expected) <= 2e-3 and elapsed < 1.0
    _report(f"1 pearson {column}", ok,
            f"rho={rho:.6f} expected={expected}+-2e-3, {elapsed:.3f}s")


# --- criterion 2: macro-average reproduction --------------------------------------

def test_criterion_2_macro_average_reproduction():
    start = time.monotonic()
    per_lm_rows = _benchmark_rows("benchmark_decompscore.csv")
    macro_rows = {r["method"]: float(r["macro"])
                  for r in _benchmark_rows("benchmark_decompscore_macro.csv")}
    assert len(per_lm_rows) == 12
    failures = []
    for method, printed in macro_rows.items():
        values = {row["generator"]: float(row[method]) for row in per_lm_rows}
        computed = macro_average(values)
        if abs(computed - printed) > 0.05:
            failures.append(f"{method}: {computed:.4f} vs {printed}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    _report("2 macro-average", ok, "; ".join(failures) or f"{elapsed:.3f}s")


# --- criterion 3: round trip and violation detection -------------------------------

def test_criterion_3_conllu_round_trip(ud_sample_text):
    start = time.monotonic()
    parses = parse_conllu(ud_sample_text)
    round_trip_ok = len(parses) >= 50 and serialize(parses) == ud_sample_text

    detected = total = 0
    for parse in parses:
        words = parse.words
        n = len(words)
        # dangling head
        mutated = tuple(dataclasses.replace(t, head=str(n + 3))
                        if t is words[0] else t for t in parse.tokens)
        total += 1
        detected += any("dangling" in v or "no root" in v
                        for v in validate_parse(SentenceParse(tokens=mutated)))
        # double root
        non_root = next(w for w in words if w.head_value != 0)
        mutated = tuple(dataclasses.replace(t, head="0")
                        if t is non_root else t for t in parse.tokens)
        total += 1
        detected += any("multiple roots" in v
                        for v in validate_parse(SentenceParse(tokens=mutated)))
        # 9-field line
        lines = serialize([parse]).rstrip("\n").split("\n")
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                lines[i] = line.rsplit("\t", 1)[0]
                break
        total += 1
        try:
            parse_conllu("\n".join(lines) + "\n")
        except ConlluError:
            detected += 1

    elapsed = time.monotonic() - start
    ok = round_trip_ok and detected == total and elapsed < 1.0
    _report("3 conllu round-trip", ok,
            f"round_trip={round_trip_ok} detected={detected}/{total} {elapsed:.3f}s")


# --- criterion 4: prompt conformance -----------------------------------------------

def test_criterion_4_prompt_conformance(rnd_bank, data_dir, monkeypatch):
    from claimdecomp import load_example_bank
    configs = builtin_configs()
    conllu_bank = load_example_bank(data_dir / "conllu_bank.jsonl")
    expected = {"factscore": (7, 1), "wice": (6, 0), "chen": (7, 1),
                "conllu": (1, 1), "rnd": (7, 1)}
    sentence = "He studied theater in Seoul."
    parse_text = conllu_bank.entries[0].conllu

    problems = []
    for name, (n_static, n_retrieved) in expected.items():
        bank = conllu_bank if name == "conllu" else rnd_bank
        config = configs[name].with_bank(bank)
        pool = ExampleBank(entries=bank.entries[config.static_count:])
        retrieved = retrieve_examples(pool, sentence, config.retrieved_count)
        prompt = assemble_prompt(
            config, sentence, retrieved, budget=10 ** 9,
            parse=parse_text if config.include_parse else None)
        if config.instruction not in prompt.text:
            problems.append(f"{name}: instruction missing")
        if prompt.text.count(config.instruction) != n_static + n_retrieved + 1:
            problems.append(f"{name}: block count {prompt.text.count(config.instruction)}")
        if (prompt.static_used, prompt.retrieved_used) != (n_static, n_retrieved):
            problems.append(f"{name}: used {prompt.static_used},{prompt.retrieved_used}")

    fs2 = configs["fs2"].with_bank(rnd_bank)
    if fs2.static_count != 1 or fs2.instruction != configs["factscore"].instruction:
        problems.append("fs2 misconfigured")

    # backoff: shrinking budget drops retrieved first, then static from the end
    config = configs["factscore"].with_bank(rnd_bank)
    pool = ExampleBank(entries=rnd_bank.entries[7:])
    retrieved = retrieve_examples(pool, sentence, 1)
    full = assemble_prompt(config, sentence, retrieved, budget=10 ** 9)
    seen = []
    for budget in range(estimate_tokens(full.text) + 5, 0, -1):
        prompt = assemble_prompt(config, sentence, retrieved, budget)
        pair = (prompt.static_used, prompt.retrieved_used)
        if not seen or seen[-1] != pair:
            seen.append(pair)
    expected_chain = [(7, 1), (7, 0), (6, 0), (5, 0), (4, 0), (3, 0), (2, 0),
                      (1, 0), (0, 0)]
    if seen != expected_chain:
        problems.append(f"drop order {seen} != {expected_chain}")

    # zero-example overflow backs off to the sentence itself
    monkeypatch.setattr(decompose, "DECOMPOSER_SETTINGS",
                        GenerationSettings(context_window=16, max_tokens=8))
    client = MockCompletionClient(default="- never used")
    long_sentence = "This sentence is much too long for a sixteen token window."
    claims = decompose_sentence(config, long_sentence, client)
    if [c.text for c in claims] != [long_sentence]:
        problems.append(f"overflow backoff produced {[c.text for c in claims]}")

    _report("4 prompt conformance", not problems, "; ".join(problems))


# --- criterion 5: extraction oracles -----------------------------------------------

def test_criterion_5_extraction_oracles(oracle_parses):
    problems = []
    for sid, expected in sorted(ORACLE.items()):
        actual = rendered(oracle_parses[sid])
        if actual != expected:
            problems.append(f"{sid}: {actual} != {expected}")
    for sid, target in (("p003", "Bel - Air is/are in California"),
                        ("p002", "Aptitude for mathematics is natural")):
        outputs = [r for _, r in rendered(oracle_parses[sid])]
        if target not in outputs:
            problems.append(f"{sid}: {target!r} not in {outputs}")
    _report("5 extraction oracles", not problems, "; ".join(problems))


# --- criterion 6: retrieval scoring oracle -----------------------------------------

def test_criterion_6_bm25_oracle():
    start = time.monotonic()
    index = build_index(FIVE_DOCS, 8)
    problems = []
    queries = ("theater Zurich", "industrial chemist", "films University",
               "Ada Example director", "largest city Switzerland")
    for query in queries:
        results = search(index, query, 10)
        again = search(index, query, 10)
        if [(c.doc_title, c.ordinal, s) for c, s in results] != [
                (c.doc_title, c.ordinal, s) for c, s in again]:
            problems.append(f"nondeterministic: {query}")
        for chunk, score in results:
            expected = oracle_score(index, query, chunk)
            if abs(score - expected) > 1e-9:
                problems.append(f"{query}/{chunk.doc_title}: {score} vs {expected}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    _report("6 retrieval oracle", ok, "; ".join(problems) or f"{elapsed:.3f}s")


# --- criterion 7: metrics vs brute force -------------------------------------------

def _scripted_fixture(n_passages=20, seed=20):
    rng = random.Random(seed)
    claims, sentence_j, knowledge_j = [], [], []
    for p in range(n_passages):
        topic, generator = f"person{p}", f"lm{p % 4}"
        for i in range(rng.randint(1, 8)):
            c = Subclaim(text=f"fact {p}.{i}", topic=topic, generator=generator,
                         sentence_index=0, method="m", ordinal=i)
            claims.append(c)
            s_ok = rng.random() < 0.85
            k_ok = rng.random() < 0.55
            sentence_j.append(SupportJudgment(
                claim=c, context_kind="original_sentence", supported=s_ok,
                validator_id="mock", context_snapshot="s"))
            knowledge_j.append(SupportJudgment(
                claim=c, context_kind="knowledge_source", supported=k_ok,
                validator_id="mock", context_snapshot="k"))
    return claims, sentence_j, knowledge_j


def test_criterion_7_metrics_oracle():
    claims, sentence_j, knowledge_j = _scripted_fixture()
    results = results_from_judgments(claims, sentence_j, knowledge_j)
    problems = []

    # brute-force recomputation straight from the judgment records
    s_ok = {(j.claim.topic, j.claim.ordinal): j.supported for j in sentence_j}
    k_ok = {(j.claim.topic, j.claim.ordinal): j.supported for j in knowledge_j}
    topics = sorted({c.topic for c in claims})

    def claims_of(topic):
        return [c for c in claims if c.topic == topic]

    brute_decomp = sum(
        sum(s_ok[(t, c.ordinal)] for c in claims_of(t)) for t in topics) / len(topics)
    if abs(decomp_score(results) - brute_decomp) > 1e-12:
        problems.append("decomp_score mismatch")

    brute_fact = sum(
        sum(k_ok[(t, c.ordinal)] for c in claims_of(t)) / len(claims_of(t))
        for t in topics) / len(topics)
    if abs(fact_score(results) - brute_fact) > 1e-12:
        problems.append("fact_score mismatch")

    def filtered_passage_score(t):
        kept = [c for c in claims_of(t) if s_ok[(t, c.ordinal)]]
        if not kept:
            return 0.0
        return sum(k_ok[(t, c.ordinal)] for c in kept) / len(kept)

    brute_filtered = sum(filtered_passage_score(t) for t in topics) / len(topics)
    if abs(fact_score(results, use_filter=True) - brute_filtered) > 1e-12:
        problems.append("filtered fact_score mismatch")

    total = sum(len(claims_of(t)) for t in topics)
    supported = sum(sum(s_ok[(t, c.ordinal)] for c in claims_of(t)) for t in topics)
    if abs(coherence_pct(results) - 100.0 * supported / total) > 1e-12:
        problems.append("coherence mismatch")

    # randomized denominator property
    rng = random.Random(7)
    for _ in range(1000):
        total_n = rng.randint(1, 40)
        sentence_n = rng.randint(0, total_n)
        knowledge_n = rng.randint(0, total_n)
        filtered_n = rng.randint(0, min(sentence_n, knowledge_n))
        from claimdecomp.metrics import PassageResult
        r = PassageResult(topic="t", generator="g", method="m",
                          n_subclaims=total_n,
                          n_supported_by_sentence=sentence_n,
                          n_supported_by_knowledge=knowledge_n,
                          n_supported_by_knowledge_filtered=filtered_n)
        if r.n_supported_by_sentence > r.n_subclaims:
            problems.append("denominator property violated")
            break
        all_kept = PassageResult(topic="t", generator="g", method="m",
                                 n_subclaims=total_n,
                                 n_supported_by_sentence=total_n,
                                 n_supported_by_knowledge=knowledge_n,
                                 n_supported_by_knowledge_filtered=knowledge_n)
        if fact_score([all_kept], use_filter=True) != fact_score([all_kept]):
            problems.append("filtered != unfiltered when all sentence-supported")
            break

    _report("7 metrics oracle", not problems, "; ".join(problems))


# --- criterion 8: determinism -------------------------------------------------------

def test_criterion_8_pipeline_determinism(data_dir, tmp_path):
    from test_cli import run_pipeline, _tree_bytes
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(data_dir, out1)
    run_pipeline(data_dir, out2)
    identical = _tree_bytes(out1) == _tree_bytes(out2)

    # warm cache: the second pass over identical requests makes zero calls
    class CountingClient:
        model = "counting"

        def __init__(self):
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            return CompletionResponse(text="True")

    cache_dir = tmp_path / "cache"
    inner = CountingClient()
    client = CachingClient(inner, cache_dir)
    requests = [CompletionRequest(model="counting", prompt=f"q{i}", max_tokens=8,
                                  temperature=0.0) for i in range(6)]
    for r in requests:
        client.complete(r)
    cold_calls = inner.calls
    warm_inner = CountingClient()
    warm = CachingClient(warm_inner, cache_dir)
    for r in requests:
        warm.complete(r)
    ok = identical and cold_calls == 6 and warm_inner.calls == 0
    _report("8 determinism", ok,
            f"identical={identical} cold={cold_calls} warm={warm_inner.calls}")


# --- criterion 9: entailment decision rule ------------------------------------------

def test_criterion_9_nli_rule():
    problems = []
    cases = [((0.9, 0.05, 0.05), True),
             ((0.3, 0.4, 0.3), False),
             ((0.1, 0.2, 0.7), False)]
    for probs, expected in cases:
        endpoint = StaticNliClient(verdict=NliVerdict(*probs))
        if nli_entails(endpoint, "p", "h") is not expected:
            problems.append(f"{probs} -> expected {expected}")
    try:
        NliVerdict(0.5, 0.2, 0.2)
        problems.append("non-normalized verdict accepted")
    except Exception:
        pass
    _report("9 nli rule", not problems, "; ".join(problems))
