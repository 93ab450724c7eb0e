"""End-to-end offline scoring: decompose, judge, aggregate.

Subclaims are judged twice: against the sentence they came from (does the
decomposition cohere?) and against text retrieved from a knowledge corpus
(is it factually supported?). Per-passage counts then roll up into scores.
"""

from claimdecomp import (KnowledgeDoc, MockCompletionClient, build_index,
                         builtin_configs, decompose_passage, default_bank,
                         judge_decomposition, judge_facts)
from claimdecomp.corpus import make_passage
from claimdecomp.metrics import (coherence_pct, decomp_score, fact_score,
                                 method_report, results_from_judgments)

# ---------------------------------------------------------------------------
passages = [
    make_passage("Ada Example", "lm-one",
                 "Ada Example was born in Zurich. She directed nine films."),
    make_passage("Ben Sample", "lm-two",
                 "Ben Sample was a chemist. He died in 1980."),
]

decomposer = MockCompletionClient(rules=[
    ("Ada Example was born in Zurich.", "- Ada Example was born in Zurich."),
    ("She directed nine films.",
     "- She directed films.\n- The number of films she directed is nine."),
    ("Ben Sample was a chemist.", "- Ben Sample was a chemist."),
    ("He died in 1980.", "- He died.\n- His death occurred in 1980."),
])

# the validator answers True unless a rule says otherwise
validator = MockCompletionClient(rules=[
    ("Claim: His death occurred in 1980.", "False"),
], default="True")

config = builtin_configs()["rnd"].with_bank(default_bank())

# ---------------------------------------------------------------------------
# knowledge source for the factual-precision side
index = build_index([
    KnowledgeDoc("Ada Example",
                 "Ada Example, born in Zurich, directed nine celebrated films."),
    KnowledgeDoc("Ben Sample",
                 "Ben Sample was an industrial chemist active until 1975."),
], chunk_words=64)

claims, sentence_judgments, knowledge_judgments = [], [], []
for passage in passages:
    passage_claims = decompose_passage(config, passage, decomposer)
    claims.extend(passage_claims)
    # each subclaim is judged against the sentence it came from ...
    text_of = {sentence.index: sentence.text for sentence in passage.sentences}
    sentence_judgments.extend(judge_decomposition(
        validator, [(c, text_of[c.sentence_index]) for c in passage_claims]))
    # ... and against knowledge retrieved from its topic's document
    knowledge_judgments.extend(
        judge_facts(validator, index, passage_claims, k=3))

# ---------------------------------------------------------------------------
results = results_from_judgments(claims, sentence_judgments, knowledge_judgments)
for r in results:
    print(f"{r.generator}/{r.topic}: {r.n_subclaims} subclaims, "
          f"{r.n_supported_by_sentence} sentence-supported, "
          f"{r.n_supported_by_knowledge} knowledge-supported")

print(f"\ndecomposition score (avg supported subclaims/passage): "
      f"{decomp_score(results):.2f}")
print(f"coherence: {coherence_pct(results):.1f}%")
print(f"factual precision: {100 * fact_score(results):.1f}%")
print(f"factual precision, filtered to coherent subclaims: "
      f"{100 * fact_score(results, use_filter=True):.1f}%")

report = method_report(results)
print("\nper-generator and macro:")
for lm, m in sorted(report.per_lm.items()):
    print(f"  {lm}: decomp={m.decomp_score:.1f} coherence={m.coherence_pct:.1f}")
print(f"  macro: decomp={report.macro.decomp_score:.1f} "
      f"coherence={report.macro.coherence_pct:.1f}")
