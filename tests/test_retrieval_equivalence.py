"""The precomputed retrieval structures against the per-call scans they
replaced, kept here as reference oracles: results must be equal lists, with
scores compared by ``==``."""

import math
import re
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimdecomp import (KnowledgeDoc, build_index, load_index, retrieve_examples, save_index,
                         search)
from claimdecomp.corpus import ExampleBank, ExampleEntry
from claimdecomp.retrieval import tokenize

# --- reference oracles ---------------------------------------------------------------

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def reference_tokenize(text):
    out = []
    for word in text.split():
        term = _NON_ALNUM.sub("", word.lower())
        if term:
            out.append(term)
    return out


def reference_search(docs, chunk_words, query, k, restrict_title=None, k1=0.9, b=0.4):
    """Scan every chunk's term counts; (title, ordinal, text, score) tuples."""
    chunks = []
    for doc in docs:
        words = doc.text.split()
        for ordinal, start in enumerate(range(0, len(words), chunk_words)):
            text = " ".join(words[start: start + chunk_words])
            chunks.append((doc.title, ordinal, text, Counter(reference_tokenize(text))))
    doc_freq = {}
    for chunk in chunks:
        for term in chunk[3]:
            doc_freq[term] = doc_freq.get(term, 0) + 1
    avg = sum(sum(c[3].values()) for c in chunks) / len(chunks) if chunks else 0.0
    query_terms = reference_tokenize(query)
    scored = []
    for title, ordinal, text, counts in chunks:
        if restrict_title is not None and title != restrict_title:
            continue
        score = 0.0
        norm = k1 * (1.0 - b + b * sum(counts.values()) / avg) if avg > 0 else k1
        for term in query_terms:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            df = doc_freq.get(term, 0)
            idf = math.log(1.0 + (len(chunks) - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + norm)
        if score > 0.0:
            scored.append((title, ordinal, text, score))
    scored.sort(key=lambda item: (-item[3], item[0], item[1]))
    return scored[:k]


def reference_retrieve_examples(bank, sentence, k):
    def tokens(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    if k == 0:
        return []
    docs = [tokens(e.sentence) for e in bank.entries]
    df = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1

    def vector(words):
        counts = {}
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        return {t: c * (math.log((1 + len(docs)) / (1 + df.get(t, 0))) + 1.0)
                for t, c in counts.items()}

    def cosine(a, b):
        if not a or not b:
            return 0.0
        dot = sum(v * b[t] for t, v in a.items() if t in b)
        norm = math.sqrt(sum(v * v for v in a.values())) * math.sqrt(
            sum(v * v for v in b.values()))
        return dot / norm if norm else 0.0

    query = vector(tokens(sentence))
    scored = [(-cosine(query, vector(docs[position])), position, entry)
              for position, entry in enumerate(bank.entries) if entry.sentence != sentence]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [entry for _, _, entry in scored[:k]]


# --- strategies ----------------------------------------------------------------------

WORDS = ["Zurich", "zurich", "theater", "films", "the", "a", "born", "1901",
         "Bel-Air,", "(1980)", "x.y", "Ada's", "--", "É", "café", "naïve", "İstanbul"]
SEPARATORS = [" ", "  ", "\t", "\n", " ", " ", "　", "\x1c"]
TITLES = ["Ada", "Ben", "Zurich", "Film history", ""]

word_lists = st.lists(st.sampled_from(WORDS), max_size=14)
texts = st.builds(lambda words, sep: sep.join(words), word_lists, st.sampled_from(SEPARATORS))
corpora = st.lists(st.tuples(st.sampled_from(TITLES), texts), max_size=6,
                   unique_by=lambda doc: doc[0]).map(
    lambda docs: [KnowledgeDoc(title, text) for title, text in docs])
restrictions = st.one_of(st.none(), st.sampled_from(TITLES + ["Absent title"]))


def _as_lists(postings):
    return {term: (list(positions), list(tfs)) for term, (positions, tfs) in postings.items()}


def _as_tuples(results):
    return [(c.doc_title, c.ordinal, c.text, s) for c, s in results]


class TestTokenize:
    @given(st.text(alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Zs", "Zl", "Zp", "Cc", "Po", "Pd", "Ps",
                              "Pe", "Sm", "Mn"))))
    def test_matches_per_word_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(texts)
    def test_matches_on_corpus_text(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestSearchEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(corpora, st.integers(1, 6), texts, st.integers(1, 12), restrictions)
    def test_matches_scan(self, docs, chunk_words, query, k, restrict_title):
        index = build_index(docs, chunk_words)
        assert _as_tuples(search(index, query, k, restrict_title=restrict_title)) == \
            reference_search(docs, chunk_words, query, k, restrict_title)

    @settings(max_examples=50, deadline=None)
    @given(corpora, st.integers(1, 6), st.lists(texts, min_size=1, max_size=4),
           restrictions, st.sampled_from([(0.9, 0.4), (1.2, 0.75), (2, 0)]))
    def test_saved_index_matches_scan(self, docs, chunk_words, queries, restrict_title, k1_b):
        k1, b = k1_b
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(build_index(docs, chunk_words, k1=k1, b=b), path)
            index = load_index(path)
        for query in queries:
            assert _as_tuples(search(index, query, 20, restrict_title=restrict_title)) == \
                reference_search(docs, chunk_words, query, 20, restrict_title, k1=k1, b=b)

    @settings(max_examples=100, deadline=None)
    @given(corpora, st.one_of(st.integers(1, 6), st.sampled_from([256, 70000])),
           st.sampled_from([(0.9, 0.4), (1.2, 0.75), (2, 0)]))
    @example([], 4, (0.9, 0.4))
    @example([KnowledgeDoc("Ada", ""), KnowledgeDoc("Ben", "Zurich films")], 1, (0.9, 0.4))
    @example([KnowledgeDoc(f"T{i}", f"w{i % 7} w{i % 3}") for i in range(300)], 1, (0.9, 0.4))
    def test_saved_index_equals_built(self, docs, chunk_words, k1_b):
        built = build_index(docs, chunk_words, *k1_b)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.json"
            save_index(built, path)
            loaded = load_index(path)
        assert (loaded.chunk_words, loaded.k1, loaded.b) == (built.chunk_words, built.k1, built.b)
        assert loaded.chunks == built.chunks
        assert _as_lists(loaded.postings) == _as_lists(built.postings)
        assert loaded.idf == built.idf
        assert loaded.norms == built.norms
        assert loaded.title_ranges == built.title_ranges

    def test_repeated_query_terms_count_each_time(self):
        docs = [KnowledgeDoc("A", "zurich theater"), KnowledgeDoc("B", "zurich films films")]
        for query in ("zurich zurich films", "films zurich films zurich", ""):
            assert _as_tuples(search(build_index(docs, 8), query, 5)) == \
                reference_search(docs, 8, query, 5)

    def test_empty_corpus(self):
        assert search(build_index([], 4), "zurich", 3) == reference_search([], 4, "zurich", 3)


class TestRetrieveExamplesEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=10), st.data())
    def test_matches_scan(self, sentences, data):
        bank = ExampleBank(tuple(ExampleEntry(s, (f"claim {i}.",))
                                 for i, s in enumerate(sentences)))
        # an exact bank sentence is excluded from its own results
        sentence = data.draw(st.one_of(texts, st.sampled_from(sentences)))
        k = data.draw(st.integers(0, len(bank)))
        assert retrieve_examples(bank, sentence, k) == \
            reference_retrieve_examples(bank, sentence, k)

    def test_zero_scores_fill_in_bank_order(self):
        entries = tuple(ExampleEntry(s, ("c.",)) for s in
                        ("alpha beta", "gamma", "delta beta", "epsilon", "alpha"))
        bank = ExampleBank(entries)
        for sentence, k in (("beta", 5), ("zeta", 3), ("alpha", 4), ("", 2)):
            assert retrieve_examples(bank, sentence, k) == \
                reference_retrieve_examples(bank, sentence, k)

    def test_equal_banks_share_one_result(self):
        entries = tuple(ExampleEntry(f"sentence {i} word{i % 3}", ("c.",)) for i in range(9))
        first = retrieve_examples(ExampleBank(entries[2:]), "word1 sentence", 4)
        again = retrieve_examples(ExampleBank(entries[2:]), "word1 sentence", 4)
        assert first == again == reference_retrieve_examples(
            ExampleBank(entries[2:]), "word1 sentence", 4)

    def test_concurrent_first_use_sees_whole_vectors(self):
        # threads that race to build one bank's vectors each see them whole
        entries = tuple(ExampleEntry(f"race {i} term{i % 7} extra{i % 3}", ("c.",))
                        for i in range(60))
        queries = [f"term{i % 7} extra{i % 5} race" for i in range(64)]
        bank = ExampleBank(entries[1:])
        expected = [reference_retrieve_examples(bank, q, 3) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda q: retrieve_examples(bank, q, 3), queries,
                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
