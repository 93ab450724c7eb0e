import json
import math
from itertools import islice

import pytest

from claimdecomp import KnowledgeDoc, build_index, load_index, retrieval, save_index, search
from claimdecomp.retrieval import RetrievalError, tokenize


def oracle_score(index, query, chunk):
    """Direct recomputation of the scoring formula from raw chunk contents."""
    n = len(index.chunks)
    terms = tokenize(chunk.text)
    length = len(terms)
    counts = {}
    for t in terms:
        counts[t] = counts.get(t, 0) + 1
    avg = sum(len(tokenize(c.text)) for c in index.chunks) / n
    total = 0.0
    for term in tokenize(query):
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        df = sum(1 for c in index.chunks if term in tokenize(c.text))
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (retrieval.K1 + 1) / (
            tf + retrieval.K1 * (1 - retrieval.B + retrieval.B * length / avg))
    return total


FIVE_DOCS = [
    KnowledgeDoc("Ada Example", "Ada Example was a Swiss director born in Zurich. "
                                "She studied theater at Riverside University."),
    KnowledgeDoc("Ben Sample", "Ben Sample was an industrial chemist who worked "
                               "in a laboratory near Zurich for decades."),
    KnowledgeDoc("Riverside University", "Riverside University is a university in "
                                         "Geneva known for theater programs."),
    KnowledgeDoc("Zurich", "Zurich is the largest city in Switzerland."),
    KnowledgeDoc("Film history", "Suspenseful films became popular early. "
                                 "Directors in Zurich contributed classics."),
]


class TestBuildIndex:
    def test_chunk_sizes(self):
        doc = KnowledgeDoc("D", "one two three four five six seven eight nine ten")
        index = build_index([doc], chunk_words=4)
        sizes = [len(c.text.split()) for c in index.chunks]
        assert sizes == [4, 4, 2]
        assert [c.ordinal for c in index.chunks] == [0, 1, 2]

    def test_empty_corpus(self):
        index = build_index([], chunk_words=4)
        assert index.chunks == ()
        assert search(index, "anything", 3) == []

    def test_duplicate_titles_rejected(self):
        docs = [KnowledgeDoc("D", "a"), KnowledgeDoc("D", "b")]
        with pytest.raises(RetrievalError, match="duplicate"):
            build_index(docs, 4)

    def test_chunk_words_validation(self):
        with pytest.raises(RetrievalError):
            build_index([], chunk_words=0)

    def test_tokenization(self):
        assert tokenize("Bel-Air, California! (1980)") == ["belair", "california", "1980"]


class TestSearch:
    def test_absent_term_gives_no_results(self):
        index = build_index(FIVE_DOCS, 16)
        assert search(index, "zzzunknown", 5) == []

    def test_hand_computed_two_chunk_corpus(self):
        # by hand: k1=0.9, b=0.4, N=2, avg length 5
        # chunk A "the cat sat on the mat" (len 6), B "a dog sat quietly" (len 4)
        # query "cat sat": idf(cat)=ln 2, idf(sat)=ln 1.2
        index = build_index([KnowledgeDoc("A", "the cat sat on the mat"),
                             KnowledgeDoc("B", "a dog sat quietly")], 50)
        results = search(index, "cat sat", 5)
        assert [c.doc_title for c, _ in results] == ["A", "B"]
        assert abs(results[0][1] - 0.8435043615478752) <= 1e-9
        assert abs(results[1][1] - 0.18950271220378215) <= 1e-9

    def test_matches_direct_formula_recomputation(self):
        index = build_index(FIVE_DOCS, 8)
        for query in ("theater Zurich", "industrial chemist", "films University",
                      "Ada Example director", "largest city Switzerland"):
            for chunk, score in search(index, query, 10):
                assert abs(score - oracle_score(index, query, chunk)) <= 1e-9

    def test_scores_non_increasing(self):
        index = build_index(FIVE_DOCS, 8)
        scores = [s for _, s in search(index, "Zurich theater films", 10)]
        assert scores == sorted(scores, reverse=True)

    def test_restrict_title(self):
        index = build_index(FIVE_DOCS, 8)
        results = search(index, "Zurich", 10, restrict_title="Zurich")
        assert results
        assert all(c.doc_title == "Zurich" for c, _ in results)

    def test_ties_broken_by_title_then_ordinal(self):
        docs = [KnowledgeDoc("B", "same words here"),
                KnowledgeDoc("A", "same words here")]
        index = build_index(docs, 16)
        results = search(index, "same words", 2)
        assert [c.doc_title for c, _ in results] == ["A", "B"]

    def test_k_validation(self):
        index = build_index(FIVE_DOCS, 8)
        with pytest.raises(RetrievalError):
            search(index, "x", 0)

    def test_at_most_k_results(self):
        index = build_index(FIVE_DOCS, 8)
        assert len(search(index, "Zurich", 2)) <= 2

    def test_deterministic(self):
        index = build_index(FIVE_DOCS, 8)
        a = search(index, "Zurich theater", 5)
        b = search(index, "Zurich theater", 5)
        assert [(c.doc_title, c.ordinal, s) for c, s in a] == [
            (c.doc_title, c.ordinal, s) for c, s in b]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        index = build_index(FIVE_DOCS, 8)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.chunk_words == index.chunk_words
        # BM25's settings are constants, not saved
        assert json.loads(path.read_text(encoding="utf-8")).keys().isdisjoint({"k1", "b"})
        original = search(index, "Zurich theater films", 10)
        reloaded = search(loaded, "Zurich theater films", 10)
        assert [(c.doc_title, c.ordinal, s) for c, s in original] == [
            (c.doc_title, c.ordinal, s) for c, s in reloaded]

    def test_titles_survive_round_trip(self, tmp_path):
        index = build_index(FIVE_DOCS, 8)
        path = tmp_path / "index.json"
        save_index(index, path)
        for candidate in (index, load_index(path)):
            assert all(candidate.has_title(d.title) for d in FIVE_DOCS)
            assert not candidate.has_title("Nobody")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(FIVE_DOCS, 8), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        with pytest.raises(RetrievalError, match="malformed index file"):
            load_index(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(FIVE_DOCS, 8), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["texts"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(RetrievalError, match="'texts'"):
            load_index(path)

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        save_index(build_index(FIVE_DOCS, 8), path)
        before = path.read_bytes()
        saved_fields = retrieval._saved_fields

        def interrupted(index):
            yield from islice(saved_fields(index), 6)
            assert len(list(tmp_path.glob("*.tmp"))) == 1  # the save is under way
            raise KeyboardInterrupt

        monkeypatch.setattr(retrieval, "_saved_fields", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_index(build_index(FIVE_DOCS[:2], 4), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "chunks": []}')
        with pytest.raises(RetrievalError, match="version"):
            load_index(path)
