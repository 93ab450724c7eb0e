import base64
import csv
import json
import os
import subprocess
import sys
import threading
from importlib import resources
from operator import setitem
from pathlib import Path

import pytest

from claimdecomp import cli, validate
from claimdecomp.llm import CompletionError, CompletionResponse, HttpCompletionClient
from claimdecomp.metrics import MetricsError

REPO = Path(__file__).resolve().parents[1]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _common(data_dir, out_dir, extra=()):
    return ["--generations", str(data_dir / "generations_small.jsonl"),
            "--mock-responses", str(data_dir / "mock_responses.json"),
            "--method", "rnd",
            "--output-dir", str(out_dir), *extra]


def run_pipeline(data_dir, out_dir, extra=()):
    assert cli.main(["decompose", *_common(data_dir, out_dir, extra)]) == 0
    assert cli.main(["decompscore", *_common(data_dir, out_dir, extra)]) == 0
    assert cli.main(["factscore", *_common(
        data_dir, out_dir,
        extra=["--knowledge", str(data_dir / "knowledge_small.jsonl"), *extra])]) == 0


def _first_passage_only(full: Path, resumed: Path) -> None:
    """Write to ``resumed`` the subclaims file an interrupt after the first
    passage of ``full`` leaves behind."""
    lines = (full / "subclaims-rnd.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    resumed.mkdir(parents=True)
    (resumed / "subclaims-rnd.jsonl").write_text(
        "".join(l for l in lines if '"topic": "Ada Example"' in l
                and '"generator": "alpha"' in l), encoding="utf-8")


class TestPipeline:
    def test_end_to_end_outputs(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        for name in ("subclaims-rnd.jsonl", "sentence-judgments-rnd.jsonl",
                     "knowledge-judgments-rnd.jsonl", "decompscore.csv",
                     "avg_subclaims.csv", "coherence.csv", "factscore.csv",
                     "filtered_factscore.csv", "scatter.csv"):
            assert (out / name).exists(), name

    def test_deterministic_across_runs(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_pipeline(data_dir, out1)
        run_pipeline(data_dir, out2)
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_decompose_rerun_is_noop(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        first = (out / "subclaims-rnd.jsonl").read_bytes()
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert (out / "subclaims-rnd.jsonl").read_bytes() == first

    def test_resume_after_interrupt_matches_full_run(self, data_dir, tmp_path):
        full_dir, resumed_dir = tmp_path / "full", tmp_path / "resumed"
        assert cli.main(["decompose", *_common(data_dir, full_dir)]) == 0
        full = (full_dir / "subclaims-rnd.jsonl").read_text(encoding="utf-8")

        # simulate an interrupt: only the first passage was written
        _first_passage_only(full_dir, resumed_dir)
        assert cli.main(["decompose", *_common(data_dir, resumed_dir)]) == 0
        resumed = (resumed_dir / "subclaims-rnd.jsonl").read_text(encoding="utf-8")
        assert resumed == full

    def test_audit_recomputes_every_cell(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        cli.audit_outputs(out, ["rnd"])

    @pytest.mark.parametrize("column", ["avg_subclaims", "factscore"])
    def test_audit_checks_scatter_cells(self, data_dir, tmp_path, column):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        with open(out / "scatter.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0][column] = str(float(rows[0][column]) + 0.1)
        with open(out / "scatter.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(MetricsError, match=f"scatter.csv cell \\(rnd, {column}\\)"):
            cli.audit_outputs(out, ["rnd"])

    def test_scatter_columns(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        with open(out / "scatter.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "rnd"
        assert float(rows[0]["avg_subclaims"]) > 0

    def test_csv_shape(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        with open(out / "decompscore.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["generator", "rnd"]
        assert rows[-1][0] == "macro-average"
        assert {r[0] for r in rows[1:-1]} == {"alpha", "beta"}


_PACKED_FIELDS = ("title_chunks", "lengths", "counts", "positions", "tfs")


def _split_first_title(payload):
    """List the first title's last chunk under a second entry of that title."""
    payload["titles"].append(payload["titles"][0])
    payload["title_chunks"][0] -= 1
    payload["title_chunks"].append(1)


def _move_first_title_chunks(payload):
    """Give the first title's chunks to the second, leaving it a count of 0."""
    counts = payload["title_chunks"]
    counts[1] += counts[0]
    counts[0] = 0


def _move_first_term_postings(payload):
    """Give the first term's postings to the second, leaving it a count of 0."""
    counts = payload["counts"]
    counts[1] += counts[0]
    counts[0] = 0


def _split_a_count(payload, name):
    """Split the first count of ``name`` above 1 in two, so that there is one
    count more than there are titles or terms."""
    counts = payload[name]
    i = next(i for i, count in enumerate(counts) if count >= 2)
    counts[i:i + 1] = [counts[i] - 1, 1]


def _repeat_a_position(payload):
    """Set the second position of the first term with two to its first."""
    counts = payload["counts"]
    term = next(i for i, count in enumerate(counts) if count >= 2)
    start = sum(counts[:term])
    payload["positions"][start + 1] = payload["positions"][start]


class TestExitCodes:
    def test_unknown_method(self, data_dir, tmp_path):
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                       "--method", "nonsense"])
        assert rc == 2

    def test_missing_subclaims_file(self, data_dir, tmp_path):
        rc = cli.main(["decompscore", *_common(data_dir, tmp_path / "empty")])
        assert rc == 2

    def test_bad_bank_spec(self, data_dir, tmp_path):
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                       "--bank", "rnd-no-equals"])
        assert rc == 2

    @pytest.mark.parametrize("name", ["rdn", "predpatt"])
    def test_bank_for_a_method_without_prompts(self, data_dir, tmp_path, capsys, name):
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                       "--bank", f"{name}={tmp_path / 'bank.jsonl'}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: example bank for {name!r}, ")

    def test_bank_for_an_unselected_prompted_method(self, data_dir, tmp_path):
        # one config file may list banks for several runs' methods
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                       "--bank", f"wice={tmp_path / 'bank.jsonl'}"])
        assert rc == 0

    def test_no_endpoint_configured(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("CLAIMDECOMP_ENDPOINT_URL", raising=False)
        rc = cli.main(["decompose",
                       "--generations", str(data_dir / "generations_small.jsonl"),
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_max_inflight_below_one(self, data_dir, tmp_path):
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                       "--max-inflight", "0"])
        assert rc == 2

    def test_truncated_index_file(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        index = tmp_path / "index.json"
        assert cli.main(["index", "build", "--knowledge",
                         str(data_dir / "knowledge_small.jsonl"), "--out", str(index)]) == 0
        text = index.read_text(encoding="utf-8")
        index.write_text(text[:len(text) // 2], encoding="utf-8")
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, ["--index", str(index)])]) == 2
        assert "malformed index file" in capsys.readouterr().err

    def test_index_of_another_version(self, data_dir, tmp_path, capsys):
        index = tmp_path / "index.json"
        index.write_text(json.dumps({"version": 1, "chunk_words": 4, "k1": 0.9, "b": 0.4,
                                     "chunks": [{"doc_title": "Zurich", "ordinal": 0,
                                                 "text": "Zurich is a city"}]}),
                         encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, ["--index", str(index)])]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed index file {index}: format version 1; "
            "rebuild it with claimdecomp index build\n")

    def test_factscore_requires_knowledge_or_index(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert cli.main(["factscore", *_common(data_dir, out)]) == 2

    @pytest.mark.parametrize("stage, damaged", [
        ("decompose", "subclaims-rnd.jsonl"),
        ("decompscore", "subclaims-rnd.jsonl"),
        ("factscore", "sentence-judgments-rnd.jsonl"),
    ])
    def test_truncated_jsonl_line(self, data_dir, tmp_path, capsys, stage, damaged):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        path = out / damaged
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2],
                        encoding="utf-8")
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl")]
        assert cli.main([stage, *_common(data_dir, out, extra=extra)]) == 2
        assert f"{damaged}: line {len(lines)}: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, damaged, change, message", [
        ("decompscore", "subclaims-rnd.jsonl", lambda r: r.pop("ordinal"),
         "expected a record with fields"),
        ("decompscore", "subclaims-rnd.jsonl", lambda r: r.update(passage_id="alpha/Ada Example"),
         "expected a record with fields"),
        ("decompscore", "subclaims-rnd.jsonl", lambda r: r.update(sentence_index="0"),
         "field 'sentence_index' must be int, got '0'"),
        ("decompscore", "subclaims-rnd.jsonl", lambda r: r.update(text=5),
         "field 'text' must be str, got 5"),
        ("factscore", "sentence-judgments-rnd.jsonl", lambda r: r.update(supported="yes"),
         "field 'supported' must be bool, got 'yes'"),
        ("factscore", "sentence-judgments-rnd.jsonl", lambda r: r.update(supported=1),
         "field 'supported' must be bool, got 1"),
    ], ids=["missing", "extra", "str-sentence-index", "int-text", "str-supported",
            "int-supported"])
    def test_record_with_wrong_fields(self, data_dir, tmp_path, capsys, stage, damaged,
                                      change, message):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        path = out / damaged
        records = [json.loads(line) for line in path.read_text().splitlines()]
        change(records[1])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl")]
        capsys.readouterr()
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["decompscore", "factscore"])
    @pytest.mark.parametrize("change, group", [
        (lambda r: r.update(topic="Nobody"), "('alpha', 'Nobody', 0)"),
        (lambda r: r.update(sentence_index=99), "('alpha', 'Ada Example', 99)"),
    ], ids=["absent-passage", "absent-sentence"])
    def test_subclaim_without_source_sentence(self, data_dir, tmp_path, capsys, stage,
                                              change, group):
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        path = out / "subclaims-rnd.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert (records[0]["generator"], records[0]["topic"]) == ("alpha", "Ada Example")
        change(records[0])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl"), "--cache-dir", str(cache)]
        capsys.readouterr()
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: no source sentence for subclaim group {group}\n"
        # the check comes before the first validator request
        assert not [p for p in cache.rglob("*") if p.is_file()]
        assert not (out / f"{cli.JSONL_FILES[stage]}-rnd.jsonl").exists()

    @pytest.mark.parametrize("stage, config", [
        ("decompose", {"max_inflight": "8"}),
        ("factscore", {"retrieval_k": "5"}),
        ("decompose", {"max_inflight": True}),
        ("decompose", {"methods": "rnd"}),
        ("decompose", {"temperature": "0.5"}),
    ], ids=["str-for-int", "str-for-int-factscore", "bool-for-int", "str-for-list",
            "str-for-float"])
    def test_config_value_of_wrong_type(self, data_dir, tmp_path, capsys, stage, config):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        extra = ["--config", str(config_path), "--knowledge",
                 str(data_dir / "knowledge_small.jsonl")]
        assert cli.main([stage, *_common(data_dir, tmp_path / "out", extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {next(iter(config))!r} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("max_tokens", 0), ("temperature", -1),
                                            ("retrieval_k", 0), ("chunk_words", 0)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sampling_value_out_of_range(self, data_dir, tmp_path, capsys, key, value, source):
        if source == "flag":
            extra = [f"--{key.replace('_', '-')}", str(value)]
        else:
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps({key: value}))
            extra = ["--config", str(config_path)]
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "out", extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be >= ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, token", [("nan", "NaN"), ("inf", "Infinity")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_temperature(self, data_dir, tmp_path, capsys, flag, token, source):
        cache = tmp_path / "cache"
        if source == "flag":
            extra = ["--temperature", flag]
        else:
            # json.loads reads the bare NaN and Infinity tokens as floats
            config_path = tmp_path / "run.json"
            config_path.write_text(f'{{"temperature": {token}}}')
            extra = ["--config", str(config_path)]
        extra += ["--cache-dir", str(cache)]
        argv = ["decompose", *_common(data_dir, tmp_path / "out", extra)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: temperature must be finite")
        assert "Traceback" not in err
        assert not cache.exists()

    @pytest.mark.parametrize("window, max_tokens", [("0", None), ("512", "512"), ("100", "200")])
    def test_prompt_budget_must_be_positive(self, data_dir, tmp_path, capsys, window, max_tokens):
        extra = ["--context-window", window]
        if max_tokens is not None:
            extra += ["--max-tokens", max_tokens]
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: context_window must exceed max_tokens")
        assert "Traceback" not in err
        assert not (out / "subclaims-rnd.jsonl").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.update(k1="0.9"), "field 'k1' must be float"),
        (lambda p: p.update(b=None), "field 'b' must be float"),
        (lambda p: p.update(chunk_words=1.5), "field 'chunk_words' must be int"),
        (lambda p: setitem(p["titles"], 0, 5), "field 'titles' must be list[str]"),
        (_split_first_title, "titles are not unique"),
        (lambda p: p.update(title_chunks=5), "field 'title_chunks' must be str"),
        # a stray character in place of a digit, which only a strict decoder rejects
        (lambda p: p.update(positions="!" + base64.b64encode(bytes(p["positions"])).decode()[1:]),
         "field 'positions' is not base64"),
        (lambda p: p.update(positions=base64.b64encode(bytes(p["positions"])).decode()[:-1]),
         "field 'positions' is not base64"),
        (lambda p: p.update(chunk_words=256, lengths=[1, 0, 2]),
         "field 'lengths' holds 3 bytes, not a whole number of 2-byte items"),
        (lambda p: _split_a_count(p, "title_chunks"),
         "title_chunks must hold one count >= 1 per title"),
        (_move_first_title_chunks, "title_chunks must hold one count >= 1 per title"),
        (lambda p: p["title_chunks"].append(p["title_chunks"].pop() + 1),
         "title_chunks must hold one count >= 1 per title, summing to the 28 texts"),
        (lambda p: p["lengths"].pop(), "lengths must hold one length per text"),
        (lambda p: setitem(p["terms"], 1, p["terms"][0]), "terms are not unique"),
        (lambda p: _split_a_count(p, "counts"), "counts must hold one count >= 1 per term"),
        (_move_first_term_postings, "counts must hold one count >= 1 per term"),
        (lambda p: p["counts"].append(p["counts"].pop() + 1),
         "counts must hold one count >= 1 per term, summing to the"),
        (lambda p: p["tfs"].pop(), "positions and tfs differ in length"),
        (_repeat_a_position, "are not strictly ascending below the 28 texts"),
        (lambda p: setitem(p["positions"], -1, 28), "are not strictly ascending below the 28"),
        (lambda p: setitem(p["tfs"], 0, 0), "a tf is 0"),
        (lambda p: p.update(k1=float("nan")), "k1 must be finite and >= 0, got nan"),
        (lambda p: p.update(b=float("inf")), "b must be within [0, 1], got inf"),
        (lambda p: p.update(k1=-1.0), "k1 must be finite and >= 0, got -1.0"),
        (lambda p: p.update(b=1.5), "b must be within [0, 1], got 1.5"),
        (lambda p: p.update(chunk_words=0), "chunk_words must be >= 1, got 0"),
    ], ids=["str-k1", "null-b", "float-chunk-words", "int-title", "title-not-consecutive",
            "int-title-chunks", "bad-base64", "base64-length", "partial-item", "title-chunks-count",
            "zero-title-chunks", "title-chunks-sum", "lengths-count", "duplicate-term",
            "counts-count", "zero-count", "counts-sum", "tfs-count", "positions-not-ascending",
            "position-out-of-range", "zero-tf", "nan-k1", "inf-b", "negative-k1",
            "b-above-1", "zero-chunk-words"])
    def test_index_file_with_bad_field(self, data_dir, tmp_path, capsys, change, message):
        index = tmp_path / "index.json"
        assert cli.main(["index", "build", "--knowledge",
                         str(data_dir / "knowledge_small.jsonl"), "--out", str(index),
                         "--chunk-words", "4"]) == 0
        payload = json.loads(index.read_text(encoding="utf-8"))
        # 28 chunks of 4 words: every packed field holds one byte per item
        assert len(payload["texts"]) == 28
        for name in _PACKED_FIELDS:
            payload[name] = list(base64.b64decode(payload[name]))
        change(payload)
        for name in _PACKED_FIELDS:
            if isinstance(payload[name], list):
                payload[name] = base64.b64encode(bytes(payload[name])).decode("ascii")
        index.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, ["--index", str(index)])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed index file {index}: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, line", [
        ("bank", "[1, 2]"),
        ("bank", '{"sentence": "S.", "subclaims": "x"}'),
        ("bank", '{"sentence": "S.", "subclaims": [["x"]]}'),
        ("generations", '"topic generator output"'),
        ("generations", '{"topic": "Ada Example", "generator": "alpha", "output": 7}'),
        ("generations", '{"topic": "Ada Example", "generator": "alpha", "output": "A."}\n'
                        '{"topic": "Ada Example", "generator": "alpha", "output": "B."}'),
        ("knowledge", '"x"'),
        ("knowledge", '{"title": "Ada Example", "text": 5}'),
        ("knowledge", '{"title": "Café", "text": "x"}'),
        ("mock", "[]"),
        ("mock", '{"default": 5}'),
        ("mock", '{"rules": [["k"]]}'),
        ("mock", '{"table": [1, 2]}'),
        ("mock", '{"decomposer": "x"}'),
        ("mock", '{"decomposer": {"length_error_substrings": "k"}}'),
        ("mock", '{"default": "é"}'),
    ], ids=["bank-list", "bank-str-subclaims", "bank-nested-subclaims", "generations-string",
            "generations-int-output", "generations-repeated-pair", "knowledge-string",
            "knowledge-int-text", "knowledge-latin-1", "mock-list", "mock-int-default",
            "mock-short-rule", "mock-list-table", "mock-role-str", "mock-role-str-substrings",
            "mock-latin-1"])
    def test_malformed_corpus_record(self, data_dir, tmp_path, capsys, kind, line):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        bad = tmp_path / f"{kind}.jsonl"
        # Latin-1 leaves the ASCII lines as they are and makes "é" a byte
        # that is not UTF-8
        bad.write_text(line + "\n", encoding="latin-1")
        capsys.readouterr()
        if kind == "bank":
            argv = ["decompose", *_common(data_dir, tmp_path / "fresh", ["--bank", f"rnd={bad}"])]
        elif kind == "generations":
            argv = ["decompose", *_common(data_dir, out), "--generations", str(bad)]
        elif kind == "knowledge":
            argv = ["factscore", *_common(data_dir, out, ["--knowledge", str(bad)])]
        else:
            argv = ["decompose", *_common(data_dir, tmp_path / "fresh"), "--mock-responses", str(bad)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        where = f"{bad}: " if kind == "mock" else f"{bad}: line {len(line.splitlines())}: "
        assert err.startswith(f"error: {where}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--generations", "--output-dir", "--cache-dir", "--index"])
    def test_unreadable_path(self, data_dir, tmp_path, capsys, flag):
        a_dir, a_file = tmp_path / "dir", tmp_path / "file"
        a_dir.mkdir()
        a_file.write_text("", encoding="utf-8")
        if flag == "--index":
            argv = ["index", "search", "--index", str(a_dir), "--query", "films"]
        else:
            path = a_dir if flag == "--generations" else a_file
            argv = ["decompose", *_common(data_dir, tmp_path / "out"), flag, str(path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["correlate", "parses"])
    def test_file_not_utf8(self, data_dir, tmp_path, capsys, kind):
        bad = tmp_path / f"{kind}.txt"
        if kind == "correlate":
            bad.write_bytes(b"generator,metric\nCaf\xe9,1.0\n")
            argv = ["correlate", str(bad), str(bad), "--columns", "metric"]
        else:
            bad.write_bytes(b"# text = Caf\xe9\n")
            argv = ["decompose", *_common(data_dir, tmp_path / "out"), "--parses", str(bad)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8: ")
        assert "Traceback" not in err


class FailingOnCall:
    """Delegates to ``inner`` but raises CompletionError on call number ``n``
    (counting from 1) and every call after it."""

    def __init__(self, inner, n):
        self.inner, self.n, self.calls = inner, n, 0
        self.model = inner.model
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            failing = self.calls >= self.n
        if failing:
            raise CompletionError(f"injected failure on call {self.n}")
        return self.inner.complete(request)


class TestStagePool:
    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_outputs_independent_of_max_inflight(self, data_dir, tmp_path, cache):
        trees = []
        for width in ("1", "8"):
            out = tmp_path / f"width-{width}"
            extra = ["--max-inflight", width]
            if cache:
                extra += ["--cache-dir", str(out / "cache")]
            run_pipeline(data_dir, out, extra)
            trees.append(_tree_bytes(out))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_each_judgment_gets_its_own_verdict(self, data_dir, tmp_path, cache):
        # the canned validator refutes exactly these two claims
        refuted = {"His death occurred in 1980.", "The number of films she directed is nine."}
        out = tmp_path / "out"
        run_pipeline(data_dir, out, ["--cache-dir", str(tmp_path / "cache")] if cache else [])
        for stage in ("decompscore", "factscore"):
            lines = cli.jsonl_path(out, stage, "rnd").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            assert {r["text"] for r in records} > refuted
            for r in records:
                expected = r["text"] not in refuted and bool(r["context_snapshot"])
                assert r["supported"] is expected, (stage, r["text"])

    def test_resume_independent_of_max_inflight(self, data_dir, tmp_path):
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "full")]) == 0
        full = (tmp_path / "full" / "subclaims-rnd.jsonl").read_bytes()
        for width in ("1", "8"):
            resumed = tmp_path / f"resumed-{width}"
            _first_passage_only(tmp_path / "full", resumed)
            assert cli.main(["decompose", *_common(
                data_dir, resumed, ["--max-inflight", width])]) == 0
            assert (resumed / "subclaims-rnd.jsonl").read_bytes() == full

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_endpoint_failure_leaves_whole_passages(self, data_dir, tmp_path, capsys,
                                                     monkeypatch, n):
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "full")]) == 0
        full = (tmp_path / "full" / "subclaims-rnd.jsonl").read_text(encoding="utf-8")
        passages = []
        for line in full.splitlines(keepends=True):
            record = json.loads(line)
            key = (record["generator"], record["topic"])
            if not passages or passages[-1][0] != key:
                passages.append((key, []))
            passages[-1][1].append(line)
        prefixes = {"".join(l for _, lines in passages[:i] for l in lines)
                    for i in range(len(passages))}

        build_client = cli._build_client
        monkeypatch.setattr(cli, "_build_client",
                            lambda cfg, role: FailingOnCall(build_client(cfg, role), n))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["decompose", *_common(data_dir, out, ["--max-inflight", "4"])]) == 3
        err = capsys.readouterr().err
        assert "endpoint error: injected failure" in err and "Traceback" not in err
        assert (out / "subclaims-rnd.jsonl").read_text(encoding="utf-8") in prefixes

        monkeypatch.setattr(cli, "_build_client", build_client)
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert (out / "subclaims-rnd.jsonl").read_text(encoding="utf-8") == full

    @pytest.mark.parametrize("stage", ["decompscore", "factscore"])
    def test_endpoint_failure_in_judgment_stage(self, data_dir, tmp_path, capsys,
                                                monkeypatch, stage):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        build_client = cli._build_client
        monkeypatch.setattr(cli, "_build_client",
                            lambda cfg, role: FailingOnCall(build_client(cfg, role), 3))
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl"), "--max-inflight", "4"]
        capsys.readouterr()
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 3
        err = capsys.readouterr().err
        assert "endpoint error: injected failure" in err and "Traceback" not in err
        assert not cli.jsonl_path(out, stage, "rnd").exists()

    def test_one_batch_per_judgment_stage(self, data_dir, tmp_path, monkeypatch):
        alone = {}
        for name in ("rnd", "wice"):
            out = tmp_path / name
            run_pipeline(data_dir, out, ["--method", name])
            alone[name] = _tree_bytes(out)
        batches = []
        complete_all = validate.complete_all

        def recording(client, requests, map_fn):
            batches.append(len(requests))
            return complete_all(client, requests, map_fn)

        monkeypatch.setattr(validate, "complete_all", recording)
        out = tmp_path / "both"
        run_pipeline(data_dir, out, ["--method", "wice", "--max-inflight", "1"])
        # rnd from _common, then wice: one request batch for each judgment stage
        assert len(batches) == 2
        assert batches[0] == sum(len(cli._load_subclaims(out, name)) for name in ("rnd", "wice"))
        both = _tree_bytes(out)
        for name in ("rnd", "wice"):
            for stage in cli.JSONL_FILES:
                path = cli.jsonl_path(Path(), stage, name).name
                assert both[path] == alone[name][path], path

    @pytest.mark.parametrize("stage", ["decompscore", "factscore"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_judgment_failure_keeps_answered_responses_cached(self, data_dir, tmp_path,
                                                              monkeypatch, stage, n):
        out, cache = tmp_path / "out", tmp_path / "cache"
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl"),
                 "--cache-dir", str(cache), "--max-inflight", "1"]
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 0
        mock = cli.MockCompletionClient
        monkeypatch.setattr(cli, "MockCompletionClient",
                            lambda **spec: FailingOnCall(mock(**spec), n))
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 3
        assert len(list((cache / "validator").glob("*.json"))) == n - 1

        monkeypatch.setattr(cli, "MockCompletionClient", mock)
        clean = tmp_path / "clean"
        run_pipeline(data_dir, clean)
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 0
        path = cli.jsonl_path(Path(), stage, "rnd").name
        assert (out / path).read_bytes() == (clean / path).read_bytes()


class TestCorrelate:
    @pytest.fixture()
    def benchmark_files(self):
        base = resources.files("claimdecomp.data")
        with resources.as_file(base / "benchmark_agreement_a.csv") as a, \
                resources.as_file(base / "benchmark_agreement_b.csv") as b:
            yield str(a), str(b)

    def test_benchmark_agreement(self, benchmark_files, tmp_path, capsys):
        a, b = benchmark_files
        out = tmp_path / "rho.csv"
        rc = cli.main(["correlate", a, b, "--columns", "factscore,subclaims",
                       "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = {r["column"]: float(r["pearson_rho"])
                    for r in csv.DictReader(fh)}
        assert rows["factscore"] == pytest.approx(0.9786, abs=2e-3)
        assert rows["subclaims"] == pytest.approx(0.9846, abs=2e-3)

    def test_identical_columns_give_one(self, benchmark_files, tmp_path):
        a, _ = benchmark_files
        out = tmp_path / "rho.csv"
        assert cli.main(["correlate", a, a, "--columns", "factscore",
                         "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {r["column"]: float(r["pearson_rho"]) for r in csv.DictReader(fh)}
        assert rows["factscore"] == pytest.approx(1.0)

    def test_constant_column_errors(self, tmp_path):
        for name, value in (("a.csv", "1.0"), ("b.csv", "2.0")):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["generator", "metric"])
                for lm in ("x", "y", "z"):
                    writer.writerow([lm, value])
        rc = cli.main(["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--columns", "metric"])
        assert rc == 2

    def test_misaligned_keys(self, tmp_path):
        for name, lms in (("a.csv", ("x", "y")), ("b.csv", ("x", "z"))):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["generator", "metric"])
                for i, lm in enumerate(lms):
                    writer.writerow([lm, str(i)])
        rc = cli.main(["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--columns", "metric"])
        assert rc == 2

    @pytest.mark.parametrize("cell", [["abc"], []], ids=["text", "short-row"])
    def test_non_numeric_cell(self, tmp_path, capsys, cell):
        for name, last in (("a.csv", ["1.5"]), ("b.csv", cell)):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["generator", "metric"])
                writer.writerows([["x", "1.0"], ["y", *last]])
        rc = cli.main(["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--columns", "metric"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'b.csv'}: row 'y', column 'metric': ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, capsys, cell):
        for name, last in (("a.csv", "1.5"), ("b.csv", cell)):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["generator", "metric"])
                writer.writerows([["x", "1.0"], ["y", last], ["z", "2.0"]])
        rc = cli.main(["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--columns", "metric"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {tmp_path / 'b.csv'}: row 'y', column 'metric': "
                                f"not finite: {cell!r}\n")
        assert "rho" not in captured.out

    @pytest.mark.parametrize("columns", [",", " , ", ""])
    def test_no_column(self, benchmark_files, capsys, columns):
        a, b = benchmark_files
        assert cli.main(["correlate", a, b, "--columns", columns]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --columns names no column\n"
        assert captured.out == ""

    def test_repeated_key(self, tmp_path, capsys):
        for name, rows in (("a.csv", [("x", "1"), ("y", "2"), ("x", "5"), ("z", "3")]),
                           ("b.csv", [("x", "1"), ("y", "2"), ("z", "3")])):
            with open(tmp_path / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["generator", "metric"])
                writer.writerows(rows)
        rc = cli.main(["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--columns", "metric"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {tmp_path / 'a.csv'}: repeated key 'x' in column 'generator'")
        assert "rho" not in captured.out


class TestIndexCommands:
    def test_build_and_search(self, data_dir, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        rc = cli.main(["index", "build",
                       "--knowledge", str(data_dir / "knowledge_small.jsonl"),
                       "--out", str(index_path), "--chunk-words", "16"])
        assert rc == 0
        assert index_path.exists()
        rc = cli.main(["index", "search", "--index", str(index_path),
                       "--query", "Zurich theater", "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Zurich" in out or "Ada" in out


class TestDegenerateInputs:
    def test_empty_method_column_omitted_with_warning(self, data_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "subclaims-rnd.jsonl").write_text("")
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 0
        header = (out / "decompscore.csv").read_text().splitlines()[0]
        assert header == "generator"

    def test_all_true_validator_gives_full_scores(self, data_dir, tmp_path):
        # keep the canned decomposer (its claims retrieve against the topic
        # docs) but answer True for everything
        spec = json.loads((data_dir / "mock_responses.json").read_text())
        spec["validator"] = {"default": "True"}
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(spec))
        out = tmp_path / "out"
        args = ["--generations", str(data_dir / "generations_small.jsonl"),
                "--mock-responses", str(mock), "--method", "rnd",
                "--output-dir", str(out)]
        assert cli.main(["decompose", *args]) == 0
        assert cli.main(["decompscore", *args]) == 0
        assert cli.main(["factscore", *args, "--knowledge",
                         str(data_dir / "knowledge_small.jsonl")]) == 0
        with open(out / "factscore.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["rnd"]) for r in rows]
        assert all(v == 100.0 for v in values)
        # filtered equals unfiltered when every subclaim is sentence-supported
        assert (out / "filtered_factscore.csv").read_text() == \
            (out / "factscore.csv").read_text()

    def test_unparseable_verdicts_reported_by_both_stages(self, data_dir, tmp_path, capsys):
        spec = json.loads((data_dir / "mock_responses.json").read_text())
        spec["validator"] = {"default": "Maybe"}
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(spec))
        args = ["--generations", str(data_dir / "generations_small.jsonl"),
                "--mock-responses", str(mock), "--method", "rnd",
                "--output-dir", str(tmp_path / "out")]
        assert cli.main(["decompose", *args]) == 0
        capsys.readouterr()
        for stage, extra in (("decompscore", []), ("factscore", [
                "--knowledge", str(data_dir / "knowledge_small.jsonl")])):
            assert cli.main([stage, *args, *extra]) == 0
            assert "unparseable validator answers counted as unsupported" in \
                capsys.readouterr().out, stage

    def test_maybe_validator_run_reports_counts_not_lines(self, data_dir, tmp_path):
        spec = json.loads((data_dir / "mock_responses.json").read_text())
        spec["validator"] = {"default": "Maybe"}
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(spec))
        args = ["--generations", str(data_dir / "generations_small.jsonl"),
                "--mock-responses", str(mock), "--method", "rnd",
                "--output-dir", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        stdout = {}
        for stage, extra in (("decompose", []), ("decompscore", []), ("factscore", [
                "--knowledge", str(data_dir / "knowledge_small.jsonl")])):
            proc = subprocess.run(
                [sys.executable, "-m", "claimdecomp.cli", stage, *args, *extra],
                cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), stage
            stdout[stage] = proc.stdout
        line = ("warning: 4 passages have no sentence-supported subclaims; "
                "filtered factscore counts them as 0")
        assert line in stdout["factscore"].splitlines()
        assert "sentence-supported" not in stdout["decompscore"]


    def test_factscore_warnings_print_in_table_order(self, data_dir, tmp_path, capsys):
        spec = json.loads((data_dir / "mock_responses.json").read_text())
        spec["validator"] = {"default": "Maybe"}
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(spec))
        # no Ada Example claim shares a term with its document: empty contexts
        knowledge = tmp_path / "knowledge.jsonl"
        knowledge.write_text(
            '{"title": "Ada Example", "text": "Nothing here matches quux."}\n'
            '{"title": "Ben Sample", "text": "Ben Sample was a chemist who died in 1980."}\n')
        args = ["--generations", str(data_dir / "generations_small.jsonl"),
                "--mock-responses", str(mock), "--method", "rnd",
                "--output-dir", str(tmp_path / "out")]
        assert cli.main(["decompose", *args]) == 0
        assert cli.main(["decompscore", *args]) == 0
        capsys.readouterr()
        assert cli.main(["factscore", *args, "--knowledge", str(knowledge)]) == 0
        assert [l for l in capsys.readouterr().out.splitlines() if l.startswith("warning:")] == [
            "warning: 5 unparseable validator answers counted as unsupported",
            "warning: 10 claims had empty retrieval context",
            "warning: 4 passages have no sentence-supported subclaims; "
            "filtered factscore counts them as 0"]

    def test_empty_decompositions_reported_as_one_count(self, data_dir, tmp_path):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({"default": ""}))
        proc = subprocess.run(
            [sys.executable, "-m", "claimdecomp.cli", "decompose",
             "--generations", str(data_dir / "generations_small.jsonl"),
             "--mock-responses", str(mock), "--method", "rnd",
             "--output-dir", str(tmp_path / "out")],
            cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "warning: 9 sentences decomposed to no subclaims" in proc.stdout.splitlines()


class TestValidatorId:
    @pytest.mark.parametrize("flags, model", [
        ([], "base"),
        (["--validator-model", "judge"], "judge"),
        (["--validator-model", "judge", "--cache-dir", "CACHE"], "judge"),
    ], ids=["model", "validator-model", "cached"])
    def test_judgments_name_the_validator_clients_model(self, data_dir, tmp_path, monkeypatch,
                                                        flags, model):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        sent = []
        monkeypatch.setattr(HttpCompletionClient, "complete",
                            lambda self, request: sent.append(request.model) or
                            CompletionResponse("True"))
        args = ["decompscore", "--generations", str(data_dir / "generations_small.jsonl"),
                "--method", "rnd", "--output-dir", str(out),
                "--endpoint", "http://localhost:9/v1", "--model", "base",
                *(str(tmp_path / "cache") if f == "CACHE" else f for f in flags)]
        cfg = cli._merge_config(cli.build_parser().parse_args(args))
        assert cli._build_client(cfg, "validator").model == model
        assert cli._build_client(cfg, "decomposer").model == "base"
        assert cli.main(args) == 0
        records = [json.loads(l) for l in
                   (out / "sentence-judgments-rnd.jsonl").read_text().splitlines()]
        assert {r["validator_id"] for r in records} == set(sent) == {model}

    def test_mock_validator_id(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        for stage in ("sentence-judgments", "knowledge-judgments"):
            records = [json.loads(l) for l in
                       (out / f"{stage}-rnd.jsonl").read_text().splitlines()]
            assert {r["validator_id"] for r in records} == {"mock"}


class TestCacheModes:
    def test_cache_only_serves_warm_runs_and_fails_cold(self, data_dir, tmp_path):
        cache = tmp_path / "cache"
        warm_out = tmp_path / "warm"
        assert cli.main(["decompose", *_common(data_dir, warm_out),
                         "--cache-dir", str(cache)]) == 0

        # warm cache: a fresh run in cache-only mode needs no endpoint at all
        replay_out = tmp_path / "replay"
        assert cli.main(["decompose", *_common(data_dir, replay_out),
                         "--cache-dir", str(cache), "--cache-only"]) == 0
        assert (replay_out / "subclaims-rnd.jsonl").read_bytes() == \
            (warm_out / "subclaims-rnd.jsonl").read_bytes()

        # cold cache in cache-only mode is an endpoint failure
        cold_out = tmp_path / "cold"
        rc = cli.main(["decompose", *_common(data_dir, cold_out),
                       "--cache-dir", str(tmp_path / "empty-cache"), "--cache-only"])
        assert rc == 3

    def test_cache_only_with_unreadable_entry_is_endpoint_error(self, data_dir, tmp_path):
        cache = tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "warm"),
                         "--cache-dir", str(cache)]) == 0
        entry = sorted((cache / "decomposer").glob("*.json"))[0]
        entry.write_text(entry.read_text(encoding="utf-8")[:10], encoding="utf-8")
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "replay"),
                       "--cache-dir", str(cache), "--cache-only"])
        assert rc == 3

    def test_cache_only_with_wrong_typed_entry_is_endpoint_error(self, data_dir, tmp_path,
                                                                  capsys):
        cache = tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "warm"),
                         "--cache-dir", str(cache)]) == 0
        for entry in (cache / "decomposer").glob("*.json"):
            record = json.loads(entry.read_text(encoding="utf-8"))
            entry.write_text(json.dumps({**record, "text": 5}), encoding="utf-8")
        capsys.readouterr()
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "replay"),
                       "--cache-dir", str(cache), "--cache-only"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "endpoint error: cache miss" in err and "Traceback" not in err


class TestConfigFile:
    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        config = {
            "generations": str(data_dir / "generations_small.jsonl"),
            "mock_responses": str(data_dir / "mock_responses.json"),
            "methods": ["rnd"],
            "output_dir": str(tmp_path / "from_config"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        override = tmp_path / "override"
        assert cli.main(["decompose", "--config", str(config_path),
                         "--output-dir", str(override)]) == 0
        assert (override / "subclaims-rnd.jsonl").exists()
        assert not (tmp_path / "from_config").exists()

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"no_such_key": 1}')
        assert cli.main(["decompose", "--config", str(config_path)]) == 2

    def test_int_for_float_sends_and_caches_a_float(self, data_dir, tmp_path):
        # {"temperature": 1} must make the same requests as --temperature 1,
        # so a cache warmed one way serves the other
        config_path = tmp_path / "run.json"
        config_path.write_text('{"temperature": 1}')
        names = {}
        for how, extra in (("config", ["--config", str(config_path)]),
                           ("flag", ["--temperature", "1"])):
            cache = tmp_path / f"cache-{how}"
            assert cli.main(["decompose", *_common(data_dir, tmp_path / how, extra),
                             "--cache-dir", str(cache)]) == 0
            names[how] = sorted(p.name for p in (cache / "decomposer").iterdir())
        assert names["config"] and names["config"] == names["flag"]

    def test_int_accepted_for_float_and_null_for_optional(self, data_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"temperature": 0, "endpoint_url": null}')
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                         "--config", str(config_path)]) == 0


class TestPredpattPipeline:
    @staticmethod
    def _decompose(data_dir, tmp_path, mock) -> int:
        # passages whose sentences align with hand-written parses
        generations = tmp_path / "gen.jsonl"
        generations.write_text(json.dumps({
            "topic": "Nash", "generator": "alpha",
            "output": "Nash earned degrees ."}) + "\n", encoding="utf-8")
        parses = data_dir / "predarg_parses.conllu"
        # only the matching parse: extract the p004 block
        text = parses.read_text(encoding="utf-8")
        block = text.split("\n\n")[3] + "\n\n"
        parse_file = tmp_path / "one.conllu"
        parse_file.write_text(block, encoding="utf-8")

        return cli.main(["decompose",
                         "--generations", str(generations),
                         "--parses", str(parse_file),
                         "--mock-responses", str(mock),
                         "--method", "predpatt",
                         "--output-dir", str(tmp_path / "out")])

    def test_decompose_with_parses(self, data_dir, tmp_path):
        assert self._decompose(data_dir, tmp_path, data_dir / "mock_responses.json") == 0
        out = tmp_path / "out"
        records = [json.loads(l) for l in
                   (out / "subclaims-predpatt.jsonl").read_text().splitlines()]
        assert len(records) == 1

    def test_rewrite_failure_is_endpoint_error(self, data_dir, tmp_path):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({"length_error_substrings": ["Input:"]}))
        assert self._decompose(data_dir, tmp_path, mock) == 3


class TestBenchmarkHooks:
    """The benchmark's tracer wraps functions by the module-global names the
    stages call; a refactor that stops calling them through those names
    detaches its per-layer metrics."""

    def test_tracer_sees_the_judgment_layers(self, data_dir, tmp_path):
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        spans = set()
        for stage, extra in (("decompose", []), ("decompscore", []), ("factscore", [
                "--knowledge", str(data_dir / "knowledge_small.jsonl")])):
            trace = tmp_path / f"{stage}.trace.json"
            proc = subprocess.run(
                [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(trace), stage,
                 "--", stage, *_common(data_dir, out, extra=extra)],
                cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            spans |= {span[2] for span in json.loads(trace.read_text())["spans"]}
        assert {"decompose.retrieve_examples", "decompose.assemble_prompt",
                "decompose.prompted_claim_texts", "llm.request",
                "validate.judge_decomposition", "validate.judge_facts",
                "metrics.results_from_judgments", "metrics.method_report"} <= spans


class TestStdlibRuntime:
    def test_cli_imports_no_third_party_runtime(self):
        code = ("import sys, claimdecomp.cli; "
                "print(sorted({'numpy', 'requests', 'urllib3'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                              env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
