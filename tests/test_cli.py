import csv
import json
import os
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import pytest

from claimdecomp import cli
from claimdecomp.llm import CompletionError

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
        index.write_text(text[:text.index('"chunks": [') + len('"chunks": [')],
                         encoding="utf-8")
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, ["--index", str(index)])]) == 2
        assert "malformed index file" in capsys.readouterr().err

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
        assert f"{damaged}:{len(lines)}: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        lambda r: r.pop("ordinal"),
        lambda r: r.update(passage_id="alpha/Ada Example"),
    ], ids=["missing", "extra"])
    def test_record_with_wrong_fields(self, data_dir, tmp_path, capsys, change):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        path = out / "subclaims-rnd.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        change(records[1])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 2
        assert "subclaims-rnd.jsonl:2: expected a record with fields" in \
            capsys.readouterr().err


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
    judgment stages call; a refactor that stops calling them through those
    names detaches its per-layer metrics."""

    def test_tracer_sees_the_judgment_layers(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        spans = set()
        for stage, extra in (("decompscore", []), ("factscore", [
                "--knowledge", str(data_dir / "knowledge_small.jsonl")])):
            trace = tmp_path / f"{stage}.trace.json"
            proc = subprocess.run(
                [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(trace), stage,
                 "--", stage, *_common(data_dir, out, extra=extra)],
                cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            spans |= {span[2] for span in json.loads(trace.read_text())["spans"]}
        assert {"validate.judge_decomposition", "validate.judge_facts",
                "metrics.results_from_judgments", "metrics.method_report"} <= spans
