import argparse
import base64
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from operator import setitem
from pathlib import Path

import pytest

from claimdecomp import cli, llm, predarg, validate
from claimdecomp.llm import (API_KEY_ENV, ENDPOINT_URL_ENV, CompletionError,
                             CompletionResponse, HttpCompletionClient, MockCompletionClient)
from claimdecomp.metrics import MetricsError

REPO = Path(__file__).resolve().parents[1]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _cache_content(cache: Path) -> dict[tuple[str, str], dict]:
    """Every entry of the role logs under ``cache`` by (role, key): lines
    follow completion order, so caches compare by content."""
    return {(log.parent.name, entry["key"]): entry
            for log in sorted(cache.glob("*/responses.jsonl"))
            for entry in map(json.loads, log.read_bytes().splitlines())}


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


# SHA-256 of each file that rnd, factscore, wice, chen and fs2, selected in
# that order, write through all three stages on the fixture at --max-inflight
# 1. A change that alters output bytes on purpose updates this table and says so.
GOLDEN_DIGESTS = {
    "avg_subclaims.csv": "07d6eb8d952834a07233e4d2e2050a712cf251124454ae8ac0efbd8d7acd9a1d",
    "avg_subclaims_raw.csv": "07cd45cb4d39992e34557f6968a7ca123c26b190831bc4d9c645e923c3eebd0b",
    "coherence.csv": "a2832ecc042a402ced2e079e2a3da56c28c34c3957f5cf88248eb9f76bf0a5da",
    "coherence_raw.csv": "8e4cd36a1abad89636e6cf36b4a5e368e7f26d6dd3c66c02ac554b9ca869875a",
    "decompscore.csv": "8aeb6201d2fb4a70b134ae8bf5b01b155fe3470340e2395e2fc582becaa4410b",
    "decompscore_raw.csv": "153dafd4b4a7c2f4a7da364a985e3bab4a42a72ebd28c368de40ab1dbc708a3d",
    "factscore.csv": "b3afc92a8b020c2a4f4cc2bfac64b90f5ab4bea620fcabe45ae64ae823e2567e",
    "factscore_raw.csv": "57f21829c0c36604800e5bc3928d8aa046bdff69b9b67911834fd4db39a837d9",
    "filtered_factscore.csv": "aa4d7cc9e8a7c1c5e5982e3ccba1c4c32b42c2dca1e9349ea87ac9174386f458",
    "filtered_factscore_raw.csv": "db7712ae210f8bf32a6ffb2385fbc9d6fbe9ab706d4e8ff6ee0c8f854163cae8",
    "knowledge-judgments-chen.jsonl": "5e03cbfa9b4ba5ae81bf5334b8eb5d7ded268a3e885886aec6ee2e210382b835",
    "knowledge-judgments-factscore.jsonl": "9cc735a1ee1018d1be85fb5e571cae53d326e722c9b450967eadd257f445cdfe",
    "knowledge-judgments-fs2.jsonl": "50201e12dcbd15a825cccc454936b3d8970231163b365e972437065c2a364d91",
    "knowledge-judgments-rnd.jsonl": "6f0e628a184b3606121a90d43d6d25866df250b8f7c896a645a465837d53dab2",
    "knowledge-judgments-wice.jsonl": "36d4a7e502a67330d287233d4dfdc996f9b45cf1426401622ee63457fb8afe56",
    "scatter.csv": "af3cfd60231fe22a8f25f8451818aaa1f6eba832c12883a3da9b5c3e2ae3735f",
    "sentence-judgments-chen.jsonl": "5d14e84f84fddbf769e3f63a4774898931bfddc747767f75c96e35e716e70797",
    "sentence-judgments-factscore.jsonl": "baedc0cfa277f3069d4a77982a32b0e90e0d2b14ac7ff47ca8522bb540b50f76",
    "sentence-judgments-fs2.jsonl": "957bd54f34a7f483ac981822fd7b7244d008af83705b3849a7f2841b59317a58",
    "sentence-judgments-rnd.jsonl": "e6557b64f88e92fff039b88541af3ec0fc058a8fbe3221b11d2ce4c0779382f0",
    "sentence-judgments-wice.jsonl": "053f75cba013ad1d045393c1ffab2385932e63a8d75bb7f10b796ebbf7f1a964",
    "subclaims-chen.jsonl": "d91661f2a482b9fca168d2e5368f9c2a51f08137d018d112dfdec0af034373a3",
    "subclaims-factscore.jsonl": "2e5bf313fdda2cdfec4bcc125263d53cfebb437f3e9f1b42cbd168de96999bc4",
    "subclaims-fs2.jsonl": "6b1c1fdc22b100b01df97d9e7e24b705fd53a08e13a6967887d85385a40106a7",
    "subclaims-rnd.jsonl": "ab60c3d2105260ca20ee450075920a502f2bdbca777a7519ad0c022ff4a636c2",
    "subclaims-wice.jsonl": "94a7666205f72eac189c24803febf713dae883aebcf7deee821bd55c4a4144f0",
}


def _decompose(data_dir, out_dir, methods, extra=()) -> int:
    return cli.main(["decompose", "--generations", str(data_dir / "generations_small.jsonl"),
                     "--mock-responses", str(data_dir / "mock_responses.json"),
                     *(arg for name in methods for arg in ("--method", name)),
                     "--output-dir", str(out_dir), *extra])


def _first_passage_only(full: Path, resumed: Path, method: str = "rnd") -> None:
    """Write to ``resumed`` a subclaims file of ``method`` that holds only
    the first passage of ``full``'s, as a partial file would."""
    name = f"subclaims-{method}.jsonl"
    lines = (full / name).read_text(encoding="utf-8").splitlines(keepends=True)
    resumed.mkdir(parents=True, exist_ok=True)
    (resumed / name).write_text(
        "".join(l for l in lines if '"topic": "Ada Example"' in l
                and '"generator": "alpha"' in l), encoding="utf-8")


@pytest.fixture()
def pool_maps(monkeypatch):
    """The items of each ``map`` call on a stage pool, in call order."""
    maps = []

    class RecordingPool(ThreadPoolExecutor):
        def map(self, fn, items):
            maps.append(list(items))
            return super().map(fn, maps[-1])

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    return maps


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

        # a partial file is replaced whole, not extended
        _first_passage_only(full_dir, resumed_dir)
        assert cli.main(["decompose", *_common(data_dir, resumed_dir)]) == 0
        resumed = (resumed_dir / "subclaims-rnd.jsonl").read_text(encoding="utf-8")
        assert resumed == full

    def test_five_methods_match_golden_digests(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        methods = ("factscore", "wice", "chen", "fs2")  # after _common's rnd
        extra = [*(arg for name in methods for arg in ("--method", name)), "--max-inflight", "1"]
        stdout = {}
        for stage, more in (("decompose", []), ("decompscore", []), ("factscore", [
                "--knowledge", str(data_dir / "knowledge_small.jsonl")])):
            assert cli.main([stage, *_common(data_dir, out, [*extra, *more])]) == 0
            stdout[stage] = capsys.readouterr().out
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in _tree_bytes(out).items()} == GOLDEN_DIGESTS
        # each stage's whole stdout: the fixture degrades no path, so no count
        assert stdout == {
            "decompose": "".join(f"decompose[{name}]: {out / f'subclaims-{name}.jsonl'}\n"
                                 for name in ("rnd", *methods)),
            "decompscore": f"decompscore: {out / 'decompscore.csv'}\n",
            "factscore": f"factscore: {out / 'factscore.csv'}\n",
        }

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

    @pytest.mark.parametrize("filename, change, message", [
        ("decompscore_raw.csv", lambda rows: setitem(rows[1], 1, "95"),
         "decompscore_raw.csv cell (alpha, rnd) = 95 but judgments give 5"),
        ("decompscore.csv", lambda rows: setitem(rows[1], 1, "5.04"),
         "decompscore.csv cell (alpha, rnd) = 5.04 but judgments give 5.0"),
        ("decompscore.csv", lambda rows: rows.pop(),
         "decompscore.csv cell (macro-average, generator) = None but judgments give "
         "macro-average"),
        ("factscore.csv", lambda rows: rows.pop(2),
         "factscore.csv cell (beta, generator) = macro-average but judgments give beta"),
        ("decompscore.csv", lambda rows: setitem(rows[0], 1, "xyz"),
         "decompscore.csv lists method 'xyz', which is not among the audited methods"),
    ], ids=["raw-cell", "rounded-cell", "no-macro-row", "no-generator-row", "unknown-method"])
    def test_audit_requires_the_rendered_rows(self, data_dir, tmp_path, filename, change,
                                              message):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        with open(out / filename, newline="") as fh:
            rows = list(csv.reader(fh))
        change(rows)
        with open(out / filename, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(MetricsError) as caught:
            cli.audit_outputs(out, ["rnd"])
        assert str(caught.value).startswith(message)

    def test_audit_of_a_mixed_run(self, data_dir, tmp_path):
        # each report file is rendered for the methods it lists
        out = tmp_path / "out"
        both = ["--method", "wice"]
        assert cli.main(["decompose", *_common(data_dir, out, both)]) == 0
        assert cli.main(["decompscore", *_common(data_dir, out, both)]) == 0
        assert cli.main(["factscore", *_common(
            data_dir, out, ["--knowledge", str(data_dir / "knowledge_small.jsonl")])]) == 0
        cli.audit_outputs(out, ["rnd", "wice"])

    def test_audit_requires_the_sentence_judgments(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        (out / "sentence-judgments-rnd.jsonl").unlink()
        with pytest.raises(cli.ConfigError) as caught:
            cli.audit_outputs(out, ["rnd"])
        assert str(caught.value) == \
            f"missing {out / 'sentence-judgments-rnd.jsonl'}; run decompscore first"

    def test_audit_names_a_report_file_that_is_not_utf8(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        (out / "decompscore.csv").write_bytes(b"generator,rnd\nCaf\xe9,5.0\n")
        with pytest.raises(cli.ConfigError) as caught:
            cli.audit_outputs(out, ["rnd"])
        assert str(caught.value).startswith(f"{out / 'decompscore.csv'}: not UTF-8: ")

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

    def test_rerun_replaces_the_temp_file_of_a_killed_run(self, data_dir, tmp_path):
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, clean)]) == 0
        out.mkdir()
        # a run killed between writing its temp file and renaming it over the output
        (out / ".subclaims-rnd.jsonl.tmp").write_text("partial", encoding="utf-8")
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert _tree_bytes(out) == _tree_bytes(clean)

    @pytest.mark.parametrize("fail", ["judgments", "report"])
    def test_failed_write_leaves_the_earlier_file_whole(self, data_dir, tmp_path, monkeypatch,
                                                        capsys, fail):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        before = _tree_bytes(out)
        if fail == "judgments":
            dump_line, lines = cli._dump_line, iter(range(3))

            def failing_dump_line(record):
                if next(lines, None) is None:
                    raise OSError(28, "No space left on device")
                return dump_line(record)

            monkeypatch.setattr(cli, "_dump_line", failing_dump_line)
        else:
            class FailingWriter:
                """Writes the first row, then fails as a full disk does."""

                def __init__(self, fh):
                    self.fh = fh

                def writerows(self, rows):
                    self.fh.write(",".join(rows[0]) + "\r\n")
                    raise OSError(28, "No space left on device")

            monkeypatch.setattr(csv, "writer", FailingWriter)
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert _tree_bytes(out) == before  # no temp file left either

    def test_judgment_stages_ignore_parses(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(data_dir, out)
        before = _tree_bytes(out)
        # parses of other sentences, which decompose would refuse
        parses = ["--parses", str(data_dir / "predarg_parses.conllu")]
        assert cli.main(["decompscore", *_common(data_dir, out, parses)]) == 0
        assert cli.main(["factscore", *_common(data_dir, out, [
            "--knowledge", str(data_dir / "knowledge_small.jsonl"), *parses])]) == 0
        assert _tree_bytes(out) == before

    def test_stages_run_clean_in_dev_mode(self, data_dir, tmp_path):
        # -X dev reports unclosed files and descriptors; -W error makes them fatal.
        # Each command runs through cli.entrypoint, which calls gc.freeze() first.
        knowledge = str(data_dir / "knowledge_small.jsonl")
        args = _common(data_dir, tmp_path / "out",
                       ["--method", "wice", "--cache-dir", str(tmp_path / "cache")])
        tables = [str(REPO / "src" / "claimdecomp" / "data" / f"benchmark_agreement_{side}.csv")
                  for side in "ab"]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        for command in (["index", "build", "--knowledge", knowledge,
                         "--out", str(tmp_path / "index.json")],
                        ["decompose", *args], ["decompscore", *args],
                        ["factscore", *args, "--knowledge", knowledge],
                        ["correlate", *tables, "--columns", "factscore",
                         "--out", str(tmp_path / "rho.csv")]):
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "claimdecomp.cli", *command],
                cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), command[0]


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

    def test_no_generations_configured(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["decompose", "--mock-responses", str(data_dir / "mock_responses.json"),
                       "--output-dir", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "error: no generations file configured\n"

    def test_no_endpoint_configured(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CLAIMDECOMP_ENDPOINT_URL", raising=False)
        rc = cli.main(["decompose",
                       "--generations", str(data_dir / "generations_small.jsonl"),
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: no endpoint configured: pass --endpoint, set {ENDPOINT_URL_ENV}, "
            "or use --mock-responses\n")

    def test_empty_endpoint_variable_is_no_endpoint(self, data_dir, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setenv(ENDPOINT_URL_ENV, "")
        out = tmp_path / "out"
        rc = cli.main(["decompose", "--generations", str(data_dir / "generations_small.jsonl"),
                       "--output-dir", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("error: no endpoint configured: pass --endpoint")

    # each refused URL's reason, which the message names after the URL
    REFUSED_URLS = {
        "localhost:9": "is not an http or https URL",
        "file:///nowhere": "is not an http or https URL",
        "http://": "names no host",
        "http:///v1/completions": "names no host",
        "http://localhost:notaport/v1": "has a port that is not a number from 1 to 65535",
        "http://host:70000/v1": "has a port that is not a number from 1 to 65535",
        "http://a..b/v1": "has a host, 'a..b', that the IDNA codec refuses",
        "http://127.0.0.1:9/vé": "is not printable ASCII without spaces",
    }

    @pytest.mark.parametrize("url", REFUSED_URLS)
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_endpoint_url_not_http(self, data_dir, tmp_path, capsys, monkeypatch, url, source):
        monkeypatch.delenv(ENDPOINT_URL_ENV, raising=False)
        extra = []
        if source == "flag":
            extra = ["--endpoint", url]
        else:
            monkeypatch.setenv(ENDPOINT_URL_ENV, url)
        cache = tmp_path / "cache"
        rc = cli.main(["decompose", "--generations", str(data_dir / "generations_small.jsonl"),
                       "--output-dir", str(tmp_path / "out"), "--cache-dir", str(cache), *extra])
        assert rc == 2
        assert capsys.readouterr().err == f"error: endpoint {url!r} {self.REFUSED_URLS[url]}\n"
        assert not cache.exists() and not (tmp_path / "out").exists()

    def test_api_key_not_a_header_value(self, data_dir, tmp_path, capsys, monkeypatch):
        sent = []
        monkeypatch.setattr("claimdecomp.llm.post_json", lambda *args: sent.append(args))
        monkeypatch.setenv(API_KEY_ENV, "abc\ndef")
        out, cache = tmp_path / "out", tmp_path / "cache"
        rc = cli.main(["decompose", "--generations", str(data_dir / "generations_small.jsonl"),
                       "--endpoint", "http://localhost:9/v1", "--output-dir", str(out),
                       "--cache-dir", str(cache)])
        assert rc == 2 and sent == []
        assert capsys.readouterr().err == (
            f"error: the API key ({API_KEY_ENV} or api_key) is not printable ASCII\n")
        assert not cache.exists() and not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("http://proxy:notaport", "Port could not be cast to integer value as 'notaport'"),
        ("http://[::1", "Invalid IPv6 URL"),
    ], ids=["port", "ipv6"])
    def test_malformed_proxy_setting_is_not_retried(self, data_dir, tmp_path, capsys,
                                                    monkeypatch, setting, message):
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", setting)
        out, cache = tmp_path / "out", tmp_path / "cache"
        started = time.monotonic()
        rc = cli.main(["decompose", "--generations", str(data_dir / "generations_small.jsonl"),
                       "--method", "rnd", "--endpoint", "http://127.0.0.1:9/v1",
                       "--max-inflight", "2", "--output-dir", str(out),
                       "--cache-dir", str(cache)])
        # exit 2 at the first connection: no attempt sent again and no hold
        assert rc == 2 and time.monotonic() - started < 1.0
        assert capsys.readouterr() == ("", f"error: http_proxy {setting!r}: {message}\n")
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize("method", ["predpatt", "conllu"])
    def test_method_needing_parses_run_without_them(self, data_dir, tmp_path, capsys, method):
        # rnd comes first: no request of it may be sent before the run fails
        out, cache = tmp_path / "out", tmp_path / "cache"
        extra = ["--method", method, "--cache-dir", str(cache),
                 "--bank", f"conllu={data_dir / 'conllu_bank.jsonl'}"]
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 2
        assert capsys.readouterr().err == (
            f"error: method {method!r} needs sentence parses (--parses PATH)\n")
        assert not out.exists() and not cache.exists()

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

    def test_index_of_format_version_2_is_not_rescored(self, data_dir, tmp_path, capsys):
        # version 2 saved BM25's k1 and b; version 3 scores at retrieval.K1 and retrieval.B
        index = tmp_path / "index.json"
        assert cli.main(["index", "build", "--knowledge",
                         str(data_dir / "knowledge_small.jsonl"), "--out", str(index)]) == 0
        payload = json.loads(index.read_text(encoding="utf-8"))
        assert payload["version"] == 3 and not payload.keys() & {"k1", "b"}
        index.write_text(json.dumps({**payload, "version": 2, "k1": 1.2, "b": 0.75}),
                         encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, ["--index", str(index)])]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed index file {index}: format version 2; "
            "rebuild it with claimdecomp index build\n")
        assert not (out / "knowledge-judgments-rnd.jsonl").exists()

    def test_factscore_requires_knowledge_or_index(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert cli.main(["factscore", *_common(data_dir, out)]) == 2

    @pytest.mark.parametrize("stage, damaged", [
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
        ("factscore", "sentence-judgments-rnd.jsonl", lambda r: r.update(text="two\nlines"),
         "subclaim text must be a non-empty single line"),
    ], ids=["missing", "extra", "str-sentence-index", "int-text", "str-supported",
            "int-supported", "two-line-judged-text"])
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

    def test_generator_a_method_lacks(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        both = ["--method", "wice"]
        assert cli.main(["decompose", *_common(data_dir, out, both)]) == 0
        path = out / "subclaims-wice.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(l for l in lines if '"generator": "beta"' not in l),
                        encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["decompscore", *_common(data_dir, out, both)]) == 2
        assert capsys.readouterr().err == (
            "error: method 'wice' has no subclaims for generator 'beta'\n")

    def test_sentence_judgments_checked_before_any_request(self, data_dir, tmp_path, capsys):
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 0
        path = out / "subclaims-rnd.jsonl"
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(first | {"ordinal": 99}) + "\n")
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl"), "--cache-dir", str(cache)]
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, extra)]) == 2
        assert capsys.readouterr().err.startswith("error: missing sentence judgment for ")
        assert not [p for p in cache.rglob("*") if p.is_file()]
        assert not (out / "knowledge-judgments-rnd.jsonl").exists()

    def test_judgment_of_a_rewritten_subclaim_is_refused(self, data_dir, tmp_path, capsys):
        # a subclaims file rewritten under the same keys after decompscore
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 0
        path = out / "subclaims-rnd.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        old = json.loads(first)
        path.write_text("".join([json.dumps(old | {"text": "Ada was born in Lima."}) + "\n",
                                 *rest]), encoding="utf-8")
        key = (old["generator"], old["topic"], "rnd", old["sentence_index"], old["ordinal"])
        message = (f"sentence judgment for {key} is of {old['text']!r}, but the subclaim "
                   "reads 'Ada was born in Lima.'; rerun decompscore")
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl"), "--cache-dir", str(cache)]
        capsys.readouterr()
        assert cli.main(["factscore", *_common(data_dir, out, extra)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not [p for p in cache.rglob("*") if p.is_file()]
        with pytest.raises(MetricsError) as caught:
            cli.audit_outputs(out, ["rnd"])
        assert str(caught.value) == message

    @pytest.mark.parametrize("stage, config", [
        ("decompose", {"max_inflight": "8"}),
        ("factscore", {"chunk_words": "5"}),
        ("decompose", {"max_inflight": True}),
        ("decompose", {"methods": "rnd"}),
    ], ids=["str-for-int", "str-for-int-factscore", "bool-for-int", "str-for-list"])
    def test_config_value_of_wrong_type(self, data_dir, tmp_path, capsys, stage, config):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        extra = ["--config", str(config_path), "--knowledge",
                 str(data_dir / "knowledge_small.jsonl")]
        assert cli.main([stage, *_common(data_dir, tmp_path / "out", extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {config_path}: field {next(iter(config))!r} "
                              "must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage, change, key", [
        ("decompscore", lambda spec: {"decomposer": spec["decomposer"],
                                      "validatr": spec["validator"]}, "validatr"),
        ("decompose", lambda spec: spec | {"decomposer": {"defualt": "x"}}, "defualt"),
        ("decompose", lambda spec: {"defualt": "x"}, "defualt"),
        ("decompscore", lambda spec: {"decomposer": spec["decomposer"]}, "validator"),
    ], ids=["misspelt-role", "misspelt-parameter", "misspelt-shared-parameter",
            "missing-role"])
    def test_mock_responses_key_checked(self, data_dir, tmp_path, capsys, stage, change, key):
        out, mock = tmp_path / "out", tmp_path / "mock.json"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        mock.write_text(json.dumps(change(json.loads(
            (data_dir / "mock_responses.json").read_text(encoding="utf-8")))), encoding="utf-8")
        capsys.readouterr()
        assert cli.main([stage, *_common(data_dir, out), "--mock-responses", str(mock)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mock}") and repr(key) in err, err

    @pytest.mark.parametrize("key, value", [("chunk_words", 0)])
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

    @pytest.mark.parametrize("change, message", [
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
        (lambda p: p.update(chunk_words=0), "chunk_words must be >= 1, got 0"),
    ], ids=["float-chunk-words", "int-title", "title-not-consecutive", "int-title-chunks",
            "bad-base64", "base64-length", "partial-item", "title-chunks-count",
            "zero-title-chunks", "title-chunks-sum", "lengths-count", "duplicate-term",
            "counts-count", "zero-count", "counts-sum", "tfs-count", "positions-not-ascending",
            "position-out-of-range", "zero-tf", "zero-chunk-words"])
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
        ("bank", '{"sentence": "", "subclaims": ["x"]}'),
        ("generations", '"topic generator output"'),
        ("generations", '{"topic": "Ada Example", "generator": "alpha", "output": 7}'),
        ("generations", '{"topic": "Ada Example", "generator": "alpha", "output": "A."}\n'
                        '{"topic": "Ada Example", "generator": "alpha", "output": "B."}'),
        ("generations", '{"topic": "", "generator": "alpha", "output": "A."}'),
        ("knowledge", '"x"'),
        ("knowledge", '{"title": "Ada Example", "text": 5}'),
        ("knowledge", '{"title": "Café", "text": "x"}'),
        ("knowledge", '{"title": "Ada Example", "text": "x"}\n'
                      '{"title": "Ada Example", "text": "y"}'),
        ("mock", "[]"),
        ("mock", '{"default": 5}'),
        ("mock", '{"rules": [["k"]]}'),
        ("mock", '{"table": [1, 2]}'),
        ("mock", '{"decomposer": "x"}'),
        ("mock", '{"decomposer": {"length_error_substrings": "k"}}'),
        ("mock", '{"default": "é"}'),
    ], ids=["bank-list", "bank-str-subclaims", "bank-nested-subclaims", "bank-empty-sentence",
            "generations-string", "generations-int-output", "generations-repeated-pair",
            "generations-empty-topic", "knowledge-string", "knowledge-int-text",
            "knowledge-latin-1", "knowledge-repeated-title", "mock-list", "mock-int-default",
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

    @pytest.mark.parametrize("kind", ["correlate", "parses", "index"])
    def test_file_not_utf8(self, data_dir, tmp_path, capsys, kind):
        bad = tmp_path / f"{kind}.txt"
        where = bad
        if kind == "correlate":
            bad.write_bytes(b"generator,metric\nCaf\xe9,1.0\n")
            argv = ["correlate", str(bad), str(bad), "--columns", "metric"]
        elif kind == "parses":
            bad.write_bytes(b"# text = Caf\xe9\n")
            argv = ["decompose", *_common(data_dir, tmp_path / "out"), "--parses", str(bad)]
        else:
            bad.write_bytes(b'{"version": "Caf\xe9"}')
            argv = ["index", "search", "--index", str(bad), "--query", "films"]
            where = f"malformed index file {bad}"
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: not UTF-8: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["correlate", "audit"])
    def test_malformed_csv(self, data_dir, tmp_path, capsys, kind):
        # a cell longer than the csv module's field size limit
        rows = f"generator,rnd\n{'x' * 200_000},1.0\n"
        if kind == "correlate":
            bad = tmp_path / "big.csv"
            bad.write_text(rows, encoding="utf-8")
            assert cli.main(["correlate", str(bad), str(bad), "--columns", "rnd"]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
        else:
            run_pipeline(data_dir, tmp_path / "out")
            bad = tmp_path / "out" / "decompscore.csv"
            bad.write_text(rows, encoding="utf-8")
            with pytest.raises(cli.ConfigError) as caught:  # exit 2 in a command
                cli.audit_outputs(tmp_path / "out", ["rnd"])
            err = f"error: {caught.value}"
        assert err.startswith(f"error: {bad}: malformed CSV: ")


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


def _mock_clients(monkeypatch, n=math.inf) -> list[FailingOnCall]:
    """Make each mock client a stage builds from here on fail from its call
    ``n`` on, as FailingOnCall does, under the stage's cache if it has one;
    the returned list collects those clients in the order they are built."""
    clients = []

    def build(**spec):
        clients.append(FailingOnCall(MockCompletionClient(**spec), n))
        return clients[-1]

    monkeypatch.setattr(cli, "MockCompletionClient", build)
    return clients


class FirstAttemptThrottledHandler(BaseHTTPRequestHandler):
    """Answers "True" to each completion request, except the first attempt
    at each prompt that contains ``server.marker``: that gets a bare 429,
    and the prompt is added to ``server.throttled``."""

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
        with self.server.lock:
            refused = self.server.marker in prompt and prompt not in self.server.throttled
            if refused:
                self.server.throttled.add(prompt)
        data = b"slow down" if refused else b'{"choices": [{"text": "True"}]}'
        self.send_response(429 if refused else 200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestStagePool:
    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_outputs_independent_of_max_inflight(self, data_dir, tmp_path, cache):
        trees, caches = [], []
        for width in ("1", "8"):
            out = tmp_path / f"width-{width}"
            extra = ["--max-inflight", width]
            if cache:
                extra += ["--cache-dir", str(tmp_path / f"cache-{width}")]
            run_pipeline(data_dir, out, extra)
            trees.append(_tree_bytes(out))
            caches.append(_cache_content(tmp_path / f"cache-{width}"))
        assert trees[0] == trees[1]
        assert caches[0] == caches[1] and bool(caches[0]) is cache

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

    def test_one_map_per_decompose_stage(self, data_dir, tmp_path, pool_maps):
        alone = {}
        for name in ("rnd", "wice"):
            assert _decompose(data_dir, tmp_path / name, [name]) == 0
            alone[name] = (tmp_path / name / f"subclaims-{name}.jsonl").read_bytes()
        pool_maps.clear()
        out = tmp_path / "both"
        assert _decompose(data_dir, out, ["rnd", "wice"], ["--max-inflight", "1"]) == 0
        # the fixture's 4 passages for each of the 2 methods, in one call
        assert [len(items) for items in pool_maps] == [8]
        for name in ("rnd", "wice"):
            assert (out / f"subclaims-{name}.jsonl").read_bytes() == alone[name], name

    @pytest.mark.parametrize("width", ["1", "8"])
    def test_resume_across_methods(self, data_dir, tmp_path, monkeypatch, pool_maps, width):
        full, resumed, log = tmp_path / "full", tmp_path / "resumed", tmp_path / "log"
        generations = (data_dir / "generations_small.jsonl").read_text(encoding="utf-8")
        first = tmp_path / "first.jsonl"
        first.write_text(generations.splitlines(keepends=True)[0], encoding="utf-8")
        assert _decompose(data_dir, full, ["rnd", "wice"]) == 0
        sent = _mock_clients(monkeypatch)
        assert _decompose(data_dir, tmp_path / "wice", ["wice"]) == 0
        # the log answers all of rnd and wice's first passage, as after an interrupt
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert _decompose(data_dir, log, ["rnd"], cache) == 0
        assert _decompose(data_dir, log, ["wice"], [*cache, "--generations", str(first)]) == 0
        pool_maps.clear()
        assert _decompose(data_dir, resumed, ["rnd", "wice"],
                          [*cache, "--max-inflight", width]) == 0
        # the rerun builds every job, and only the unanswered requests reach the endpoint
        passages = [(r["generator"], r["topic"]) for r in map(json.loads, generations.splitlines())]
        assert [[(method.name, passage.generator, passage.topic) for method, passage in items]
                for items in pool_maps] == [[(name, *key) for name in ("rnd", "wice")
                                             for key in passages]]
        wice, _, wice_first, rerun = ([r.prompt for r in client.inner.calls] for client in sent)
        assert wice_first and sorted(rerun) == sorted(set(wice) - set(wice_first))
        assert _tree_bytes(resumed) == _tree_bytes(full)

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
        written = out / "subclaims-rnd.jsonl"  # absent if the first passage failed
        assert (written.read_text(encoding="utf-8") if written.exists() else "") in prefixes

        monkeypatch.setattr(cli, "_build_client", build_client)
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        assert (out / "subclaims-rnd.jsonl").read_text(encoding="utf-8") == full

    def test_endpoint_failure_before_any_passage_writes_no_file(self, data_dir, tmp_path,
                                                                capsys, monkeypatch):
        build_client = cli._build_client
        monkeypatch.setattr(cli, "_build_client",
                            lambda cfg, role: FailingOnCall(build_client(cfg, role), 1))
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out, ["--max-inflight", "4"])]) == 3
        assert not (out / "subclaims-rnd.jsonl").exists()
        capsys.readouterr()
        monkeypatch.setattr(cli, "_build_client", build_client)
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 2
        assert capsys.readouterr().err == \
            f"error: missing {out / 'subclaims-rnd.jsonl'}; run decompose first\n"

    @pytest.mark.parametrize("stage", ["decompscore", "factscore"])
    def test_endpoint_failure_in_judgment_stage(self, data_dir, tmp_path, capsys,
                                                monkeypatch, stage):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        if stage == "factscore":  # which needs the sentence judgments
            assert cli.main(["decompscore", *_common(data_dir, out)]) == 0
        build_client = cli._build_client
        monkeypatch.setattr(cli, "_build_client",
                            lambda cfg, role: FailingOnCall(build_client(cfg, role), 3))
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl"), "--max-inflight", "4"]
        capsys.readouterr()
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 3
        err = capsys.readouterr().err
        assert "endpoint error: injected failure" in err and "Traceback" not in err
        assert not cli.jsonl_path(out, stage, "rnd").exists()

    def test_http_run_reports_resends_as_one_count(self, data_dir, tmp_path, monkeypatch,
                                                   capsys, caplog):
        # which failures halve the window and which hold every worker depends
        # on timing; how many are sent again is fixed by the endpoint's answers
        monkeypatch.setattr(llm, "BACKOFF_S", 0.01)
        server = ThreadingHTTPServer(("127.0.0.1", 0), FirstAttemptThrottledHandler)
        server.lock, server.marker = threading.Lock(), "Ada Example"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        out = tmp_path / "out"
        args = ["--generations", str(data_dir / "generations_small.jsonl"), "--method", "rnd",
                "--output-dir", str(out)]
        assert cli.main(["decompose", *args, "--mock-responses",
                         str(data_dir / "mock_responses.json")]) == 0
        runs = []
        try:
            for _ in range(2):
                server.throttled = set()
                capsys.readouterr()
                assert cli.main(["decompscore", *args, "--max-inflight", "4", "--endpoint",
                                 f"http://127.0.0.1:{server.server_address[1]}/v1"]) == 0
                runs.append((capsys.readouterr(), _tree_bytes(out), len(server.throttled)))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        (captured, tree, throttled), again = runs
        assert again == runs[0] and throttled > 0 and caplog.records == []
        assert captured == (
            f"decompscore: {out / 'decompscore.csv'}\n"
            f"warning: {throttled} endpoint attempts failed transiently and were sent again\n",
            "")

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
        assert batches[0] == sum(len(cli._load(out, "decompose", name)) for name in ("rnd", "wice"))
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
        if stage == "factscore":  # its sentence judgments, from outside the cache
            assert cli.main(["decompscore", *_common(data_dir, out)]) == 0
        _mock_clients(monkeypatch, n)
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 3
        assert sum(role == "validator" for role, _ in _cache_content(cache)) == n - 1

        _mock_clients(monkeypatch)
        clean = tmp_path / "clean"
        run_pipeline(data_dir, clean)
        assert cli.main([stage, *_common(data_dir, out, extra)]) == 0
        path = cli.jsonl_path(Path(), stage, "rnd").name
        assert (out / path).read_bytes() == (clean / path).read_bytes()


class TestResumeByReplay:
    """A stage's outputs are a function of its inputs and its responses: a
    rerun rebuilds every request, and with --cache-dir the response log
    answers each one it already holds."""

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:3],  # 3 of the first passage's 6 lines
        lambda lines: [lines[0], lines[1][:len(lines[1]) // 2]],
        lambda lines: [*lines[:-1], lines[-1][:len(lines[-1]) // 2]],
        lambda lines: [json.dumps(json.loads(lines[0]) | {"text": "two\nlines"}) + "\n",
                       *lines[1:]],
    ], ids=["first-three-lines", "cut-in-second-line", "cut-in-last-line", "two-line-text"])
    def test_rerun_replaces_a_damaged_subclaims_file(self, data_dir, tmp_path, monkeypatch,
                                                      damage):
        out, extra = tmp_path / "out", ["--cache-dir", str(tmp_path / "cache")]
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 0
        path = out / "subclaims-rnd.jsonl"
        clean = path.read_bytes()
        path.write_text("".join(damage(clean.decode().splitlines(keepends=True))),
                        encoding="utf-8")
        sent = _mock_clients(monkeypatch)
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 0
        assert path.read_bytes() == clean and [client.calls for client in sent] == [0]

    def test_rerun_on_a_changed_input_matches_a_clean_run(self, data_dir, tmp_path):
        # the mock cuts the changed first sentence into one subclaim, not two
        mock = json.loads((data_dir / "mock_responses.json").read_text(encoding="utf-8"))
        mock["decomposer"]["rules"].insert(0, ["born in Lima", "- Ada Example was born in Lima."])
        (tmp_path / "mock.json").write_text(json.dumps(mock), encoding="utf-8")
        given = data_dir / "generations_small.jsonl"
        changed = tmp_path / "changed.jsonl"
        changed.write_text(given.read_text(encoding="utf-8").replace(
            "born in Zurich", "born in Lima", 1), encoding="utf-8")

        def run(out, generations, extra=()):
            for stage in ("decompose", "decompscore"):
                assert cli.main([stage, *_common(data_dir, out, [
                    "--mock-responses", str(tmp_path / "mock.json"),
                    "--generations", str(generations), *extra])]) == 0

        cache = ["--cache-dir", str(tmp_path / "cache")]
        run(tmp_path / "out", given, cache)
        run(tmp_path / "out", changed, cache)
        run(tmp_path / "clean", changed)
        assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "clean")

    @pytest.mark.parametrize("width", ["1", "4"])
    @pytest.mark.parametrize("stage, calls", [("decompose", 18), ("decompscore", 15),
                                              ("factscore", 15)])
    def test_rerun_after_a_failed_call_replays_the_log(self, data_dir, tmp_path, monkeypatch,
                                                        stage, calls, width):
        """For each call N of the stage: a run that fails from call N on
        exits 3 and replaces no file, and a rerun with its cache sends just
        the requests left unanswered."""
        extra = ["--method", "wice", "--knowledge", str(data_dir / "knowledge_small.jsonl"),
                 "--max-inflight", width]
        before = list(cli.JSONL_FILES)[:list(cli.JSONL_FILES).index(stage)]

        def run(stages, out, cache, n=math.inf):
            sent = _mock_clients(monkeypatch, n)
            codes = [cli.main([s, *_common(data_dir, out, [*extra, "--cache-dir", str(cache)])])
                     for s in stages]
            return codes, sum(client.calls for client in sent)

        base = tmp_path / "base"  # the earlier stages' outputs and cache
        (base / "out").mkdir(parents=True)
        assert run(before, base / "out", base / "cache")[0] == [0] * len(before)

        def copy(name):
            shutil.copytree(base, tmp_path / name)
            return tmp_path / name / "out", tmp_path / name / "cache"

        out, cache = copy("clean")
        assert run([stage], out, cache) == ([0], calls)
        clean = _tree_bytes(out)
        for n in range(1, calls + 1):
            out, cache = copy(f"fail-{n}")
            assert run([stage], out, cache, n)[0] == [3], n
            assert _tree_bytes(out) == _tree_bytes(base / "out"), n
            codes, sent = run([stage], out, cache)
            assert codes == [0] and sent == calls - (n - 1), n
            assert _tree_bytes(out) == clean, n


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

    def test_missing_column(self, benchmark_files, capsys):
        a, b = benchmark_files
        assert cli.main(["correlate", a, b, "--columns", "factscore,nope"]) == 2
        assert capsys.readouterr().err == f"error: missing column 'nope' in {a}\n"

    def test_empty_file(self, benchmark_files, tmp_path, capsys):
        a, _ = benchmark_files
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        assert cli.main(["correlate", a, str(empty), "--columns", "factscore"]) == 2
        assert capsys.readouterr().err == f"error: empty CSV {empty}\n"

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

    def test_out_into_a_missing_directory(self, benchmark_files, tmp_path):
        a, _ = benchmark_files
        out = tmp_path / "nodir" / "rho.csv"
        assert cli.main(["correlate", a, a, "--columns", "factscore", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["column,pearson_rho", "factscore,1.0000"]
        assert list(out.parent.iterdir()) == [out]


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

    def test_build_into_a_missing_directory(self, data_dir, tmp_path):
        index_path = tmp_path / "nodir" / "index.json"
        assert cli.main(["index", "build", "--knowledge", str(data_dir / "knowledge_small.jsonl"),
                         "--out", str(index_path)]) == 0
        assert list(index_path.parent.iterdir()) == [index_path]
        assert len(cli.load_index(index_path).chunks) > 0


class TestDegenerateInputs:
    def test_empty_method_column_omitted_with_warning(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "subclaims-rnd.jsonl").write_text("")
        assert cli.main(["decompscore", *_common(data_dir, out)]) == 0
        header = (out / "decompscore.csv").read_text().splitlines()[0]
        assert header == "generator"
        assert capsys.readouterr().out == (
            f"decompscore: {out / 'decompscore.csv'}\n"
            "warning: 1 methods produced no subclaims; their columns are omitted\n")

    def test_counts_print_when_the_stage_fails(self, data_dir, tmp_path, capsys):
        # rnd is counted as empty before wice's missing file stops the stage
        out = tmp_path / "out"
        out.mkdir()
        (out / "subclaims-rnd.jsonl").write_text("")
        assert cli.main(["decompscore", *_common(data_dir, out, ["--method", "wice"])]) == 2
        assert capsys.readouterr() == (
            "warning: 1 methods produced no subclaims; their columns are omitted\n",
            f"error: missing {out / 'subclaims-wice.jsonl'}; run decompose first\n")
        assert [p.name for p in out.iterdir()] == ["subclaims-rnd.jsonl"]

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
        # the table follows the line that names the stage's report
        assert capsys.readouterr().out.splitlines() == [
            f"factscore: {tmp_path / 'out' / 'factscore.csv'}",
            "warning: 5 unparseable validator answers counted as unsupported",
            "warning: 10 claims had an empty context (nothing retrieved, or no room left in "
            "the validator window) and count as unsupported",
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

    def test_factscore_without_sentence_judgments_exits_2(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out)]) == 0
        before = _tree_bytes(out)
        capsys.readouterr()
        extra = ["--knowledge", str(data_dir / "knowledge_small.jsonl")]
        assert cli.main(["factscore", *_common(data_dir, out, extra)]) == 2
        assert capsys.readouterr() == (
            "", f"error: missing {out / 'sentence-judgments-rnd.jsonl'}; run decompscore first\n")
        assert _tree_bytes(out) == before


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

    def test_cache_only_replays_window_rejections(self, data_dir, tmp_path):
        # a static example of the bundled bank: every first prompt is rejected
        spec = json.loads((data_dir / "mock_responses.json").read_text(encoding="utf-8"))
        spec["decomposer"]["length_error_substrings"] = [
            "She currently stars in the romantic comedy"]
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(spec), encoding="utf-8")
        cache = tmp_path / "cache"
        extra = ["--mock-responses", str(mock), "--cache-dir", str(cache)]
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "warm", extra)]) == 0
        assert any("context_length_error" in entry for entry in _cache_content(cache).values())

        assert cli.main(["decompose", *_common(data_dir, tmp_path / "replay", extra),
                         "--cache-only"]) == 0
        assert (tmp_path / "replay" / "subclaims-rnd.jsonl").read_bytes() == \
            (tmp_path / "warm" / "subclaims-rnd.jsonl").read_bytes()

    def test_cache_only_with_unreadable_entry_is_endpoint_error(self, data_dir, tmp_path,
                                                                 capsys):
        cache = tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "warm"),
                         "--cache-dir", str(cache)]) == 0
        log = cache / "decomposer" / "responses.jsonl"
        first, *rest = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(first[:80] + b"\n" + b"".join(rest))  # the key, then no entry
        capsys.readouterr()
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "replay"),
                       "--cache-dir", str(cache), "--cache-only"])
        assert rc == 3
        # counted on exit 3 too; no other entry is unreadable
        assert capsys.readouterr().out == \
            "warning: 1 unreadable cache entries were treated as misses\n"

    def test_cache_only_with_wrong_typed_entry_is_endpoint_error(self, data_dir, tmp_path,
                                                                  capsys):
        cache = tmp_path / "cache"
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "warm"),
                         "--cache-dir", str(cache)]) == 0
        log = cache / "decomposer" / "responses.jsonl"
        log.write_text("".join(json.dumps({**json.loads(line), "text": 5}) + "\n"
                               for line in log.read_text(encoding="utf-8").splitlines()),
                       encoding="utf-8")
        capsys.readouterr()
        rc = cli.main(["decompose", *_common(data_dir, tmp_path / "replay"),
                       "--cache-dir", str(cache), "--cache-only"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "endpoint error: cache miss" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cache_only_needs_cache_dir(self, data_dir, tmp_path, capsys, source):
        config = tmp_path / "run.json"
        config.write_text('{"cache_only": true}', encoding="utf-8")
        extra = ["--cache-only"] if source == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 2
        assert capsys.readouterr().err == "error: --cache-only needs --cache-dir\n"
        assert not out.exists()

    def test_per_file_cache_of_an_older_version(self, data_dir, tmp_path, capsys):
        out, cache = tmp_path / "out", tmp_path / "cache"
        old = cache / "decomposer"
        old.mkdir(parents=True)
        (old / f"{'0' * 64}.json").write_text('{"text": "x"}', encoding="utf-8")
        assert cli.main(["decompose", *_common(data_dir, out, ["--cache-dir", str(cache)])]) == 2
        assert capsys.readouterr().err == (
            f"error: {old} holds cache entries in an older per-file layout; "
            f"remove it or use another --cache-dir\n")
        assert not out.exists() and [p.name for p in old.iterdir()] == [f"{'0' * 64}.json"]

    def test_torn_log_line_is_sent_again_then_replays(self, data_dir, tmp_path, monkeypatch,
                                                      capsys):
        out, cache = tmp_path / "out", tmp_path / "cache"
        extra = ["--cache-dir", str(cache)]
        assert cli.main(["decompose", *_common(data_dir, out, extra)]) == 0
        assert cli.main(["decompscore", *_common(data_dir, out, extra)]) == 0
        clean = _tree_bytes(out)
        log = cache / "validator" / "responses.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines)[:-10])  # cut inside the last line

        clients = _mock_clients(monkeypatch)
        capsys.readouterr()
        assert cli.main(["decompscore", *_common(data_dir, out, extra)]) == 0
        assert [l for l in capsys.readouterr().out.splitlines() if l.startswith("warning:")] == [
            "warning: 1 cache entries cut short by an interrupted write were left out"]
        assert [client.calls for client in clients] == [1]
        assert _tree_bytes(out) == clean
        # the torn line got its newline, and the entry sent again a line of its own
        now = log.read_bytes().splitlines(keepends=True)
        assert now[:-1] == lines[:-1] + [lines[-1][:-10] + b"\n"]
        assert json.loads(now[-1]) == json.loads(lines[-1])

        assert cli.main(["decompscore", *_common(data_dir, out, extra), "--cache-only"]) == 0
        assert "warning:" not in capsys.readouterr().out and _tree_bytes(out) == clean


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

    @pytest.mark.parametrize("key", ["temperature", "max_tokens", "context_window",
                                     "retrieval_k"])
    def test_removed_setting_key_is_refused(self, data_dir, tmp_path, capsys, key):
        # the decomposer's settings and the retrieval depth are constants
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: 1}))
        out = tmp_path / "out"
        assert cli.main(["decompose", *_common(data_dir, out),
                         "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: config {config_path}: unknown keys [{key!r}]\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--temperature", "--max-tokens", "--context-window",
                                      "--retrieval-k"])
    def test_removed_setting_flag_is_a_usage_error(self, data_dir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as caught:
            cli.main(["factscore", *_common(data_dir, out), flag, "1"])
        assert caught.value.code == 2
        assert f"error: unrecognized arguments: {flag} 1\n" in capsys.readouterr().err
        assert not out.exists()

    def test_null_for_optional(self, data_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"endpoint_url": null}')
        assert cli.main(["decompose", *_common(data_dir, tmp_path / "out"),
                         "--config", str(config_path)]) == 0

    @pytest.mark.parametrize("stage", sorted(cli.JSONL_FILES))
    def test_each_run_config_field_has_one_stage_flag(self, stage):
        # --config names the file the fields come from; --bank fills example_banks
        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        dests = [{"bank": "example_banks"}.get(action.dest, action.dest)
                 for action in commands.choices[stage]._actions
                 if action.option_strings and action.dest not in ("help", "config")]
        assert Counter(dests) == Counter(f.name for f in dataclasses.fields(cli.RunConfig))


class TestRequestSettings:
    def test_each_role_sends_its_one_settings(self, data_dir, tmp_path):
        # every method on a sentence with a parse, so predpatt's fluency
        # rewrites go through the decomposer's log too
        generations, parses = tmp_path / "gen.jsonl", tmp_path / "one.conllu"
        generations.write_text(json.dumps({"topic": "Nash", "generator": "alpha",
                                           "output": "Nash earned degrees ."}) + "\n",
                               encoding="utf-8")
        block = (data_dir / "predarg_parses.conllu").read_text(encoding="utf-8").split("\n\n")[3]
        parses.write_text(block + "\n\n", encoding="utf-8")
        cache = tmp_path / "cache"
        argv = ["--generations", str(generations), "--parses", str(parses),
                "--mock-responses", str(data_dir / "mock_responses.json"),
                "--bank", f"conllu={data_dir / 'conllu_bank.jsonl'}",
                "--knowledge", str(data_dir / "knowledge_small.jsonl"),
                "--output-dir", str(tmp_path / "out"), "--cache-dir", str(cache)]
        for name in cli.method_registry():
            argv += ["--method", name]
        for stage in ("decompose", "decompscore", "factscore"):
            assert cli.main([stage, *argv]) == 0
        entries = _cache_content(cache)
        rewrite = predarg.FLUENCY_PROMPT_TEMPLATE.partition("{utterance}")[0]
        assert {e["prompt"].startswith(rewrite)
                for (role, _), e in entries.items() if role == "decomposer"} == {True, False}
        assert {(role, e["max_tokens"], e["temperature"]) for (role, _), e in entries.items()} \
            == {("decomposer", 512, 0.7), ("validator", 128, 0.0)}


class TestPredpattPipeline:
    @staticmethod
    def _decompose(data_dir, tmp_path, mock, method="predpatt") -> int:
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
                         "--method", method,
                         "--output-dir", str(tmp_path / "out")])

    def test_decompose_with_parses(self, data_dir, tmp_path):
        assert self._decompose(data_dir, tmp_path, data_dir / "mock_responses.json") == 0
        out = tmp_path / "out"
        records = [json.loads(l) for l in
                   (out / "subclaims-predpatt.jsonl").read_text().splitlines()]
        assert len(records) == 1

    def test_conllu_without_its_bank(self, data_dir, tmp_path, capsys):
        assert self._decompose(data_dir, tmp_path, data_dir / "mock_responses.json", "conllu") == 2
        assert capsys.readouterr().err == ("error: method 'conllu' needs a parse-bearing "
                                           "example bank (--bank conllu=PATH)\n")
        assert not (tmp_path / "out").exists()

    def test_rewrite_failure_is_endpoint_error(self, data_dir, tmp_path):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps({"length_error_substrings": ["Input:"]}))
        assert self._decompose(data_dir, tmp_path, mock) == 3


class TestBenchmarkHooks:
    """The benchmark's tracer wraps functions by the names the stages call
    them through, module globals and class attributes such as
    ``ResponseCache.get``; a refactor that stops calling them through those
    names detaches its per-layer metrics."""

    @staticmethod
    def _traced_stages(data_dir, tmp_path, args) -> dict[str, set[str]]:
        """The span names of each stage, run traced in turn with ``args``."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        spans = {}
        for stage, extra in (("decompose", []), ("decompscore", []), ("factscore", [
                "--knowledge", str(data_dir / "knowledge_small.jsonl")])):
            trace = tmp_path / f"{stage}.trace.json"
            proc = subprocess.run(
                [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(trace), stage,
                 "--", stage, *args, *extra],
                cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            spans[stage] = {span[2] for span in json.loads(trace.read_text())["spans"]}
        return spans

    def test_tracer_sees_the_judgment_layers(self, data_dir, tmp_path):
        spans = set().union(*self._traced_stages(data_dir, tmp_path, _common(
            data_dir, tmp_path / "out", ["--cache-dir", str(tmp_path / "cache")])).values())
        assert {"decompose.decompose_passage", "decompose.retrieve_examples",
                "decompose.assemble_prompt", "decompose.prompted_claim_texts", "llm.request",
                "validate.judge_decomposition", "validate.judge_facts",
                "metrics.results_from_judgments", "metrics.method_report",
                "llm.cache.get", "llm.cache.put"} <= spans

    def test_traced_stages_over_http(self, data_dir, tmp_path):
        stub = subprocess.Popen(
            [sys.executable, str(REPO / "perfbench" / "stub.py"), "--latency-ms", "0",
             "--retry-every", "0", "--window-chars", "0"], stdout=subprocess.PIPE, text=True)
        try:
            port = int(stub.stdout.readline().removeprefix("PORT "))
            spans = self._traced_stages(data_dir, tmp_path, [
                "--generations", str(data_dir / "generations_small.jsonl"), "--method", "rnd",
                "--output-dir", str(tmp_path / "out"),
                "--endpoint", f"http://127.0.0.1:{port}/v1/completions"])
        finally:
            stub.terminate()
            stub.wait(timeout=10)
            stub.stdout.close()
        assert all("llm.complete" in names for names in spans.values())
        assert "validate.truncate_context" in spans["decompscore"]


# What ``claimdecomp`` exports, by the module that defines each name.
PACKAGE_EXPORTS = {
    "conllu": ("SentenceParse", "Token", "parse_conllu", "serialize", "validate_parse"),
    "corpus": ("ExampleBank", "ExampleEntry", "KnowledgeDoc", "Passage", "Sentence",
               "attach_parses", "load_example_bank", "load_generations", "load_knowledge",
               "split_sentences"),
    "decompose": ("MethodConfig", "Subclaim", "assemble_prompt", "builtin_configs",
                  "decompose_passage", "decompose_sentence", "default_bank",
                  "method_registry", "parse_subclaims", "retrieve_examples"),
    "llm": ("CachingClient", "CompletionRequest", "CompletionResponse", "ContextLengthError",
            "GenerationSettings", "HttpCompletionClient", "MockCompletionClient",
            "ResponseCache"),
    "metrics": ("LmMetrics", "MethodReport", "PassageResult", "coherence_pct", "decomp_score",
                "fact_score", "macro_average", "method_report", "pearson",
                "results_from_judgments"),
    "predarg": ("PredArgMethod", "Predication", "extract_predications", "fluency_rewrite",
                "render_predication"),
    "retrieval": ("Chunk", "Index", "build_index", "load_index", "save_index", "search"),
    "validate": ("NliVerdict", "SupportJudgment", "judge_decomposition", "judge_facts",
                 "judge_support", "nli_entails"),
}


class TestStdlibRuntime:
    def _loaded_by_import(self, modules):
        """Which of ``modules`` a fresh interpreter holds after ``import claimdecomp.cli``."""
        code = f"import sys, claimdecomp.cli; print(sorted({modules!r} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                              env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_imports_no_third_party_runtime(self):
        assert self._loaded_by_import({"numpy", "requests", "urllib3"}) == "[]"

    def test_cli_imports_no_http_client(self):
        # mock, --cache-only and index build runs send no request, so never load them
        assert self._loaded_by_import({"http.client", "urllib.request", "email"}) == "[]"

    def test_cli_imports_no_parse_reader_or_unused_stdlib(self):
        # parses load with --parses or a parse-reading method, hashlib with a cache
        assert self._loaded_by_import({"claimdecomp.conllu", "claimdecomp.predarg",
                                       "statistics", "hashlib"}) == "[]"

    def _loaded_by_run(self, argv, modules):
        """The exit code of ``cli.main(argv)`` in a fresh interpreter, and
        which of ``modules`` it holds afterwards."""
        code = ("import sys; from claimdecomp import cli; rc = cli.main(%r); "
                "print(rc, sorted(%r & set(sys.modules)))" % (argv, modules))
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                              env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_prompted_decompose_loads_no_parse_reader(self, data_dir, tmp_path):
        args = ["decompose", *_common(data_dir, tmp_path / "out")]
        assert self._loaded_by_run(args, {"claimdecomp.conllu", "claimdecomp.predarg"}) == "0 []"

    def test_runs_that_send_nothing_load_no_http_client(self, data_dir, tmp_path, monkeypatch):
        # an endpoint run warms the cache in this process; a fresh one replays it
        monkeypatch.setattr("claimdecomp.llm.post_json", lambda *args: (
            200, {}, '{"choices": [{"text": "- Ada is a director."}]}'))
        endpoint = ["--generations", str(data_dir / "generations_small.jsonl"),
                    "--endpoint", "http://127.0.0.1:9/v1", "--cache-dir", str(tmp_path / "cache")]
        assert cli.main(["decompose", *endpoint, "--output-dir", str(tmp_path / "warm")]) == 0
        modules = {"http.client", "urllib.request"}
        for argv in (["decompose", *_common(data_dir, tmp_path / "mock")],
                     ["decompose", *endpoint, "--cache-only",
                      "--output-dir", str(tmp_path / "replay")]):
            assert self._loaded_by_run(argv, modules) == "0 []", argv

    def test_package_exports_resolve_on_first_use(self):
        import importlib

        import claimdecomp

        for module, names in PACKAGE_EXPORTS.items():
            for name in names:
                assert name in dir(claimdecomp)
                assert getattr(claimdecomp, name) is getattr(
                    importlib.import_module(f"claimdecomp.{module}"), name)
        exec("from claimdecomp import " + ", ".join(
            name for names in PACKAGE_EXPORTS.values() for name in names), {})
        assert claimdecomp.__version__ == "0.1.0"
        with pytest.raises(AttributeError):
            claimdecomp.no_such_name
