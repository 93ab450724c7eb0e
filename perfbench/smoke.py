"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps the repository's default test run from collecting it:
these tests start the stub and the CLI stages as processes and take tens of
seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, stub_dominance, tail, union_s  # noqa: E402

TINY = {
    "endpoint-bound": dict(topics=2),
    "retrieval-bound": dict(topics=10, filler_titles=20),
    "warm-replay": dict(topics=3),
}


def tiny_bench(name: str, tmp_path: Path, seed: int = 7) -> run.Bench:
    workload = dataclasses.replace(inputs.WORKLOADS[name], **TINY[name])
    bench = run.Bench(workload, seed, tmp_path / "work", REPO / "src")
    bench.setup()
    return bench


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_end_to_end(name, tmp_path, declared):
    bench = tiny_bench(name, tmp_path)
    try:
        rounds = bench.measure(0, trace=True)
    finally:
        bench.close()
    assert [r.traced for r in rounds] == [False, True]
    assert not [e for r in rounds for errs in r.errors.values() for e in errs]

    result, _ = run.summarize(bench, rounds, trace=False)
    assert result["correct"] and result["attempted"] == 8 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result, _ = run.summarize(bench, rounds, trace=True)
    assert list(result["metrics"]) == [m["name"] for m in declared["per_layer"]]
    layers = rounds[1].layers
    if name == "warm-replay":
        assert layers["llm.endpoint_calls"] == 0
        assert layers["llm.cache.hits"] > 0 and layers["llm.cache.misses"] == 0
    else:
        assert layers["llm.endpoint_calls"] == sum(bench.expectation.calls.values())
    prompts = sum(len(p.sentences) for p in bench.data.passages) * len(bench.workload.methods)
    assert layers["decompose.retrieve_examples.calls"] == prompts
    # Every window rejection makes the pipeline assemble the prompt once more.
    backoffs = bench.expectation.rejections["decompose"]
    assert layers["llm.window_rejections"] == backoffs
    assert layers["decompose.assemble_prompt.calls"] == prompts + backoffs
    if name == "retrieval-bound":
        assert backoffs == bench.data.dimensions["backoff_sentences"] > 0


def test_declared_workloads_match(declared):
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)
    assert declared["command"] == ["python3", "perfbench/run.py"]


def test_stub_overhead_check(tmp_path):
    bench = tiny_bench("endpoint-bound", tmp_path)
    try:
        r = bench.run_stages(tmp_path / "round", traced=True, trace_id="smoke")
    finally:
        bench.close()
    assert r.layers["llm.complete.calls"] > 0
    assert r.layers["llm.overhead_ms"] < 10.0 and not bench.run_errors
    # A delayed-ACK stall adds ~40 ms on the transport; slow handling shows in the stub.
    assert stub_dominance(40.0, 0.3) is not None
    assert stub_dominance(1.0, 8.0) is not None
    assert stub_dominance(1.0, 0.3) is None


def test_output_check_catches_tampered_judgment(tmp_path):
    bench = tiny_bench("endpoint-bound", tmp_path)
    try:
        r = bench.run_stages(tmp_path / "round", traced=False, trace_id="smoke")
    finally:
        bench.close()
    assert not any(r.errors.values())
    out = tmp_path / "round" / "out"
    path = out / "sentence-judgments-rnd.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records[0]["supported"] = not records[0]["supported"]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    errors = inputs.stage_errors("decompscore", out, bench.expectation, None)
    assert any("disagrees with the stub's verdict" in e for e in errors)
    stats = {"answered": bench.expectation.calls["decompscore"] + 1, "window_rejections": 0}
    assert inputs.stage_errors("decompscore", out, bench.expectation, stats)


def test_fails_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "endpoint-bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_generation_is_seeded():
    workload = dataclasses.replace(inputs.WORKLOADS["retrieval-bound"],
                                   **TINY["retrieval-bound"])
    a, b = inputs.generate(workload, 3), inputs.generate(workload, 3)
    assert a.passages == b.passages and a.knowledge == b.knowledge and a.bank == b.bank
    assert inputs.generate(workload, 4).passages != a.passages


def test_span_arithmetic():
    assert union_s([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([1.0] * 19) == (0.0, 0.0)


def test_tracer_spans_from_many_threads():
    tracer = Tracer("stress")
    nested = lambda: tracer.call("inner", lambda: None, (), {})  # noqa: E731
    work = lambda: [tracer.call("outer", nested, (), {}) for _ in range(500)]  # noqa: E731

    def stage():
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        return [thread.is_alive() for thread in threads]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alive = tracer.run_root(stage)
    finally:
        sys.setswitchinterval(interval)
    assert not any(alive)
    spans = {span[0]: span for span in tracer.spans}
    assert len(spans) == len(tracer.spans) == 1 + 8 * 500 * 2
    (root,) = [s for s in tracer.spans if s[2] == "cli.main"]
    for span in tracer.spans:
        if span[2] == "outer":
            assert span[1] == root[0]
        elif span[2] == "inner":
            parent = spans[span[1]]
            assert parent[2] == "outer" and parent[3] <= span[3] <= span[4] <= parent[4]
