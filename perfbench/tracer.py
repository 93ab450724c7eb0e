"""Spans around calls into claimdecomp, for the benchmark's traced runs.

The tracer replaces functions at the names their callers look them up by
(``claimdecomp.cli.load_index``, ``claimdecomp.validate.search``, class
attributes such as ``claimdecomp.llm.HttpCompletionClient.complete``), so the
program itself is unchanged. Each thread keeps its own span stack; a span
opened on a thread with an empty stack, such as a ``decompose_passage`` pool
worker, parents to the stage span. All spans of one stage share its trace
id. Spans stay in memory and are written once, when the stage ends.

Run as a script to execute one CLI stage traced:

    python3 perfbench/tracer.py TRACE_OUT TRACE_ID -- decompose --generations ...
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = "cli.main"


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []   # [id, parent, name, start, end, attrs]
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, describe=None, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if root:
            self.root = span_id
        parent = stack[-1] if stack else 0 if root else self.root
        stack.append(span_id)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        else:
            if describe is not None:
                attrs.update(describe(args, kwargs, result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, parent, name, start, end, attrs])

    def run_root(self, fn, *args):
        """Run ``fn`` as the stage span every orphan span parents to."""
        return self.call(ROOT, fn, args, {}, root=True)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, describe)

        setattr(owner, attr, wrapper)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": self.spans}),
                        encoding="utf-8")


def _digest(args, kwargs, result) -> dict:
    return {"prompt": hashlib.blake2b(args[1].encode("utf-8"), digest_size=8).hexdigest()}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are made from."""
    from claimdecomp import cli, corpus, decompose, llm, retrieval, validate

    for owner, attr, name, describe in (
            (cli, "load_generations", "corpus.load_generations", None),
            (cli, "load_knowledge", "corpus.load_knowledge", None),
            (corpus, "split_sentences", "corpus.split_sentences", None),
            (cli, "build_index", "retrieval.build_index", None),
            (cli, "save_index", "retrieval.save_index", None),
            (cli, "load_index", "retrieval.load_index", None),
            (validate, "search", "retrieval.search",
             lambda a, kw, r: {"unrestricted": kw.get("restrict_title") is None}),
            (retrieval.Index, "has_title", "retrieval.has_title", None),
            (cli, "decompose_passage", "decompose.decompose_passage", None),
            (decompose, "_prompted_claim_texts", "decompose.prompted_claim_texts", None),
            (decompose, "retrieve_examples", "decompose.retrieve_examples", None),
            (decompose, "assemble_prompt", "decompose.assemble_prompt", None),
            (decompose, "parse_subclaims", "decompose.parse_subclaims", None),
            (decompose, "complete_text", "llm.request", _digest),
            (validate, "complete_text", "llm.request", _digest),
            (llm.HttpCompletionClient, "complete", "llm.complete", None),
            (llm.ResponseCache, "get", "llm.cache.get",
             lambda a, kw, r: {"hit": r is not None}),
            (llm.ResponseCache, "put", "llm.cache.put", None),
            (cli, "judge_decomposition", "validate.judge_decomposition", None),
            (cli, "judge_facts", "validate.judge_facts", None),
            (validate, "judge_support", "validate.judge_support", None),
            (validate, "parse_verdict", "validate.parse_verdict",
             lambda a, kw, r: {"unparseable": r is None}),
            (validate, "_truncate_context", "validate.truncate_context",
             lambda a, kw, r: {"empty": not r}),
            (cli, "results_from_judgments", "metrics.results_from_judgments", None),
            (cli, "method_report", "metrics.method_report", None)):
        tracer.wrap(owner, attr, name, describe)


# --- per-layer metrics ----------------------------------------------------------------

def union_s(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    covered, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def tail(values_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of a few percentiles that leaves at
    least ten samples beyond it; (0, 0) when there are too few samples."""
    ordered = sorted(values_ms)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(len(ordered) * pct / 100) - 1]
    return 0.0, 0.0


def stub_dominance(overhead_ms: float, stub_extra_ms: float) -> str | None:
    """Why the stub, not the pipeline, dominates a call, or None. A transport
    stall such as delayed ACK shows as client-side overhead; slow stub handling
    shows as service time beyond the injected latency."""
    if overhead_ms > 10.0:
        return f"client-side overhead {overhead_ms:.2f} ms per call exceeds 10 ms"
    if stub_extra_ms > 5.0:
        return f"stub handling {stub_extra_ms:.2f} ms per call exceeds 5 ms"
    return None


class _Stage:
    def __init__(self, trace: dict):
        self.spans = trace["spans"]
        self.by_name: dict[str, list] = {}
        self.children: dict[int, list] = {}
        for span in self.spans:
            self.by_name.setdefault(span[2], []).append(span)
            self.children.setdefault(span[1], []).append(span)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def self_s(self, span) -> float:
        start, end = span[3], span[4]
        inside = [(max(c[3], start), min(c[4], end)) for c in self.children.get(span[0], [])]
        return (end - start) - union_s([iv for iv in inside if iv[1] > iv[0]])


def layer_metrics(traces: dict[str, dict], walls: dict[str, float],
                  stub_stats: dict[str, dict], latency_ms: float,
                  max_inflight: int) -> dict[str, float]:
    """Per-layer metrics of one traced round: ``traces``, ``walls`` and
    ``stub_stats`` are keyed by stage name."""
    stages = {name: _Stage(trace) for name, trace in traces.items()}

    def named(name: str) -> list:
        return [s for st in stages.values() for s in st.named(name)]

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in named(name))

    def flagged(name: str, attr: str) -> int:
        return sum(1 for s in named(name) if s[5].get(attr))

    def union(name: str) -> float:
        return sum(union_s([(s[3], s[4]) for s in st.named(name)]) for st in stages.values())

    def self_total(name: str) -> float:
        return sum(st.self_s(s) for st in stages.values() for s in st.named(name))

    calls_ms = [(s[4] - s[3]) * 1000.0 for s in named("llm.complete")]
    service_ms = [ms for stats in stub_stats.values() for ms in stats["service_ms"]]
    tail_pct, tail_ms = tail(calls_ms)
    overhead_ms = (statistics.median(calls_ms) - statistics.median(service_ms)
                   if calls_ms and service_ms else 0.0)
    requests = [s[5].get("prompt") for s in named("llm.request")]
    fallbacks = 0
    for st in stages.values():
        for span in st.named("decompose.prompted_claim_texts"):
            if not any(c[2] == "llm.request" and "error" not in c[5]
                       for c in st.children.get(span[0], [])):
                fallbacks += 1

    m: dict[str, float] = {
        "llm.complete.calls": len(calls_ms),
        "llm.complete.s": total("llm.complete"),
        "llm.complete.union_s": union("llm.complete"),
        "llm.complete.p50_ms": statistics.median(calls_ms) if calls_ms else 0.0,
        "llm.complete.tail_ms": tail_ms,
        "llm.complete.tail_pct": tail_pct,
        "llm.overhead_ms": overhead_ms,
        "llm.retries": sum(stats["retries"] for stats in stub_stats.values()),
        "llm.endpoint_calls": sum(stats["answered"] for stats in stub_stats.values()),
        "llm.window_rejections": sum(stats["window_rejections"]
                                     for stats in stub_stats.values()),
        "llm.cache.get.s": total("llm.cache.get"),
        "llm.cache.put.s": total("llm.cache.put"),
        "llm.cache.hits": flagged("llm.cache.get", "hit"),
        "llm.cache.misses": len(named("llm.cache.get")) - flagged("llm.cache.get", "hit"),
        "llm.repeat_share": (len(requests) - len(set(requests))) / len(requests)
        if requests else 0.0,
        "decompose.retrieve_examples.calls": len(named("decompose.retrieve_examples")),
        "decompose.retrieve_examples.s": total("decompose.retrieve_examples"),
        "decompose.retrieve_examples.union_s": union("decompose.retrieve_examples"),
        "decompose.assemble_prompt.calls": len(named("decompose.assemble_prompt")),
        "decompose.assemble_prompt.s": total("decompose.assemble_prompt"),
        "decompose.assemble_prompt.union_s": union("decompose.assemble_prompt"),
        "decompose.parse_subclaims.s": total("decompose.parse_subclaims"),
        "decompose.sentence_fallbacks": fallbacks,
        "decompose.decompose_passage.s": total("decompose.decompose_passage"),
        "retrieval.build_index.s": total("retrieval.build_index"),
        "retrieval.save_index.s": total("retrieval.save_index"),
        "retrieval.load_index.s": total("retrieval.load_index"),
        "retrieval.search.calls": len(named("retrieval.search")),
        "retrieval.search.s": total("retrieval.search"),
        "retrieval.search.unrestricted_calls": flagged("retrieval.search", "unrestricted"),
        "retrieval.has_title.s": total("retrieval.has_title"),
        "validate.judge_support.calls": len(named("validate.judge_support")),
        "validate.judge_decomposition.self_s": self_total("validate.judge_decomposition"),
        "validate.judge_facts.self_s": self_total("validate.judge_facts"),
        "validate.unparseable": flagged("validate.parse_verdict", "unparseable"),
        "validate.empty_context": flagged("validate.truncate_context", "empty"),
        "corpus.load_generations.s": total("corpus.load_generations"),
        "corpus.split_sentences.calls": len(named("corpus.split_sentences")),
        "corpus.split_sentences.s": total("corpus.split_sentences"),
        "corpus.load_knowledge.s": total("corpus.load_knowledge"),
        "metrics.results_from_judgments.s": total("metrics.results_from_judgments"),
        "metrics.method_report.s": total("metrics.method_report"),
    }
    for name, st in stages.items():
        (root,) = st.named(ROOT)
        m[f"cli.{name}.self_s"] = st.self_s(root)
        m[f"cli.{name}.startup_s"] = walls[name] - (root[4] - root[3])
        if name != "index_build":
            calls = len(st.named("llm.complete"))
            m[f"llm.inflight.{name}"] = sum(s[4] - s[3] for s in st.named("llm.complete")) \
                / walls[name]
            m[f"llm.ideal_ratio.{name}"] = \
                math.ceil(calls / max_inflight) * latency_ms / 1000.0 / walls[name]
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT TRACE_ID -- CLAIMDECOMP_ARGS...", file=sys.stderr)
        return 2
    out, trace_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer(trace_id)
    install(tracer)
    from claimdecomp import cli

    try:
        return tracer.run_root(cli.main, cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
