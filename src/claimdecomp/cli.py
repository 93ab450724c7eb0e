"""Pipeline commands: decompose, decompscore, factscore, correlate, index.

Intermediate artifacts (subclaims, judgments) are always persisted as JSON
Lines so scoring can be replayed offline; every CSV cell is re-derivable
from the judgment files (see `audit_outputs`).

Exit codes: 0 success, 2 config/input error, 3 endpoint failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
import os
import sys
import typing
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path

from . import conllu as conllu_mod
from .corpus import (CorpusError, Passage, _check_fields, _fits, _json_object, _records,
                     attach_parses, load_example_bank, load_generations, load_knowledge)
from .decompose import (DecomposeError, GenerationSettings, Subclaim, builtin_configs,
                        decompose_passage, default_bank, method_registry)
from .llm import (CachingClient, CompletionClient, CompletionError,
                  HttpCompletionClient, MapFn, MockCompletionClient)
from .metrics import (MethodReport, MetricsError, method_report, pearson,
                      results_from_judgments)
from .predarg import PredArgMethod
from .retrieval import (DEFAULT_CHUNK_WORDS, DEFAULT_TOP_K, RetrievalError, build_index,
                        load_index, save_index, search)
from .validate import SupportJudgment, ValidateError, judge_decomposition, judge_facts

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENDPOINT = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    generations: str | None = None
    parses: str | None = None
    methods: list[str] = field(default_factory=list)
    example_banks: dict[str, str] = field(default_factory=dict)
    knowledge: str | None = None
    index_path: str | None = None
    output_dir: str = "out"
    cache_dir: str | None = None
    cache_only: bool = False
    mock_responses: str | None = None
    endpoint_url: str | None = None
    model: str = "default"
    validator_model: str | None = None
    max_inflight: int = 8
    chunk_words: int = DEFAULT_CHUNK_WORDS
    retrieval_k: int = DEFAULT_TOP_K
    context_window: int = GenerationSettings.context_window
    max_tokens: int = GenerationSettings.max_tokens
    temperature: float = GenerationSettings.temperature
    drop_invalid: bool = False


_CONFIG_TYPES = typing.get_type_hints(RunConfig)

# The keys a mock-responses spec may set: the mock client's parameters.
_MOCK_TYPES = typing.get_type_hints(MockCompletionClient.__init__)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        data = _json_object(f"config {path}", Path(path).read_bytes())
        unknown = data.keys() - _CONFIG_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _fits(_CONFIG_TYPES[key], value):
                raise ConfigError(f"config key {key!r} must be "
                                  f"{RunConfig.__dataclass_fields__[key].type}, got {value!r}")
            # as the flag's type=float does, so both send and cache 1.0, not 1
            setattr(cfg, key, float(value) if _CONFIG_TYPES[key] is float else value)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value not in (None, [], {}):
            setattr(cfg, key, value)
    if getattr(args, "bank", None):
        for spec in args.bank:
            if "=" not in spec:
                raise ConfigError(f"--bank expects METHOD=PATH, got {spec!r}")
            name, bank_path = spec.split("=", 1)
            cfg.example_banks[name] = bank_path
    # a prompted method the run does not select may have a bank: configs are shared
    prompted = builtin_configs().keys()
    if unknown := sorted(cfg.example_banks.keys() - prompted):
        raise ConfigError(f"example bank for {unknown[0]!r}, which is not a prompted "
                          f"method; choose from {sorted(prompted)}")
    if not cfg.methods:
        cfg.methods = ["rnd"]
    return cfg


def _build_client(cfg: RunConfig, role: str) -> CompletionClient:
    """role is "decomposer" or "validator"; the mock-responses file may carry
    a spec per role or a single shared one."""
    client: CompletionClient
    if cfg.mock_responses:
        where = cfg.mock_responses
        spec = _json_object(where, Path(where).read_bytes())
        if role in spec:
            _check_fields(where, spec, {role: dict})
            spec, where = spec[role], f"{where}: {role}"
        present = {name: kind for name, kind in _MOCK_TYPES.items() if name in spec}
        _check_fields(where, spec, present)
        client = MockCompletionClient(**{name: spec[name] for name in present})
    else:
        if not cfg.endpoint_url and not os.environ.get("CLAIMDECOMP_ENDPOINT_URL"):
            raise ConfigError(
                "no endpoint configured: pass --endpoint, set "
                "CLAIMDECOMP_ENDPOINT_URL, or use --mock-responses")
        model = cfg.validator_model if role == "validator" and cfg.validator_model else cfg.model
        client = HttpCompletionClient(url=cfg.endpoint_url, model=model)
    if cfg.cache_dir:
        client = CachingClient(client, Path(cfg.cache_dir) / role,
                               cache_only=cfg.cache_only)
    return client


def _load_passages(cfg: RunConfig) -> list[Passage]:
    if not cfg.generations:
        raise ConfigError("no generations file configured")
    passages = load_generations(cfg.generations, drop_invalid=cfg.drop_invalid)
    if cfg.parses:
        parses = conllu_mod.parse_conllu_file(cfg.parses)
        passages = attach_parses(passages, parses)
    return passages


def _resolve_methods(cfg: RunConfig) -> dict[str, object]:
    registry = method_registry()
    resolved = {}
    for name in cfg.methods:
        if name not in registry:
            raise ConfigError(f"unknown method {name!r}; choose from {sorted(registry)}")
        method = registry[name]
        if isinstance(method, PredArgMethod):
            resolved[name] = method
            continue
        if name in cfg.example_banks:
            bank = load_example_bank(cfg.example_banks[name])
        elif method.include_parse:
            raise ConfigError(
                f"method {name!r} needs a parse-bearing example bank (--bank {name}=PATH)")
        else:
            bank = default_bank()
        resolved[name] = method.with_bank(bank)
    return resolved


def _decomposition_settings(cfg: RunConfig) -> GenerationSettings:
    return GenerationSettings(temperature=cfg.temperature, max_tokens=cfg.max_tokens,
                              context_window=cfg.context_window)


# --- JSONL records ---------------------------------------------------------------
# A subclaim record holds the Subclaim fields; a judgment record holds the
# SupportJudgment fields with its subclaim's fields in place of ``claim``.

_CLAIM_TYPES = typing.get_type_hints(Subclaim)
_JUDGMENT_TYPES = _CLAIM_TYPES | typing.get_type_hints(SupportJudgment)
del _JUDGMENT_TYPES["claim"]

# Per stage: the prefix of the JSONL file it writes per method, and the
# report columns of a judgment stage as (csv file, LmMetrics field, scale);
# then the columns of factscore's scatter.csv, one row per method, as
# (column, macro LmMetrics field, scale). The writers and `audit_outputs`
# all read these.
JSONL_FILES = {"decompose": "subclaims", "decompscore": "sentence-judgments",
               "factscore": "knowledge-judgments"}
REPORT_COLUMNS = {
    "decompscore": (("decompscore.csv", "decomp_score", 1.0),
                    ("avg_subclaims.csv", "avg_subclaims", 1.0),
                    ("coherence.csv", "coherence_pct", 1.0)),
    "factscore": (("factscore.csv", "fact_score", 100.0),
                  ("filtered_factscore.csv", "filtered_fact_score", 100.0)),
}
SCATTER_COLUMNS = (("avg_subclaims", "avg_subclaims", 1.0), ("factscore", "fact_score", 100.0))


def _record(item: Subclaim | SupportJudgment) -> dict:
    record = dict(vars(item))
    if "claim" in record:
        record.update(vars(record.pop("claim")))
    return record


def _judgment(record: dict) -> SupportJudgment:
    claim = Subclaim(**{name: record.pop(name) for name in _CLAIM_TYPES})
    return SupportJudgment(claim=claim, **record)


def _read_jsonl(path: Path, kinds: dict[str, object]) -> list[dict]:
    """Records of a JSONL file written by this module. A line that is not a
    JSON object with exactly the fields of ``kinds``, each of its type, such
    as one cut short by an interrupted write, stops the stage naming the path
    and line."""
    records = []
    for where, record in _records(path):
        if record.keys() != kinds.keys():
            raise ConfigError(f"{where}: expected a record with fields {sorted(kinds)}")
        _check_fields(where, record, kinds)
        records.append(record)
    return records


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def jsonl_path(outdir: Path, stage: str, method: str) -> Path:
    return outdir / f"{JSONL_FILES[stage]}-{method}.jsonl"


# --- commands --------------------------------------------------------------------

# A stage's counts of degraded paths, printed in this order when it is done.
WARNINGS = {
    "empty_sentences": "sentences decomposed to no subclaims",
    "unparseable": "unparseable validator answers counted as unsupported",
    "empty_context": "claims had empty retrieval context",
    "unfiltered_passages": "passages have no sentence-supported subclaims; "
                           "filtered factscore counts them as 0",
}


def _warn(counts: Counter[str]) -> None:
    for key, message in WARNINGS.items():
        if counts[key]:
            print(f"warning: {counts[key]} {message}")


def run_stage(stage: str, cfg: RunConfig) -> int:
    """Run ``decompose``, ``decompscore`` or ``factscore`` with the stage's one
    request pool: ``cfg.max_inflight`` threads, the only concurrency in the
    pipeline. Its ordered map returns results in submission order, so the
    outputs do not depend on the pool's width."""
    for key, least in (("max_inflight", 1), ("max_tokens", 1), ("temperature", 0),
                       ("retrieval_k", 1), ("chunk_words", 1)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    if not math.isfinite(cfg.temperature):
        raise ConfigError(f"temperature must be finite, got {cfg.temperature}")
    if cfg.context_window <= cfg.max_tokens:
        raise ConfigError(f"context_window must exceed max_tokens, got "
                          f"{cfg.context_window} <= {cfg.max_tokens}")
    with ThreadPoolExecutor(max_workers=cfg.max_inflight) as pool:
        if stage == "decompose":
            return cmd_decompose(cfg, pool.map)
        return cmd_judge(stage, cfg, pool.map)


def cmd_decompose(cfg: RunConfig, map_fn: MapFn) -> int:
    passages = _load_passages(cfg)
    methods = _resolve_methods(cfg)
    client = _build_client(cfg, "decomposer")
    settings = _decomposition_settings(cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    counts: Counter[str] = Counter()
    for name, method in methods.items():
        path = jsonl_path(outdir, "decompose", name)
        done: set[tuple[str, str]] = set()
        if path.exists():
            done = {(r["generator"], r["topic"]) for r in _read_jsonl(path, _CLAIM_TYPES)}
        pending = [p for p in passages if (p.generator, p.topic) not in done]
        decompose = partial(decompose_passage, method, client=client, settings=settings)
        with open(path, "a", encoding="utf-8") as fh:
            for passage, claims in zip(pending, map_fn(decompose, pending)):
                # one buffered write per passage so an interrupt never leaves
                # a partially decomposed passage behind
                fh.write("".join(_dump_line(_record(c)) for c in claims))
                fh.flush()
                counts["empty_sentences"] += len({s.index for s in passage.sentences}
                                                 - {c.sentence_index for c in claims})
        print(f"decompose[{name}]: {path}")
    _warn(counts)
    return EXIT_OK


def _load_subclaims(outdir: Path, method: str) -> list[Subclaim]:
    path = jsonl_path(outdir, "decompose", method)
    if not path.exists():
        raise ConfigError(f"missing subclaims file {path}; run decompose first")
    return [Subclaim(**r) for r in _read_jsonl(path, _CLAIM_TYPES)]


def _load_judgments(outdir: Path, stage: str, method: str) -> list[SupportJudgment] | None:
    path = jsonl_path(outdir, stage, method)
    if not path.exists():
        return None
    return [_judgment(r) for r in _read_jsonl(path, _JUDGMENT_TYPES)]


def cmd_judge(stage: str, cfg: RunConfig, map_fn: MapFn) -> int:
    """Judge every subclaim, write the judgments and the stage's report CSVs.
    ``decompscore`` judges against the sentence a subclaim came from,
    ``factscore`` against knowledge retrieved for it. Every method's requests
    go through ``map_fn`` as one batch."""
    passages = _load_passages(cfg)
    sentences = {(p.generator, p.topic, s.index): s.text for p in passages for s in p.sentences}
    index = None
    if stage == "factscore":
        if cfg.index_path:
            index = load_index(cfg.index_path)
        elif cfg.knowledge:
            index = build_index(load_knowledge(cfg.knowledge), cfg.chunk_words)
        else:
            raise ConfigError("factscore needs --index or --knowledge")
    client = _build_client(cfg, "validator")
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    # A subclaim's group is its source sentence's key. Judgments are written
    # in sorted group order; the stable sort keeps the file order in a group.
    group = attrgetter("generator", "topic", "sentence_index")
    loaded: dict[str, list[Subclaim]] = {}
    for name in cfg.methods:
        claims = _load_subclaims(outdir, name)
        if not claims:
            logger.warning("method %s produced no subclaims; column omitted", name)
            continue
        if missing := sorted({group(c) for c in claims} - sentences.keys()):
            raise ConfigError(f"no source sentence for subclaim group {missing[0]}")
        loaded[name] = claims
    batch = [claim for claims in loaded.values() for claim in sorted(claims, key=group)]
    stats: Counter[str] = Counter()
    if stage == "decompscore":
        judged = judge_decomposition(
            client, [(c, sentences[group(c)]) for c in batch], stats=stats, map_fn=map_fn)
    else:
        judged = judge_facts(client, index, batch, k=cfg.retrieval_k, stats=stats,
                             map_fn=map_fn)

    reports: dict[str, MethodReport] = {}
    rest = iter(judged)
    for name, claims in loaded.items():
        judgments = list(itertools.islice(rest, len(claims)))
        with open(jsonl_path(outdir, stage, name), "w", encoding="utf-8") as fh:
            fh.write("".join(_dump_line(_record(j)) for j in judgments))

        if stage == "decompscore":
            results = results_from_judgments(claims, sentence_judgments=judgments)
        else:
            sentence_judgments = _load_judgments(outdir, "decompscore", name)
            if sentence_judgments is None:
                logger.warning("no sentence judgments for %s; filtered scores use "
                               "zero-supported counts", name)
            results = results_from_judgments(claims, sentence_judgments=sentence_judgments,
                                             knowledge_judgments=judgments)
            stats["unfiltered_passages"] += sum(r.n_supported_by_sentence == 0 for r in results)
        reports[name] = method_report(results)

    _warn(stats)
    # report cells rounded to one decimal; a *_raw.csv sibling keeps full precision
    for filename, metric, scale in REPORT_COLUMNS[stage]:
        table = _report_table(reports, metric, scale)
        for name, fmt in ((filename, ".1f"), (Path(filename).stem + "_raw.csv", ".10g")):
            _write_table(outdir / name, ["generator", *reports], table, fmt)
    if stage == "factscore":
        _write_table(outdir / "scatter.csv", ["method", *(c for c, _, _ in SCATTER_COLUMNS)],
                     _scatter_table(reports), ".10g")
    print(f"{stage}: {outdir / REPORT_COLUMNS[stage][0][0]}")
    return EXIT_OK


def cmd_correlate(file_a: str, file_b: str, columns: list[str],
                  out: str | None = None) -> int:
    if not columns:
        raise ConfigError("--columns names no column")
    rows_a = _read_keyed_csv(Path(file_a))
    rows_b = _read_keyed_csv(Path(file_b))
    if sorted(rows_a) != sorted(rows_b):
        raise ConfigError(
            f"misaligned keys: {sorted(set(rows_a) ^ set(rows_b))}")
    keys = sorted(rows_a)
    lines = [("column", "pearson_rho")]
    for column in columns:
        rho = pearson(_numbers(file_a, rows_a, keys, column),
                      _numbers(file_b, rows_b, keys, column))
        lines.append((column, f"{rho:.4f}"))
        print(f"{column}: rho={rho:.4f}")
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
    return EXIT_OK


def cmd_index_build(knowledge: str, out: str, chunk_words: int) -> int:
    index = build_index(load_knowledge(knowledge), chunk_words)
    save_index(index, out)
    print(f"index: {len(index.chunks)} chunks -> {out}")
    return EXIT_OK


def cmd_index_search(index_path: str, query: str, k: int,
                     title: str | None = None) -> int:
    index = load_index(index_path)
    for chunk, score in search(index, query, k, restrict_title=title):
        print(f"{score:.4f}\t{chunk.doc_title}#{chunk.ordinal}\t{chunk.text[:80]}")
    return EXIT_OK


# --- CSV emission ----------------------------------------------------------------

def _numbers(path: str, rows: dict[str, dict[str, str]], keys: list[str],
             column: str) -> list[float]:
    values = []
    for key in keys:
        if column not in rows[key]:
            raise ConfigError(f"missing column {column!r} in {path}")
        where, cell = f"{path}: row {key!r}, column {column!r}", rows[key][column]
        try:
            values.append(float(cell))
        except (TypeError, ValueError) as exc:  # a short row's cell is None
            raise ConfigError(f"{where}: not a number: {cell!r}") from exc
        if not math.isfinite(values[-1]):
            raise ConfigError(f"{where}: not finite: {cell!r}")
    return values


def _read_keyed_csv(path: Path) -> dict[str, dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if not reader.fieldnames:
                raise ConfigError(f"empty CSV {path}")
            key_field = reader.fieldnames[0]
            rows: dict[str, dict[str, str]] = {}
            for row in reader:
                key = row[key_field]
                if key in rows:
                    raise ConfigError(f"{path}: repeated key {key!r} in column {key_field!r}")
                rows[key] = row
            return rows
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc}") from exc


def _report_table(reports: dict[str, MethodReport], metric: str,
                  scale: float) -> dict[str, dict[str, float]]:
    """{row: {method: value}}: a row per generator, then the macro-average row."""
    generators = sorted({lm for rep in reports.values() for lm in rep.per_lm})
    return {key: {name: getattr(rep.macro if key == "macro-average" else rep.per_lm[key],
                                metric) * scale
                  for name, rep in reports.items()}
            for key in [*generators, "macro-average"]}


def _scatter_table(reports: dict[str, MethodReport]) -> dict[str, dict[str, float]]:
    """{method: {column: value}} from each method's macro averages."""
    return {name: {column: getattr(rep.macro, metric) * scale
                   for column, metric, scale in SCATTER_COLUMNS}
            for name, rep in reports.items()}


def _write_table(path: Path, header: list[str], table: dict[str, dict[str, float]],
                 fmt: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([key] + [format(row[column], fmt) for column in header[1:]]
                         for key, row in table.items())


def audit_outputs(outdir: str | Path, methods: list[str]) -> None:
    """Recompute every cell of the report CSVs and scatter.csv from the
    persisted judgment files and raise if one differs (within float
    formatting) or a row is not derived from them."""
    outdir = Path(outdir)
    reports: dict[str, MethodReport] = {}
    for name in methods:
        sentence = _load_judgments(outdir, "decompscore", name)
        if sentence is None:
            raise ConfigError(f"missing {jsonl_path(outdir, 'decompscore', name)}")
        results = results_from_judgments(
            _load_subclaims(outdir, name), sentence_judgments=sentence,
            knowledge_judgments=_load_judgments(outdir, "factscore", name))
        reports[name] = method_report(results)

    tables = {filename: _report_table(reports, metric, scale)
              for cols in REPORT_COLUMNS.values() for filename, metric, scale in cols}
    tables["scatter.csv"] = _scatter_table(reports)
    for filename, table in tables.items():
        path = outdir / filename
        if not path.exists():
            continue
        for key, row in _read_keyed_csv(path).items():
            if key not in table:
                raise MetricsError(f"{filename} row {key!r} is not derived from the judgments")
            for column, value in table[key].items():
                if column in row and abs(float(row[column]) - value) > 0.05 + 1e-9:
                    raise MetricsError(f"{filename} cell ({key}, {column}) = {row[column]} "
                                       f"but judgments give {value:.4f}")


# --- argument parsing --------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--generations", help="generations JSONL")
    parser.add_argument("--parses", help="CoNLL-U file aligned with the sentences")
    parser.add_argument("--method", dest="methods", action="append",
                        help="decomposition method (repeatable)")
    parser.add_argument("--bank", action="append", metavar="METHOD=PATH",
                        help="example bank for a method (repeatable)")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--cache-dir", dest="cache_dir")
    parser.add_argument("--cache-only", dest="cache_only", action="store_true",
                        default=None, help="fail on cache miss instead of calling out")
    parser.add_argument("--mock-responses", dest="mock_responses",
                        help="JSON file of canned completions (offline runs)")
    parser.add_argument("--endpoint", dest="endpoint_url",
                        help="completions endpoint URL")
    parser.add_argument("--model", help="decomposer model name")
    parser.add_argument("--validator-model", dest="validator_model")
    parser.add_argument("--max-inflight", dest="max_inflight", type=int)
    parser.add_argument("--context-window", dest="context_window", type=int)
    parser.add_argument("--max-tokens", dest="max_tokens", type=int)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--knowledge", help="knowledge corpus JSONL")
    parser.add_argument("--index", dest="index_path", help="prebuilt index file")
    parser.add_argument("--chunk-words", dest="chunk_words", type=int)
    parser.add_argument("--retrieval-k", dest="retrieval_k", type=int)
    parser.add_argument("--drop-invalid", dest="drop_invalid", action="store_true",
                        default=None, help="skip invalid LM responses")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimdecomp",
        description="Decompose generated passages into subclaims and score them.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("decompose", "decompscore", "factscore"):
        p = sub.add_parser(name)
        _add_common(p)

    p_corr = sub.add_parser("correlate")
    p_corr.add_argument("file_a")
    p_corr.add_argument("file_b")
    p_corr.add_argument("--columns", required=True,
                        help="comma-separated column names")
    p_corr.add_argument("--out")

    p_index = sub.add_parser("index")
    isub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = isub.add_parser("build")
    p_build.add_argument("--knowledge", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--chunk-words", type=int, default=DEFAULT_CHUNK_WORDS)
    p_search = isub.add_parser("search")
    p_search.add_argument("--index", required=True)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    p_search.add_argument("--title")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in JSONL_FILES:
            return run_stage(args.command, _merge_config(args))
        if args.command == "correlate":
            return cmd_correlate(args.file_a, args.file_b,
                                 [c.strip() for c in args.columns.split(",") if c.strip()],
                                 out=args.out)
        if args.command == "index":
            if args.index_command == "build":
                return cmd_index_build(args.knowledge, args.out, args.chunk_words)
            return cmd_index_search(args.index, args.query, args.k, title=args.title)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CorpusError, DecomposeError, RetrievalError, MetricsError,
            conllu_mod.ConlluError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CompletionError, ValidateError) as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
