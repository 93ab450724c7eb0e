"""Pipeline commands: decompose, decompscore, factscore, correlate, index.

Intermediate artifacts (subclaims, judgments) are always persisted as JSON
Lines so scoring can be replayed offline; every CSV cell is re-derivable
from the judgment files (see `audit_outputs`).

Exit codes: 0 success, 2 config/input error, 3 endpoint failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
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
from operator import attrgetter
from pathlib import Path

from .corpus import (MACRO_ROW, CorpusError, Passage, _check_fields, _json_object,
                     _records, _replacing, attach_parses, load_example_bank,
                     load_generations, load_knowledge)
from .decompose import (DecomposeError, MethodConfig, Subclaim, builtin_configs,
                        decompose_passage, default_bank, method_registry)
from .llm import (ENDPOINT_URL_ENV, CachingClient, CompletionClient, CompletionError,
                  HttpCompletionClient, MapFn, MockCompletionClient, ProxySettingError)
from .metrics import (MethodReport, MetricsError, method_report, pearson,
                      results_from_judgments)
from .retrieval import (DEFAULT_CHUNK_WORDS, DEFAULT_TOP_K, RetrievalError, build_index,
                        load_index, save_index, search)
from .validate import SupportJudgment, judge_decomposition, judge_facts

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
    drop_invalid: bool = False


_CONFIG_TYPES = typing.get_type_hints(RunConfig)

# The keys a mock-responses spec may set: the mock client's parameters.
_MOCK_TYPES = typing.get_type_hints(MockCompletionClient.__init__)
_ROLES = ("decomposer", "validator")


def _checked(where: str, data: dict, kinds: dict[str, object]) -> dict:
    """``data``, a JSON object read from ``where``, once each of its keys is
    one of ``kinds`` and its value fits that key's type."""
    if unknown := sorted(data.keys() - kinds.keys()):
        raise ConfigError(f"{where}: unknown keys {unknown}")
    _check_fields(where, data, {key: kinds[key] for key in data})
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        where = f"config {path}"
        cfg = RunConfig(**_checked(where, _json_object(where, Path(path).read_bytes()),
                                   _CONFIG_TYPES))
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
    """role is one of _ROLES; the mock-responses file is one spec both roles
    share, or a map from role to spec that names ``role``."""
    client: CompletionClient
    if cfg.mock_responses:
        where = cfg.mock_responses
        spec = _json_object(where, Path(where).read_bytes())
        if spec.keys() & set(_ROLES):
            if role not in _checked(where, spec, dict.fromkeys(_ROLES, dict)):
                raise ConfigError(f"{where}: a map of roles must name {role!r}")
            spec, where = spec[role], f"{where}: {role}"
        client = MockCompletionClient(**_checked(where, spec, _MOCK_TYPES))
    else:
        model = cfg.validator_model if role == "validator" and cfg.validator_model else cfg.model
        try:
            client = HttpCompletionClient(url=cfg.endpoint_url, model=model)
        except ValueError as exc:  # the endpoint URL, or else the API key
            hint = "" if cfg.endpoint_url or os.environ.get(ENDPOINT_URL_ENV) else (
                f": pass --endpoint, set {ENDPOINT_URL_ENV}, or use --mock-responses")
            raise ConfigError(f"{exc}{hint}") from None
    if cfg.cache_dir:
        client = CachingClient(client, Path(cfg.cache_dir) / role,
                               cache_only=cfg.cache_only)
    return client


def _load_passages(cfg: RunConfig) -> list[Passage]:
    if not cfg.generations:
        raise ConfigError("no generations file configured")
    return load_generations(cfg.generations, drop_invalid=cfg.drop_invalid)


def _resolve_methods(cfg: RunConfig) -> dict[str, object]:
    prompted = builtin_configs()
    resolved = {}
    for name in cfg.methods:
        # the whole registry loads predarg, so a prompted method is looked up without it
        registry = prompted if name in prompted else method_registry()
        if name not in registry:
            raise ConfigError(f"unknown method {name!r}; choose from {sorted(registry)}")
        method = registry[name]
        if method.include_parse and not cfg.parses:
            raise ConfigError(f"method {name!r} needs sentence parses (--parses PATH)")
        if not isinstance(method, MethodConfig):
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


# --- JSONL records ---------------------------------------------------------------
# A subclaim record holds the Subclaim fields; a judgment record holds the
# SupportJudgment fields with its subclaim's fields in place of ``claim``.

_CLAIM_TYPES = typing.get_type_hints(Subclaim)
_JUDGMENT_TYPES = _CLAIM_TYPES | typing.get_type_hints(SupportJudgment)
del _JUDGMENT_TYPES["claim"]

# Per stage: the prefix of the JSONL file it writes per method, and the
# report columns of a judgment stage as (csv file, LmMetrics field, scale);
# then the columns of factscore's scatter.csv, one row per method, as
# (column, macro LmMetrics field, scale). `_report_files` reads these.
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


def _item(record: dict) -> Subclaim | SupportJudgment:
    claim = Subclaim(**{name: record.pop(name) for name in _CLAIM_TYPES})
    return SupportJudgment(claim=claim, **record) if record else claim


def _load(outdir: Path, stage: str, method: str) -> list | None:
    """The Subclaims, for ``decompose``, or SupportJudgments that ``stage``
    wrote for ``method``, in file order; None when there is no file. A line
    that is not a valid record stops the stage naming the path and line."""
    path = jsonl_path(outdir, stage, method)
    if not path.exists():
        return None
    kinds = _CLAIM_TYPES if stage == "decompose" else _JUDGMENT_TYPES
    items = []
    for where, record in _records(path):
        if record.keys() != kinds.keys():
            raise ConfigError(f"{where}: expected a record with fields {sorted(kinds)}")
        _check_fields(where, record, kinds)
        try:
            items.append(_item(record))
        except DecomposeError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return items


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def _write_jsonl(path: Path, items: list[Subclaim] | list[SupportJudgment]) -> None:
    """Replace ``path`` whole with one record line per item."""
    with _replacing(path) as tmp:
        tmp.write_text("".join(_dump_line(_record(item)) for item in items), encoding="utf-8")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    """Replace ``path`` whole with ``rows`` as CSV."""
    with _replacing(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def jsonl_path(outdir: Path, stage: str, method: str) -> Path:
    return outdir / f"{JSONL_FILES[stage]}-{method}.jsonl"


# --- commands --------------------------------------------------------------------

# A stage's counts of degraded paths, printed in this order when it is done.
WARNINGS = {
    "empty_sentences": "sentences decomposed to no subclaims",
    "unparseable": "unparseable validator answers counted as unsupported",
    "empty_context": "claims had an empty context (nothing retrieved, or no room left in "
                     "the validator window) and count as unsupported",
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
    for key in ("max_inflight", "chunk_words"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    if cfg.cache_only and not cfg.cache_dir:
        raise ConfigError("--cache-only needs --cache-dir")
    with ThreadPoolExecutor(max_workers=cfg.max_inflight) as pool:
        if stage == "decompose":
            return cmd_decompose(cfg, pool.map)
        return cmd_judge(stage, cfg, pool.map)


def cmd_decompose(cfg: RunConfig, map_fn: MapFn) -> int:
    passages = _load_passages(cfg)
    if cfg.parses:
        from .conllu import parse_conllu_file

        passages = attach_parses(passages, parse_conllu_file(cfg.parses))
    methods = _resolve_methods(cfg)
    client = _build_client(cfg, "decomposer")
    outdir = Path(cfg.output_dir)

    # Every method's passages go through the pool as one batch, and only a
    # batch that succeeds whole replaces any file. With --cache-dir a rerun
    # sends only the requests the response log has not answered yet.
    rest = iter(list(map_fn(lambda job: decompose_passage(*job, client),
                            [(method, p) for method in methods.values() for p in passages])))
    counts: Counter[str] = Counter()
    for name in methods:
        decomposed = list(itertools.islice(rest, len(passages)))
        counts["empty_sentences"] += sum(
            len({s.index for s in p.sentences} - {c.sentence_index for c in claims})
            for p, claims in zip(passages, decomposed))
        path = jsonl_path(outdir, "decompose", name)
        _write_jsonl(path, [claim for claims in decomposed for claim in claims])
        print(f"decompose[{name}]: {path}")
    _warn(counts)
    return EXIT_OK


def _load_subclaims(outdir: Path, method: str) -> list[Subclaim]:
    claims = _load(outdir, "decompose", method)
    if claims is None:
        raise ConfigError(f"missing subclaims file {jsonl_path(outdir, 'decompose', method)}; "
                          "run decompose first")
    return claims


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

    # A subclaim's group is its source sentence's key. Judgments are written
    # in sorted group order; the stable sort keeps the file order in a group.
    group = attrgetter("generator", "topic", "sentence_index")
    loaded: dict[str, list[Subclaim]] = {}
    sentence_judgments: dict[str, list[SupportJudgment] | None] = {}
    for name in cfg.methods:
        claims = _load_subclaims(outdir, name)
        if not claims:
            logger.warning("method %s produced no subclaims; column omitted", name)
            continue
        if missing := sorted({group(c) for c in claims} - sentences.keys()):
            raise ConfigError(f"no source sentence for subclaim group {missing[0]}")
        if stage == "factscore":
            sentence_judgments[name] = _load(outdir, "decompscore", name)
            if sentence_judgments[name] is None:
                logger.warning("no sentence judgments for %s; filtered scores use "
                               "zero-supported counts", name)
            else:
                # raises on a subclaim without a sentence judgment, before any request
                results_from_judgments(claims, sentence_judgments=sentence_judgments[name])
        loaded[name] = claims
    batch = [claim for claims in loaded.values() for claim in sorted(claims, key=group)]
    stats: Counter[str] = Counter()
    if stage == "decompscore":
        judged = judge_decomposition(
            client, [(c, sentences[group(c)]) for c in batch], stats=stats, map_fn=map_fn)
    else:
        judged = judge_facts(client, index, batch, stats=stats, map_fn=map_fn)

    reports: dict[str, MethodReport] = {}
    rest = iter(judged)
    for name, claims in loaded.items():
        judgments = list(itertools.islice(rest, len(claims)))
        _write_jsonl(jsonl_path(outdir, stage, name), judgments)

        if stage == "decompscore":
            results = results_from_judgments(claims, sentence_judgments=judgments)
        else:
            results = results_from_judgments(claims, sentence_judgments=sentence_judgments[name],
                                             knowledge_judgments=judgments)
            stats["unfiltered_passages"] += sum(r.n_supported_by_sentence == 0 for r in results)
        reports[name] = method_report(results)

    _warn(stats)
    for filename, rows in _report_files(stage, reports).items():
        _write_csv(outdir / filename, rows)
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
    lines = [["column", "pearson_rho"]]
    for column in columns:
        rho = pearson(_numbers(file_a, rows_a, keys, column),
                      _numbers(file_b, rows_b, keys, column))
        lines.append([column, f"{rho:.4f}"])
        print(f"{column}: rho={rho:.4f}")
    if out:
        _write_csv(Path(out), lines)
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


def _read_csv(path: Path) -> list[list[str]]:
    """The rows of the CSV file at ``path``; one that is not UTF-8 CSV is a
    ConfigError naming it."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc}") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}: malformed CSV: {exc}") from exc


def _read_keyed_csv(path: Path) -> dict[str, dict[str, str]]:
    """Each row by its first cell, as a map from header to cell; as in a
    ``csv.DictReader``, blank rows are skipped and a short row's missing
    cells are None."""
    header, *body = _read_csv(path) or [[]]
    if not header:
        raise ConfigError(f"empty CSV {path}")
    rows: dict[str, dict[str, str]] = {}
    for row in filter(None, body):
        cells = dict(zip(header, row)) | dict.fromkeys(header[len(row):])
        key = cells[header[0]]
        if key in rows:
            raise ConfigError(f"{path}: repeated key {key!r} in column {header[0]!r}")
        rows[key] = cells
    return rows


def _report_files(stage: str, reports: dict[str, MethodReport]) -> dict[str, list[list[str]]]:
    """Each report file ``stage`` writes, as rows of cells, header first: per
    REPORT_COLUMNS entry a file rounded to one decimal and its *_raw.csv
    sibling at full precision, a row per generator then the macro average;
    for factscore also scatter.csv, a row of macro averages per method."""
    generators = sorted({lm for rep in reports.values() for lm in rep.per_lm})
    for name, rep in reports.items():
        if missing := [lm for lm in generators if lm not in rep.per_lm]:
            raise MetricsError(f"method {name!r} has no subclaims for generator {missing[0]!r}")
    rows = [(lm, [rep.per_lm[lm] for rep in reports.values()]) for lm in generators]
    rows.append((MACRO_ROW, [rep.macro for rep in reports.values()]))
    files = {}
    for filename, metric, scale in REPORT_COLUMNS[stage]:
        for name, fmt in ((filename, ".1f"), (Path(filename).stem + "_raw.csv", ".10g")):
            files[name] = [["generator", *reports], *([key, *(
                format(getattr(m, metric) * scale, fmt) for m in cells)] for key, cells in rows)]
    if stage == "factscore":
        files["scatter.csv"] = [["method", *(column for column, _, _ in SCATTER_COLUMNS)], *(
            [name, *(format(getattr(rep.macro, metric) * scale, ".10g")
                     for _, metric, scale in SCATTER_COLUMNS)] for name, rep in reports.items())]
    return files


def audit_outputs(outdir: str | Path, methods: list[str]) -> None:
    """Render each report file in ``outdir`` again from the judgment files,
    for the methods it lists, and raise at the first cell that differs or
    at a listed method not in ``methods``."""
    outdir = Path(outdir)
    reports: dict[str, MethodReport] = {}
    for name in methods:
        sentence = _load(outdir, "decompscore", name)
        if sentence is None:
            raise ConfigError(f"missing {jsonl_path(outdir, 'decompscore', name)}")
        results = results_from_judgments(
            _load_subclaims(outdir, name), sentence_judgments=sentence,
            knowledge_judgments=_load(outdir, "factscore", name))
        reports[name] = method_report(results)

    for stage in REPORT_COLUMNS:
        for filename in _report_files(stage, {}):
            if not (outdir / filename).exists():
                continue
            found = _read_csv(outdir / filename) or [[]]
            listed = ([m for row in found[1:] for m in row[:1]] if filename == "scatter.csv"
                      else found[0][1:])
            if unknown := [m for m in listed if m not in reports]:
                raise MetricsError(f"{filename} lists method {unknown[0]!r}, which is not "
                                   f"among the audited methods {methods}")
            derived = _report_files(stage, {m: reports[m] for m in listed})[filename]
            for row, want in itertools.zip_longest(found, derived, fillvalue=[]):
                for column, cell, value in itertools.zip_longest(derived[0], row, want):
                    if cell != value:
                        raise MetricsError(f"{filename} cell ({(want or row)[0]}, {column}) "
                                           f"= {cell} but judgments give {value}")


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
    parser.add_argument("--knowledge", help="knowledge corpus JSONL")
    parser.add_argument("--index", dest="index_path", help="prebuilt index file")
    parser.add_argument("--chunk-words", dest="chunk_words", type=int)
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
        if args.index_command == "build":  # the one command left is index
            return cmd_index_build(args.knowledge, args.out, args.chunk_words)
        return cmd_index_search(args.index, args.query, args.k, title=args.title)
    except (ConfigError, CorpusError, DecomposeError, RetrievalError, MetricsError,
            ProxySettingError, OSError) as exc:  # a ConlluError is a CorpusError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CompletionError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT


def entrypoint() -> None:
    # What import made lives until exit: keep it out of the run's full
    # collections and the last one at exit.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
