"""Seeded inputs for the pipeline benchmark, what the stub will answer for
them, and the checks that a stage's outputs match.

Every input is made from ``random.Random(f"{workload}:{seed}")``. Shares of
degraded inputs are exact counts, not per-item coin flips, so sizes and call
counts vary little between seeds; only unparseable verdicts, which the stub
picks by hashing the claim, are an approximate share. The pipeline sees only
the files written by ``write_inputs``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import stub
from claimdecomp.corpus import ExampleBank, ExampleEntry
from claimdecomp.decompose import (assemble_prompt, builtin_configs, default_bank,
                                   retrieve_examples)
from claimdecomp.llm import GenerationSettings
from claimdecomp.retrieval import tokenize

STAGES = ("index_build", "decompose", "decompscore", "factscore")

_SYLLABLES = ("ba", "be", "bo", "da", "de", "di", "fa", "fe", "ga", "go", "ha", "ka",
              "ke", "ko", "la", "le", "li", "lo", "ma", "me", "mi", "na", "ne", "no",
              "pa", "pe", "ra", "re", "ri", "ro", "sa", "se", "so", "ta", "te", "ti",
              "to", "va", "ve", "vi", "wa", "ya", "nor", "tam", "vel", "dor", "rin", "sul")
# Words of these syllables never occur in the knowledge corpus, because no
# corpus syllable contains "q" or "x"; claims made only of them retrieve nothing.
_FOREIGN_SYLLABLES = ("qu", "xa", "zoq", "qex", "xul", "vaq", "oxi", "quo")
_COMMON = ("the", "of", "and", "in", "was", "a", "to", "for", "with", "by", "at",
           "from", "as", "on", "is", "an", "after", "during", "its", "their")
_GENERATORS = ("gen-a", "gen-b", "gen-c")

REFUSAL_SHARE = 0.05
NOTHING_SHARE = 0.02
FOREIGN_SHARE = 0.03
LONG_BANK_SHARE = 0.03
BACKOFF_SHARE = 0.03  # sentences whose retrieved example is a long one
SENTENCES = 4  # per non-refusal passage
# Stub window beyond the static examples: room for one normal retrieved
# example and the target sentence, but not for a long example.
WINDOW_SLACK = 1200


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    topics: int                  # passage topics; each is written by every generator
    generators: int
    off_corpus_share: float      # topics without a knowledge document
    filler_titles: int           # documents no passage is about
    chunks_per_doc: tuple[int, int]
    chunk_words: int
    bank_entries: int            # 0: the bundled bank
    latency_ms: float
    retry_every: int             # stub 429s every Nth first attempt; 0: never
    cache: str                   # "none", "cold" (fresh per round) or "warm"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="endpoint-bound",
        methods=("rnd", "wice"), topics=4, generators=2,
        off_corpus_share=0.0, filler_titles=0, chunks_per_doc=(1, 2), chunk_words=256,
        bank_entries=0, latency_ms=20.0, retry_every=100, cache="cold"),
    Workload(
        name="retrieval-bound",
        methods=("rnd",), topics=10, generators=3,
        off_corpus_share=0.1, filler_titles=491, chunks_per_doc=(16, 16), chunk_words=48,
        bank_entries=400, latency_ms=0.0, retry_every=0, cache="none"),
    Workload(
        name="warm-replay",
        methods=("rnd", "wice"), topics=30, generators=2,
        off_corpus_share=0.0, filler_titles=0, chunks_per_doc=(1, 2), chunk_words=256,
        bank_entries=0, latency_ms=0.0, retry_every=0, cache="warm"),
)}


@dataclass
class PassageSpec:
    topic: str
    generator: str
    sentences: list[str]

    @property
    def output(self) -> str:
        return " ".join(self.sentences)


@dataclass
class Inputs:
    """Generated files' contents plus the traffic dimensions they imply."""

    passages: list[PassageSpec]
    knowledge: dict[str, str]
    bank: list[dict] = field(default_factory=list)
    retrieved: dict[str, int] = field(default_factory=dict)  # sentence -> bank index
    window_chars: int = 0
    dimensions: dict = field(default_factory=dict)


# --- generation -------------------------------------------------------------------

def _word(rng: random.Random, syllables=_SYLLABLES) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(2, 3)))


def _name(rng: random.Random) -> str:
    return f"{_word(rng).capitalize()} {_word(rng).capitalize()}"


def _fact(rng: random.Random, subject: str, vocab: list[str], pool: list[str]) -> str:
    words = []
    for _ in range(rng.randint(7, 12)):
        roll = rng.random()
        source = vocab if roll < 0.5 else _COMMON if roll < 0.8 else pool
        words.append(rng.choice(source))
    return f"{subject} {' '.join(words)}."


def _foreign(rng: random.Random) -> str:
    words = [_word(rng, _FOREIGN_SYLLABLES) for _ in range(rng.randint(5, 8))]
    return f"{words[0].capitalize()} {' '.join(words[1:])}."


_REFUSAL_OPENERS = ("I'm sorry, I don't have any information on",
                    "I'm sorry, I do not have information about",
                    "I am sorry, I don't have details on")
_REFUSAL_OBJECTS = ("a person named {}", "{}", "anyone called {}")


def _refusal(rng: random.Random, topic: str) -> str:
    opener = rng.choice(_REFUSAL_OPENERS)
    obj = rng.choice(_REFUSAL_OBJECTS).format(topic)
    return f"{opener} {obj} as of {rng.randint(1990, 2030)}."


def _of_class(make, target: tuple[int, ...], instructions: list[str], seen: set[str]) -> str:
    """Draw from ``make`` until the sentence is new and the stub cuts it into
    ``target[i]`` subclaims for ``instructions[i]``."""
    while True:
        sentence = make()
        if sentence not in seen and tuple(
                stub.pieces(i, sentence) for i in instructions) == target:
            seen.add(sentence)
            return sentence


def _plan(rng: random.Random, positions: list[int], methods: int) -> dict[int, tuple]:
    """An exact, shuffled mix of per-method subclaim counts for ``positions``:
    the stub's shared share gets one count for every method, the rest cycle
    through every combination of 1-4 per method."""
    shared = round(len(positions) * stub.SHARED_PERCENT / 100)
    combos = list(itertools.product(range(1, 5), repeat=methods))
    plan = [(1 + i % 4,) * methods for i in range(shared)]
    plan += [combos[i % len(combos)] for i in range(len(positions) - shared)]
    rng.shuffle(plan)
    return dict(zip(positions, plan))


def _exact(rng: random.Random, population: int, share: float, minimum: int = 0) -> set[int]:
    count = min(population, max(minimum, round(population * share)))
    return set(rng.sample(range(population), count))


def _doc_text(rng: random.Random, name: str, vocab: list[str], pool: list[str],
              words_target: int) -> str:
    facts, words = [], 0
    while words < words_target:
        fact = _fact(rng, name if not facts else rng.choice(("He", "She", name)), vocab, pool)
        facts.append(fact)
        words += len(fact.split())
    return " ".join(facts)


def _bank(rng: random.Random, workload: Workload, pool: list[str],
          sentences: list[str]) -> tuple[list[dict], dict[str, int], int]:
    """A bank with a few long entries in its retrieval pool, the bank index of
    the entry each sentence retrieves, and the stub window that rejects
    exactly the prompts holding a long entry.

    Retrieval ranks entries by their sentence alone, so the long entries are
    picked after it: a set that exactly ``BACKOFF_SHARE`` of the sentences
    retrieve, plus entries that no sentence retrieves."""
    config = builtin_configs()[workload.methods[0]]
    if config.retrieved_count != 1:
        raise ValueError(f"{config.name} must retrieve one example per prompt")
    static = config.static_count
    entries, seen = [], set()
    while len(entries) < workload.bank_entries:
        sentence = _fact(rng, _name(rng), rng.sample(pool, 20), pool)
        if sentence in seen:
            continue
        seen.add(sentence)
        words = sentence.rstrip(".").split()
        pieces = rng.randint(2, 5)
        bounds = [round(i * len(words) / pieces) for i in range(pieces + 1)]
        entries.append({"sentence": sentence, "subclaims": [
            " ".join(words[lo:hi]) + "." for lo, hi in zip(bounds, bounds[1:])]})

    retrieval_pool = _example_bank(entries[static:])
    index_of = {id(entry): static + i for i, entry in enumerate(retrieval_pool.entries)}
    retrieved = {s: index_of[id(retrieve_examples(retrieval_pool, s, 1)[0])]
                 for s in sentences}
    hits = Counter(retrieved.values())
    target = max(1, round(len(sentences) * BACKOFF_SHARE))
    reach: dict[int, tuple[int, ...]] = {0: ()}  # sentences retrieving -> entries
    candidates = sorted(hits)
    rng.shuffle(candidates)
    for i in candidates:
        for total, chosen in list(reach.items()):
            reach.setdefault(total + hits[i], chosen + (i,))
    if target not in reach:
        raise ValueError(f"no set of bank entries is retrieved by exactly {target} sentences")
    idle = [i for i in range(static, len(entries)) if i not in hits]
    padding = round((len(entries) - static) * LONG_BANK_SHARE) - len(reach[target])
    long_ids = set(reach[target]) | set(rng.sample(idle, max(0, padding)))
    for i in sorted(long_ids):
        entries[i]["subclaims"] += [_fact(rng, "It", rng.sample(pool, 20), pool)
                                    for _ in range(30)]

    blocks = [len("\n".join([config.instruction, e["sentence"]]
                            + [f"- {c}" for c in e["subclaims"]])) for e in entries]
    window = sum(blocks[:static]) + 2 * static + WINDOW_SLACK
    if min(blocks[i] for i in long_ids) <= WINDOW_SLACK:
        raise ValueError("long bank entry would fit the stub window")
    return entries, retrieved, window


def _example_bank(entries: list[dict]) -> ExampleBank:
    return ExampleBank(tuple(ExampleEntry(e["sentence"], tuple(e["subclaims"]))
                             for e in entries))


def _is_long(entry: dict) -> bool:
    return len(entry["subclaims"]) > 5


def generate(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    pool = sorted({_word(rng) for _ in range(4000)})
    names: list[str] = []
    while len(names) < workload.topics + workload.filler_titles:
        name = _name(rng)
        if name not in names:
            names.append(name)
    topics, fillers = names[:workload.topics], names[workload.topics:]
    vocab = {name: rng.sample(pool, 30) for name in names}
    off_corpus = {topics[i] for i in _exact(rng, len(topics), workload.off_corpus_share)}

    knowledge = {}
    for title in [t for t in topics if t not in off_corpus] + fillers:
        chunks = rng.randint(*workload.chunks_per_doc)
        target = (chunks - 1) * workload.chunk_words + rng.randint(
            workload.chunk_words // 4, workload.chunk_words - 16)
        knowledge[title] = _doc_text(rng, title, vocab[title], pool, target)

    slots = [(t, g) for t in topics for g in _GENERATORS[:workload.generators]]
    refusals = _exact(rng, len(slots), REFUSAL_SHARE, minimum=1)
    starts = [0]
    for i in range(len(slots)):
        starts.append(starts[-1] + (1 if i in refusals else SENTENCES))
    n_sentences = starts[-1]
    refusal_positions = {starts[i] for i in refusals}
    nothing = _exact(rng, n_sentences, NOTHING_SHARE, minimum=1)
    # One refusal decomposes to nothing, so a zero-subclaim passage is always present.
    nothing.add(starts[min(refusals)])
    foreign = _exact(rng, n_sentences, FOREIGN_SHARE, minimum=1) - nothing - refusal_positions
    # Plan subclaim counts separately for off-corpus passages, whose claims
    # take the costly unrestricted search, so that cost is the same for every seed.
    instructions = [builtin_configs()[m].instruction for m in workload.methods]
    strata: dict[bool, list[int]] = {True: [], False: []}
    for i, (topic, _) in enumerate(slots):
        strata[topic in off_corpus] += [p for p in range(starts[i], starts[i + 1])
                                        if p not in nothing]
    plan = dict.fromkeys(nothing, (0,) * len(instructions))
    for stratum in strata.values():
        plan.update(_plan(rng, stratum, len(instructions)))

    passages, seen = [], set()
    for i, (topic, generator) in enumerate(slots):
        sentences = []
        for position in range(starts[i], starts[i + 1]):
            subject = topic if position == starts[i] else rng.choice(("He", "She"))
            if i in refusals:
                make = lambda: _refusal(rng, topic)  # noqa: E731
            elif position in foreign:
                make = lambda: _foreign(rng)  # noqa: E731
            else:
                make = lambda: _fact(rng, subject, vocab[topic], pool)  # noqa: E731
            sentences.append(_of_class(make, plan[position], instructions, seen))
        passages.append(PassageSpec(topic, generator, sentences))

    bank, retrieved, window = [], {}, 0
    if workload.bank_entries:
        bank, retrieved, window = _bank(rng, workload, pool,
                                        [s for p in passages for s in p.sentences])

    chunks = sum(math.ceil(len(text.split()) / workload.chunk_words)
                 for text in knowledge.values())
    dimensions = {
        "passages": len(passages), "sentences": n_sentences,
        "refusal_passages": len(refusals), "nothing_sentences": len(nothing),
        "foreign_sentences": len(foreign), "off_corpus_passages":
            sum(p.topic in off_corpus for p in passages),
        "knowledge_docs": len(knowledge), "chunks": chunks,
        "chunk_words": workload.chunk_words,
        "bank_entries": len(bank) or len(default_bank()),
        "long_bank_entries": sum(_is_long(e) for e in bank),
        "backoff_sentences": sum(_is_long(bank[i]) for i in retrieved.values()),
        "methods": list(workload.methods), "latency_ms": workload.latency_ms,
        "retry_share": 1 / workload.retry_every if workload.retry_every else 0.0,
        "window_chars": window, "cache": workload.cache,
    }
    return Inputs(passages, knowledge, bank, retrieved, window, dimensions)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    files = {"generations": directory / "generations.jsonl",
             "knowledge": directory / "knowledge.jsonl"}
    _write_jsonl(files["generations"], (
        {"topic": p.topic, "generator": p.generator, "output": p.output}
        for p in inputs.passages))
    _write_jsonl(files["knowledge"], (
        {"title": title, "text": text} for title, text in inputs.knowledge.items()))
    if inputs.bank:
        files["bank"] = directory / "bank.jsonl"
        _write_jsonl(files["bank"], inputs.bank)
    return files


# --- expectations -------------------------------------------------------------------

@dataclass
class Expectation:
    """What a correct run writes and how many completions the stub answers."""

    subclaims: dict[str, list[dict]]          # method -> records in file order
    sentence_of: dict[tuple, str]             # (generator, topic, index) -> sentence
    empty_context: dict[tuple, bool]          # (restrict, claim text) -> no hits
    restrict: dict[tuple[str, str], str | None]  # (generator, topic) -> title or None
    calls: dict[str, int]                     # stage -> stub 200s
    rejections: dict[str, int]                # stage -> stub context-length 400s

    @property
    def subclaim_count(self) -> int:
        return sum(len(records) for records in self.subclaims.values())


def expect(workload: Workload, inputs: Inputs) -> Expectation:
    configs = builtin_configs()
    vocab = {title: set(tokenize(text)) for title, text in inputs.knowledge.items()}
    everything = set().union(*vocab.values())
    subclaims: dict[str, list[dict]] = {}
    sentence_of, restrict, empty = {}, {}, {}
    decompose_calls, sentence_prompts, knowledge_prompts = 0, [], []
    for method in workload.methods:
        instruction = configs[method].instruction
        records = []
        for p in inputs.passages:
            title = p.topic if p.topic in inputs.knowledge else None
            restrict[(p.generator, p.topic)] = title
            for index, sentence in enumerate(p.sentences):
                sentence_of[(p.generator, p.topic, index)] = sentence
                decompose_calls += 1
                for ordinal, text in enumerate(stub.decomposition(instruction, sentence)):
                    records.append({"generator": p.generator, "method": method,
                                    "ordinal": ordinal, "sentence_index": index,
                                    "text": text, "topic": p.topic})
                    sentence_prompts.append((sentence, text))
                    key = (title, text)
                    if key not in empty:
                        words = set(tokenize(text))
                        empty[key] = not words & (vocab[title] if title else everything)
                    if not empty[key]:
                        knowledge_prompts.append(key)
        subclaims[method] = records

    def count(prompts) -> int:
        return len(set(prompts)) if workload.cache == "cold" else len(prompts)

    calls = {"index_build": 0, "decompose": decompose_calls,
             "decompscore": count(sentence_prompts), "factscore": count(knowledge_prompts)}
    rejections = dict.fromkeys(calls, 0)
    rejections["decompose"] = _window_rejections(workload, inputs)
    if workload.cache == "warm":
        calls, rejections = dict.fromkeys(calls, 0), dict.fromkeys(calls, 0)
    return Expectation(subclaims, sentence_of, empty, restrict, calls, rejections)


def _window_rejections(workload: Workload, inputs: Inputs) -> int:
    """Prompts of the banked method that the stub rejects as over its window:
    those holding the retrieved example are too long exactly when it is a
    long entry, and the pipeline then retries without it, which fits."""
    if not inputs.window_chars:
        return 0
    bank = _example_bank(inputs.bank)
    config = builtin_configs()[workload.methods[0]].with_bank(bank)
    settings = GenerationSettings()
    budget = settings.context_window - settings.max_tokens
    return sum(len(assemble_prompt(config, sentence, [bank.entries[i]], budget).text)
               > inputs.window_chars for sentence, i in inputs.retrieved.items())


# --- output checks ------------------------------------------------------------------

def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _claim_key(record: dict) -> tuple:
    return (record["method"], record["generator"], record["topic"],
            record["sentence_index"], record["ordinal"], record["text"])


def _judgment_errors(path: Path, claims: list[dict], supported_of, context_ok) -> list[str]:
    if not path.exists():
        return [f"{path.name} missing"]
    records = _read_jsonl(path)
    errors = []
    if sorted(map(_claim_key, records)) != sorted(map(_claim_key, claims)):
        errors.append(f"{path.name}: judged claims differ from the subclaims")
    for r in records:
        if not context_ok(r):
            errors.append(f"{path.name}: unexpected context for {r['text']!r}")
        if r["supported"] is not supported_of(r):
            errors.append(f"{path.name}: supported={r['supported']} for {r['text']!r} "
                          "disagrees with the stub's verdict")
    return errors


def stage_errors(stage: str, outdir: Path, expectation: Expectation,
                 stats: dict | None) -> list[str]:
    """Why ``stage``'s outputs in ``outdir`` are wrong; empty when they are right.
    ``stats`` holds the stub's counters for the stage, or is None if not observed."""
    from claimdecomp.cli import audit_outputs  # imported late: only checks need it

    def is_empty(r: dict) -> bool:
        title = expectation.restrict[(r["generator"], r["topic"])]
        return expectation.empty_context[(title, r["text"])]

    errors = []
    if stats is not None:
        for counter, predicted, what in (
                ("answered", expectation.calls, "completions"),
                ("window_rejections", expectation.rejections, "prompts over its window")):
            if stats[counter] != predicted[stage]:
                errors.append(f"{stage}: stub counted {stats[counter]} {what}, "
                              f"inputs predict {predicted[stage]}")
    if stage == "index_build":
        if not (outdir / "index.json").exists():
            errors.append("index.json missing")
        return errors
    for method, claims in expectation.subclaims.items():
        if stage == "decompose":
            path = outdir / f"subclaims-{method}.jsonl"
            if not path.exists() or _read_jsonl(path) != claims:
                errors.append(f"{path.name} differs from the stub's decomposition")
        elif stage == "decompscore":
            errors += _judgment_errors(
                outdir / f"sentence-judgments-{method}.jsonl", claims,
                lambda r: stub.verdict(r["text"]) == "True.",
                lambda r: r["context_snapshot"] == expectation.sentence_of[
                    (r["generator"], r["topic"], r["sentence_index"])])
        else:
            # An empty context must be judged unsupported without a call; the
            # call count check above catches a call made for it.
            errors += _judgment_errors(
                outdir / f"knowledge-judgments-{method}.jsonl", claims,
                lambda r: not is_empty(r) and stub.verdict(r["text"]) == "True.",
                lambda r: (r["context_snapshot"] == "") == is_empty(r))
    if stage == "factscore" and not errors:
        try:
            audit_outputs(outdir, list(expectation.subclaims))
        except (ValueError, KeyError, OSError) as exc:
            errors.append(f"audit_outputs: {exc}")
    return errors
