"""Rule-based predicate-argument extraction from dependency parses.

Each extracted predication is a set of predicate token ids plus ordered
argument token-id sets. Renderings keep tokens in surface order and may
insert exactly two marker strings: "is/are" for being and "poss" for
possession. Every rule always runs, and an LLM pass (`fluency_rewrite`)
turns the raw renderings into grammatical sentences.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import ClassVar

from .conllu import SentenceParse, Token, validate_parse
from .decompose import DECOMPOSER_SETTINGS
from .llm import CompletionClient, CompletionError, complete_text

KIND_VERBAL = "verbal"
KIND_COPULAR = "copular"
KIND_APPOSITIVE = "appositive"
KIND_ADJECTIVAL = "adjectival"
KIND_POSSESSIVE = "possessive"

_KIND_ORDER = {
    KIND_VERBAL: 0,
    KIND_COPULAR: 1,
    KIND_APPOSITIVE: 2,
    KIND_ADJECTIVAL: 3,
    KIND_POSSESSIVE: 4,
}

MARKER_BE = "is/are"
MARKER_POSS = "poss"

# Base relations whose subtrees become arguments of a verbal predicate.
CORE_ARG_RELS = frozenset({"nsubj", "obj", "iobj", "ccomp", "xcomp", "obl"})

_RELATIVE_PRONOUNS = frozenset({"who", "whom", "whose", "which", "that"})


class PredArgError(ValueError):
    """Extraction was asked to run on an invalid parse."""


class FluencyRewriteError(CompletionError):
    def __init__(self, utterance: str, reason: str):
        super().__init__(f"fluency rewrite failed for {utterance!r}: {reason}")
        self.utterance = utterance


@dataclass(frozen=True)
class Predication:
    kind: str
    predicate_tokens: frozenset[int]
    argument_slots: tuple[frozenset[int], ...]
    anchor: int

    @property
    def marker(self) -> str | None:
        if self.predicate_tokens:
            return None
        return MARKER_POSS if self.kind == KIND_POSSESSIVE else MARKER_BE


class _ParseIndex:
    def __init__(self, parse: SentenceParse):
        self.by_id: dict[int, Token] = {t.id_value: t for t in parse.words}
        self.children: dict[int, list[Token]] = defaultdict(list)
        for token in parse.words:
            head = token.head_value
            if head:
                self.children[head].append(token)
        for kids in self.children.values():
            kids.sort(key=lambda t: t.id_value)

    def kids(self, token: Token, base: str | None = None,
             exact: str | None = None) -> list[Token]:
        out = self.children.get(token.id_value, [])
        if base is not None:
            out = [c for c in out if c.base_deprel == base]
        if exact is not None:
            out = [c for c in out if c.deprel == exact]
        return out


def _subtree(idx: _ParseIndex, root: Token,
             excluded: frozenset[int] = frozenset()) -> set[int]:
    """Token ids under ``root``, cutting edges the rules extract separately
    (possessors, appositions, relative clauses)."""
    out: set[int] = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        out.add(cur.id_value)
        for child in idx.children.get(cur.id_value, []):
            if (child.id_value in excluded or child.base_deprel == "appos"
                    or child.deprel in ("nmod:poss", "acl:relcl")):
                continue
            stack.append(child)
    return out


def _strip_span(idx: _ParseIndex, ids: set[int]) -> frozenset[int]:
    ordered = sorted(ids)
    while ordered:
        tok = idx.by_id[ordered[0]]
        if tok.upos == "PUNCT" or tok.base_deprel in ("mark", "cc"):
            ordered.pop(0)
            continue
        break
    while ordered and idx.by_id[ordered[-1]].upos == "PUNCT":
        ordered.pop()
    return frozenset(ordered)


@dataclass
class _Slot:
    """An argument position: either a fixed span or a head whose subtree
    (and conjunct variants) get computed."""

    head: Token | None = None
    excluded: frozenset[int] = frozenset()
    fixed: frozenset[int] | None = None


def _slot_variants(idx: _ParseIndex, slot: _Slot) -> list[frozenset[int]]:
    if slot.fixed is not None:
        return [slot.fixed]
    head = slot.head
    assert head is not None
    conjuncts = idx.kids(head, base="conj")
    conj_ids = frozenset(c.id_value for c in conjuncts)
    base_span = _subtree(idx, head, excluded=slot.excluded | conj_ids)
    variants = [_strip_span(idx, base_span)]
    case_ids = {c.id_value for c in idx.kids(head, base="case")}
    for conjunct in conjuncts:
        cc_ids = frozenset(c.id_value for c in idx.kids(conjunct, base="cc"))
        span = _subtree(idx, conjunct, excluded=slot.excluded | cc_ids)
        if case_ids and not any(idx.by_id[i].base_deprel == "case" for i in span):
            span |= case_ids  # carry "with"/"in" over to the later conjunct
        variants.append(_strip_span(idx, span))
    return [v for v in variants if v]


def _expand(idx: _ParseIndex, kind: str, predicate: frozenset[int],
            slots: list[_Slot], anchor: int) -> list[Predication]:
    variant_lists = [_slot_variants(idx, s) for s in slots]
    if any(not v for v in variant_lists):
        return []
    out = []
    for combo in itertools.product(*variant_lists):
        out.append(Predication(kind=kind, predicate_tokens=predicate,
                               argument_slots=tuple(combo), anchor=anchor))
    return out


def _verbal(idx: _ParseIndex, verb: Token) -> list[Predication]:
    predicate = {verb.id_value}
    for child in idx.children.get(verb.id_value, []):
        if child.base_deprel == "aux" or child.deprel == "compound:prt":
            predicate.add(child.id_value)

    slots: list[_Slot] = []
    for child in idx.children.get(verb.id_value, []):
        if child.base_deprel in CORE_ARG_RELS:
            slots.append(_Slot(head=child))
    if not slots:
        return []

    has_subject = any(s.head is not None and s.head.base_deprel == "nsubj" for s in slots)

    if verb.deprel == "acl:relcl":
        antecedent = idx.by_id.get(verb.head_value)
        if antecedent is not None:
            span = _strip_span(idx, _subtree(idx, antecedent))
            replaced = False
            for slot in slots:
                assert slot.head is not None
                if (slot.head.upos == "PRON"
                        and slot.head.form.lower() in _RELATIVE_PRONOUNS):
                    slot.fixed = span
                    replaced = True
                    break
            if not replaced and not has_subject:
                slots.insert(0, _Slot(fixed=span))
    elif not has_subject and verb.base_deprel == "conj":
        governor = idx.by_id.get(verb.head_value)
        if governor is not None:
            shared = idx.kids(governor, base="nsubj")
            if shared:
                slots.insert(0, _Slot(head=shared[0]))

    return _expand(idx, KIND_VERBAL, frozenset(predicate), slots, verb.id_value)


def _copular(idx: _ParseIndex, head: Token, cop: Token) -> list[Predication]:
    subjects = idx.kids(head, base="nsubj")
    if not subjects:
        return []
    subject = subjects[0]
    excluded = frozenset({cop.id_value, subject.id_value})
    head_slot = _Slot(head=head, excluded=excluded)
    # An adjectival predicate keeps its real copula token; a nominal one is
    # rendered with the "is/are" marker instead.
    predicate = frozenset({cop.id_value}) if head.upos == "ADJ" else frozenset()
    return _expand(idx, KIND_COPULAR, predicate,
                   [_Slot(head=subject), head_slot], head.id_value)


def _appositive(idx: _ParseIndex, head: Token, appos: Token) -> list[Predication]:
    head_slot = _Slot(head=head, excluded=frozenset({appos.id_value}))
    return _expand(idx, KIND_APPOSITIVE, frozenset(),
                   [head_slot, _Slot(head=appos)], appos.id_value)


def _adjectival(idx: _ParseIndex, head: Token, adj: Token) -> list[Predication]:
    amod_ids = frozenset(c.id_value for c in idx.kids(head, base="amod"))
    head_slot = _Slot(head=head, excluded=amod_ids)
    return _expand(idx, KIND_ADJECTIVAL, frozenset(),
                   [head_slot, _Slot(head=adj)], adj.id_value)


def _possessive(idx: _ParseIndex, head: Token, possessor: Token) -> list[Predication]:
    case_ids = frozenset(c.id_value for c in idx.kids(possessor, base="case"))
    poss_slot = _Slot(head=possessor, excluded=case_ids)
    return _expand(idx, KIND_POSSESSIVE, frozenset(),
                   [poss_slot, _Slot(head=head)], possessor.id_value)


def extract_predications(parse: SentenceParse) -> list[Predication]:
    """Apply every extraction rule to one parse.

    Deterministic: an identical parse yields the identical ordered list
    (sorted by defining token, then rule kind).
    """
    violations = validate_parse(parse)
    if violations:
        raise PredArgError("invalid parse: " + "; ".join(violations))

    idx = _ParseIndex(parse)
    found: list[Predication] = []
    for token in parse.words:
        if token.deprel in ("aux", "aux:pass", "cop"):
            continue
        if token.upos == "VERB" or (token.upos == "AUX" and token.deprel == "root"):
            found.extend(_verbal(idx, token))
        if token.upos != "VERB":
            cops = idx.kids(token, exact="cop")
            if cops:
                found.extend(_copular(idx, token, cops[0]))
        for appos in idx.kids(token, base="appos"):
            found.extend(_appositive(idx, token, appos))
        for amod in idx.kids(token, base="amod"):
            if amod.upos == "ADJ":
                found.extend(_adjectival(idx, token, amod))
        for poss in idx.kids(token, exact="nmod:poss"):
            found.extend(_possessive(idx, token, poss))

    found.sort(key=lambda p: (p.anchor, _KIND_ORDER[p.kind]))
    return found


def render_predication(parse: SentenceParse, predication: Predication) -> str:
    """Join the predication's token forms in surface order, inserting the
    "is/are"/"poss" marker between the first argument and the rest when the
    predicate carries no tokens of its own."""
    forms = {t.id_value: t.form for t in parse.words}
    unknown = set(predication.predicate_tokens).union(*predication.argument_slots) - set(forms)
    if unknown:
        raise PredArgError(f"predication references unknown token ids {sorted(unknown)}")

    marker = predication.marker
    if marker is None:
        ids = set(predication.predicate_tokens)
        for slot in predication.argument_slots:
            ids |= slot
        return " ".join(forms[i] for i in sorted(ids))

    first = predication.argument_slots[0]
    rest: set[int] = set(predication.predicate_tokens)
    for slot in predication.argument_slots[1:]:
        rest |= slot
    left = " ".join(forms[i] for i in sorted(first))
    right = " ".join(forms[i] for i in sorted(rest))
    return " ".join(part for part in (left, marker, right) if part)


FLUENCY_PROMPT_TEMPLATE = (
    "Please turn my input utterances into a grammatically correct natural "
    "English sentence by resolving tense, fixing grammatical errors, and "
    "reordering words without changing meanings. Your output should not "
    'contain "is/are" or "poss". Your output should contain no hallucinated '
    "information and no redundant sentences. Just the modified utterance.\n"
    "\n"
    "Input: born 1908 community leader\n"
    "Output: The community leader was born in 1908.\n"
    "\n"
    "Input: date of death is/are unknown\n"
    "Output: The date of death is unknown.\n"
    "\n"
    "Input: was an African - American social worker activist\n"
    "Output: They were an African-American social worker activist.\n"
    "\n"
    "Input: {utterance}\n"
    "Output:"
)


def fluency_prompt(utterance: str) -> str:
    return FLUENCY_PROMPT_TEMPLATE.format(utterance=utterance)


def fluency_rewrite(client: CompletionClient, utterance: str) -> str:
    """Rewrite one raw predication rendering into fluent English via the
    completion client, with the decomposer's settings; returns the completion
    trimmed to its first line."""
    if not utterance:
        raise ValueError("utterance must be non-empty")
    try:
        response = complete_text(client, fluency_prompt(utterance), DECOMPOSER_SETTINGS)
    except CompletionError as exc:
        raise FluencyRewriteError(utterance, str(exc)) from exc
    return response.text.strip().split("\n")[0].strip()


@dataclass(frozen=True)
class PredArgMethod:
    """Decomposition via extraction plus fluency rewriting."""

    name: str = "predpatt"
    include_parse: ClassVar[bool] = True
