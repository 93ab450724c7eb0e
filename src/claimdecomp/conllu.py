"""Reading, validating, and serializing CoNLL-U dependency annotations.

Word lines carry 10 tab-separated fields. Multiword-token ranges (``1-2``)
and empty nodes (``3.1``) are preserved verbatim but ignored by the
dependency-graph checks, which apply to regular word lines only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusError

FIELD_COUNT = 10


class ConlluError(CorpusError):
    """Malformed or invariant-violating CoNLL-U input."""


@dataclass(frozen=True)
class Token:
    """One word line; all fields stored exactly as read."""

    id: str
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    head: str
    deprel: str
    deps: str
    misc: str

    @property
    def is_multiword(self) -> bool:
        return "-" in self.id

    @property
    def is_empty_node(self) -> bool:
        return "." in self.id

    @property
    def is_word(self) -> bool:
        return not self.is_multiword and not self.is_empty_node

    @property
    def id_value(self) -> int:
        if not self.is_word:
            raise ConlluError(f"token id {self.id!r} is not a regular word id")
        return int(self.id)

    @property
    def head_value(self) -> int:
        if self.head == "_" or not self.head.lstrip("-").isdigit():
            raise ConlluError(f"token {self.id}: malformed head {self.head!r}")
        return int(self.head)

    @property
    def base_deprel(self) -> str:
        return self.deprel.split(":")[0]

    def as_line(self) -> str:
        fields = (self.id, self.form, self.lemma, self.upos, self.xpos,
                  self.feats, self.head, self.deprel, self.deps, self.misc)
        return "\t".join(f if f != "" else "_" for f in fields)


@dataclass(frozen=True)
class SentenceParse:
    """One dependency-parsed sentence: leading comments plus its tokens."""

    tokens: tuple[Token, ...]
    comments: tuple[str, ...] = ()

    @property
    def words(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if t.is_word)

    @property
    def text_comment(self) -> str | None:
        for comment in self.comments:
            body = comment.lstrip("#").strip()
            if body.startswith("text =") or body.startswith("text="):
                return body.split("=", 1)[1].strip()
        return None


def parse_conllu(text: str) -> list[SentenceParse]:
    """Parse CoNLL-U text into sentences separated by blank lines.

    Raises ConlluError (naming the offending line) on field-count errors and
    on any structural invariant violation.
    """
    parses: list[SentenceParse] = []
    comments: list[str] = []
    tokens: list[Token] = []
    first_line = 0

    def flush(lineno: int) -> None:
        nonlocal comments, tokens, first_line
        if not tokens and not comments:
            return
        if not tokens:
            raise ConlluError(f"line {first_line}: comments without token lines")
        parse = SentenceParse(tokens=tuple(tokens), comments=tuple(comments))
        violations = validate_parse(parse)
        if violations:
            raise ConlluError(f"sentence ending at line {lineno}: " + "; ".join(violations))
        parses.append(parse)
        comments, tokens = [], []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush(lineno - 1)
            continue
        if line.startswith("#"):
            if tokens:
                raise ConlluError(f"line {lineno}: comment after token lines")
            if not comments and not tokens:
                first_line = lineno
            comments.append(line)
            continue
        fields = line.split("\t")
        if len(fields) != FIELD_COUNT:
            raise ConlluError(
                f"line {lineno}: expected {FIELD_COUNT} tab-separated fields, got {len(fields)}")
        if any(f == "" for f in fields):
            raise ConlluError(f"line {lineno}: empty field (use '_')")
        if not tokens and not comments:
            first_line = lineno
        tokens.append(Token(*fields))
    flush(lineno)
    return parses


def parse_conllu_file(path: str | Path) -> list[SentenceParse]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConlluError(f"{path}: not UTF-8: {exc}") from exc
    return parse_conllu(text)


def serialize(parses: list[SentenceParse] | tuple[SentenceParse, ...]) -> str:
    """Render parses back to CoNLL-U text.

    Tab-separated fields, one blank line after every sentence, so
    ``parse_conllu(serialize(p)) == p`` and well-formed files round-trip
    byte-identically (modulo line-ending normalization).
    """
    blocks = []
    for parse in parses:
        violations = validate_parse(parse)
        if violations:
            raise ConlluError("cannot serialize invalid parse: " + "; ".join(violations))
        lines = list(parse.comments) + [t.as_line() for t in parse.tokens]
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def validate_parse(parse: SentenceParse) -> list[str]:
    """Return human-readable violation descriptions; empty list iff valid."""
    violations: list[str] = []
    words = []
    for token in parse.tokens:
        if token.is_word:
            if not token.id.isdigit():
                violations.append(f"token {token.id}: malformed id")
                continue
            words.append(token)

    for expected, token in enumerate(words, start=1):
        if int(token.id) != expected:
            violations.append(
                f"non-contiguous ids: expected {expected}, got {token.id}")
            return violations  # downstream checks assume contiguity

    n = len(words)
    heads: dict[int, int] = {}
    for token in words:
        try:
            head = token.head_value
        except ConlluError:
            violations.append(f"token {token.id}: malformed head {token.head!r}")
            continue
        if head < 0 or head > n:
            violations.append(f"token {token.id}: dangling head {head}")
            continue
        heads[token.id_value] = head

    roots = [i for i, h in heads.items() if h == 0]
    if words and not roots:
        violations.append("no root")
    elif len(roots) > 1:
        violations.append("multiple roots: tokens " + ", ".join(str(r) for r in roots))

    # Cycle check: every word must reach 0 by following heads.
    state: dict[int, int] = {}  # 0=unseen handled by absence, 1=in progress, 2=done
    for start in heads:
        if state.get(start) == 2:
            continue
        path = []
        cur = start
        while cur != 0 and cur in heads and state.get(cur) != 2:
            if state.get(cur) == 1:
                violations.append(f"cyclic heads involving token {cur}")
                break
            state[cur] = 1
            path.append(cur)
            cur = heads[cur]
        for node in path:
            state[node] = 2

    return violations
