"""Reading, merging, and writing of column-formatted code-mixed corpora.

Files are UTF-8 and tab-separated, one token per line, with blank lines
separating sentences.  Training data carries three columns (token, language
tag, POS tag); test data carries two (token, language tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

TRAIN3COL = "train3col"
TEST2COL = "test2col"


class CorpusError(ValueError):
    """Malformed corpus content.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_column(value: str, what: str) -> None:
    """A column value is nonempty and holds no tab or line break."""
    if not value:
        raise CorpusError(f"empty {what}")
    if "\t" in value or "\r" in value or "\n" in value:
        raise CorpusError(f"{what} contains tab or newline")


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    lang: str
    pos: str | None = None

    def __post_init__(self):
        # every field is one column of a corpus line, so write_corpus can
        # write any token that builds
        _check_column(self.surface, "token surface")
        _check_column(self.lang, "language tag")
        if self.pos is not None:
            _check_column(self.pos, "POS tag")


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise CorpusError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, i: int) -> Token:
        return self.tokens[i]


@dataclass(frozen=True, slots=True)
class Corpus:
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


def decode_text(data: bytes, error: Callable[..., ValueError] = CorpusError) -> str:
    """A file's bytes as UTF-8 text; bad UTF-8 raises ``error(message, line=n)``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"not UTF-8: {exc.reason} at byte {exc.start}", line=line) from None


def _check_schema(schema: str) -> int:
    if schema == TRAIN3COL:
        return 3
    if schema == TEST2COL:
        return 2
    raise ValueError(f"unknown schema {schema!r}")


def parse_corpus(text: str, schema: str) -> Corpus:
    """Parse tab-separated column text into a Corpus.

    Blank lines end the current sentence; a trailing partial sentence is
    closed at end of input.  A leading byte-order mark is stripped.

    Within a call, equal lines give one shared (immutable) token, and equal
    column values one shared string, so a corpus whose surfaces and tags
    repeat holds each of them once.
    """
    ncols = _check_schema(schema)
    text = text.removeprefix("\ufeff")

    sentences: list[Sentence] = []
    current: list[Token] = []
    tokens: dict[str, Token] = {}  # line -> its token
    share = {}.setdefault  # column value -> its one string

    def close_sentence():
        if current:
            sentences.append(Sentence(tuple(current)))
            current.clear()

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        token = tokens.get(line)
        if token is None:
            if line == "":
                close_sentence()
                continue
            cols = line.split("\t")
            if len(cols) != ncols:
                raise CorpusError(
                    f"expected {ncols} tab-separated columns, found {len(cols)}",
                    line=lineno,
                )
            try:
                token = tokens[line] = Token(*map(share, cols, cols))
            except CorpusError as exc:
                raise CorpusError(str(exc), line=lineno) from None
        current.append(token)
    close_sentence()

    return Corpus(tuple(sentences))


def merge_corpora(parts: Sequence[Corpus]) -> Corpus:
    """Concatenate corpora in argument order."""
    if not parts:
        raise CorpusError("nothing to merge")
    return Corpus(tuple(chain.from_iterable(part.sentences for part in parts)))


def write_corpus(corpus: Corpus, schema: str) -> str:
    """Render a Corpus back to column text; exact inverse of parse_corpus."""
    ncols = _check_schema(schema)
    blocks: list[str] = []
    for sentence in corpus:
        lines = []
        for token in sentence:
            if ncols == 3:
                if token.pos is None:
                    raise CorpusError(
                        f"token {token.surface!r} lacks a POS tag "
                        "required by the 3-column schema"
                    )
                lines.append(f"{token.surface}\t{token.lang}\t{token.pos}")
            else:
                lines.append(f"{token.surface}\t{token.lang}")
        blocks.append("\n".join(lines) + "\n")
    text = "\n".join(blocks)
    # parse_corpus strips one leading byte-order mark, so a first surface
    # that starts with U+FEFF is written behind a mark of its own
    return "\ufeff" + text if text.startswith("\ufeff") else text
