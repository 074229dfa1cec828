"""Per-token attribute extraction for the tagger.

Each token position is turned into an ordered set of string attributes of
the form "FAMILY=value": context words and composites, language composites,
orthographic/punctuation flags, vowel statistics, a short-form normalization
lookup, a length bucket, and prefix/suffix fragments.
"""

from __future__ import annotations

import hashlib
import re
import string
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Mapping

from .corpus import Sentence, Token

VOWELS = frozenset("aeiouAEIOU")

_ASCII_LETTERS = frozenset(string.ascii_letters)
_ASCII_DIGITS = frozenset(string.digits)
_ASCII_PUNCT = frozenset(string.punctuation)

_HYPHENATED_NUMBER_RE = re.compile(r"[0-9]+-[0-9]+\Z")
_DIGIT_THEN_ALPHA_SUFFIX_RE = re.compile(r".*[0-9][A-Za-z]+\Z")
_DIGIT6_THEN_ALPHA_SUFFIX_RE = re.compile(r".*6[A-Za-z]+\Z")
_LONG_VOWEL_RUN_RE = re.compile(r"[aeiou]{3,}", re.IGNORECASE)
_REPEATED_VOWEL_RE = re.compile(r"([aeiouAEIOU])\1+")
_ALPHA_HEAD_RE = re.compile(r"[A-Za-z]+")

BEGIN_SENTINEL = "<S>"
END_SENTINEL = "</S>"


class LexiconError(ValueError):
    """Malformed normalization lexicon."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def escape_value(value: str) -> str:
    """Escape a value so the attribute string stays line-oriented."""
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_value(value: str) -> str:
    if "\\" not in value:
        return value
    out = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "t":
                out.append("\t")
            elif nxt == "n":
                out.append("\n")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


class NormalizationLexicon:
    """Short-form word -> canonical word lookup table."""

    def __init__(self, entries: Mapping[str, str] | None = None):
        entries = dict(entries or {})
        for key, value in entries.items():
            if not key or not value:
                raise LexiconError("lexicon keys and values must be nonempty")
            if "\t" in key or "\t" in value:
                raise LexiconError("lexicon entries must not contain tabs")
        self._entries = entries
        self._fingerprint = "empty" if not entries else hashlib.sha256(
            "".join(f"{key}\t{value}\n" for key, value in self.sorted_items()).encode()
        ).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._entries.get(key, default)

    def sorted_items(self) -> list[tuple[str, str]]:
        """(short form, canonical word) pairs in key order."""
        return sorted(self._entries.items())

    def fingerprint(self) -> str:
        """16 hex digits of the SHA-256 of the sorted entries, or "empty";
        computed once, when the lexicon is built."""
        return self._fingerprint


EMPTY_LEXICON = NormalizationLexicon()


def load_lexicon(text: str) -> NormalizationLexicon:
    """Parse a 2-column tab-separated lexicon; '#' lines are comments."""
    if text.startswith("\ufeff"):
        text = text[1:]
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line == "" or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise LexiconError(
                f"expected 2 tab-separated columns, found {len(cols)}", line=lineno
            )
        short, canonical = cols
        if not short or not canonical:
            raise LexiconError("empty lexicon field", line=lineno)
        if short in entries:
            raise LexiconError(f"duplicate key {short!r}", line=lineno)
        entries[short] = canonical
    return NormalizationLexicon(entries)


@dataclass(frozen=True)
class FeatureCatalogue:
    """Feature-family toggles, all on by default."""

    context: bool = True
    language: bool = True
    ortho: bool = True
    vowel_count: bool = True
    vowel_collapse: bool = True
    normalization: bool = True
    length: bool = True
    affixes: bool = True

    def __post_init__(self):
        if not any(getattr(self, f.name) for f in fields(self)):
            raise ValueError("at least one feature family must stay enabled")

    @classmethod
    def family_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def without(self, *names: str) -> "FeatureCatalogue":
        known = self.family_names()
        for name in names:
            if name not in known:
                raise ValueError(
                    f"unknown feature family {name!r}; known: {', '.join(known)}"
                )
        return replace(self, **{name: False for name in names})

    def fingerprint(self) -> str:
        disabled = [f.name for f in fields(self) if not getattr(self, f.name)]
        return "all" if not disabled else "off:" + ",".join(disabled)

    @classmethod
    def from_fingerprint(cls, text: str) -> "FeatureCatalogue":
        """Inverse of ``fingerprint``; any other spelling raises ValueError."""
        if text == "all":
            return cls()
        if not text.startswith("off:"):
            raise ValueError(f"bad catalogue fingerprint {text!r}")
        catalogue = cls().without(*text[len("off:"):].split(","))
        if catalogue.fingerprint() != text:
            raise ValueError(f"non-canonical catalogue fingerprint {text!r}")
        return catalogue


# Flag names in emission order.  Each entry maps to a predicate on the surface.
def _is_other(c: str) -> bool:
    return c not in _ASCII_LETTERS and c not in _ASCII_DIGITS and c not in _ASCII_PUNCT


def _alpha_head_then_other(s: str) -> bool:
    m = _ALPHA_HEAD_RE.match(s)
    if m is None:
        return False
    tail = s[m.end():]
    return any(_is_other(c) for c in tail)


_ORTHO_PREDICATES: tuple[tuple[str, object], ...] = (
    ("ContainsDigit", lambda s: any(c in _ASCII_DIGITS for c in s)),
    ("ContainsMoreDots", lambda s: s.count(".") >= 2),
    ("ContainsSlash", lambda s: ("/" in s) or ("\\" in s)),
    ("ContainsMoreSlash", lambda s: s.count("/") + s.count("\\") >= 2),
    ("ContainsAtTheRateBeg", lambda s: s[0] == "@"),
    ("ContainsAtTheRate", lambda s: "@" in s),
    ("ContainsHash", lambda s: "#" in s),
    ("ContainsHttp", lambda s: "http" in s.lower()),
    ("ContainsHyphen", lambda s: "-" in s),
    ("ContainsColon", lambda s: ":" in s),
    ("ContainsHyphenatedNumber", lambda s: _HYPHENATED_NUMBER_RE.fullmatch(s) is not None),
    (
        "ContainsDigitAndAlphabetBoth",
        lambda s: any(c in _ASCII_DIGITS for c in s)
        and any(c in _ASCII_LETTERS for c in s),
    ),
    ("ContainsPureDigitSeq", lambda s: all(c in _ASCII_DIGITS for c in s)),
    ("ContainsAllCaps", lambda s: all(c in string.ascii_uppercase for c in s)),
    ("ContainsSeqOfSameChar", lambda s: len(s) >= 2 and len(set(s)) == 1),
    ("ContainsPuncSeq", lambda s: all(c in _ASCII_PUNCT for c in s)),
    ("ContainsCharsOtherThanAlphDigitPunc", lambda s: any(_is_other(c) for c in s)),
    ("LongRepeatedCharSeqAtEnd", lambda s: len(s) >= 3 and s[-1] == s[-2] == s[-3]),
    (
        "ContainsLongVowelSeqInside",
        lambda s: _LONG_VOWEL_RUN_RE.search(s) is not None,
    ),
    (
        "ThereExistsAsuffixDigitFollowsAlph",
        lambda s: _DIGIT_THEN_ALPHA_SUFFIX_RE.fullmatch(s) is not None,
    ),
    (
        "ThereExistsAsuffixDigit6FollowsAlphabets",
        lambda s: _DIGIT6_THEN_ALPHA_SUFFIX_RE.fullmatch(s) is not None,
    ),
    (
        "ContainsFirstPartAlphabetSecondPartContainsOtherThanAlphDigitPunc",
        _alpha_head_then_other,
    ),
)

ORTHO_FLAG_NAMES = tuple(name for name, _ in _ORTHO_PREDICATES)


def ortho_flags(surface: str) -> dict[str, bool]:
    """Evaluate every orthographic/punctuation flag on a nonempty token."""
    if not surface:
        raise ValueError("surface must be nonempty")
    return {name: bool(pred(surface)) for name, pred in _ORTHO_PREDICATES}


def vowel_count(surface: str) -> int:
    """Count of a/e/i/o/u characters, case-insensitive ('y' excluded)."""
    return sum(1 for c in surface if c in VOWELS)


def collapse_vowel_runs(surface: str) -> str:
    """Collapse every run of >=2 identical vowels to a single occurrence."""
    return _REPEATED_VOWEL_RE.sub(r"\1", surface)


def normalize_short_form(surface: str, lexicon: NormalizationLexicon) -> str:
    """Exact-match lexicon lookup; a miss returns the surface unchanged."""
    hit = lexicon.get(surface)
    return hit if hit is not None else surface


def length_bucket(surface: str) -> str:
    """Discretized character length: L_1..L_3, then L_4 for anything longer."""
    if not surface:
        raise ValueError("surface must be nonempty")
    wlen = len(surface)
    return f"L_{wlen}" if wlen <= 3 else "L_4"


def affixes(surface: str) -> tuple[str, str, str, str, str, str, str, str]:
    """Prefixes P1..P4 (last k chars removed) and suffixes S1..S4.

    When the word is too short (wlen < k+1), the whole word stands in.
    """
    if not surface:
        raise ValueError("surface must be nonempty")
    wlen = len(surface)
    prefixes = tuple(
        surface[:-k] if wlen >= k + 1 else surface for k in range(1, 5)
    )
    suffixes = tuple(
        surface[-k:] if wlen >= k + 1 else surface for k in range(1, 5)
    )
    return prefixes + suffixes


def _padded_words(sentence: Sentence) -> list[str]:
    """Escaped surfaces between two begin and two end sentinels."""
    words = [escape_value(token.surface) for token in sentence]
    return [BEGIN_SENTINEL] * 2 + words + [END_SENTINEL] * 2


def _context(words: list[str], i: int) -> tuple[str, ...]:
    """Context composites of position i from ``_padded_words``."""
    m2, m1, w0, p1, p2 = words[i:i + 5]
    return (
        f"W-2={m2}",
        f"W-1={m1}",
        f"W0={w0}",
        f"W+1={p1}",
        f"W+2={p2}",
        f"W-1W-2={m1}|{m2}",
        f"W-1W0={m1}|{w0}",
        f"W0W+1={w0}|{p1}",
        f"W+1W+2={p1}|{p2}",
    )


def context_composites(sentence: Sentence, i: int) -> tuple[str, ...]:
    """Window-of-5 unigrams plus the four word-pair composites."""
    if not 0 <= i < len(sentence):
        raise IndexError(f"position {i} out of range for sentence of length {len(sentence)}")
    return _context(_padded_words(sentence), i)


def language_composite(token: Token) -> tuple[str, str]:
    """Language-code attribute and the language|word composite."""
    e = escape_value
    return (f"LANG={e(token.lang)}", f"LANGW={e(token.lang)}|{e(token.surface)}")


def _token_attributes(
    token: Token, lexicon: NormalizationLexicon, catalogue: FeatureCatalogue
) -> tuple[str, ...]:
    """The token-local families, LANG through S4: a function of the surface
    and language tag alone."""
    surface = token.surface
    e = escape_value
    attrs: list[str] = []
    if catalogue.language:
        attrs.extend(language_composite(token))
    if catalogue.ortho:
        attrs.extend(
            f"FLAG={name}" for name, fired in ortho_flags(surface).items() if fired
        )
    if catalogue.vowel_count:
        attrs.append(f"VC={vowel_count(surface)}")
    if catalogue.vowel_collapse:
        attrs.append(f"CVR={e(collapse_vowel_runs(surface))}")
    if catalogue.normalization:
        attrs.append(f"NORM={e(normalize_short_form(surface, lexicon))}")
    if catalogue.length:
        attrs.append(f"LEN={length_bucket(surface)}")
    if catalogue.affixes:
        p1, p2, p3, p4, s1, s2, s3, s4 = affixes(surface)
        attrs.extend(
            (
                f"P1={e(p1)}", f"P2={e(p2)}", f"P3={e(p3)}", f"P4={e(p4)}",
                f"S1={e(s1)}", f"S2={e(s2)}", f"S3={e(s3)}", f"S4={e(s4)}",
            )
        )
    return tuple(attrs)


def extract_attributes(
    sentence: Sentence,
    i: int,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> tuple[str, ...]:
    """Build the full attribute set for one token position.

    Families are emitted in a fixed order, the context composites first;
    every family has its own ``NAME=`` prefix, so the result is
    deterministic and duplicate-free.
    """
    if not 0 <= i < len(sentence):
        raise IndexError(f"position {i} out of range for sentence of length {len(sentence)}")
    context = context_composites(sentence, i) if catalogue.context else ()
    return context + _token_attributes(sentence[i], lexicon, catalogue)


def extract_corpus_attributes(
    sentences: Iterable[Sentence],
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> Iterator[list[tuple[str, ...]]]:
    """Yield ``extract_attributes`` at every position, one list per sentence.

    The token-local families are built once per distinct (surface, language)
    pair in the call, and each sentence's words are escaped once.
    """
    memo: dict[tuple[str, str], tuple[str, ...]] = {}
    for sentence in sentences:
        words = _padded_words(sentence) if catalogue.context else []
        attrs = []
        for i, token in enumerate(sentence):
            key = (token.surface, token.lang)
            local = memo.get(key)
            if local is None:
                local = memo[key] = _token_attributes(token, lexicon, catalogue)
            attrs.append(_context(words, i) + local if catalogue.context else local)
        yield attrs


def extract_sentence_attributes(
    sentence: Sentence,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> list[tuple[str, ...]]:
    return next(extract_corpus_attributes([sentence], lexicon, catalogue))
