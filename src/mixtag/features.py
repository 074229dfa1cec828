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
from typing import Callable, Iterable, Iterator, Mapping

from .corpus import CorpusError, Sentence, Token

VOWELS = frozenset("aeiouAEIOU")

_ASCII_LETTERS = frozenset(string.ascii_letters)
_ASCII_DIGITS = frozenset(string.digits)
_ASCII_PUNCT = frozenset(string.punctuation)
_ASCII_UPPER = frozenset(string.ascii_uppercase)
_ASCII_ALNUM_PUNCT = _ASCII_LETTERS | _ASCII_DIGITS | _ASCII_PUNCT

_HYPHENATED_NUMBER_RE = re.compile(r"[0-9]+-[0-9]+\Z")
_DIGIT_THEN_ALPHA_SUFFIX_RE = re.compile(r".*[0-9][A-Za-z]+\Z")
_DIGIT6_THEN_ALPHA_SUFFIX_RE = re.compile(r".*6[A-Za-z]+\Z")
_LONG_VOWEL_RUN_RE = re.compile(r"[aeiou]{3,}", re.IGNORECASE)
# the repeats after a vowel, so a hit is dropped without expanding a template
_REPEATED_VOWEL_RE = re.compile(r"(?<=([aeiouAEIOU]))\1+")

BEGIN_SENTINEL = "<S>"
END_SENTINEL = "</S>"


class LexiconError(CorpusError):
    """Malformed normalization lexicon; like ``CorpusError``, it carries a
    1-based ``line`` when known and then starts with ``line N: ``."""


def escape_value(value: str) -> str:
    """Escape a value so the attribute string stays line-oriented."""
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPED = {"t": "\t", "n": "\n"}


def unescape_value(value: str) -> str:
    """The inverse of ``escape_value``: backslash-t is a tab, backslash-n a
    line feed, and a backslash before any other character, line feed
    included, stands for that character; a lone trailing backslash stays."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED.get(m[1], m[1]), value)


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
        text = "".join(f"{escape_value(k)}\t{escape_value(v)}\n" for k, v in self.sorted_items())
        self._fingerprint = hashlib.sha256(text.encode()).hexdigest()[:16] if entries else "empty"

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._entries.get(key, default)

    def sorted_items(self) -> list[tuple[str, str]]:
        """(short form, canonical word) pairs in key order."""
        return sorted(self._entries.items())

    def fingerprint(self) -> str:
        """16 hex digits of the SHA-256 of the sorted entries, each escaped
        as the model file spells it, or "empty"; computed once, when the
        lexicon is built."""
        return self._fingerprint


EMPTY_LEXICON = NormalizationLexicon()


def load_lexicon(text: str) -> NormalizationLexicon:
    """Parse a 2-column tab-separated lexicon; '#' lines are comments."""
    text = text.removeprefix("\ufeff")
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


def _fired_flags(s: str) -> list[str]:
    """Names of the orthographic flags that fire on a nonempty surface.  This
    is the one definition of the flags and of their order: set tests on the
    surface's characters, and a regex only where a cheap test shows it can
    match."""
    chars = set(s)
    fired: list[str] = []
    add = fired.append
    digit = not _ASCII_DIGITS.isdisjoint(chars)
    if digit:
        add("ContainsDigit")
    if "." in chars and s.count(".") >= 2:
        add("ContainsMoreDots")
    if "/" in chars or "\\" in chars:
        add("ContainsSlash")
        if s.count("/") + s.count("\\") >= 2:
            add("ContainsMoreSlash")
    if s[0] == "@":
        add("ContainsAtTheRateBeg")
    if "@" in chars:
        add("ContainsAtTheRate")
    if "#" in chars:
        add("ContainsHash")
    # only "p" and "P" lower-case to a string that holds a "p"
    if ("p" in chars or "P" in chars) and "http" in s.lower():
        add("ContainsHttp")
    if "-" in chars:
        add("ContainsHyphen")
    if ":" in chars:
        add("ContainsColon")
    if digit and "-" in chars and _HYPHENATED_NUMBER_RE.fullmatch(s):
        add("ContainsHyphenatedNumber")
    if digit and not _ASCII_LETTERS.isdisjoint(chars):
        add("ContainsDigitAndAlphabetBoth")
    if chars <= _ASCII_DIGITS:
        add("ContainsPureDigitSeq")
    if chars <= _ASCII_UPPER:
        add("ContainsAllCaps")
    if len(chars) == 1 and len(s) >= 2:
        add("ContainsSeqOfSameChar")
    if chars <= _ASCII_PUNCT:
        add("ContainsPuncSeq")
    other = not chars <= _ASCII_ALNUM_PUNCT
    if other:
        add("ContainsCharsOtherThanAlphDigitPunc")
    if len(s) >= 3 and s[-1] == s[-2] == s[-3]:
        add("LongRepeatedCharSeqAtEnd")
    if len(s) >= 3 and _LONG_VOWEL_RUN_RE.search(s):
        add("ContainsLongVowelSeqInside")
    if digit and s[-1] in _ASCII_LETTERS and _DIGIT_THEN_ALPHA_SUFFIX_RE.fullmatch(s):
        add("ThereExistsAsuffixDigitFollowsAlph")
        if "6" in chars and _DIGIT6_THEN_ALPHA_SUFFIX_RE.fullmatch(s):
            add("ThereExistsAsuffixDigit6FollowsAlphabets")
    # the letters that start the surface are not "other" characters
    if other and s[0] in _ASCII_LETTERS:
        add("ContainsFirstPartAlphabetSecondPartContainsOtherThanAlphDigitPunc")
    return fired


def vowel_count(surface: str) -> int:
    """Count of a/e/i/o/u characters, case-insensitive ('y' excluded)."""
    return sum(map(VOWELS.__contains__, surface))


def collapse_vowel_runs(surface: str) -> str:
    """Collapse every run of >=2 identical vowels to a single occurrence."""
    return _REPEATED_VOWEL_RE.sub("", surface)


def normalize_short_form(surface: str, lexicon: NormalizationLexicon) -> str:
    """Exact-match lexicon lookup; a miss returns the surface unchanged."""
    return lexicon.get(surface, surface)


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
    s = surface
    # s[:-k] is empty exactly when the word is too short; s[-k:] is then s
    return (s[:-1] or s, s[:-2] or s, s[:-3] or s, s[:-4] or s, s[-1:], s[-2:], s[-3:], s[-4:])


def _escape_surface(surface: str) -> str:
    """``escape_value`` of a token surface or of a part of one: ``Token``
    rejects tabs and newlines, so only a backslash needs escaping."""
    return escape_value(surface) if "\\" in surface else surface


def _padded_words(sentence: Sentence) -> list[str]:
    """Escaped surfaces between two begin and two end sentinels."""
    words = [_escape_surface(token.surface) for token in sentence]
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


def _token_attributes(
    token: Token, lexicon: NormalizationLexicon, catalogue: FeatureCatalogue
) -> tuple[str, ...]:
    """The token-local families, LANG through S4: a function of the surface
    and language tag alone."""
    surface = token.surface
    attrs: list[str] = []
    if catalogue.language:
        lang = escape_value(token.lang)
        attrs += (f"LANG={lang}", f"LANGW={lang}|{_escape_surface(surface)}")
    if catalogue.ortho:
        attrs += ["FLAG=" + name for name in _fired_flags(surface)]
    if catalogue.vowel_count:
        attrs.append(f"VC={vowel_count(surface)}")
    if catalogue.vowel_collapse:
        attrs.append(f"CVR={_escape_surface(collapse_vowel_runs(surface))}")
    if catalogue.normalization:
        attrs.append(f"NORM={escape_value(normalize_short_form(surface, lexicon))}")
    if catalogue.length:
        attrs.append(f"LEN={length_bucket(surface)}")
    if catalogue.affixes:
        parts = affixes(surface)
        if "\\" in surface:  # else no part needs escaping
            parts = map(escape_value, parts)
        p1, p2, p3, p4, s1, s2, s3, s4 = parts
        attrs += (
            f"P1={p1}", f"P2={p2}", f"P3={p3}", f"P4={p4}",
            f"S1={s1}", f"S2={s2}", f"S3={s3}", f"S4={s4}",
        )
    return tuple(attrs)


def extract_corpus_attributes(
    sentences: Iterable[Sentence],
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
    keep: Callable[[tuple[str, ...]], tuple[str, ...]] | None = None,
) -> Iterator[list[tuple[str, ...]]]:
    """Yield the attribute set of every position, one list per sentence.

    Families are emitted in a fixed order, the context composites first;
    every family has its own ``NAME=`` prefix, so each set is deterministic
    and duplicate-free.  The token-local families are built once per
    distinct (surface, language) pair, in a memo that lives as long as the
    generator, and each sentence's words are escaped once.  With ``keep``,
    the memo holds ``keep`` of each pair's token-local families instead,
    applied once per pair (``tag_corpus`` passes ``FeatureIndex.known``).
    """
    memo: dict[tuple[str, str], tuple[str, ...]] = {}
    for sentence in sentences:
        words = _padded_words(sentence) if catalogue.context else []
        attrs = []
        for i, token in enumerate(sentence):
            key = (token.surface, token.lang)
            local = memo.get(key)
            if local is None:
                local = _token_attributes(token, lexicon, catalogue)
                local = memo[key] = keep(local) if keep else local
            attrs.append(_context(words, i) + local if catalogue.context else local)
        yield attrs


def extract_sentence_attributes(
    sentence: Sentence,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> list[tuple[str, ...]]:
    return next(extract_corpus_attributes([sentence], lexicon, catalogue))
