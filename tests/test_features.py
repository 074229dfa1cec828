import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from mixtag.features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    LexiconError,
    NormalizationLexicon,
    _fired_flags,
    _token_attributes,
    affixes,
    collapse_vowel_runs,
    escape_value,
    extract_corpus_attributes,
    extract_sentence_attributes,
    length_bucket,
    load_lexicon,
    normalize_short_form,
    unescape_value,
    vowel_count,
)
from mixtag.corpus import CorpusError, Token, decode_text

import datagen
from conftest import apply_byte_edits, byte_edits, make_sentence, position_attributes

# the default catalogue and every catalogue with one family disabled
ONE_OFF_CATALOGUES = [FeatureCatalogue()] + [
    FeatureCatalogue().without(name) for name in FeatureCatalogue.family_names()
]


def only(family):
    """The catalogue with just ``family`` enabled."""
    return FeatureCatalogue().without(*(n for n in FeatureCatalogue.family_names() if n != family))


def ortho_flags(surface):
    """Every flag name mapped to whether it fires on ``surface``."""
    fired = _fired_flags(surface)
    return {name: name in fired for name, _ in REFERENCE_PREDICATES}


words = st.text(
    st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)
# surfaces made of the characters that the flags and escaping look at
flag_words = st.text(
    st.sampled_from("aeiouAEIObxyHTPhtp01569-./\\@#:!?_ \u0130\u0131\U0001F600\u00e9"),
    min_size=1,
    max_size=12,
)


# The token-local builder as it was written before the set-based rewrite:
# one predicate per flag, every value escaped, the helpers spelled out.
# The tests below hold ``_token_attributes`` and ``_fired_flags`` to it.
_LETTERS = frozenset(string.ascii_letters)
_DIGITS = frozenset(string.digits)
_PUNCT = frozenset(string.punctuation)


def _is_other(c):
    return c not in _LETTERS and c not in _DIGITS and c not in _PUNCT


def _alpha_head_then_other(s):
    m = re.match(r"[A-Za-z]+", s)
    return m is not None and any(_is_other(c) for c in s[m.end():])


REFERENCE_PREDICATES = (
    ("ContainsDigit", lambda s: any(c in _DIGITS for c in s)),
    ("ContainsMoreDots", lambda s: s.count(".") >= 2),
    ("ContainsSlash", lambda s: ("/" in s) or ("\\" in s)),
    ("ContainsMoreSlash", lambda s: s.count("/") + s.count("\\") >= 2),
    ("ContainsAtTheRateBeg", lambda s: s[0] == "@"),
    ("ContainsAtTheRate", lambda s: "@" in s),
    ("ContainsHash", lambda s: "#" in s),
    ("ContainsHttp", lambda s: "http" in s.lower()),
    ("ContainsHyphen", lambda s: "-" in s),
    ("ContainsColon", lambda s: ":" in s),
    ("ContainsHyphenatedNumber", lambda s: re.fullmatch(r"[0-9]+-[0-9]+\Z", s) is not None),
    (
        "ContainsDigitAndAlphabetBoth",
        lambda s: any(c in _DIGITS for c in s) and any(c in _LETTERS for c in s),
    ),
    ("ContainsPureDigitSeq", lambda s: all(c in _DIGITS for c in s)),
    ("ContainsAllCaps", lambda s: all(c in string.ascii_uppercase for c in s)),
    ("ContainsSeqOfSameChar", lambda s: len(s) >= 2 and len(set(s)) == 1),
    ("ContainsPuncSeq", lambda s: all(c in _PUNCT for c in s)),
    ("ContainsCharsOtherThanAlphDigitPunc", lambda s: any(_is_other(c) for c in s)),
    ("LongRepeatedCharSeqAtEnd", lambda s: len(s) >= 3 and s[-1] == s[-2] == s[-3]),
    (
        "ContainsLongVowelSeqInside",
        lambda s: re.search(r"[aeiou]{3,}", s, re.IGNORECASE) is not None,
    ),
    (
        "ThereExistsAsuffixDigitFollowsAlph",
        lambda s: re.fullmatch(r".*[0-9][A-Za-z]+\Z", s) is not None,
    ),
    (
        "ThereExistsAsuffixDigit6FollowsAlphabets",
        lambda s: re.fullmatch(r".*6[A-Za-z]+\Z", s) is not None,
    ),
    (
        "ContainsFirstPartAlphabetSecondPartContainsOtherThanAlphDigitPunc",
        _alpha_head_then_other,
    ),
)


def reference_ortho_flags(surface):
    return {name: bool(pred(surface)) for name, pred in REFERENCE_PREDICATES}


def reference_collapse(surface):
    return re.sub(r"([aeiouAEIOU])\1+", r"\1", surface)


def reference_token_attributes(token, lexicon, catalogue):
    surface = token.surface
    e = escape_value
    wlen = len(surface)
    attrs = []
    if catalogue.language:
        attrs.extend((f"LANG={e(token.lang)}", f"LANGW={e(token.lang)}|{e(surface)}"))
    if catalogue.ortho:
        attrs.extend(
            f"FLAG={name}" for name, fired in reference_ortho_flags(surface).items() if fired
        )
    if catalogue.vowel_count:
        attrs.append(f"VC={sum(1 for c in surface if c in 'aeiouAEIOU')}")
    if catalogue.vowel_collapse:
        attrs.append(f"CVR={e(reference_collapse(surface))}")
    if catalogue.normalization:
        hit = lexicon.get(surface)
        attrs.append(f"NORM={e(hit if hit is not None else surface)}")
    if catalogue.length:
        attrs.append(f"LEN=L_{wlen}" if wlen <= 3 else "LEN=L_4")
    if catalogue.affixes:
        for k in range(1, 5):
            attrs.append(f"P{k}={e(surface[:-k] if wlen >= k + 1 else surface)}")
        for k in range(1, 5):
            attrs.append(f"S{k}={e(surface[-k:] if wlen >= k + 1 else surface)}")
    return tuple(attrs)


def assert_builder_equals_reference(surface, lang, lexicons):
    reference = reference_ortho_flags(surface)
    assert _fired_flags(surface) == [name for name, fired in reference.items() if fired]
    token = Token(surface, lang)
    for catalogue in ONE_OFF_CATALOGUES:
        for lexicon in lexicons:
            assert _token_attributes(token, lexicon, catalogue) == reference_token_attributes(
                token, lexicon, catalogue
            )


SAMPLE_LEXICON = "\ufeff# short forms\nkrte\tkorte\r\n\nvlo\tbhalo\nকি\tকী\n".encode()
# field and line breaks, a comment mark, a BOM's bytes, bytes that break UTF-8
LEXICON_EDIT_BYTES = b"\t\n\r #\x00\xff\xef\xbb\xbf\x80\xe0ak"


class TestLexicon:
    def test_single_entry(self):
        lex = load_lexicon("krte\tkorte\n")
        assert lex.get("krte") == "korte"
        assert len(lex) == 1

    def test_empty_text(self):
        assert len(load_lexicon("")) == 0

    def test_duplicate_key(self):
        with pytest.raises(LexiconError, match="line 2"):
            load_lexicon("krte\tkorte\nkrte\tkarte\n")

    def test_wrong_column_count(self):
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon("krte korte\n")

    def test_lexicon_error_is_a_corpus_error_with_line(self):
        with pytest.raises(CorpusError) as info:
            load_lexicon("krte\tkorte\nkrte\tkarte\n")
        assert isinstance(info.value, LexiconError)
        assert info.value.line == 2
        assert str(info.value) == "line 2: duplicate key 'krte'"

    def test_comments_and_blanks_skipped(self):
        lex = load_lexicon("# comment\n\nkrte\tkorte\n")
        assert len(lex) == 1

    def test_fingerprint_unchanged(self):
        # mismatch errors name a lexicon by this value; it must not change
        assert load_lexicon("krte\tkorte\nami\tamii\n").fingerprint() == "116e12c92c0cdd8b"
        assert EMPTY_LEXICON.fingerprint() == "empty"

    def test_sorted_items(self):
        lex = NormalizationLexicon({"b": "x", "a\\": "y", "A": "z"})
        assert lex.sorted_items() == [("A", "z"), ("a\\", "y"), ("b", "x")]

    @settings(max_examples=300, deadline=None)
    @given(byte_edits(SAMPLE_LEXICON, LEXICON_EDIT_BYTES))
    def test_byte_edits_load_or_raise_lexicon_error_with_line(self, edits):
        data = apply_byte_edits(SAMPLE_LEXICON, edits)
        try:
            load_lexicon(decode_text(data, LexiconError))
        except LexiconError as exc:
            assert exc.line is not None
            assert 1 <= exc.line <= data.count(b"\n") + 1
            assert str(exc).startswith(f"line {exc.line}: ")


class TestCatalogueFingerprint:
    @pytest.mark.parametrize("catalogue", ONE_OFF_CATALOGUES + [
        FeatureCatalogue().without("context", "affixes"),
        FeatureCatalogue().without(*FeatureCatalogue.family_names()[1:]),
    ], ids=FeatureCatalogue.fingerprint)
    def test_round_trip(self, catalogue):
        assert FeatureCatalogue.from_fingerprint(catalogue.fingerprint()) == catalogue

    @pytest.mark.parametrize("text", [
        "", "none", "All", "off:", "off:nope", "off:affixes,context", "off:context,context",
        "off:context,", "off: context", ":".join(["off", ",".join(FeatureCatalogue.family_names())]),
    ])
    def test_other_spellings_rejected(self, text):
        with pytest.raises(ValueError):
            FeatureCatalogue.from_fingerprint(text)


class TestOrthoFlags:
    def test_at_mention(self):
        f = ortho_flags("@kamal")
        assert f["ContainsAtTheRateBeg"] and f["ContainsAtTheRate"]
        assert not f["ContainsDigit"]
        assert not f["ContainsMoreDots"]
        assert not f["ContainsSlash"]
        assert not f["ContainsMoreSlash"]

    def test_digit_suffix(self):
        f = ortho_flags("kor6e")
        assert f["ThereExistsAsuffixDigit6FollowsAlphabets"]
        assert f["ThereExistsAsuffixDigitFollowsAlph"]
        assert f["ContainsDigitAndAlphabetBoth"]
        assert not f["ContainsPureDigitSeq"]

    def test_url(self):
        f = ortho_flags("http://t.co/x")
        assert f["ContainsHttp"] and f["ContainsColon"]
        assert f["ContainsSlash"] and f["ContainsMoreSlash"]
        # single dot: below the more-than-one-dot threshold
        assert not f["ContainsMoreDots"]
        assert ortho_flags("http://a.b.co/x")["ContainsMoreDots"]

    def test_hyphenated_number(self):
        f = ortho_flags("1947-48")
        assert f["ContainsHyphenatedNumber"]
        assert f["ContainsDigit"] and f["ContainsHyphen"]
        assert not f["ContainsPureDigitSeq"]

    def test_punct_run(self):
        f = ortho_flags("!!!")
        assert f["ContainsPuncSeq"]
        assert f["ContainsSeqOfSameChar"]
        assert f["LongRepeatedCharSeqAtEnd"]

    def test_all_caps(self):
        assert ortho_flags("OMG")["ContainsAllCaps"]
        assert not ortho_flags("Omg")["ContainsAllCaps"]
        assert not ortho_flags("123")["ContainsAllCaps"]

    def test_long_vowel_run_mixed_vowels(self):
        assert ortho_flags("beautiful")["ContainsLongVowelSeqInside"]  # e-a-u
        assert not ortho_flags("window")["ContainsLongVowelSeqInside"]

    def test_non_ascii_counts_as_other(self):
        f = ortho_flags("hola😀")
        assert f["ContainsCharsOtherThanAlphDigitPunc"]
        assert f["ContainsFirstPartAlphabetSecondPartContainsOtherThanAlphDigitPunc"]

    def test_backslash_counts_as_slash(self):
        assert ortho_flags("a\\b")["ContainsSlash"]

    @given(words)
    def test_implications(self, w):
        f = ortho_flags(w)
        if f["ContainsMoreDots"]:
            assert w.count(".") >= 2
        if f["ContainsMoreSlash"]:
            assert f["ContainsSlash"]
        if f["ContainsAtTheRateBeg"]:
            assert f["ContainsAtTheRate"]
        if f["ContainsPureDigitSeq"]:
            assert f["ContainsDigit"]
        if f["ContainsHyphenatedNumber"]:
            assert f["ContainsDigit"] and f["ContainsHyphen"]


class TestAgainstReference:
    """The set-based flags and the escape-once builder equal the reference."""

    @pytest.mark.parametrize("surface", [
        "@", "6a", "1947-48", "a\\b", "\\", "\\\\", "!!!", "aaa", "http://t.co/x", "hola\U0001F600", "OMG",
    ])
    def test_edge_surfaces(self, surface):
        lexicon = NormalizationLexicon({surface: "n\\" + surface, "a\\b": "c\\d"})
        for lang in ("bn", "x\\y"):
            assert_builder_equals_reference(surface, lang, (EMPTY_LEXICON, lexicon))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(words, flag_words), st.sampled_from(["bn", "en", "x\\y"]))
    def test_builder_equals_reference(self, w, lang):
        # a lexicon whose keys and values hold backslashes, one of them a hit
        lexicon = NormalizationLexicon({w: "n\\" + w, "a\\b": "c\\d"})
        assert_builder_equals_reference(w, lang, (EMPTY_LEXICON, lexicon))


class TestVowels:
    @pytest.mark.parametrize(
        "word,count", [("khub", 1), ("AEIOU", 5), ("xyz", 0), ("", 0)]
    )
    def test_vowel_count(self, word, count):
        assert vowel_count(word) == count

    @pytest.mark.parametrize(
        "word,collapsed",
        [
            ("Khuuuuuub", "Khub"),
            ("abc", "abc"),
            ("naa", "na"),
            ("seeeela", "sela"),
        ],
    )
    def test_collapse(self, word, collapsed):
        assert collapse_vowel_runs(word) == collapsed

    @given(words)
    def test_collapse_idempotent(self, w):
        once = collapse_vowel_runs(w)
        assert collapse_vowel_runs(once) == once

    @given(words)
    def test_collapse_never_adds_vowels(self, w):
        assert vowel_count(collapse_vowel_runs(w)) <= vowel_count(w)

    @settings(max_examples=500)
    @given(st.text(st.sampled_from("aeiouAEIOUbx\\\u00e9"), max_size=12))
    def test_collapse_equals_reference(self, w):
        assert collapse_vowel_runs(w) == reference_collapse(w)


class TestNormalize:
    def test_hit(self):
        lex = load_lexicon("krte\tkorte\n")
        assert normalize_short_form("krte", lex) == "korte"

    def test_miss_returns_surface(self):
        lex = load_lexicon("krte\tkorte\n")
        assert normalize_short_form("korte", lex) == "korte"

    def test_empty_lexicon(self):
        assert normalize_short_form("anything", EMPTY_LEXICON) == "anything"


class TestLengthBucket:
    @pytest.mark.parametrize(
        "word,bucket",
        [("a", "L_1"), ("ab", "L_2"), ("abc", "L_3"), ("abcd", "L_4"), ("abcdefghijkl", "L_4")],
    )
    def test_buckets(self, word, bucket):
        assert length_bucket(word) == bucket

    @given(words)
    def test_partition(self, w):
        assert length_bucket(w) in {"L_1", "L_2", "L_3", "L_4"}


class TestAffixes:
    def test_five_letter_word(self):
        assert affixes("abcde") == ("abcd", "abc", "ab", "a", "e", "de", "cde", "bcde")

    def test_two_letter_word(self):
        assert affixes("ab") == ("a", "ab", "ab", "ab", "b", "ab", "ab", "ab")

    def test_single_char(self):
        assert affixes("x") == ("x",) * 8

    @given(words.filter(lambda w: len(w) >= 2))
    def test_p1_s1_reconstruct(self, w):
        p1, _, _, _, s1, _, _, _ = affixes(w)
        assert p1 + s1 == w


class TestContext:
    def test_middle_of_three(self):
        s = make_sentence(("a", "bn"), ("b", "bn"), ("c", "bn"))
        assert extract_sentence_attributes(s, catalogue=only("context"))[1] == (
            "W-2=<S>",
            "W-1=a",
            "W0=b",
            "W+1=c",
            "W+2=</S>",
            "W-1W-2=a|<S>",
            "W-1W0=a|b",
            "W0W+1=b|c",
            "W+1W+2=c|</S>",
        )

    def test_single_token_all_sentinels(self):
        s = make_sentence(("x", "bn"))
        attrs = extract_sentence_attributes(s, catalogue=only("context"))[0]
        assert "W-1=<S>" in attrs and "W+1=</S>" in attrs
        assert "W-2=<S>" in attrs and "W+2=</S>" in attrs

    def test_backslash_escaped(self):
        s = make_sentence(("a\\b", "bn"), ("c", "bn"))
        attrs = extract_sentence_attributes(s, catalogue=only("context"))[1]
        assert "W-1=a\\\\b" in attrs and "W-1W0=a\\\\b|c" in attrs


class TestLanguageComposite:
    @pytest.mark.parametrize(
        "surface,lang",
        [("khub", "bn"), ("@user", "univ"), ("Modi", "ne")],
    )
    def test_pairs(self, surface, lang):
        assert _token_attributes(Token(surface, lang), EMPTY_LEXICON, only("language")) == (
            f"LANG={lang}",
            f"LANGW={lang}|{surface}",
        )


class TestExtract:
    def test_collapsed_vowel_attribute(self):
        s = make_sentence(("Khuuuuuub", "bn"))
        assert "CVR=Khub" in extract_sentence_attributes(s)[0]

    def test_normalized_attribute(self):
        lex = load_lexicon("krte\tkorte\n")
        s = make_sentence(("krte", "bn"))
        assert "NORM=korte" in extract_sentence_attributes(s, lexicon=lex)[0]

    def test_length_only_catalogue(self):
        cat = FeatureCatalogue().without(
            "context", "language", "ortho", "vowel_count",
            "vowel_collapse", "normalization", "affixes",
        )
        s = make_sentence(("khub", "bn"))
        assert extract_sentence_attributes(s, catalogue=cat)[0] == ("LEN=L_4",)

    def test_deterministic(self):
        s = make_sentence(("a", "bn"), ("bb", "en"))
        assert extract_sentence_attributes(s) == extract_sentence_attributes(s)

    def test_all_families_disabled_rejected(self):
        with pytest.raises(ValueError):
            FeatureCatalogue().without(*FeatureCatalogue.family_names())

    @given(words, words)
    def test_no_tabs_or_newlines_in_attributes(self, w1, w2):
        s = make_sentence((w1, "bn"), (w2, "en"))
        for attr in extract_sentence_attributes(s)[0]:
            assert "\t" not in attr and "\n" not in attr

    @given(words)
    def test_no_duplicates(self, w):
        sentences = [
            make_sentence((w, "bn")),
            *datagen.cyclic_ambiguous_corpus(3, seed=1),
        ]
        lexicon = NormalizationLexicon({w: "norm", "a1": "u1"})
        for catalogue in ONE_OFF_CATALOGUES:
            for lex in (EMPTY_LEXICON, lexicon):
                for sentence in sentences:
                    for attrs in extract_sentence_attributes(sentence, lex, catalogue):
                        assert len(attrs) == len(set(attrs))

    @pytest.mark.parametrize("catalogue", ONE_OFF_CATALOGUES, ids=FeatureCatalogue.fingerprint)
    def test_corpus_extraction_equals_per_position(self, catalogue):
        # repeated surfaces, "a1" under two language tags, escaped characters
        sentences = [
            *datagen.cyclic_ambiguous_corpus(6, seed=2),
            make_sentence(("a1", "bn"), ("x\\y", "en"), ("a1", "en"), ("a1", "bn")),
            make_sentence(("x\\y", "en"),),
        ]
        lexicon = load_lexicon("a1\tu1\nx\\y\tz\n")
        got = list(extract_corpus_attributes(sentences, lexicon, catalogue))
        assert got == [
            [position_attributes(s, i, lexicon, catalogue) for i in range(len(s))]
            for s in sentences
        ]


class TestEscaping:
    @given(st.text(max_size=20))
    def test_round_trip(self, s):
        assert unescape_value(escape_value(s)) == s

    @pytest.mark.parametrize("value,expected", [
        ("\\q", "q"),
        ("a\\", "a\\"),
        ("\\\\t", "\\t"),
        ("\\\n", "\n"),
    ])
    def test_spellings_escape_value_never_writes(self, value, expected):
        assert unescape_value(value) == expected

    def test_removes_specials(self):
        assert "\t" not in escape_value("a\tb")
        assert "\n" not in escape_value("a\nb")
