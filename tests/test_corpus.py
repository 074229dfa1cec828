import pytest
from hypothesis import given, settings, strategies as st

from mixtag.corpus import (
    TEST2COL,
    TRAIN3COL,
    Corpus,
    CorpusError,
    Sentence,
    Token,
    decode_text,
    merge_corpora,
    parse_corpus,
    write_corpus,
)

from conftest import apply_byte_edits, byte_edits, make_corpus, make_sentence


class TestToken:
    @pytest.mark.parametrize("surface,lang,pos,message", [
        ("", "bn", None, "empty token surface"),
        ("a\tb", "bn", None, "token surface contains tab or newline"),
        ("a\r", "bn", None, "token surface contains tab or newline"),
        ("\nb", "bn", "N", "token surface contains tab or newline"),
        ("a", "", None, "empty language tag"),
        ("a", "bn", "", "empty POS tag"),
    ])
    def test_rejects(self, surface, lang, pos, message):
        with pytest.raises(CorpusError) as info:
            Token(surface, lang, pos)
        assert str(info.value) == message

    def test_accepts_other_whitespace_and_backslash(self):
        assert Token("a b\\\x0b", "bn").surface == "a b\\\x0b"


class TestParse:
    def test_two_sentences(self):
        c = parse_corpus("ami\tbn\tPRP\nkhub\tbn\tJJ\n\nok\ten\tUH\n", TRAIN3COL)
        assert len(c) == 2
        assert [len(s) for s in c] == [2, 1]
        assert c.sentences[0][0] == Token("ami", "bn", "PRP")

    def test_test2col_has_no_pos(self):
        c = parse_corpus("ami\tbn\n", TEST2COL)
        assert len(c) == 1 and len(c.sentences[0]) == 1
        assert c.sentences[0][0].pos is None

    def test_space_separated_is_an_error(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus("ami bn PRP\n", TRAIN3COL)

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(CorpusError, match="line 3"):
            parse_corpus("a\tbn\tX\nb\tbn\tY\nc\tbn\n", TRAIN3COL)

    def test_empty_surface_is_an_error(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus("\tbn\tX\n", TRAIN3COL)

    def test_empty_input_gives_empty_corpus(self):
        assert len(parse_corpus("", TRAIN3COL)) == 0

    def test_trailing_partial_sentence_closed(self):
        c = parse_corpus("a\tbn\tX", TRAIN3COL)
        assert len(c) == 1

    def test_consecutive_blank_lines_are_one_boundary(self):
        c = parse_corpus("a\tbn\tX\n\n\n\nb\ten\tY\n", TRAIN3COL)
        assert len(c) == 2

    def test_bom_stripped(self):
        c = parse_corpus("\ufeffa\tbn\tX\n", TRAIN3COL)
        assert c.sentences[0][0].surface == "a"

    def test_crlf_accepted(self):
        c = parse_corpus("a\tbn\tX\r\n\r\nb\ten\tY\r\n", TRAIN3COL)
        assert len(c) == 2

    def test_three_columns_under_test2col(self):
        with pytest.raises(CorpusError, match="expected 2"):
            parse_corpus("a\tbn\tX\n", TEST2COL)


class TestMerge:
    def test_counts_add_up(self):
        fb = make_corpus(*[make_sentence(("w", "bn", "X"))] * 148)
        tw = make_corpus(*[make_sentence(("w", "bn", "X"))] * 173)
        wa = make_corpus(*[make_sentence(("w", "bn", "X"))] * 305)
        merged = merge_corpora([fb, tw, wa])
        assert len(merged) == 626

    def test_single_corpus_identity(self):
        c = make_corpus(make_sentence(("w", "bn", "X")))
        assert merge_corpora([c]) == c

    def test_empty_list(self):
        with pytest.raises(CorpusError):
            merge_corpora([])


class TestWrite:
    def test_single_token(self):
        c = make_corpus(make_sentence(("hi", "en", "UH")))
        assert write_corpus(c, TRAIN3COL) == "hi\ten\tUH\n"

    def test_empty_corpus(self):
        assert write_corpus(make_corpus(), TRAIN3COL) == ""

    def test_missing_pos_under_train3col(self):
        c = make_corpus(make_sentence(("hi", "en")))
        with pytest.raises(CorpusError, match="POS"):
            write_corpus(c, TRAIN3COL)

    def test_test2col_drops_pos(self):
        c = make_corpus(make_sentence(("hi", "en", "UH")))
        assert write_corpus(c, TEST2COL) == "hi\ten\n"

    def test_first_surface_starting_with_bom_round_trips(self):
        corpus = make_corpus(make_sentence(("\ufeffa", "en"), ("b", "en")))
        assert parse_corpus(write_corpus(corpus, TEST2COL), TEST2COL) == corpus


surfaces = st.text(
    st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
tags = st.text(st.characters(whitelist_categories=("Lu", "Ll")), min_size=1, max_size=4)


@st.composite
def corpora(draw, labeled=True):
    def token(_):
        return Token(
            draw(surfaces), draw(tags), draw(tags) if labeled else None
        )

    sentences = draw(
        st.lists(
            st.builds(
                lambda toks: Sentence(tuple(toks)),
                st.lists(st.builds(token, st.none()), min_size=1, max_size=5),
            ),
            max_size=5,
        )
    )
    return Corpus(tuple(sentences))


class TestProperties:
    @given(corpora(labeled=True))
    def test_round_trip_train3col(self, corpus):
        assert parse_corpus(write_corpus(corpus, TRAIN3COL), TRAIN3COL) == corpus

    @given(corpora(labeled=False))
    def test_round_trip_test2col(self, corpus):
        assert parse_corpus(write_corpus(corpus, TEST2COL), TEST2COL) == corpus

    @given(st.lists(corpora(labeled=True), min_size=1, max_size=4))
    def test_merge_preserves_sentence_counts_and_order(self, parts):
        merged = merge_corpora(parts)
        assert len(merged) == sum(len(p) for p in parts)
        flat = [s for p in parts for s in p.sentences]
        assert list(merged.sentences) == flat


SAMPLE_CORPORA = {
    TRAIN3COL: "\ufeffami\tbn\tPRP\r\nkhub\tbn\tJJ\n\nok\ten\tUH\n\nবাংলা\tbn\tN".encode(),
    TEST2COL: "\ufeffami\tbn\r\nkhub\tbn\n\nok\ten\n\nবাংলা\tbn\nvlo\tbn".encode(),
}
# field, line and sentence breaks, a BOM's bytes, bytes that break UTF-8
CORPUS_EDIT_BYTES = b"\t\n\r \x00\xff\xef\xbb\xbf\x80\xe0ab#"


class TestByteEdits:
    @settings(max_examples=300, deadline=None)
    @given(byte_edits(SAMPLE_CORPORA[TRAIN3COL], CORPUS_EDIT_BYTES), st.sampled_from(list(SAMPLE_CORPORA)))
    def test_byte_edits_load_or_raise_corpus_error_with_line(self, edits, schema):
        data = apply_byte_edits(SAMPLE_CORPORA[schema], edits)
        try:
            parse_corpus(decode_text(data), schema)
        except CorpusError as exc:
            assert exc.line is not None
            assert 1 <= exc.line <= data.count(b"\n") + 1
            assert str(exc).startswith(f"line {exc.line}: ")

    def test_bad_utf8_reports_its_line(self):
        with pytest.raises(CorpusError, match="line 2: not UTF-8"):
            decode_text(b"ami\tbn\n\xffkhub\tbn\n")
