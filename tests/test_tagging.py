import tracemalloc
from itertools import islice

import numpy as np
import pytest

from mixtag.corpus import Corpus, Sentence
from mixtag.crf import FeatureIndex, Model
from mixtag.features import FeatureCatalogue, load_lexicon
from mixtag.tagging import CHUNK_TOKENS, _chunks, tag_corpus, tag_sentence
from mixtag.trainer import TrainConfig, train

import datagen
from conftest import make_sentence

LEXICON = load_lexicon("a1\tu1\nu2\ta2\n")
CATALOGUE = FeatureCatalogue().without("affixes", "vowel_count")


def trained_model():
    model, _ = train(
        datagen.cyclic_ambiguous_corpus(40, seed=3),
        LEXICON,
        CATALOGUE,
        TrainConfig(max_iterations=15),
    )
    return model


def mixed_corpus():
    # unsorted lengths, repeated surfaces, a surface under two language
    # tags, unknown surfaces and a one-token sentence
    return Corpus(
        (
            *datagen.strip_labels(datagen.cyclic_ambiguous_corpus(12, seed=4)),
            make_sentence(("a1", "bn"), ("zz", "en"), ("a1", "en")),
            make_sentence(("u2", "en"),),
        )
    )


LONG_SENTENCE = CHUNK_TOKENS + 100


def chunk_boundary_corpus():
    """More than 3 x CHUNK_TOKENS tokens, whose surfaces repeat across
    chunks: a run of sentences that fills the first chunk exactly, three
    one-token sentences, a sentence longer than a chunk, shorter sentences
    and a last one-token sentence."""
    tokens = iter(
        token
        for sentence in datagen.strip_labels(datagen.cyclic_ambiguous_corpus(700, seed=5))
        for token in sentence
    )
    filling = [7] * (CHUNK_TOKENS // 7) + [CHUNK_TOKENS % 7]
    sizes = [*filling, 1, 1, 1, LONG_SENTENCE, *[5, 8, 6] * 60, 1]
    return Corpus(tuple(Sentence(tuple(islice(tokens, n))) for n in sizes))


class TestTagCorpus:
    @pytest.mark.parametrize("make_corpus", [mixed_corpus, chunk_boundary_corpus])
    def test_equals_tag_sentence_per_sentence(self, make_corpus):
        model = trained_model()
        corpus = make_corpus()
        expected = tuple(tag_sentence(model, s, LEXICON, CATALOGUE) for s in corpus)
        tagged = tag_corpus(model, corpus, LEXICON, CATALOGUE)
        assert tagged.sentences == expected
        assert len({t.pos for s in tagged for t in s}) > 1

    def test_chunk_boundary_corpus_spans_the_cases(self):
        corpus = chunk_boundary_corpus()
        chunk_tokens = [sum(map(len, chunk)) for chunk in _chunks(corpus)]
        assert corpus.token_count() > 3 * CHUNK_TOKENS
        assert chunk_tokens[:3] == [CHUNK_TOKENS, 3, LONG_SENTENCE]
        assert max(chunk_tokens[3:]) <= CHUNK_TOKENS
        assert len(corpus.sentences[-1]) == 1

    def test_empty_corpus(self):
        assert tag_corpus(trained_model(), Corpus(())) == Corpus(())

    def test_overflowing_scores_raise(self):
        # two finite weights whose sum overflows to inf
        index = FeatureIndex(["A", "B"], ["LEN=L_1", "VC=0"])
        weights = np.zeros(index.size)
        weights[index.state_base("LEN=L_1")] = weights[index.state_base("VC=0")] = 1e308
        model = Model(index, weights)
        corpus = Corpus((make_sentence(("x", "en")),))
        with pytest.raises(ValueError, match="non-finite"):
            tag_sentence(model, corpus.sentences[0])
        with pytest.raises(ValueError, match="non-finite"):
            tag_corpus(model, corpus)
        # "ab" fires neither attribute, so only the second chunk overflows
        full_chunk = make_sentence(*[("ab", "en")] * CHUNK_TOKENS)
        assert tag_corpus(model, Corpus((full_chunk,))).token_count() == CHUNK_TOKENS
        with pytest.raises(ValueError, match="non-finite"):
            tag_corpus(model, Corpus((full_chunk, *corpus)))


# tracemalloc's peak during tag_corpus on the corpus below is about 880
# bytes per token (measured with numpy 2.4 on CPython 3.11), most of it one
# chunk's arrays; the bound leaves 30% headroom
TAG_PEAK_BYTES_PER_TOKEN = 1150


@pytest.fixture(scope="module")
def memory_model():
    model, _ = train(datagen.cyclic_ambiguous_corpus(800, seed=3))
    return model


def traced_tag_corpus(model, corpus) -> tuple[int, int]:
    """tracemalloc's (current, peak) after tag_corpus, with its result alive."""
    tracemalloc.start()
    try:
        tagged = tag_corpus(model, corpus)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tagged.token_count() == corpus.token_count()
    return current, peak


def test_tag_corpus_peak_memory_per_token(memory_model):
    stripped = datagen.strip_labels(datagen.cyclic_ambiguous_corpus(800, seed=3))
    _, peak = traced_tag_corpus(memory_model, stripped)
    assert peak / stripped.token_count() < TAG_PEAK_BYTES_PER_TOKEN


def test_tag_corpus_transient_memory_does_not_grow(memory_model):
    # the transient is what tag_corpus frees before it returns; chunking
    # bounds it by CHUNK_TOKENS, so 4x the tokens (19,259 against 4,829)
    # must not cost more transient memory (both about 3.6 MB)
    transients = []
    for n_sentences in (800, 3200):
        stripped = datagen.strip_labels(datagen.cyclic_ambiguous_corpus(n_sentences, seed=3))
        current, peak = traced_tag_corpus(memory_model, stripped)
        transients.append(peak - current)
    small, large = transients
    assert large < 1.25 * small
