import tracemalloc

import numpy as np
import pytest

from mixtag.corpus import Corpus
from mixtag.crf import FeatureIndex, Model
from mixtag.features import FeatureCatalogue, load_lexicon
from mixtag.tagging import tag_corpus, tag_sentence
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


class TestTagCorpus:
    def test_equals_tag_sentence_per_sentence(self):
        model = trained_model()
        # unsorted lengths, repeated surfaces, a surface under two language
        # tags, unknown surfaces and a one-token sentence
        corpus = Corpus(
            (
                *datagen.strip_labels(datagen.cyclic_ambiguous_corpus(12, seed=4)),
                make_sentence(("a1", "bn"), ("zz", "en"), ("a1", "en")),
                make_sentence(("u2", "en"),),
            )
        )
        expected = tuple(tag_sentence(model, s, LEXICON, CATALOGUE) for s in corpus)
        tagged = tag_corpus(model, corpus, LEXICON, CATALOGUE)
        assert tagged.sentences == expected
        assert len({t.pos for s in tagged for t in s}) > 1

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


# tracemalloc's peak during tag_corpus on the corpus below is about 3.7 KB
# per token (measured with numpy 2.4 on CPython 3.11); the bound leaves 30%
# headroom and can tighten once tagging runs in bounded memory
TAG_PEAK_BYTES_PER_TOKEN = 4800


def test_tag_corpus_peak_memory_per_token():
    corpus = datagen.cyclic_ambiguous_corpus(800, seed=3)
    model, _ = train(corpus)
    stripped = datagen.strip_labels(corpus)
    tracemalloc.start()
    try:
        tag_corpus(model, stripped)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / corpus.token_count() < TAG_PEAK_BYTES_PER_TOKEN
