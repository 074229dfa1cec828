"""Apply a trained model to unlabeled corpora."""

from __future__ import annotations

from dataclasses import replace

from .corpus import Corpus, Sentence
from .crf import Model, viterbi
from .features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    NormalizationLexicon,
    extract_sentence_attributes,
)


def tag_sentence(
    model: Model,
    sentence: Sentence,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> Sentence:
    attrs = extract_sentence_attributes(sentence, lexicon, catalogue)
    labels, _ = viterbi(model, attrs)
    return Sentence(
        tuple(
            replace(token, pos=label) for token, label in zip(sentence, labels)
        )
    )


def tag_corpus(
    model: Model,
    corpus: Corpus,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> Corpus:
    """Viterbi-decode every sentence; surfaces and language tags pass through."""
    sentences = tuple(
        tag_sentence(model, sentence, lexicon, catalogue) for sentence in corpus
    )
    return Corpus(sentences)
