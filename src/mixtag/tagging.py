"""Apply a trained model to unlabeled corpora."""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Iterable

import numpy as np

from .corpus import Corpus, Sentence
from .crf import Model, _state_scores, _viterbi, viterbi
from .features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    NormalizationLexicon,
    extract_corpus_attributes,
    extract_sentence_attributes,
)


def _relabel(sentence: Sentence, labels: Iterable[str]) -> Sentence:
    return Sentence(
        tuple(replace(token, pos=label) for token, label in zip(sentence, labels))
    )


def tag_sentence(
    model: Model,
    sentence: Sentence,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> Sentence:
    attrs = extract_sentence_attributes(sentence, lexicon, catalogue)
    labels, _ = viterbi(model, attrs)
    return _relabel(sentence, labels)


def tag_corpus(
    model: Model,
    corpus: Corpus,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> Corpus:
    """Viterbi-decode every sentence; surfaces and language tags pass through.

    The corpus is one batch: extracted and compiled in one pass, scored
    once, and decoded by one batched Viterbi.  The result equals
    ``tag_sentence`` on each sentence.
    """
    if not corpus.sentences:
        return Corpus(())
    # streamed into compile, so no token's attribute strings outlive its row
    attrs = chain.from_iterable(extract_corpus_attributes(corpus, lexicon, catalogue))
    state = _state_scores(model.weights, model.index, model.index.compile(attrs))
    L = len(model.labels)
    offsets = np.cumsum([0, *map(len, corpus)])
    label_ids, _ = _viterbi(state, model.weights[: L * L].reshape(L, L), offsets)
    labels = [model.labels[y] for y in label_ids.tolist()]
    return Corpus(
        tuple(
            _relabel(sentence, labels[a:b])
            for sentence, a, b in zip(corpus, offsets, offsets[1:])
        )
    )
