"""Apply a trained model to unlabeled corpora."""

from __future__ import annotations

from typing import Iterable

from .corpus import Corpus, Sentence, Token
from .crf import Model, _viterbi, viterbi
from .features import (
    FeatureCatalogue,
    NormalizationLexicon,
    extract_corpus_attributes,
    extract_sentence_attributes,
)


def _relabel(sentence: Sentence, labels: Iterable[str]) -> Sentence:
    return Sentence(
        tuple(Token(token.surface, token.lang, label) for token, label in zip(sentence, labels))
    )


def tag_sentence(
    model: Model,
    sentence: Sentence,
    lexicon: NormalizationLexicon | None = None,
    catalogue: FeatureCatalogue | None = None,
) -> Sentence:
    """Viterbi-decode one sentence; see ``tag_corpus`` for the features."""
    lexicon, catalogue = model.features(lexicon, catalogue)
    attrs = extract_sentence_attributes(sentence, lexicon, catalogue)
    labels, _ = viterbi(model, attrs)
    return _relabel(sentence, labels)


def tag_corpus(
    model: Model,
    corpus: Corpus,
    lexicon: NormalizationLexicon | None = None,
    catalogue: FeatureCatalogue | None = None,
) -> Corpus:
    """Viterbi-decode every sentence; surfaces and language tags pass through.

    Features are extracted with the model's own lexicon and catalogue.  An
    explicit ``lexicon`` or ``catalogue`` must match the model's (else
    ValueError).

    The corpus is one ``crf.Compiled`` batch, as in training: extracted
    and compiled in one pass, scored once, and decoded by one batched
    Viterbi.  The result equals
    ``tag_sentence`` on each sentence.
    """
    lexicon, catalogue = model.features(lexicon, catalogue)
    if not corpus.sentences:
        return Corpus(())
    # streamed into compile, so no token's attribute strings outlive its row
    batch = model.index.compile(extract_corpus_attributes(corpus, lexicon, catalogue))
    lattice = batch.scores(model.weights)
    label_ids, _ = _viterbi(lattice.state, lattice.trans, batch.offsets)
    labels = list(map(model.labels.__getitem__, label_ids.tolist()))
    return Corpus(
        tuple(
            _relabel(sentence, labels[a:b])
            for sentence, a, b in zip(corpus, batch.offsets, batch.offsets[1:])
        )
    )
