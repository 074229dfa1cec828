"""Apply a trained model to unlabeled corpora."""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from .corpus import Corpus, Sentence, Token
from .crf import Model, _viterbi, viterbi
from .features import (
    FeatureCatalogue,
    NormalizationLexicon,
    extract_corpus_attributes,
    extract_sentence_attributes,
)

# The most tokens tag_corpus compiles, scores and decodes at once
CHUNK_TOKENS = 1024


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


def _chunks(sentences: Iterable[Sentence]) -> Iterator[list[Sentence]]:
    """Consecutive runs of whole sentences of at most ``CHUNK_TOKENS``
    tokens each; a longer sentence is a run of its own."""
    chunk: list[Sentence] = []
    tokens = 0
    for sentence in sentences:
        if chunk and tokens + len(sentence) > CHUNK_TOKENS:
            yield chunk
            chunk, tokens = [], 0
        chunk.append(sentence)
        tokens += len(sentence)
    if chunk:
        yield chunk


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

    The corpus is tagged in consecutive chunks of whole sentences, each of
    at most ``CHUNK_TOKENS`` tokens (a longer sentence is a chunk of its
    own).  Each chunk is one ``crf.Compiled`` batch, as in training:
    compiled from one pass of extraction, scored once, and decoded by one
    batched Viterbi, so the memory it takes is bounded by the chunk, not
    by the corpus.  One extraction spans the call, so each distinct
    (surface, language) pair is still featurized once.  A token's scores
    depend only on its own attributes and each sentence is decoded alone,
    so the result equals ``tag_sentence`` on each sentence.
    """
    lexicon, catalogue = model.features(lexicon, catalogue)
    # streamed into compile, so no token's attribute strings outlive its row
    attrs = extract_corpus_attributes(corpus, lexicon, catalogue)
    tagged: list[Sentence] = []
    for chunk in _chunks(corpus):
        batch = model.index.compile(islice(attrs, len(chunk)))
        lattice = batch.scores(model.weights)
        label_ids, _ = _viterbi(lattice.state, lattice.trans, batch.offsets)
        labels = list(map(model.labels.__getitem__, label_ids.tolist()))
        tagged.extend(
            _relabel(sentence, labels[a:b])
            for sentence, a, b in zip(chunk, batch.offsets, batch.offsets[1:])
        )
    return Corpus(tuple(tagged))
