"""Synthetic corpus generators for training tests."""

from __future__ import annotations

import random

from mixtag.corpus import Corpus, Sentence, Token

N_LABELS = 8


def separable_corpus(n_sentences: int, seed: int, variants: int = 3) -> Corpus:
    """Each surface uniquely determines its label; each label has
    ``variants`` surfaces."""
    rng = random.Random(seed)
    sentences = []
    for _ in range(n_sentences):
        tokens = []
        for _ in range(rng.randint(3, 8)):
            k = rng.randrange(N_LABELS)
            variant = rng.randrange(variants)
            tokens.append(Token(f"w{k}v{variant}", "en", f"T{k}"))
        sentences.append(Sentence(tuple(tokens)))
    return Corpus(tuple(sentences))


def cyclic_ambiguous_corpus(
    n_sentences: int, seed: int, noise: float = 0.0
) -> Corpus:
    """Labels follow a deterministic cycle; most surfaces are ambiguous.

    60% of tokens emit a surface revealing only the label modulo 4 (two
    candidate labels); the rest are unambiguous and pin down the cycle
    offset for the whole sentence via the bigram structure.  A per-token
    most-frequent-tag baseline resolves ambiguous tokens at chance, so it
    tops out near 70%.  `noise` flips that fraction of training labels to
    a random wrong one.
    """
    rng = random.Random(seed)
    sentences = []
    for _ in range(n_sentences):
        start = rng.randrange(N_LABELS)
        tokens = []
        for t in range(rng.randint(4, 8)):
            k = (start + t) % N_LABELS
            surface = f"a{k % 4}" if rng.random() < 0.6 else f"u{k}"
            label = k
            if noise > 0 and rng.random() < noise:
                label = rng.choice([y for y in range(N_LABELS) if y != k])
            tokens.append(Token(surface, "en", f"T{label}"))
        sentences.append(Sentence(tuple(tokens)))
    return Corpus(tuple(sentences))


def strip_labels(corpus: Corpus) -> Corpus:
    return Corpus(
        tuple(
            Sentence(tuple(Token(t.surface, t.lang) for t in s)) for s in corpus
        )
    )


def most_frequent_tag_baseline(train: Corpus, test: Corpus) -> float:
    """Accuracy of tagging each token with its most frequent training tag."""
    counts: dict[str, dict[str, int]] = {}
    overall: dict[str, int] = {}
    for sentence in train:
        for token in sentence:
            by_tag = counts.setdefault(token.surface, {})
            by_tag[token.pos] = by_tag.get(token.pos, 0) + 1
            overall[token.pos] = overall.get(token.pos, 0) + 1
    fallback = max(sorted(overall), key=lambda tag: overall[tag])
    correct = 0
    total = 0
    for sentence in test:
        for token in sentence:
            by_tag = counts.get(token.surface)
            guess = (
                max(sorted(by_tag), key=lambda tag: by_tag[tag]) if by_tag else fallback
            )
            total += 1
            correct += guess == token.pos
    return correct / total
