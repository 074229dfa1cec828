"""L2-penalized maximum-likelihood training of the chain CRF.

The objective is the negative conditional log-likelihood plus a Gaussian
penalty ||theta||^2 / (2 sigma^2), minimized from a zero start with
limited-memory BFGS.  Each evaluation runs one batched forward-backward
over the whole corpus, whose sentences it visits in one fixed order, so
repeated runs give identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

from .corpus import Corpus
from .crf import (
    FeatureIndex,
    LabelSet,
    Model,
    index_features,
    _forward_backward,
    _state_scores,
)
from .features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    NormalizationLexicon,
    extract_corpus_attributes,
)


LBFGS_MEMORY = 10  # correction pairs L-BFGS-B keeps


class TrainingError(RuntimeError):
    """Training could not produce a finite objective."""


@dataclass(frozen=True)
class TrainConfig:
    cutoff: int = 1
    l2_sigma2: float = 10.0
    max_iterations: int = 200
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.l2_sigma2 <= 0:
            raise ValueError("l2_sigma2 must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class TrainReport:
    iterations: int = 0
    history: list[tuple[float, float]] = field(default_factory=list)  # (objective, |grad|)
    final_objective: float = float("nan")
    wall_time: float = 0.0


@dataclass
class IndexedCorpus:
    """Training corpus compiled against a label set and feature index.

    Tokens of all sentences are stacked in corpus order.  ``X`` is the
    token x attribute matrix from ``FeatureIndex.compile``, whose columns
    are the index's attribute rows, so ``X @ W_state`` scores the tokens
    exactly as tagging does.  Sentence s covers tokens
    ``offsets[s]:offsets[s + 1]``.  ``empirical`` holds the gold feature
    count of every parameter slot.
    """

    labels: LabelSet
    index: FeatureIndex
    X: sparse.csr_array  # (tokens, attributes)
    label_ids: np.ndarray  # (tokens,) gold label ids
    offsets: np.ndarray  # (sentences + 1,)
    empirical: np.ndarray  # (index.size,)

    def token_count(self) -> int:
        return len(self.label_ids)


def index_corpus(
    corpus: Corpus,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
    cutoff: int = 1,
) -> IndexedCorpus:
    """Extract attributes, collect labels, build the index and compile."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    label_strings = set()
    for sentence in corpus:
        for token in sentence:
            if token.pos is None:
                raise ValueError(
                    f"unlabeled training token {token.surface!r}"
                )
            label_strings.add(token.pos)
    labels = LabelSet(sorted(label_strings))
    L = len(labels)

    all_attrs = list(extract_corpus_attributes(corpus, lexicon, catalogue))
    index = index_features(all_attrs, labels, cutoff)
    X = index.compile(attrs for sentence_attrs in all_attrs for attrs in sentence_attrs)
    label_ids = np.array(
        [labels.index(tok.pos) for sentence in corpus for tok in sentence], dtype=np.int64
    )
    offsets = np.cumsum([0] + [len(sentence) for sentence in corpus])

    # gold slots: one per fired retained attribute, one per adjacent label pair
    has_prev = np.ones(len(label_ids), dtype=bool)
    has_prev[offsets[:-1]] = False
    state_slots = L * L + X.indices * L + np.repeat(label_ids, np.diff(X.indptr))
    trans_slots = label_ids[:-1][has_prev[1:]] * L + label_ids[has_prev]
    empirical = np.bincount(
        np.concatenate([trans_slots, state_slots]), minlength=index.size
    ).astype(np.float64)
    return IndexedCorpus(labels, index, X, label_ids, offsets, empirical)


def objective_and_gradient(
    weights: np.ndarray, corpus: IndexedCorpus, l2_sigma2: float
) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its gradient.

    The value is sum(log Z) - w.empirical + ||w||^2 / (2 sigma^2); the
    gradient is expected counts - empirical counts + w / sigma^2.
    """
    L = corpus.index.n_labels
    weights = np.asarray(weights, dtype=np.float64)
    trans = weights[: L * L].reshape(L, L)
    state = _state_scores(weights, corpus.index, corpus.X)
    if not np.all(np.isfinite(trans)):
        raise ValueError("non-finite lattice score")
    node, edge, log_z = _forward_backward(state, trans, corpus.offsets)

    value = float(log_z.sum()) - float(np.dot(weights, corpus.empirical))
    value += float(np.dot(weights, weights)) / (2.0 * l2_sigma2)
    grad = np.concatenate([edge.sum(axis=0).ravel(), (corpus.X.T @ node).ravel()])
    grad -= corpus.empirical
    grad += weights / l2_sigma2
    return value, grad


def train(
    corpus: Corpus,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
    config: TrainConfig = TrainConfig(),
) -> tuple[Model, TrainReport]:
    """Fit a model from a fully labeled corpus.

    Weights start at zero; optimization stops at max_iterations or when the
    relative objective change drops below the tolerance.
    """
    start = time.perf_counter()
    indexed = index_corpus(corpus, lexicon, catalogue, config.cutoff)
    report = TrainReport()

    weights = np.zeros(indexed.index.size)
    cache: dict[bytes, tuple[float, np.ndarray]] = {}

    def fun(w: np.ndarray) -> tuple[float, np.ndarray]:
        key = w.tobytes()
        hit = cache.get(key)
        if hit is None:
            hit = objective_and_gradient(w, indexed, config.l2_sigma2)
            if not np.isfinite(hit[0]):
                raise TrainingError("objective became non-finite")
            cache.clear()  # keep only the most recent evaluation
            cache[key] = hit
        return hit

    if config.max_iterations > 0:
        def callback(w: np.ndarray) -> None:
            value, grad = fun(w)
            report.history.append((value, float(np.linalg.norm(grad))))

        result = optimize.minimize(
            fun,
            weights,
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={
                "maxiter": config.max_iterations,
                "maxcor": LBFGS_MEMORY,
                "ftol": config.tolerance,
                "gtol": 1e-12,
            },
        )
        if not np.all(np.isfinite(result.x)):
            raise TrainingError("optimizer produced non-finite weights")
        weights = result.x
        report.iterations = int(result.nit)

    # the optimizer's last evaluation is normally at result.x: a cache hit
    value, _ = fun(weights)
    report.final_objective = float(value)
    report.wall_time = time.perf_counter() - start

    model = Model(
        indexed.labels,
        indexed.index,
        weights,
        catalogue=catalogue,
        lexicon=lexicon,
    )
    return model, report
