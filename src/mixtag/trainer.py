"""L2-penalized maximum-likelihood training of the chain CRF.

The objective is the negative conditional log-likelihood plus a Gaussian
penalty ||theta||^2 / (2 sigma^2), minimized from a zero start with
L-BFGS (Liu & Nocedal 1989).  Each evaluation runs one batched
forward-backward over the whole corpus, whose sentences it visits in one
fixed order, so repeated runs give identical results.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .corpus import Corpus
from .crf import (
    FeatureIndex,
    LabelSet,
    Model,
    index_features,
    _forward_backward,
    _pair_bins,
    _sum_pairs,
)
from .features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    NormalizationLexicon,
    extract_corpus_attributes,
)


LBFGS_MEMORY = 10  # correction pairs kept; a pair with s.y <= 0 is not stored
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
GRADIENT_TOLERANCE = 1e-12  # no step from a start where max|g| is this small
MIN_STEP = 1e-20  # training stops where the line search falls below this step


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


class StopReason(str, Enum):
    """The rule that ended training."""

    MAX_ITERATIONS = "max_iterations"  # took max_iterations steps
    CONVERGED = "converged"  # a step's relative decrease was at most the tolerance
    ZERO_GRADIENT = "zero_gradient"  # max|g| <= GRADIENT_TOLERANCE at the start
    NO_STEP = "no_step"  # the line search found no step


@dataclass
class TrainReport:
    iterations: int = 0
    history: list[tuple[float, float]] = field(default_factory=list)  # (objective, |grad|)
    final_objective: float = float("nan")
    wall_time: float = 0.0
    stop_reason: StopReason | None = None  # set by train


@dataclass
class IndexedCorpus:
    """Training corpus compiled against a label set and feature index.

    Tokens of all sentences are stacked in corpus order.  ``rows`` and
    ``cols`` are the (token, attribute row) pairs from
    ``FeatureIndex.compile``, so the objective sums the state scores of the
    tokens exactly as tagging's ``_state_scores`` does.  Sentence s covers
    tokens ``offsets[s]:offsets[s + 1]``.  ``empirical`` holds the gold
    feature count of every parameter slot.  The ``_sum_pairs`` bins of both
    pair directions depend on the corpus alone; each is built on first use
    and kept for every later evaluation.
    """

    labels: LabelSet
    index: FeatureIndex
    rows: np.ndarray  # (pairs,) token of each pair
    cols: np.ndarray  # (pairs,) attribute row of each pair
    label_ids: np.ndarray  # (tokens,) gold label ids
    offsets: np.ndarray  # (sentences + 1,)
    empirical: np.ndarray  # (index.size,)

    def token_count(self) -> int:
        return len(self.label_ids)

    @cached_property
    def state_bins(self) -> np.ndarray:
        """Bins that sum each token's pairs: rows*L + label."""
        return _pair_bins(self.rows, self.index.n_labels)

    @cached_property
    def count_bins(self) -> np.ndarray:
        """Bins that sum each attribute row's pairs into its parameter slots,
        L*L + cols*L + label, past the L*L transition slots."""
        L = self.index.n_labels
        return _pair_bins(self.cols + L, L)


def index_corpus(
    corpus: Corpus,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
    cutoff: int = 1,
) -> IndexedCorpus:
    """Extract attributes, collect labels, build the index and compile."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    tokens = [token for sentence in corpus for token in sentence]
    unlabeled = [token.surface for token in tokens if token.pos is None]
    if unlabeled:
        raise ValueError(f"unlabeled training token {unlabeled[0]!r}")
    labels = LabelSet(sorted({token.pos for token in tokens}))
    L = len(labels)

    all_attrs = list(extract_corpus_attributes(corpus, lexicon, catalogue))
    index = index_features(all_attrs, labels, cutoff)
    rows, cols = index.compile(attrs for sentence_attrs in all_attrs for attrs in sentence_attrs)
    label_ids = np.array([labels.index(token.pos) for token in tokens], dtype=np.int64)
    offsets = np.cumsum([0] + [len(sentence) for sentence in corpus])

    # gold slots: one per fired retained attribute, one per adjacent label pair
    has_prev = np.ones(len(label_ids), dtype=bool)
    has_prev[offsets[:-1]] = False
    state_slots = L * L + cols * L + label_ids[rows]
    trans_slots = label_ids[:-1][has_prev[1:]] * L + label_ids[has_prev]
    empirical = np.bincount(
        np.concatenate([trans_slots, state_slots]), minlength=index.size
    ).astype(np.float64)
    return IndexedCorpus(labels, index, rows, cols, label_ids, offsets, empirical)


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
    W = weights[L * L:].reshape(-1, L)
    state = _sum_pairs(corpus.state_bins, corpus.cols, W, corpus.token_count())
    if not (np.all(np.isfinite(state)) and np.all(np.isfinite(trans))):
        raise ValueError("non-finite lattice score")
    node, edge, log_z = _forward_backward(state, trans, corpus.offsets)

    value = float(log_z.sum()) - float(np.dot(weights, corpus.empirical))
    value += float(np.dot(weights, weights)) / (2.0 * l2_sigma2)
    # expected counts, laid out as the weights; no pair lands in the first L*L
    grad = _sum_pairs(corpus.count_bins, corpus.rows, node, L + len(W)).ravel()
    grad[: L * L] = edge.sum(axis=0).ravel()
    grad -= corpus.empirical
    grad += weights / l2_sigma2
    return value, grad


def _lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """-H grad by the two-loop recursion over the (s, y, 1/s.y) pairs, oldest
    first; H0 is (s.y / y.y) I of the newest pair, or I while there is none."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.dot(s, q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * np.dot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.dot(y, q)) * s
    return -q


def _backtrack(evaluate, weights: np.ndarray, value: float, grad: np.ndarray, direction: np.ndarray):
    """(weights, value, gradient) at the first step 1, 1/2, 1/4, ... that
    meets the Armijo condition, or None below ``MIN_STEP``."""
    slope = float(np.dot(grad, direction))
    step = 1.0
    while step >= MIN_STEP:
        trial = weights + step * direction
        trial_value, trial_grad = evaluate(trial)
        if trial_value <= value + ARMIJO * step * slope:
            return trial, trial_value, trial_grad
        step /= 2
    return None


def train(
    corpus: Corpus,
    lexicon: NormalizationLexicon = EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
    config: TrainConfig = TrainConfig(),
) -> tuple[Model, TrainReport]:
    """Fit a model from a fully labeled corpus.

    L-BFGS stops after max_iterations steps; on a step whose relative
    decrease (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) is at most the
    tolerance, the last allowed step included; at a start where max|g| <=
    ``GRADIENT_TOLERANCE``; or when the line search finds no step, keeping
    the current weights.  ``report.stop_reason`` names the rule.
    """
    start = time.perf_counter()
    indexed = index_corpus(corpus, lexicon, catalogue, config.cutoff)
    report = TrainReport()

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = objective_and_gradient(w, indexed, config.l2_sigma2)
        if not np.isfinite(value):
            raise TrainingError("objective became non-finite")
        return value, grad

    weights = np.zeros(indexed.index.size)
    value, grad = evaluate(weights)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    if np.max(np.abs(grad)) > GRADIENT_TOLERANCE:
        report.stop_reason, iterations = StopReason.MAX_ITERATIONS, config.max_iterations
    else:
        report.stop_reason, iterations = StopReason.ZERO_GRADIENT, 0
    for iteration in range(iterations):
        direction = _lbfgs_direction(grad, pairs) if iteration else -grad / np.linalg.norm(grad)
        accepted = _backtrack(evaluate, weights, value, grad, direction)
        if accepted is None:
            report.stop_reason = StopReason.NO_STEP
            break
        new_weights, new_value, new_grad = accepted
        s, y = new_weights - weights, new_grad - grad
        sy = float(np.dot(s, y))
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        converged = value - new_value <= config.tolerance * max(abs(value), abs(new_value), 1.0)
        weights, value, grad = accepted
        report.iterations += 1
        report.history.append((value, float(np.linalg.norm(grad))))
        if converged:
            report.stop_reason = StopReason.CONVERGED
            break

    report.final_objective = value
    report.wall_time = time.perf_counter() - start

    model = Model(
        indexed.labels,
        indexed.index,
        weights,
        catalogue=catalogue,
        lexicon=lexicon,
    )
    return model, report
