"""L2-penalized maximum-likelihood training of the chain CRF.

The objective is the negative conditional log-likelihood plus a Gaussian
penalty ||theta||^2 / (2 sigma^2), minimized from a zero start with
L-BFGS (Liu & Nocedal 1989).  Each evaluation scores the whole corpus
once, reads the gold paths' scores off those state and transition scores,
and runs one batched forward-backward over them, visiting the sentences in
one fixed order.  No dot product of full-length vectors goes to BLAS, so
repeated runs give identical results under any BLAS thread count.

``train`` optimizes over the corpus batch's ``grouped`` space: one
variable per (group, label), where a group is a set of attribute rows that
fire on exactly the same tokens, scaled by the square root of its size.
From the zero start every member of a group gets the same gradient, and
the scaling keeps norms and dot products, so L-BFGS takes the same steps
as over every (attribute, label) slot with far shorter vectors.  The
weights are expanded to the full layout once, at the end, and the model is
the same.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import Corpus
from .crf import Compiled, FeatureIndex, Model, index_features, _forward_backward
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
        if not self.l2_sigma2 > 0:  # also rejects NaN
            raise ValueError("l2_sigma2 must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not self.tolerance > 0:
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
    """Training corpus compiled against a feature index.

    ``batch`` holds the corpus's (token, attribute row) pairs and sentence
    offsets, tokens stacked in corpus order, and scores them as tagging
    does.  ``label_ids`` are the gold ids of the stacked tokens: each
    token's position in the ``index.labels`` tuple.  The objective reads
    the gold paths' scores off the batch's scores; no gold count is kept.
    """

    batch: Compiled
    label_ids: np.ndarray  # (tokens,) gold label ids

    @property
    def index(self) -> FeatureIndex:
        return self.batch.index

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
    tokens = [token for sentence in corpus for token in sentence]
    unlabeled = [token.surface for token in tokens if token.pos is None]
    if unlabeled:
        raise ValueError(f"unlabeled training token {unlabeled[0]!r}")
    # a dict, not np.unique: fixed-width numpy strings drop trailing NULs,
    # which would merge the labels "N" and "N\x00"
    labels = sorted({token.pos for token in tokens})
    label_id = {label: i for i, label in enumerate(labels)}

    all_attrs = list(extract_corpus_attributes(corpus, lexicon, catalogue))
    batch = index_features(all_attrs, labels, cutoff).compile(all_attrs)
    label_ids = np.array([label_id[token.pos] for token in tokens], dtype=np.int64)
    return IndexedCorpus(batch, label_ids)


def objective_and_gradient(
    weights: np.ndarray, corpus: IndexedCorpus, l2_sigma2: float
) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood and its gradient.

    The value is sum(log Z) less the scores of the gold paths, read off the
    batch's own state and transition scores, plus ||w||^2 / (2 sigma^2);
    the gradient is the counts of (marginals - gold), node and edge, plus
    w / sigma^2.
    """
    batch, gold = corpus.batch, corpus.label_ids
    weights = np.asarray(weights, dtype=np.float64)
    lattice = batch.scores(weights)
    state, trans = lattice.state, lattice.trans
    node, edge, log_z = _forward_backward(state, trans, batch.offsets)
    L, tokens = len(trans), np.arange(len(gold))
    follows = np.ones(len(gold), dtype=bool)  # the token after another in its sentence
    follows[batch.offsets[:-1]] = False
    prev, cur = gold[:-1][follows[1:]], gold[follows]

    value = float(log_z.sum()) - float(state[tokens, gold].sum()) - float(trans[prev, cur].sum())
    value += _dot(weights, weights) / (2.0 * l2_sigma2)
    node[tokens, gold] -= 1.0
    bigrams = np.bincount(prev * L + cur, minlength=L * L).reshape(L, L)
    grad = batch.counts(node, edge.sum(axis=0) - bigrams)
    grad += weights / l2_sigma2
    return value, grad


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b, summed by numpy's own loop.  BLAS splits a long dot product
    across its threads, which changes the order of the sums, so every dot
    product of full-length vectors goes through here: the trained model's
    bytes then do not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """-H grad by the two-loop recursion over the (s, y, 1/s.y) pairs, oldest
    first; H0 is (s.y / y.y) I of the newest pair, or I while there is none.

    The result is a new array; each pair's multiple is formed in one reused
    buffer, not a fresh vector per pair."""
    q = grad.copy()
    term = np.empty_like(q)
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * _dot(s, q))
        q -= np.multiply(y, alphas[-1], out=term)
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * _dot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += np.multiply(s, alpha - rho * _dot(y, q), out=term)
    return np.negative(q, out=q)


def _backtrack(evaluate, weights: np.ndarray, value: float, grad: np.ndarray, direction: np.ndarray):
    """(weights, value, gradient) at the first step 1, 1/2, 1/4, ... that
    meets the Armijo condition, or None below ``MIN_STEP``."""
    slope = _dot(grad, direction)
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
    batch = indexed.batch.grouped
    grouped = IndexedCorpus(batch, indexed.label_ids)
    report = TrainReport()

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = objective_and_gradient(w, grouped, config.l2_sigma2)
        if not np.isfinite(value):
            raise TrainingError("objective became non-finite")
        return value, grad

    weights = np.zeros(batch.index.size)
    value, grad = evaluate(weights)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    if np.max(np.abs(grad)) > GRADIENT_TOLERANCE:
        report.stop_reason, iterations = StopReason.MAX_ITERATIONS, config.max_iterations
    else:
        report.stop_reason, iterations = StopReason.ZERO_GRADIENT, 0
    for iteration in range(iterations):
        direction = _lbfgs_direction(grad, pairs) if iteration else -grad / math.sqrt(_dot(grad, grad))
        accepted = _backtrack(evaluate, weights, value, grad, direction)
        if accepted is None:
            report.stop_reason = StopReason.NO_STEP
            break
        new_weights, new_value, new_grad = accepted
        s, y = new_weights - weights, new_grad - grad
        sy = _dot(s, y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        converged = value - new_value <= config.tolerance * max(abs(value), abs(new_value), 1.0)
        weights, value, grad = accepted
        report.iterations += 1
        report.history.append((value, math.sqrt(_dot(grad, grad))))
        if converged:
            report.stop_reason = StopReason.CONVERGED
            break

    report.final_objective = value
    report.wall_time = time.perf_counter() - start

    return Model(indexed.index, batch.expand(weights), catalogue, lexicon), report
