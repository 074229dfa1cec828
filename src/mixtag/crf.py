"""Linear-chain CRF machinery.

Feature indexing, the compiled batch that training and tagging both score
(the one place that knows the pair format and the weight layout), lattices
of log-space scores, forward-backward (partition function and posterior
marginals; scaled in probability space, with a log-space recursion where
the transition scores span too widely for exp), max-plus Viterbi decoding,
and model persistence: a text block, then raw row id and weight blocks.
State features conjoin a position's attributes with its label; transition
features are dense label bigrams applied between positions t-1 and t for
t >= 2 (the first position carries state features only).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    LexiconError,
    NormalizationLexicon,
    escape_value,
    unescape_value,
)

MODEL_MAGIC = "MIXTAG-MODEL"
MODEL_VERSION = 4  # the one version written and read; older files must be retrained


class ModelFormatError(ValueError):
    """Unreadable or invalid persisted model."""


def _checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """The label set as a tuple: nonempty, no repeats, and no label empty or
    holding a tab or line break (else ValueError)."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("label set must be nonempty")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    for label in labels:
        if not label or "\t" in label or "\n" in label or "\r" in label:
            raise ValueError(f"invalid label {label!r}")
    return labels


class FeatureIndex:
    """Parameter layout shared by training and tagging: the labels, a tuple
    whose order gives each label its id, and the retained attributes,
    strictly sorted (else ValueError) as a model file stores them.

    The first L*L slots hold the transition weights, slot yp*L + y.  Each
    retained attribute owns one row: its rank in ``attributes``.  Row r
    holds the L state slots L*L + r*L .. L*L + r*L + L-1, one per label, so
    ``weights[L*L:].reshape(-1, L)`` views the state weights as an
    attribute x label matrix W_state.  ``compile`` turns sentences of
    attribute sets into a ``Compiled`` batch of (token, row) pairs over the
    same rows, and training and tagging alike score through the batch.
    """

    def __init__(self, labels: Sequence[str], attributes: Sequence[str]):
        self.labels = _checked_labels(labels)
        self.n_labels = L = len(self.labels)
        self.attributes = tuple(attributes)
        self._row = dict(zip(self.attributes, range(len(self.attributes))))
        # sorting sorted input is one linear pass
        if len(self._row) != len(self.attributes) or sorted(self._row) != list(self.attributes):
            raise ValueError("attributes not strictly sorted")
        self.size = L * L + len(self.attributes) * L

    def state_base(self, attribute: str) -> int | None:
        row = self._row.get(attribute)
        return None if row is None else self.n_labels * (self.n_labels + row)

    def compile(self, sentences: Iterable[Sequence[Sequence[str]]]) -> Compiled:
        """Compile sentences, each a sequence of attribute sets, one per
        token, as ``extract_corpus_attributes`` yields them.  The sentences
        are read once, so a caller may generate them."""
        lengths: list[int] = []
        sizes: list[int] = []

        def attr_sets():
            for sentence in sentences:
                lengths.append(len(sentence))
                sizes.extend(map(len, sentence))
                yield from sentence

        cols = np.fromiter(
            map(self._row.get, chain.from_iterable(attr_sets()), repeat(-1)), dtype=np.int64
        )
        known = cols >= 0
        rows = np.repeat(np.arange(len(sizes)), sizes)
        return Compiled(self, rows[known], cols[known], np.array([0, *accumulate(lengths)]))


@dataclass
class Compiled:
    """Sentences compiled against a ``FeatureIndex``, for training and tagging.

    Tokens are stacked in order; sentence s covers tokens
    ``offsets[s]:offsets[s + 1]``.  Each known attribute a token fires is
    one (token, attribute row) pair ``(rows[k], cols[k])``, int64, in token
    and then set order, so a token without one scores 0 for every label.
    The ``bincount`` bins of both pair directions, and the ``grouped``
    batch that training optimizes over, are built on first use and kept.

    A grouped batch also holds ``group``, the group of each attribute row
    of the batch it was built from, and ``scale``, laid out as its weights:
    1.0 in each transition slot and sqrt(k_g) in each state slot of group
    g.  Only its ``scores`` and ``counts`` apply the scale, and ``expand``
    maps its weights back.
    """

    index: FeatureIndex
    rows: np.ndarray  # (pairs,) token of each pair
    cols: np.ndarray  # (pairs,) attribute row of each pair
    offsets: np.ndarray  # (sentences + 1,)
    group: np.ndarray | None = None  # (attributes of the full index,) grouped batches only
    scale: np.ndarray | None = None  # (index.size,) grouped batches only

    def _bins(self, dest: np.ndarray) -> np.ndarray:
        """dest*L + label: L bins per pair, pair by pair."""
        L = self.index.n_labels
        return ((dest * L)[:, None] + np.arange(L)).ravel()

    @cached_property
    def _state_bins(self) -> np.ndarray:
        return self._bins(self.rows)  # each pair's token

    @cached_property
    def _count_bins(self) -> np.ndarray:
        return self._bins(self.cols + self.index.n_labels)  # each pair's state slots

    @cached_property
    def grouped(self) -> Compiled:
        """This batch over one attribute row per group of rows that fire on
        the same tokens, for training.

        Rows are grouped only when their token runs (each row's tokens, in
        order, with repeats) are equal, compared as bytes.  Groups are
        numbered by their lowest row and named by its attribute, so their
        names stay strictly sorted; only that row's pairs are kept.  A
        group's weight u_g stands for u_g / sqrt(k_g) on each of its k_g
        members.  The map is an isometry: ||u|| = ||w||, and the gradient
        in u is sqrt(k_g) times each member's, so gradient dot products
        match.  From the zero start every member of a group gets the same
        gradient, so L-BFGS over u takes, in exact arithmetic, the steps it
        takes over w.
        """
        A = len(self.index.attributes)
        ends = np.cumsum(np.bincount(self.cols, minlength=A)) * self.rows.itemsize
        runs = self.rows[np.argsort(self.cols, kind="stable")].tobytes()
        first: dict[bytes, int] = {}
        group = np.fromiter(
            (first.setdefault(runs[a:b], len(first))
             for a, b in zip([0, *ends[:-1].tolist()], ends.tolist())),
            dtype=np.int64, count=A,
        )
        _, lowest = np.unique(group, return_index=True)
        keep = lowest[group[self.cols]] == self.cols
        index = FeatureIndex(self.index.labels, [self.index.attributes[a] for a in lowest])
        L = index.n_labels
        scale = np.concatenate([np.ones(L * L), np.repeat(np.sqrt(np.bincount(group)), L)])
        return Compiled(index, self.rows[keep], group[self.cols[keep]], self.offsets, group, scale)

    def expand(self, weights: np.ndarray) -> np.ndarray:
        """The full-length weights that a grouped batch's ``weights`` stand
        for: every member row of group g holds u_g / sqrt(k_g)."""
        L = self.index.n_labels
        unscaled = weights / self.scale
        state = unscaled[L * L:].reshape(-1, L)[self.group]
        return np.concatenate([unscaled[: L * L], state.ravel()])

    def _pair_sums(
        self, terms: np.ndarray, pick: np.ndarray, bins: np.ndarray, size: int
    ) -> np.ndarray:
        """The rows ``pick`` of ``terms``, one per pair, summed into ``bins``
        in pair order: ``size`` float64 sums."""
        gathered = terms.take(pick, axis=0)  # faster than terms[pick]
        # bincount counts in int64 when there is no pair at all
        sums = np.bincount(bins, weights=gathered.ravel(), minlength=size)
        return sums.astype(np.float64, copy=False)

    def scores(self, weights: np.ndarray) -> Lattice:
        """The batch's lattice, one state row per token.  A token's state
        scores sum the W_state rows of its pairs in pair order."""
        if self.scale is not None:
            weights = weights * self.scale  # a copy: the caller owns the weights
        L, tokens = self.index.n_labels, int(self.offsets[-1])
        state = self._pair_sums(
            weights[L * L:].reshape(-1, L), self.cols, self._state_bins, tokens * L
        ).reshape(tokens, L)
        return Lattice(state, weights[: L * L].reshape(L, L))

    def counts(self, node: np.ndarray, trans: np.ndarray) -> np.ndarray:
        """Counts laid out as the weights: ``trans`` (L, L) in the transition
        slots, and in each state slot the sum of ``node`` (tokens, L) over
        the pairs of its attribute row, in pair order."""
        L = self.index.n_labels
        counts = self._pair_sums(node, self.rows, self._count_bins, self.index.size)
        counts[: L * L] = trans.ravel()  # no pair lands there
        if self.scale is not None:
            counts *= self.scale
        return counts


@dataclass
class Model:
    """Weights plus the features they were trained on.

    The index owns the labels and the attribute order, so any model
    that builds saves to a file ``load_model`` reads.  A model is applied
    with its own catalogue and lexicon, and its file stores both.
    """

    index: FeatureIndex
    weights: np.ndarray
    catalogue: FeatureCatalogue = FeatureCatalogue()
    lexicon: NormalizationLexicon = EMPTY_LEXICON

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.index.size,):
            raise ValueError(
                f"weight count {self.weights.shape} does not match "
                f"parameter count {self.index.size}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weight")
        if not isinstance(self.lexicon, NormalizationLexicon):
            raise ValueError(
                f"a model's lexicon must be a NormalizationLexicon, not {self.lexicon!r}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return self.index.labels

    def features(
        self,
        lexicon: NormalizationLexicon | None = None,
        catalogue: FeatureCatalogue | None = None,
    ) -> tuple[NormalizationLexicon, FeatureCatalogue]:
        """The model's own lexicon and catalogue, to extract with.  An
        argument that is not None must match the model's (else ValueError)."""
        for name, given, own in (
            ("catalogue", catalogue, self.catalogue), ("lexicon", lexicon, self.lexicon)
        ):
            if given is not None and given.fingerprint() != own.fingerprint():
                raise ValueError(
                    f"{name} {given.fingerprint()} does not match the model's {own.fingerprint()}"
                )
        return self.lexicon, self.catalogue


@dataclass
class Lattice:
    """Per-position label scores plus the shared transition score matrix, all finite."""

    state: np.ndarray  # (T, L)
    trans: np.ndarray  # (L, L), trans[y_prev, y]

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=np.float64)
        self.trans = np.asarray(self.trans, dtype=np.float64)
        if self.state.ndim != 2 or self.trans.shape != (self.state.shape[1],) * 2:
            raise ValueError("inconsistent lattice dimensions")
        if self.T == 0:
            raise ValueError("a lattice needs at least one position")
        if not (np.all(np.isfinite(self.state)) and np.all(np.isfinite(self.trans))):
            raise ValueError("non-finite lattice score")

    @property
    def T(self) -> int:
        return self.state.shape[0]


def index_features(
    corpus_attributes: Iterable[Sequence[tuple[str, ...]]],
    labels: Sequence[str],
    cutoff: int = 1,
) -> FeatureIndex:
    """Build the slot layout over ``labels``, in their order, from training
    attribute sets.

    An attribute is retained when its corpus occurrence count reaches the
    cutoff; retained attributes, in sorted order, are conjoined with every
    label.  Transition slots always cover all label pairs.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    tokens = [attrs for sentence_attrs in corpus_attributes for attrs in sentence_attrs]
    if not tokens:
        raise ValueError("empty corpus")
    counts = Counter(chain.from_iterable(tokens))
    retained = [a for a, n in counts.items() if n >= cutoff]
    retained.sort()
    return FeatureIndex(labels, retained)


def build_lattice(model: Model, attrs: Sequence[tuple[str, ...]]) -> Lattice:
    """Score every (position, label) pair; unknown attributes contribute 0."""
    return model.index.compile([attrs]).scores(model.weights)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along one axis, shifted by the maximum."""
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


# The widest transition score span, in nats, that the scaled forward-backward
# takes.  Within it every step's normalizer is at least exp(-span), and what
# follows a position weighs at most exp(span) more after one label than after
# another, so the floats' absolute underflow, about exp(-745), moves a
# marginal by at most about L * exp(2 * span - 745): 1e-63 at 300.  A state
# row may span any width; its scores more than 745 nats below the row's
# maximum underflow in E, the same absolute loss.  Wider transition spans let
# a path lost to underflow carry most of the mass later.
_SCALED_SPAN = 300.0


def _pack(offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Time-major layout of a batch of sentences, shared by the recursions.

    Sentence s covers the stacked token rows ``offsets[s]:offsets[s + 1]``.
    The sentences are sorted once by length, longest first (a stable sort,
    so the order is fixed), and packed time major: step t holds position t
    of the ``active[t]`` sentences longer than t, in packed rows
    ``start[t]:start[t] + active[t]``.  The sentences still running at step
    t + 1 are a prefix of those at step t, so a short sentence costs no
    padded work.  Packed row r is stacked row ``rows[r]`` and belongs to
    sorted sentence ``slot[r]``, which is input sentence ``order[slot[r]]``.

    Returns (order, active, start, rows, slot).
    """
    if len(offsets) == 2:
        # one sentence (tag_sentence and the lattice API): the layout is the
        # sentence itself, and the general steps below would cost as much as
        # a short decode
        T = int(offsets[1] - offsets[0])
        zeros = np.zeros(T, dtype=np.int64)
        return zeros[:1], zeros + 1, np.arange(T + 1), np.arange(offsets[0], offsets[1]), zeros
    lengths = np.diff(offsets)
    order = np.argsort(-lengths, kind="stable")
    T = int(lengths[order[0]])
    # active[t]: sentences longer than t
    active = np.cumsum(np.bincount(lengths, minlength=T + 1)[::-1])[::-1][1:]
    start = np.concatenate(([0], np.cumsum(active)))
    step = np.repeat(np.arange(T), active)
    slot = np.arange(len(step)) - start[step]
    rows = offsets[order][slot] + step
    return order, active, start, rows, slot


def _forward_backward(
    state: np.ndarray, trans: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over a batch of sentences at once.

    ``state`` stacks the tokens of all sentences, sentence s covering rows
    ``offsets[s]:offsets[s + 1]``; the recursion steps through the
    ``_pack`` layout.

    Returns node marginals (tokens, L) in the input row order, edge
    marginals (T_max - 1, L, L) in which edge[t, y_prev, y] sums
    P(y_t = y_prev, y_{t+1} = y | x) over the batch, and log Z per sentence.

    The recursion runs in probability space, scaled at every step (Rabiner
    1989).  With E = exp(state less each row's maximum) and P = exp(trans
    less its maximum), forward step t is (alpha_{t-1} @ P) * E_t divided by
    its row sums c_t, backward step t is (E * beta / c)_{t+1} @ P.T, and
    log Z sums log c and the shifts.  It is exact to rounding while the
    transition scores span at most ``_SCALED_SPAN``; a wider batch runs
    through ``_log_forward_backward`` instead.
    """
    top = trans.max()
    if trans.min() < top - _SCALED_SPAN:
        return _log_forward_backward(state, trans, offsets)
    order, active, start, rows, slot = _pack(offsets)
    B, L, T = len(order), trans.shape[0], len(active)
    e = state[rows]
    shift = e.max(axis=1)
    np.exp(np.subtract(e, shift[:, None], out=e), out=e)
    p = np.exp(trans - top)

    # alpha[r]: forward weights of packed row r, divided by c[r] to sum to 1
    alpha = e.copy()
    c = np.empty(len(rows))
    for t in range(T):
        n, cur = active[t], start[t]
        step = alpha[cur:cur + n]
        if t:
            prev = start[t - 1]
            np.multiply(alpha[prev:prev + n] @ p, e[cur:cur + n], out=step)
        c[cur:cur + n] = step.sum(axis=1)
        step /= c[cur:cur + n, None]

    # to_next[r]: E * beta / c of row r, where beta is 1 at each sentence's
    # last row and scaled by the c of every later row
    to_next = np.divide(e, c[:, None], out=e)
    beta = np.ones_like(alpha)
    edge = np.empty((T - 1, L, L))
    for t in range(T - 2, -1, -1):
        n, cur, nxt = active[t + 1], start[t], start[t + 1]
        np.matmul(to_next[nxt:nxt + n], p.T, out=beta[cur:cur + n])
        to_next[cur:cur + n] *= beta[cur:cur + n]
        np.multiply(alpha[cur:cur + n].T @ to_next[nxt:nxt + n], p, out=edge[t])
    node = np.empty_like(alpha)
    node[rows] = np.multiply(alpha, beta, out=alpha)

    log_z = np.bincount(slot, weights=np.log(c) + shift, minlength=B)
    log_z += (np.diff(offsets)[order] - 1) * top
    sentence_log_z = np.empty(B)
    sentence_log_z[order] = log_z
    return node, edge, sentence_log_z


def _log_forward_backward(
    state: np.ndarray, trans: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_forward_backward`` in log space, where each step takes a
    ``_logsumexp`` over a (sentences, L, L) tensor and no score span
    underflows."""
    order, active, start, rows, slot = _pack(offsets)
    B, L, T = len(order), trans.shape[0], len(active)
    score = state[rows]

    alpha = np.empty_like(score)
    alpha[: active[0]] = score[: active[0]]
    for t in range(1, T):
        n, prev, cur = active[t], start[t - 1], start[t]
        alpha[cur:cur + n] = score[cur:cur + n] + _logsumexp(
            alpha[prev:prev + n, :, None] + trans, axis=1
        )
    last = start[np.diff(offsets)[order] - 1] + np.arange(B)  # each sentence's last row
    log_z = _logsumexp(alpha[last], axis=1)

    beta = np.zeros_like(score)  # 0 at each sentence's last position
    edge = np.empty((T - 1, L, L))
    for t in range(T - 2, -1, -1):
        n, cur, nxt = active[t + 1], start[t], start[t + 1]
        # to_next[b, y_prev, y]: log weight of y_prev -> y plus everything after
        to_next = trans + (score[nxt:nxt + n] + beta[nxt:nxt + n])[:, None, :]
        beta[cur:cur + n] = _logsumexp(to_next, axis=2)
        edge[t] = np.exp(
            alpha[cur:cur + n, :, None] + to_next - log_z[:n, None, None]
        ).sum(axis=0)

    node = np.empty_like(score)
    node[rows] = np.exp(alpha + beta - log_z[slot, None])
    sentence_log_z = np.empty(B)
    sentence_log_z[order] = log_z
    return node, edge, sentence_log_z


def _viterbi(
    state: np.ndarray, trans: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best label ids over a batch of sentences at once.

    Same input and ``_pack`` layout as ``_forward_backward``.  A backward
    pass computes best-suffix scores and a forward pass takes the first
    argmax at each step, so ties resolve to the lexicographically least
    path.  Returns the label id of every token, in the input row order, and
    the unnormalized best-path score of every sentence.
    """
    order, active, start, rows, _ = _pack(offsets)
    # plain ints: most decodes are one short sentence, where numpy scalar
    # indexing is a visible share of each step
    active, start = active.tolist(), start.tolist()
    # best[r, y]: best score of the suffix from packed row r given label y there
    best = state[rows]
    for t in range(len(active) - 2, -1, -1):
        n, cur, nxt = active[t + 1], start[t], start[t + 1]
        best[cur:cur + n] += (trans + best[nxt:nxt + n, None, :]).max(axis=2)
    path = np.empty(len(rows), dtype=np.int64)
    path[: active[0]] = best[: active[0]].argmax(axis=1)
    for t in range(1, len(active)):
        n, prev, cur = active[t], start[t - 1], start[t]
        path[cur:cur + n] = (trans[path[prev:prev + n]] + best[cur:cur + n]).argmax(axis=1)
    label_ids = np.empty_like(path)
    label_ids[rows] = path
    scores = np.empty(len(order))
    scores[order] = best[np.arange(active[0]), path[: active[0]]]
    return label_ids, scores


def log_partition(lattice: Lattice) -> float:
    """log Z of the lattice."""
    _, _, log_z = _forward_backward(lattice.state, lattice.trans, np.array([0, lattice.T]))
    return float(log_z[0])


def posterior_marginals(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Node marginals P(y_t | x) and edge marginals P(y_t, y_{t+1} | x).

    Returns (node, edge) with node of shape (T, L) and edge of shape
    (T-1, L, L); edge[t, y_prev, y] covers the transition from position t
    to t+1.
    """
    node, edge, _ = _forward_backward(lattice.state, lattice.trans, np.array([0, lattice.T]))
    return node, edge


def viterbi_lattice(lattice: Lattice) -> tuple[list[int], float]:
    """Best label-index sequence and its unnormalized score.

    Ties resolve to the lexicographically least index sequence.
    """
    path, score = _viterbi(lattice.state, lattice.trans, np.array([0, lattice.T]))
    return path.tolist(), float(score[0])


def viterbi(model: Model, attrs: Sequence[tuple[str, ...]]) -> tuple[list[str], float]:
    lattice = build_lattice(model, attrs)
    path, score = viterbi_lattice(lattice)
    return list(map(model.labels.__getitem__, path)), score


def _unescape_lines(lines: list[str], what: str) -> list[str]:
    """The values of escaped lines, each spelled as ``escape_value`` spells it."""
    values = lines.copy()
    # escape_value leaves any other line as it is
    for i in [i for i, line in enumerate(lines) if "\\" in line or "\t" in line]:
        values[i] = unescape_value(lines[i])
        if escape_value(values[i]) != lines[i]:
            raise ModelFormatError(f"non-canonical escape in {what} line {lines[i]!r}")
    return values


def _row_keys(state: np.ndarray) -> list[bytes]:
    """The bits of each row of a C-contiguous (rows, L) float64 array."""
    return state.view(np.dtype((np.void, state.itemsize * state.shape[1]))).ravel().tolist()


def _id_type(n_rows: int) -> np.dtype:
    """Row ids take 2 bytes while every id fits in them, else 4."""
    return np.dtype("<u2" if n_rows <= 1 << 16 else "<u4")


def save_model(model: Model) -> bytes:
    """Serialize to format v4, the one spelling ``load_model`` accepts.

    Each distinct state row, compared as bits, is stored once, in order of
    first use; the row ids give each attribute's row.
    """
    labels, attributes = model.labels, model.index.attributes
    L = len(labels)
    weights = model.weights.astype("<f8")
    keys = _row_keys(weights[L * L:].reshape(-1, L))
    first = dict(zip(dict.fromkeys(keys), range(len(keys))))  # row -> id, in order of first use
    ids = np.fromiter(map(first.__getitem__, keys), dtype=_id_type(len(first)), count=len(keys))
    lexicon = model.lexicon.sorted_items()
    lines = [
        f"labels {len(labels)}",
        *labels,
        f"catalogue {model.catalogue.fingerprint()}",
        f"lexicon {len(lexicon)}",
        *(f"{escape_value(short)}\t{escape_value(word)}" for short, word in lexicon),
        f"attributes {len(attributes)}",
        *map(escape_value, attributes),
        f"rows {len(first)}",
        "",
    ]
    text = "\n".join(lines).encode("utf-8")
    header = f"{MODEL_MAGIC} {MODEL_VERSION} {len(text)}\n".encode("ascii")
    return b"".join([header, text, ids.tobytes(), weights[: L * L].tobytes(), *first])


def _decimal(text: str, name: str) -> int:
    """``text`` as a count spelled in plain decimal, else ModelFormatError."""
    if not (text.isascii() and text.isdigit() and str(int(text)) == text):
        raise ModelFormatError(f"bad {name} {text!r}")
    return int(text)


class _Lines:
    """A model file's text lines, each ending in a newline, taken front to back."""

    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise ModelFormatError("model text does not end with a newline")
        self.lines = text[:-1].split("\n")
        self.pos = 0

    def take(self, n: int) -> list[str]:
        if self.pos + n > len(self.lines):
            raise ModelFormatError("truncated model file")
        self.pos += n
        return self.lines[self.pos - n:self.pos]

    def value(self, name: str) -> str:
        """The text after ``name`` on a ``name <value>`` line."""
        key, _, value = self.take(1)[0].partition(" ")
        if key != name:
            raise ModelFormatError(f"expected {name} line")
        return value

    def count(self, name: str) -> int:
        """The count on a ``name <count>`` line."""
        return _decimal(self.value(name), f"{name} count")


def load_model(data: bytes) -> Model:
    """Parse a model file in format v4; anything else raises ModelFormatError.

    A file loads only in the spelling ``save_model`` writes, so
    ``save_model(load_model(b)) == b``; its ``FeatureIndex`` rejects
    unsorted attributes.  Files of versions 1 to 3 are rejected with a
    message to retrain the model.
    """
    end = data.find(b"\n")
    if end < 0:
        raise ModelFormatError("truncated model file")
    magic, _, rest = data[:end].decode("utf-8", "replace").partition(" ")
    version, _, size = rest.partition(" ")
    if magic != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if version in ("1", "2", "3"):
        raise ModelFormatError(
            f"model format version {version} is no longer read; retrain the model with mixtag train"
        )
    if version != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported model version {version!r}")
    start = end + 1 + _decimal(size, "text length")  # where the row ids begin
    if start > len(data):
        raise ModelFormatError("truncated model file")
    try:
        lines = _Lines(data[end + 1:start].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model text is not UTF-8: {exc}") from None

    try:
        labels = _checked_labels(lines.take(lines.count("labels")))
    except ValueError as exc:
        raise ModelFormatError(f"bad label block: {exc}") from None
    try:
        catalogue = FeatureCatalogue.from_fingerprint(lines.value("catalogue"))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None

    pairs = [line.split("\t") for line in lines.take(lines.count("lexicon"))]
    if any(len(pair) != 2 for pair in pairs):
        raise ModelFormatError("malformed lexicon line")
    shorts = _unescape_lines([short for short, _ in pairs], "lexicon")
    words = _unescape_lines([word for _, word in pairs], "lexicon")
    entries = dict(zip(shorts, words))
    if len(entries) != len(shorts) or sorted(entries) != shorts:
        raise ModelFormatError("lexicon entries not strictly sorted")
    try:
        lexicon = NormalizationLexicon(entries)
    except LexiconError as exc:
        raise ModelFormatError(f"bad lexicon block: {exc}") from None

    attributes = _unescape_lines(lines.take(lines.count("attributes")), "attribute")
    try:
        index = FeatureIndex(labels, attributes)
    except ValueError as exc:  # attributes not strictly sorted
        raise ModelFormatError(str(exc)) from None
    L, n_rows = len(labels), lines.count("rows")
    if lines.pos != len(lines.lines):
        raise ModelFormatError("text after the rows line")

    A, id_type = len(attributes), _id_type(n_rows)
    expected = A * id_type.itemsize + 8 * L * (L + n_rows)
    if len(data) - start != expected:
        raise ModelFormatError(
            f"row id and weight blocks hold {len(data) - start} bytes, expected {expected}: "
            f"{A} row ids of {id_type.itemsize} bytes and {L * (L + n_rows)} weights"
        )
    ids = np.frombuffer(data, id_type, A, start)
    # in order of first use, each id is at most one above the largest before it
    top = np.maximum.accumulate(ids.astype(np.int64))
    if np.any(np.diff(top, prepend=-1) > 1):
        raise ModelFormatError("row ids not in order of first use")
    used = int(top[-1]) + 1 if len(top) else 0
    if used != n_rows:
        raise ModelFormatError(f"row ids number {used} rows, expected {n_rows}")

    stored = np.frombuffer(data, "<f8", L * (L + n_rows), start + ids.nbytes)
    rows = stored[L * L:].reshape(-1, L)
    if len(set(_row_keys(rows))) != n_rows:
        raise ModelFormatError("stored state rows not distinct")
    weights = np.concatenate([stored[: L * L], rows.take(ids, axis=0).ravel()])
    try:
        return Model(index, weights, catalogue, lexicon)
    except ValueError as exc:  # a non-finite weight
        raise ModelFormatError(f"bad weights block: {exc}") from None
