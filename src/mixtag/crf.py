"""Linear-chain CRF machinery.

Feature indexing and compilation, log-space lattices, forward-backward
(partition function and posterior marginals), Viterbi decoding, and
line-oriented model persistence.  State features conjoin a position's
attributes with its label; transition features are dense label bigrams
applied between positions t-1 and t for t >= 2 (the first position carries
state features only).
"""

from __future__ import annotations

import base64
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
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
MODEL_VERSION = 2  # written; version 1 still loads


class ModelFormatError(ValueError):
    """Unreadable or invalid persisted model."""


class LabelSet:
    """Ordered label alphabet with stable 0-based indices."""

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("label set must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        for label in labels:
            if not label or "\t" in label or "\n" in label or "\r" in label:
                raise ValueError(f"invalid label {label!r}")
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, i: int) -> str:
        return self.labels[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self.labels == other.labels

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None


class FeatureIndex:
    """Parameter layout shared by training and tagging.

    The first L*L slots hold the transition weights, slot yp*L + y.  Each
    retained attribute owns one row: its rank in ``attributes``.  Row r
    holds the L state slots L*L + r*L .. L*L + r*L + L-1, one per label, so
    ``weights[L*L:].reshape(-1, L)`` views the state weights as an
    attribute x label matrix W_state.  ``compile`` turns attribute sets into
    (token, row) pairs over the same rows, and every state score, in
    training and tagging alike, sums the W_state rows of a token's pairs.
    """

    def __init__(self, n_labels: int, attributes: Sequence[str]):
        if n_labels <= 0:
            raise ValueError("label count must be positive")
        self.n_labels = n_labels
        self.attributes = tuple(attributes)
        self._row = dict(zip(self.attributes, range(len(self.attributes))))
        if len(self._row) != len(self.attributes):
            raise ValueError("duplicate attribute")
        self.size = n_labels * n_labels + len(self.attributes) * n_labels

    def state_base(self, attribute: str) -> int | None:
        row = self._row.get(attribute)
        return None if row is None else self.n_labels * (self.n_labels + row)

    def compile(self, attr_sets: Iterable[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols): the (token, attribute row) pair of each known
        attribute, int64, in token and then set order; token k is set k.

        A token without known attributes has no pair and scores 0 for every
        label.  The sets are read once, so a caller may generate them.
        """
        sizes: list[int] = []

        def counted():
            for attrs in attr_sets:
                sizes.append(len(attrs))
                yield attrs

        cols = np.fromiter(
            map(self._row.get, chain.from_iterable(counted()), repeat(-1)), dtype=np.int64
        )
        known = cols >= 0
        rows = np.repeat(np.arange(len(sizes)), sizes)
        return rows[known], cols[known]


def _pair_bins(dest: np.ndarray, n_labels: int) -> np.ndarray:
    """The ``_sum_pairs`` bins that send pairs to rows ``dest``: dest*L + label,
    L per pair, pair by pair."""
    return ((dest * n_labels)[:, None] + np.arange(n_labels)).ravel()


def _sum_pairs(bins: np.ndarray, src: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[dest[k]] += values[src[k]] for every pair k, in pair order from 0,
    where ``bins`` is ``_pair_bins(dest, L)``; out has n rows.  Sums the
    compiled pairs in both directions."""
    L = values.shape[1]
    terms = values.take(src, axis=0)  # faster than values[src]
    return np.bincount(bins, weights=terms.ravel(), minlength=n * L).reshape(n, L)


def _state_scores(weights: np.ndarray, index: FeatureIndex, rows, cols, tokens: int) -> np.ndarray:
    """Per-token label scores, shape (tokens, L), all finite: the W_state
    rows of each token's pairs, summed."""
    L = index.n_labels
    state = _sum_pairs(_pair_bins(rows, L), cols, weights[L * L:].reshape(-1, L), tokens)
    if not np.all(np.isfinite(state)):
        raise ValueError("non-finite lattice score")
    return state


@dataclass
class Model:
    """Weights plus the features they were trained on.

    A model is applied with its own catalogue and lexicon.  ``lexicon`` is
    None only for a v1 file trained with a lexicon: v1 kept just the
    lexicon's fingerprint, which ``v1_lexicon_fingerprint`` then holds.
    Exactly one of the two is set.
    """

    labels: LabelSet
    index: FeatureIndex
    weights: np.ndarray
    catalogue: FeatureCatalogue = FeatureCatalogue()
    lexicon: NormalizationLexicon | None = EMPTY_LEXICON
    v1_lexicon_fingerprint: str | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.index.size,):
            raise ValueError(
                f"weight count {self.weights.shape} does not match "
                f"parameter count {self.index.size}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weight")
        if (self.lexicon is None) == (self.v1_lexicon_fingerprint is None):
            raise ValueError("a model needs exactly one of its lexicon and a v1 lexicon fingerprint")

    @property
    def lexicon_fingerprint(self) -> str:
        if self.lexicon is None:
            return self.v1_lexicon_fingerprint
        return self.lexicon.fingerprint()

    @property
    def catalogue_fingerprint(self) -> str:
        return self.catalogue.fingerprint()

    def features(
        self,
        lexicon: NormalizationLexicon | None = None,
        catalogue: FeatureCatalogue | None = None,
    ) -> tuple[NormalizationLexicon, FeatureCatalogue]:
        """The lexicon and catalogue to extract with: the model's own where
        an argument is None.  An explicit one must match the model's."""
        if catalogue is None:
            catalogue = self.catalogue
        elif catalogue != self.catalogue:
            raise ValueError(
                f"catalogue {catalogue.fingerprint()} does not match the model's "
                f"{self.catalogue_fingerprint}"
            )
        if lexicon is None:
            if self.lexicon is None:
                raise ValueError(
                    "this v1 model file does not store its lexicon (fingerprint "
                    f"{self.lexicon_fingerprint}); retrain it, or tag through the "
                    "library with the training lexicon"
                )
            lexicon = self.lexicon
        elif lexicon.fingerprint() != self.lexicon_fingerprint:
            raise ValueError(
                f"lexicon {lexicon.fingerprint()} does not match the model's "
                f"{self.lexicon_fingerprint}"
            )
        return lexicon, catalogue


@dataclass
class Lattice:
    """Per-position label scores plus the shared transition score matrix."""

    state: np.ndarray  # (T, L)
    trans: np.ndarray  # (L, L), trans[y_prev, y]

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=np.float64)
        self.trans = np.asarray(self.trans, dtype=np.float64)
        if self.state.ndim != 2 or self.trans.shape != (self.L, self.L):
            raise ValueError("inconsistent lattice dimensions")
        if not (np.all(np.isfinite(self.state)) and np.all(np.isfinite(self.trans))):
            raise ValueError("non-finite lattice score")

    @property
    def T(self) -> int:
        return self.state.shape[0]

    @property
    def L(self) -> int:
        return self.state.shape[1]


def index_features(
    corpus_attributes: Iterable[Sequence[tuple[str, ...]]],
    labels: LabelSet,
    cutoff: int = 1,
) -> FeatureIndex:
    """Build the slot layout from training attribute sets.

    An attribute is retained when its corpus occurrence count reaches the
    cutoff; retained attributes are conjoined with every label.  Transition
    slots always cover all label pairs.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    tokens = [attrs for sentence_attrs in corpus_attributes for attrs in sentence_attrs]
    if not tokens:
        raise ValueError("empty corpus")
    counts = Counter(chain.from_iterable(tokens))
    retained = [a for a, n in counts.items() if n >= cutoff]
    retained.sort()
    return FeatureIndex(len(labels), retained)


def build_lattice(model: Model, attrs: Sequence[tuple[str, ...]]) -> Lattice:
    """Score every (position, label) pair; unknown attributes contribute 0."""
    if not attrs:
        raise ValueError("attribute sequence must be nonempty")
    L = len(model.labels)
    state = _state_scores(model.weights, model.index, *model.index.compile(attrs), len(attrs))
    return Lattice(state, model.weights[: L * L].reshape(L, L))


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along one axis, shifted by the maximum."""
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


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
    """Log-space forward-backward over a batch of sentences at once.

    ``state`` stacks the tokens of all sentences, sentence s covering rows
    ``offsets[s]:offsets[s + 1]``; the recursion steps through the
    ``_pack`` layout.

    Returns node marginals (tokens, L) in the input row order, edge
    marginals (T_max - 1, L, L) in which edge[t, y_prev, y] sums
    P(y_t = y_prev, y_{t+1} = y | x) over the batch, and log Z per sentence.
    """
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


def sequence_score(lattice: Lattice, label_ids: Sequence[int]) -> float:
    """Unnormalized path score: state terms plus transitions for t >= 2."""
    if len(label_ids) != lattice.T:
        raise ValueError("label sequence length does not match lattice")
    score = 0.0
    prev = None
    for t, y in enumerate(label_ids):
        score += lattice.state[t, y]
        if prev is not None:
            score += lattice.trans[prev, y]
        prev = y
    return float(score)


def viterbi_lattice(lattice: Lattice) -> tuple[list[int], float]:
    """Best label-index sequence and its unnormalized score.

    Ties resolve to the lexicographically least index sequence.
    """
    path, score = _viterbi(lattice.state, lattice.trans, np.array([0, lattice.T]))
    return path.tolist(), float(score[0])


def viterbi(model: Model, attrs: Sequence[tuple[str, ...]]) -> tuple[list[str], float]:
    lattice = build_lattice(model, attrs)
    path, score = viterbi_lattice(lattice)
    return [model.labels[y] for y in path], score


def _read_grid(lines: list[str], labels: LabelSet, block: str) -> tuple[list[str], np.ndarray]:
    """Keys, as spelled in the file, and weights of a v1 weight block.

    A block has one ``key<TAB>label<TAB>weight`` line per weight, L lines per
    key; each key's L lines must name the labels in order and spell the key
    alike.
    """
    # checked before any joining, where a line short one tab followed by a
    # line with one extra tab would realign
    if set(map(str.count, lines, repeat("\t"))) - {2}:
        raise ModelFormatError(f"malformed {block} line")
    L = len(labels)
    expected = list(labels)
    keys: list[str] = []
    weights = np.empty(len(lines))
    for start in range(0, len(lines), L):
        fields = "\t".join(lines[start:start + L]).split("\t")
        key = fields[0]
        if fields[1::3] != expected or fields[0::3].count(key) != L:
            raise ModelFormatError(f"{block} block out of order")
        try:
            weights[start:start + L] = fields[2::3]
        except ValueError as exc:
            raise ModelFormatError(f"bad weight in {block} block ({key!r}): {exc}") from None
        keys.append(key)
    finite = np.isfinite(weights)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ModelFormatError(
            f"non-finite weight {weights[bad]} in {block} block ({keys[bad // L]!r})"
        )
    return keys, weights


def _unescape_lines(lines: list[str], what: str) -> list[str]:
    """The values of escaped lines, each spelled as ``escape_value`` spells it."""
    values = lines.copy()
    # escape_value leaves any other line as it is
    for i in [i for i, line in enumerate(lines) if "\\" in line or "\t" in line]:
        values[i] = unescape_value(lines[i])
        if escape_value(values[i]) != lines[i]:
            raise ModelFormatError(f"non-canonical escape in {what} line {lines[i]!r}")
    return values


def _strictly_sorted(values: Sequence[str]) -> bool:
    return all(map(str.__lt__, values, values[1:]))


def save_model(model: Model) -> bytes:
    """Serialize to format v2, the one spelling ``load_model`` accepts."""
    if model.lexicon is None:
        raise ValueError("a v1 model without its lexicon cannot be saved")
    labels, L = model.labels, len(model.labels)
    attributes, weights = model.index.attributes, model.weights
    if not _strictly_sorted(attributes):
        # an index built by hand may be unsorted; the file has one row order
        order = sorted(range(len(attributes)), key=attributes.__getitem__)
        attributes = [attributes[i] for i in order]
        weights = np.concatenate([weights[: L * L], weights[L * L:].reshape(-1, L)[order].ravel()])
    lexicon = model.lexicon.sorted_items()
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"labels {L}",
        *labels,
        f"catalogue {model.catalogue_fingerprint}",
        f"lexicon {len(lexicon)}",
        *(f"{escape_value(short)}\t{escape_value(word)}" for short, word in lexicon),
        f"attributes {len(attributes)}",
        *map(escape_value, attributes),
        "weights",
        base64.b64encode(weights.astype("<f8").tobytes()).decode("ascii"),
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


class _Lines:
    """A model file's lines, taken front to back."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    def take(self, n: int) -> list[str]:
        if self.pos + n > len(self.lines):
            raise ModelFormatError("truncated model file")
        self.pos += n
        return self.lines[self.pos - n:self.pos]

    def expect(self, line: str) -> None:
        if self.take(1) != [line]:
            raise ModelFormatError(f"expected {line} block")

    def value(self, name: str) -> str:
        """The text after ``name`` on a ``name <value>`` line."""
        key, _, value = self.take(1)[0].partition(" ")
        if key != name:
            raise ModelFormatError(f"expected {name} line")
        return value

    def count(self, name: str) -> int:
        """The count on a ``name <count>`` line, spelled in plain decimal."""
        count = self.value(name)
        if not (count.isascii() and count.isdigit() and str(int(count)) == count):
            raise ModelFormatError(f"bad {name} count {count!r}")
        return int(count)


def _read_v1_body(lines: _Lines, labels: LabelSet):
    """Lexicon or, if v1 did not store it, its fingerprint; attributes and
    weights of a v1 file."""
    lexicon, fingerprint = None, lines.value("lexicon")
    if fingerprint == "empty":
        lexicon, fingerprint = EMPTY_LEXICON, None
    elif not (len(fingerprint) == 16 and set(fingerprint) <= set("0123456789abcdef")):
        raise ModelFormatError(f"bad lexicon fingerprint {fingerprint!r}")
    lines.expect("transitions")
    keys, trans = _read_grid(lines.take(len(labels) ** 2), labels, "transition")
    if keys != list(labels):
        raise ModelFormatError("transition block out of order")
    keys, state = _read_grid(lines.take(lines.count("states") * len(labels)), labels, "state")
    return lexicon, fingerprint, list(map(unescape_value, keys)), np.concatenate([trans, state])


def _read_v2_body(lines: _Lines, labels: LabelSet):
    """Lexicon, attributes and weights of a v2 file, each in its one spelling."""
    pairs = [line.split("\t") for line in lines.take(lines.count("lexicon"))]
    if any(len(pair) != 2 for pair in pairs):
        raise ModelFormatError("malformed lexicon line")
    shorts = _unescape_lines([short for short, _ in pairs], "lexicon")
    words = _unescape_lines([word for _, word in pairs], "lexicon")
    if not _strictly_sorted(shorts):
        raise ModelFormatError("lexicon entries not strictly sorted")
    try:
        lexicon = NormalizationLexicon(dict(zip(shorts, words)))
    except LexiconError as exc:
        raise ModelFormatError(f"bad lexicon block: {exc}") from None

    attributes = _unescape_lines(lines.take(lines.count("attributes")), "attribute")
    if not _strictly_sorted(attributes):
        raise ModelFormatError("attributes not strictly sorted")

    lines.expect("weights")
    encoded = lines.take(1)[0]
    try:
        raw = base64.b64decode(encoded, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII line
        raise ModelFormatError(f"bad weights line: {exc}") from None
    # decoding ignores the unused low bits of the last digit; encoding zeroes them
    if base64.b64encode(raw) != encoded.encode("ascii"):
        raise ModelFormatError("non-canonical weights line")
    expected = len(labels) * (len(labels) + len(attributes))
    if len(raw) != 8 * expected:
        raise ModelFormatError(f"weights line holds {len(raw) / 8:g} weights, expected {expected}")
    return lexicon, None, attributes, np.frombuffer(raw, dtype="<f8").astype(np.float64)


def load_model(data: bytes) -> Model:
    """Parse a model file, v2 or v1; anything else raises ModelFormatError.

    A v2 file loads only in the spelling ``save_model`` writes, so
    ``save_model(load_model(b)) == b``.
    """
    try:
        lines = _Lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not UTF-8: {exc}") from None
    header = lines.take(1)[0].split(" ")
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if header[1] not in ("1", "2"):
        raise ModelFormatError(f"unsupported model version {header[1]!r}")
    v1 = header[1] == "1"
    if not (v1 or data.endswith(b"\n")):
        raise ModelFormatError("model file does not end with a newline")

    try:
        labels = LabelSet(lines.take(lines.count("labels")))
    except ValueError as exc:
        raise ModelFormatError(f"bad label block: {exc}") from None
    try:
        catalogue = FeatureCatalogue.from_fingerprint(lines.value("catalogue"))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    lexicon, fingerprint, attributes, weights = (_read_v1_body if v1 else _read_v2_body)(lines, labels)
    if lines.pos != len(lines.lines):
        raise ModelFormatError(f"trailing garbage after {'state' if v1 else 'weights'} block")

    try:
        index = FeatureIndex(len(labels), attributes)
    except ValueError as exc:
        raise ModelFormatError(f"bad state block: {exc}") from None
    try:
        return Model(labels, index, weights, catalogue, lexicon, fingerprint)
    except ValueError as exc:  # a non-finite v2 weight
        raise ModelFormatError(f"bad weights block: {exc}") from None
