from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from mixtag.corpus import Corpus, Sentence, Token
from mixtag.crf import FeatureIndex, Lattice, Model
from mixtag.features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    _context,
    _padded_words,
    _token_attributes,
)


def make_sentence(*items) -> Sentence:
    """items: (surface, lang[, pos]) tuples."""
    return Sentence(tuple(Token(*item) for item in items))


def make_corpus(*sentences) -> Corpus:
    return Corpus(tuple(sentences))


def position_attributes(
    sentence: Sentence,
    i: int,
    lexicon=EMPTY_LEXICON,
    catalogue: FeatureCatalogue = FeatureCatalogue(),
) -> tuple[str, ...]:
    """Position i's attribute set, built without the corpus extractor's
    (surface, language) memo: the reference that the memo is held to."""
    context = _context(_padded_words(sentence), i) if catalogue.context else ()
    return context + _token_attributes(sentence[i], lexicon, catalogue)


def model_from_lattice(state, trans) -> Model:
    """Wrap raw lattice scores in a Model whose labels are y0..y{L-1} and
    whose attributes are A0..A{T-1}, in sorted order (A10 sorts before A2).

    Position t fires the single attribute "A{t}", so build_lattice
    reproduces exactly the given state matrix.
    """
    state = np.asarray(state, dtype=float)
    trans = np.asarray(trans, dtype=float)
    T, L = state.shape
    attrs = [f"A{t}" for t in range(T)]
    index = FeatureIndex([f"y{i}" for i in range(L)], sorted(attrs))
    weights = np.zeros(index.size)
    weights[: L * L] = trans.ravel()
    for t, a in enumerate(attrs):
        base = index.state_base(a)
        weights[base:base + L] = state[t]
    return Model(index, weights)


@pytest.fixture
def rng():
    return np.random.default_rng(20160915)


def byte_edits(data: bytes, edit_bytes: bytes, positions=None):
    """Lists of 1-3 (position, byte, op) edits of ``data``, at positions
    drawn from the strategy ``positions``, or else uniformly."""
    positions = st.integers(0, len(data)) if positions is None else positions
    return st.lists(
        st.tuples(positions, st.sampled_from(list(edit_bytes)),
                  st.sampled_from(["replace", "insert", "delete"])),
        min_size=1, max_size=3,
    )


def apply_byte_edits(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, byte, op in edits:
        pos = min(pos, len(out))
        if op == "insert":
            out.insert(pos, byte)
        elif pos == len(out):
            continue
        elif op == "delete":
            del out[pos]
        else:
            out[pos] = byte
    return bytes(out)


def model_parts(data: bytes) -> tuple[bytes, bytes]:
    """A model file's text block and the binary blocks that follow it."""
    header, _, rest = data.partition(b"\n")
    size = int(header.rsplit(b" ", 1)[1])
    return rest[:size], rest[size:]


def model_file(text: bytes, blocks: bytes) -> bytes:
    """A version 4 model file of a text block and binary blocks, its
    length prefix to match."""
    return b"MIXTAG-MODEL 4 %d\n" % len(text) + text + blocks
