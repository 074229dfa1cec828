import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixtag import crf
from mixtag.features import FeatureCatalogue, NormalizationLexicon
from mixtag.crf import (
    _forward_backward,
    _log_forward_backward,
    _viterbi,
    FeatureIndex,
    Lattice,
    Model,
    ModelFormatError,
    build_lattice,
    index_features,
    load_model,
    log_partition,
    posterior_marginals,
    save_model,
    viterbi,
    viterbi_lattice,
)

import oracles
from conftest import apply_byte_edits, byte_edits, model_file, model_from_lattice, model_parts


def aset(*attrs):
    return tuple(attrs)


# escaped attributes and lexicon entries; the first state row repeats, so
# the file stores 3 rows: 4 row ids (8 bytes) and 10 weights (80 bytes)
SMALL_MODEL = save_model(
    Model(FeatureIndex(["N", "V"], ["W0=\\", "W0=a\tb", "W0=b", "W0=k1"]),
          np.array([0.5, -1.25, 3.0, 0.0, 1e-5, -2.5, 0.125, 7.0, 1e-5, -2.5, -0.0, 1e300]),
          FeatureCatalogue().without("affixes"),
          NormalizationLexicon({"k\\1": "ka\nl", "kr": "kor"}))
)
# bytes that can shift fields and lines, break a count or the length prefix,
# or change a row id, a weight's sign or its exponent
EDIT_BYTES = b"\t\n\\\r0123456789e+-_. NV\x00\x01\x02\x03\x7f\x80\xf0\xff"
# the length prefix, the text block and the binary blocks, drawn alike
_TEXT_START = SMALL_MODEL.index(b"\n") + 1
_BLOCKS_START = _TEXT_START + len(model_parts(SMALL_MODEL)[0])
EDIT_POSITIONS = st.one_of(
    st.integers(SMALL_MODEL.rindex(b" ", 0, _TEXT_START), _TEXT_START),
    st.integers(_TEXT_START, _BLOCKS_START),
    st.integers(_BLOCKS_START, len(SMALL_MODEL)),
)


class TestLabelSet:
    def test_indexing(self):
        # a plain tuple, in the given order: a label's position is its id
        ls = FeatureIndex(["N", "V", "J"], []).labels
        assert ls.index("V") == 1
        assert ls[2] == "J"
        assert len(ls) == 3


class TestFeatureIndex:
    @pytest.mark.parametrize("labels, message", [
        ([], "label set must be nonempty"),
        (["N", "V", "N"], "duplicate labels"),
        (["N", ""], "invalid label ''"),
        (["N\tV"], "invalid label 'N\\tV'"),
        (["N", "V\n"], "invalid label 'V\\n'"),
        (["\rN"], "invalid label '\\rN'"),
    ], ids=["empty-set", "repeated", "empty-label", "tab", "lf", "cr"])
    def test_bad_labels_rejected(self, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FeatureIndex(labels, [])

    def test_expansion_over_all_labels(self):
        labels = ["A", "B", "C"]
        attrs = [[aset("LEN=L_1")] for _ in range(5)]
        idx = index_features(attrs, labels, cutoff=1)
        base = idx.state_base("LEN=L_1")
        assert base is not None
        assert [base + y for y in range(3)] == [9, 10, 11]

    def test_cutoff_drops_rare_attributes(self):
        labels = ["A", "B", "C"]
        attrs = [[aset("LEN=L_1")] for _ in range(5)]
        idx = index_features(attrs, labels, cutoff=6)
        assert idx.state_base("LEN=L_1") is None

    def test_dense_transitions(self):
        labels = ["A", "B", "C"]
        idx = index_features([[aset("x")]], labels)
        # transition yp -> y sits in slot yp * L + y, below every state slot
        slots = {yp * 3 + y for yp in range(3) for y in range(3)}
        assert slots == set(range(idx.state_base("x")))
        trans = build_lattice(Model(idx, np.arange(idx.size)), [aset("x")]).trans
        assert all(trans[yp, y] == yp * 3 + y for yp, y in np.ndindex(3, 3))

    def test_slots_contiguous(self):
        labels = ["A", "B"]
        idx = index_features([[aset("p"), aset("q")]], labels)
        assert idx.size == 4 + 2 * 2

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            index_features([], ["A"])

    def test_attributes_must_be_strictly_sorted(self):
        # the one row order a model file stores, so every index saves
        for attributes in (["W0=b", "W0=\\", "W0=a"], ["W0=a", "W0=a"], ["", ""]):
            with pytest.raises(ValueError, match="^attributes not strictly sorted$"):
                FeatureIndex(["A", "B"], attributes)

    def test_owns_the_labels(self):
        idx = index_features([[aset("x")]], ["C", "A", "B"])
        assert idx.labels == ("C", "A", "B") and idx.n_labels == 3
        assert Model(idx, np.zeros(idx.size)).labels is idx.labels


# sentences of attribute sets over a small alphabet, so that many attributes
# fire on the same tokens; a set may name an attribute twice
attribute_corpora = st.lists(
    st.lists(st.lists(st.sampled_from("abcdef"), max_size=4).map(tuple), min_size=1, max_size=5),
    min_size=1, max_size=5,
)


class TestGrouped:
    """``Compiled.grouped`` merges exactly the attribute rows with equal token runs."""

    @staticmethod
    def token_runs(batch):
        """Each attribute row's tokens, in order, with repeats."""
        runs = [[] for _ in batch.index.attributes]
        for t, a in zip(batch.rows.tolist(), batch.cols.tolist()):
            runs[a].append(t)
        return [tuple(run) for run in runs]

    @settings(max_examples=200, deadline=None)
    @given(attribute_corpora, st.sampled_from([1, 2]))
    def test_groups_are_exactly_the_equal_token_runs(self, sentences, cutoff):
        labels = ["A", "B"]
        batch = index_features(sentences, labels, cutoff).compile(sentences)
        grouped = batch.grouped
        runs = self.token_runs(batch)
        group = grouped.group.tolist()
        assert len(group) == len(runs)
        # same group if and only if the same token run: members fire on the
        # same tokens, and no two groups share a run
        for a, b in zip(*np.triu_indices(len(runs), 1)):
            assert (group[a] == group[b]) == (runs[a] == runs[b])
        # numbered and named by the lowest member, so the names stay sorted
        lowest = [group.index(g) for g in range(len(grouped.index.attributes))]
        assert lowest == sorted(lowest) and sorted(set(group)) == list(range(len(lowest)))
        assert grouped.index.attributes == tuple(batch.index.attributes[a] for a in lowest)
        assert list(grouped.index.attributes) == sorted(set(grouped.index.attributes))
        assert grouped.index.labels == batch.index.labels
        # the lowest members' pairs, in pair order, and the size of each group
        assert self.token_runs(grouped) == [runs[a] for a in lowest]
        assert grouped.offsets is batch.offsets
        # the scale is laid out as the weights: 1 in each transition slot
        assert grouped.scale.shape == (grouped.index.size,)
        assert np.array_equal(grouped.scale[:4], np.ones(4))
        assert np.array_equal(grouped.scale[4:], np.repeat(np.sqrt(np.bincount(group)), 2))

    def test_distinct_rows_give_one_group_each(self, rng):
        sentences = [[aset("a"), aset("a", "b"), aset("b", "c")]]
        batch = index_features(sentences, ["A", "B"]).compile(sentences)
        grouped = batch.grouped
        assert grouped.group.tolist() == [0, 1, 2]
        assert grouped.scale.tolist() == [1.0] * grouped.index.size
        assert grouped.index.attributes == batch.index.attributes
        u = rng.standard_normal(grouped.index.size)
        assert np.array_equal(grouped.expand(u), u)

    def test_expand_divides_by_the_scale(self, rng):
        # a and b fire on tokens 0 and 1, c on token 1
        sentences = [[aset("a", "b"), aset("c", "b", "a")]]
        batch = index_features(sentences, ["A", "B"]).compile(sentences)
        grouped = batch.grouped
        assert grouped.index.attributes == ("a", "c") and grouped.group.tolist() == [0, 0, 1]
        u = rng.standard_normal(grouped.index.size)
        w = grouped.expand(u)
        assert np.array_equal(w[:4], u[:4])
        assert np.array_equal(w[4:].reshape(3, 2), [u[4:6] / math.sqrt(2)] * 2 + [u[6:8]])


class TestModel:
    def test_lexicons_that_differ_in_line_breaks_do_not_match(self):
        # hashed unescaped, both lexicons read "a\tb\nc\td\te\n" (5e762f8623f4ba23)
        one = NormalizationLexicon({"a": "b\nc", "d": "e"})
        other = NormalizationLexicon({"a": "b", "c\nd": "e"})
        assert one.fingerprint() != other.fingerprint()
        model = Model(FeatureIndex(["A"], []), np.zeros(1), lexicon=one)
        with pytest.raises(ValueError, match="lexicon .* does not match"):
            model.features(lexicon=other)
        with pytest.raises(ValueError, match="lexicon .* does not match"):
            replace(model, lexicon=other).features(lexicon=one)

    def test_equal_features_give_the_models_own(self):
        # a matching lexicon or catalogue built apart is checked, not used
        model = Model(FeatureIndex(["A"], []), np.zeros(1),
                      FeatureCatalogue().without("affixes"), NormalizationLexicon({"k": "ke"}))
        lexicon, catalogue = NormalizationLexicon({"k": "ke"}), FeatureCatalogue().without("affixes")
        assert lexicon is not model.lexicon and catalogue is not model.catalogue
        got_lexicon, got_catalogue = model.features(lexicon, catalogue)
        assert got_lexicon is model.lexicon and got_catalogue is model.catalogue


class TestLattice:
    def test_empty_rejected(self):
        # log_partition, posterior_marginals and viterbi_lattice used to
        # raise IndexError on it
        with pytest.raises(ValueError, match="at least one position"):
            Lattice(np.zeros((0, 3)), np.zeros((3, 3)))

    def test_empty_attribute_sequence_rejected(self):
        # build_lattice leaves the check to Lattice
        model = model_from_lattice(np.zeros((1, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="at least one position"):
            build_lattice(model, [])


class TestBuildLattice:
    def test_zero_weights(self):
        model = model_from_lattice(np.zeros((3, 2)), np.zeros((2, 2)))
        lat = build_lattice(model, [aset("A0"), aset("A1"), aset("A2")])
        assert np.all(lat.state == 0) and np.all(lat.trans == 0)

    def test_unknown_attribute_contributes_zero(self):
        model = model_from_lattice(np.ones((1, 2)), np.zeros((2, 2)))
        # the second position fires no known attribute: an empty row
        lat = build_lattice(model, [aset("A0", "UNSEEN=1"), aset("UNSEEN=2")])
        assert lat.state.tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_single_firing_attribute(self):
        labels = ["a", "b", "c"]
        idx = FeatureIndex(labels, ["f"])
        w = np.zeros(idx.size)
        w[idx.state_base("f") + 2] = 0.7
        model = Model(idx, w)
        lat = build_lattice(model, [aset("f")])
        assert lat.state[0][2] == 0.7
        assert lat.state[0][0] == 0.0


class TestLogPartition:
    def test_uniform(self):
        lat = Lattice(np.zeros((3, 4)), np.zeros((4, 4)))
        assert log_partition(lat) == pytest.approx(3 * math.log(4), rel=1e-12)

    def test_single_path(self):
        lat = Lattice(np.array([[1.25]]), np.zeros((1, 1)))
        assert log_partition(lat) == pytest.approx(1.25)

    def test_matches_enumeration(self, rng):
        for _ in range(40):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(1, 6))
            state, trans = oracles.random_dyadic_lattice(rng, T, L)
            got = log_partition(Lattice(state, trans))
            want = oracles.brute_log_partition(state, trans)
            assert got == pytest.approx(want, rel=1e-10)

    def test_upper_bounds_max_score(self, rng):
        for _ in range(10):
            state, trans = oracles.random_dyadic_lattice(rng, 4, 3)
            _, best = oracles.brute_viterbi(state, trans)
            assert log_partition(Lattice(state, trans)) >= best


class TestMarginals:
    def test_uniform(self):
        node, edge = posterior_marginals(Lattice(np.zeros((3, 4)), np.zeros((4, 4))))
        assert np.allclose(node, 0.25)
        assert np.allclose(edge, 1 / 16)

    def test_single_label(self):
        node, edge = posterior_marginals(Lattice(np.ones((4, 1)), np.ones((1, 1))))
        assert np.allclose(node, 1.0)
        assert np.allclose(edge, 1.0)

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(1, 5))
            state, trans = oracles.random_dyadic_lattice(rng, T, L)
            node, edge = posterior_marginals(Lattice(state, trans))
            bnode, bedge = oracles.brute_marginals(state, trans)
            assert np.max(np.abs(node - bnode)) < 1e-9
            if T > 1:
                assert np.max(np.abs(edge - bedge)) < 1e-9

    def test_sums_and_consistency(self, rng):
        state, trans = oracles.random_dyadic_lattice(rng, 5, 4)
        node, edge = posterior_marginals(Lattice(state, trans))
        assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(edge.sum(axis=(1, 2)), 1.0, atol=1e-9)
        # summing edge over the previous label recovers the node marginal
        for t in range(edge.shape[0]):
            assert np.allclose(edge[t].sum(axis=0), node[t + 1], atol=1e-9)
            assert np.allclose(edge[t].sum(axis=1), node[t], atol=1e-9)

    def test_state_shift_invariance(self, rng):
        state, trans = oracles.random_dyadic_lattice(rng, 4, 3)
        lat = Lattice(state, trans)
        shifted = state.copy()
        shifted[2] += 1.5
        lat2 = Lattice(shifted, trans)
        assert log_partition(lat2) == pytest.approx(log_partition(lat) + 1.5, rel=1e-12)
        n1, e1 = posterior_marginals(lat)
        n2, e2 = posterior_marginals(lat2)
        assert np.max(np.abs(n1 - n2)) < 1e-9
        assert np.max(np.abs(e1 - e2)) < 1e-9
        assert viterbi_lattice(lat)[0] == viterbi_lattice(lat2)[0]


def check_batch(state, trans, offsets):
    """The batched forward-backward against brute force, sentence by sentence."""
    node, edge, log_z = _forward_backward(state, trans, offsets)
    lengths = np.diff(offsets)
    L = trans.shape[0]
    assert node.shape == state.shape
    assert edge.shape == (max(lengths) - 1, L, L)
    assert log_z.shape == (len(lengths),)
    expected_edge = np.zeros_like(edge)
    for s, (a, b) in enumerate(zip(offsets, offsets[1:])):
        assert log_z[s] == pytest.approx(
            oracles.brute_log_partition(state[a:b], trans), rel=1e-12
        )
        brute_node, brute_edge = oracles.brute_marginals(state[a:b], trans)
        assert np.allclose(node[a:b], brute_node, atol=1e-10)
        expected_edge[: b - a - 1] += brute_edge
    assert np.allclose(edge, expected_edge, atol=1e-10)


class TestBatchedForwardBackward:
    """The one recursion run over many sentences at once, against brute force."""

    def _batch(self, rng, lengths, L, scale=1.0):
        lattices = [oracles.random_dyadic_lattice(rng, T, L) for T in lengths]
        trans = scale * lattices[0][1]
        state = scale * np.concatenate([s for s, _ in lattices])
        offsets = np.cumsum([0, *lengths])
        return state, trans, offsets

    def test_ragged_unsorted_batch(self, rng):
        # lengths out of order and repeated, a one-token sentence first and last
        check_batch(*self._batch(rng, [1, 3, 6, 2, 3, 4, 5, 6, 1], 3))

    def test_single_sentence_matches_lattice_api(self, rng):
        state, trans, offsets = self._batch(rng, [5], 3)
        node, edge, log_z = _forward_backward(state, trans, offsets)
        lattice = Lattice(state, trans)
        assert log_z[0] == log_partition(lattice)
        lattice_node, lattice_edge = posterior_marginals(lattice)
        assert np.array_equal(node, lattice_node)
        assert np.array_equal(edge, lattice_edge)

    def test_large_scores_stay_finite(self, rng):
        # scores of magnitude ~50: exp would overflow without the max shift
        state, trans, offsets = self._batch(rng, [4, 1, 5, 2], 3, scale=25.0)
        assert np.max(np.abs(state)) >= 45
        node, edge, log_z = _forward_backward(state, trans, offsets)
        assert np.all(np.isfinite(node)) and np.all(np.isfinite(edge))
        assert np.all(np.isfinite(log_z))
        assert np.allclose(node.sum(axis=1), 1.0, atol=1e-12)
        check_batch(state, trans, offsets)


def wide_span(state_gap: float, trans_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """A 2x2 lattice that favours label 0 then label 1 by ``state_gap`` nats
    and staying on a label by ``trans_gap``; with equal gaps g, log Z is
    -g + log 3 (three of its four paths score -g)."""
    return (np.array([[0.0, -state_gap], [-state_gap, 0.0]]),
            np.array([[0.0, -trans_gap], [-trans_gap, 0.0]]))


# Each normalizer of a probability-space recursion is normal here, yet its
# second position's label 1, 921.5 nats below label 0 and so exp 0 there,
# carries almost all the mass through the cheap 1 -> 1 transitions.
LOST_PATH = (np.array([[0.0, -112.5], [0.0, -921.5], [0.0, 0.0], [0.0, 0.0]]),
             np.array([[-501.5, -707.0], [-406.5, -61.5]]))

# scores spanning more than exp's range (about 745 nats) within a position:
# a normalizer that underflows to 0, to a subnormal, and one tiny but normal
# (about 3e-304); a state span of 1000 under a narrow transition span; and
# LOST_PATH
WIDE_LATTICES = {
    "1000": wide_span(1000.0, 1000.0),
    "740": wide_span(740.0, 740.0),
    "700": wide_span(700.0, 700.0),
    "state-1000": wide_span(1000.0, 250.0),
    "lost-path": LOST_PATH,
}


class TestWideSpanLattices:
    """Against brute force on lattices whose scores a probability-space
    recursion cannot hold in exp's range."""

    @pytest.mark.parametrize("name", WIDE_LATTICES)
    def test_lattice_api_matches_enumeration(self, name):
        state, trans = WIDE_LATTICES[name]
        lattice = Lattice(state, trans)
        assert log_partition(lattice) == pytest.approx(
            oracles.brute_log_partition(state, trans), rel=1e-12
        )
        node, edge = posterior_marginals(lattice)
        brute_node, brute_edge = oracles.brute_marginals(state, trans)
        assert np.allclose(node, brute_node, atol=1e-10)
        assert np.allclose(edge, brute_edge, atol=1e-10)
        check_batch(state, trans, np.array([0, len(state)]))

    @pytest.mark.parametrize("gap", [1000.0, 740.0, 700.0])
    def test_equal_gaps_log_partition(self, gap):
        state, trans = wide_span(gap, gap)
        assert oracles.brute_log_partition(state, trans) == pytest.approx(
            -gap + math.log(3), rel=1e-15
        )
        assert log_partition(Lattice(state, trans)) == pytest.approx(-gap + math.log(3), rel=1e-12)

    def test_known_log_partition(self):
        lattice = Lattice(*wide_span(1000.0, 1000.0))
        assert log_partition(lattice) == pytest.approx(-998.9014, abs=1e-4)

    @pytest.mark.parametrize("name", WIDE_LATTICES)
    def test_ragged_batch_mixing_wide_and_ordinary_sentences(self, rng, name):
        wide, trans = WIDE_LATTICES[name]
        ordinary = [oracles.random_dyadic_lattice(rng, T, 2)[0] for T in (3, 1, 4, 2, 5)]
        sentences = [ordinary[0], wide, *ordinary[1:3], wide[:1], ordinary[3], wide, ordinary[4]]
        state = np.concatenate(sentences)
        offsets = np.cumsum([0, *map(len, sentences)])
        check_batch(state, trans, offsets)


class TestScaledAndLogSpacePaths:
    """The scaled recursion and its log-space fallback agree, and each runs
    where it should."""

    def test_agree_on_random_ragged_batches(self, rng):
        for _ in range(20):
            L = int(rng.integers(1, 7))
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 9)))
            state = rng.normal(scale=4.0, size=(int(lengths.sum()), L))
            trans = rng.normal(scale=4.0, size=(L, L))
            offsets = np.cumsum([0, *lengths])
            node, edge, log_z = _forward_backward(state, trans, offsets)
            log_node, log_edge, log_log_z = _log_forward_backward(state, trans, offsets)
            assert np.allclose(log_z, log_log_z, rtol=1e-12, atol=0)
            assert np.max(np.abs(node - log_node)) < 1e-12
            assert np.max(np.abs(edge - log_edge), initial=0.0) < 1e-12

    @pytest.mark.parametrize("lattice,fallback", [
        (wide_span(1000.0, 1000.0), True),
        (wide_span(700.0, 700.0), True),
        (LOST_PATH, True),
        (wide_span(1000.0, 250.0), False),
        (wide_span(0.0, 300.0), False),
        (wide_span(0.0, 300.5), True),
    ])
    def test_fallback_past_the_transition_span(self, monkeypatch, lattice, fallback):
        calls = []

        def spy(*args):
            calls.append(args)
            return _log_forward_backward(*args)

        monkeypatch.setattr(crf, "_log_forward_backward", spy)
        state, trans = lattice
        T = len(state)
        _forward_backward(np.concatenate([state, state[::-1]]), trans, np.array([0, T, 2 * T]))
        assert len(calls) == fallback


def log_prob(model, attrs, labels):
    """log P(y | x) of one labeling: path score minus log Z."""
    lattice = build_lattice(model, attrs)
    label_ids = [model.labels.index(y) for y in labels]
    return oracles.seq_score(lattice.state, lattice.trans, label_ids) - log_partition(lattice)


class TestSequenceLogProb:
    def test_uniform(self):
        model = model_from_lattice(np.zeros((2, 3)), np.zeros((3, 3)))
        attrs = [aset("A0"), aset("A1")]
        for y in ("y0", "y1", "y2"):
            assert log_prob(model, attrs, [y, y]) == pytest.approx(-2 * math.log(3))

    def test_probabilities_sum_to_one(self, rng):
        import itertools

        state, trans = oracles.random_dyadic_lattice(rng, 4, 3)
        model = model_from_lattice(state, trans)
        attrs = [aset(f"A{t}") for t in range(4)]
        total = sum(
            math.exp(log_prob(model, attrs, [f"y{i}" for i in seq]))
            for seq in itertools.product(range(3), repeat=4)
        )
        assert total == pytest.approx(1.0, rel=1e-10)

    def test_unknown_label(self):
        model = model_from_lattice(np.zeros((1, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):  # tuple.index
            log_prob(model, [aset("A0")], ["zz"])

    def test_length_mismatch(self):
        model = model_from_lattice(np.zeros((1, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            log_prob(model, [aset("A0")], ["y0", "y0"])


class TestViterbi:
    def test_zero_weights_decode_to_first_label(self):
        model = model_from_lattice(np.zeros((4, 3)), np.zeros((3, 3)))
        labels, score = viterbi(model, [aset(f"A{t}") for t in range(4)])
        assert labels == ["y0"] * 4
        assert score == 0.0

    def test_single_label(self):
        model = model_from_lattice(np.ones((3, 1)), np.zeros((1, 1)))
        labels, score = viterbi(model, [aset(f"A{t}") for t in range(3)])
        assert labels == ["y0"] * 3
        assert score == pytest.approx(3.0)

    def test_matches_enumeration(self, rng):
        for _ in range(40):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(1, 6))
            state, trans = oracles.random_dyadic_lattice(rng, T, L)
            path, score = viterbi_lattice(Lattice(state, trans))
            _, best = oracles.brute_viterbi(state, trans)
            # dyadic grid keeps all sums exact, so scores match bit-for-bit
            assert oracles.seq_score(state, trans, path) == best
            assert score == best

    def test_ties_resolve_lexicographically(self, rng):
        for _ in range(20):
            # tiny integer grid forces plenty of exact ties
            state = rng.integers(0, 2, size=(4, 3)).astype(float)
            trans = rng.integers(0, 2, size=(3, 3)).astype(float)
            path, _ = viterbi_lattice(Lattice(state, trans))
            argmaxes = oracles.brute_argmax_set(state, trans)
            assert path == min(argmaxes)

    def test_score_matches_independent_recompute(self, rng):
        state, trans = oracles.random_dyadic_lattice(rng, 5, 4)
        lat = Lattice(state, trans)
        path, score = viterbi_lattice(lat)
        assert oracles.seq_score(state, trans, path) == pytest.approx(score, rel=1e-12)


class TestBatchedViterbi:
    """The one Viterbi recursion run over many sentences at once."""

    @given(
        lengths=st.lists(st.integers(1, 5), min_size=1, max_size=7),
        L=st.integers(1, 3),
        integer_scores=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ragged_unsorted_batch_matches_brute_force(self, lengths, L, integer_scores, seed):
        rng = np.random.default_rng(seed)
        if integer_scores:
            # a tiny integer grid forces plenty of exact ties
            lattices = [
                (rng.integers(0, 2, size=(T, L)).astype(float),
                 rng.integers(0, 2, size=(L, L)).astype(float))
                for T in lengths
            ]
        else:
            lattices = [oracles.random_dyadic_lattice(rng, T, L) for T in lengths]
        trans = lattices[0][1]
        state = np.concatenate([s for s, _ in lattices])
        offsets = np.cumsum([0, *lengths])
        label_ids, scores = _viterbi(state, trans, offsets)
        assert label_ids.shape == (sum(lengths),) and scores.shape == (len(lengths),)
        for s, (a, b) in enumerate(zip(offsets, offsets[1:])):
            # exact sums on both grids: the least argmax path and its score
            path, best = oracles.brute_viterbi(state[a:b], trans)
            assert label_ids[a:b].tolist() == path
            assert scores[s] == best


class TestPersistence:
    def _model(self, rng):
        labels = ["N", "V", "PRP"]
        idx = FeatureIndex(labels, ["FLAG=ContainsDigit", "LEN=L_2", "W0=khub"])
        w = rng.standard_normal(idx.size)
        return Model(idx, w)

    def test_round_trip_exact(self, rng):
        model = self._model(rng)
        loaded = load_model(save_model(model))
        assert loaded.labels == model.labels
        assert loaded.index.attributes == model.index.attributes
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.catalogue == model.catalogue
        assert loaded.lexicon.fingerprint() == model.lexicon.fingerprint()

    def test_save_is_deterministic(self, rng):
        model = self._model(rng)
        assert save_model(model) == save_model(model)

    def test_unsupported_version(self, rng):
        data = save_model(self._model(rng)).replace(b"MIXTAG-MODEL 4 ", b"MIXTAG-MODEL 5 ", 1)
        with pytest.raises(ModelFormatError, match="^unsupported model version '5'$"):
            load_model(data)

    def test_version_1_rejected(self):
        # the spelling the package wrote before format 2
        data = (b"MIXTAG-MODEL 1\nlabels 1\nX\ncatalogue all\nlexicon empty\n"
                b"transitions\nX\tX\t0.5\nstates 0\n")
        with pytest.raises(ModelFormatError, match="^model format version 1 is no longer read; "
                           "retrain the model with mixtag train$"):
            load_model(data)

    def test_version_2_rejected(self):
        # the spelling the package wrote before format 3: every state row in
        # one base64 weights line
        data = (b"MIXTAG-MODEL 2\nlabels 1\nX\ncatalogue all\nlexicon 0\nattributes 1\nW0=a\n"
                b"weights\nAAAAAAAA4D8AAAAAAADwPw==\n")
        with pytest.raises(ModelFormatError, match="^model format version 2 is no longer read; "
                           "retrain the model with mixtag train$"):
            load_model(data)

    def test_version_3_rejected(self):
        # the spelling the package wrote before format 4: the row ids and
        # the weights as base64 lines of text
        data = (b"MIXTAG-MODEL 3\nlabels 1\nX\ncatalogue all\nlexicon 0\nattributes 1\nW0=a\n"
                b"rows 1\nAAAAAA==\nweights\nAAAAAAAA4D8AAAAAAADwPw==\n")
        with pytest.raises(ModelFormatError, match="^model format version 3 is no longer read; "
                           "retrain the model with mixtag train$"):
            load_model(data)

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(b"NOT-A-MODEL 1\n")

    def test_truncated(self, rng):
        data = save_model(self._model(rng))
        text, blocks = model_parts(data)
        blocks_start = len(data) - len(blocks)
        # a cut before the text block ends
        for end in [0, data.index(b"\n") + 1, blocks_start - len(text) // 2, blocks_start - 1]:
            with pytest.raises(ModelFormatError, match="^truncated model file$"):
                load_model(data[:end])
        # a cut in the binary blocks: 3 row ids and 9 + 3 * 3 weights
        for end in [blocks_start, blocks_start + 5, len(data) - 1]:
            with pytest.raises(ModelFormatError, match=f"^row id and weight blocks hold {end - blocks_start} "
                               "bytes, expected 150: 3 row ids of 2 bytes and 18 weights$"):
                load_model(data[:end])

    def test_non_finite_weight_rejected(self, rng):
        model = self._model(rng)
        weights = model.weights.copy()
        weights[0] = np.inf
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(_with_blocks(save_model(model), weights=weights))

    def test_bad_label_count(self, rng):
        data = _text_edited(save_model(self._model(rng)), b"\nlabels 3\n", b"\nlabels x\n")
        with pytest.raises(ModelFormatError, match="labels count"):
            load_model(data)

    def test_special_characters_round_trip(self, rng):
        labels = ["X", "Y"]
        # in sorted order, as the file stores them
        idx = FeatureIndex(labels, sorted(["W0=a\tb", "W0=a\nb", "W0=a\\b", "W0=a\\tb", "W0=\\"]))
        model = Model(idx, rng.standard_normal(idx.size))
        loaded = load_model(save_model(model))
        assert loaded.index.attributes == idx.attributes
        assert np.array_equal(loaded.weights, model.weights)

    def test_trailing_garbage(self, rng):
        # a second weights block
        data = save_model(self._model(rng))
        with pytest.raises(ModelFormatError, match="^row id and weight blocks hold 294 bytes, expected 150"):
            load_model(data + _blocks(data)[1].tobytes())

    def test_escaped_attribute_round_trip(self):
        labels = ["X"]
        idx = FeatureIndex(labels, ["W0=a\\b"])
        model = Model(idx, np.array([0.5, -0.25]))
        loaded = load_model(save_model(model))
        assert loaded.index.attributes == ("W0=a\\b",)


# every character the file format escapes or passes through as it is
_TEXT = st.text(
    st.sampled_from(["a", "b", "n", "t", "\t", "\n", "\r", "\x00", "\\", "\u00e9", "\u0915"]), max_size=4
)
_NO_TAB = _TEXT.map(lambda text: text.replace("\t", "")).filter(bool)
_LABEL = _NO_TAB.map(lambda text: text.replace("\n", "").replace("\r", "")).filter(bool)


@st.composite
def models(draw) -> Model:
    """Any model that builds: strictly sorted attributes, the empty one
    included, and any valid label set, lexicon and catalogue.  State rows
    are drawn from a small pool, so rows repeat, and zeros come with either
    sign, so some rows are equal as values but not as bits."""
    labels = draw(st.lists(_LABEL, min_size=1, max_size=3, unique=True))
    index = FeatureIndex(labels, sorted(draw(st.sets(_TEXT, max_size=5))))
    L = len(labels)
    finite = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
    pool = draw(st.lists(st.lists(finite, min_size=L, max_size=L), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=len(index.attributes),
                         max_size=len(index.attributes)))
    weights = draw(st.lists(finite, min_size=L * L, max_size=L * L)) + [w for row in rows for w in row]
    families = FeatureCatalogue.family_names()
    off = draw(st.sets(st.sampled_from(families), max_size=len(families) - 1))
    lexicon = draw(st.dictionaries(_NO_TAB, _NO_TAB, max_size=3))
    return Model(index, weights, FeatureCatalogue().without(*off), NormalizationLexicon(lexicon))


@settings(max_examples=200, deadline=None)
@given(models())
def test_every_model_saves_to_a_file_that_loads(model):
    data = save_model(model)
    loaded = load_model(data)
    assert save_model(loaded) == data
    assert loaded.labels == model.labels
    assert loaded.index.attributes == model.index.attributes
    assert loaded.weights.tobytes() == model.weights.tobytes()
    # one stored row per distinct row of bits
    L = len(model.labels)
    distinct = {row.tobytes() for row in model.weights[L * L:].reshape(-1, L)}
    assert f"\nrows {len(distinct)}\n".encode() in data


def _text_edited(data: bytes, old: bytes, new: bytes) -> bytes:
    """``data`` with ``old`` replaced by ``new`` in its text block, read
    after the newline that ends the header, and the length prefix to match."""
    text, blocks = model_parts(data)
    assert old in b"\n" + text
    return model_file((b"\n" + text).replace(old, new)[1:], blocks)


def _blocks(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The row ids and the stored weights of a file with 2-byte row ids."""
    text, blocks = model_parts(data)
    ids = np.frombuffer(blocks, "<u2", int(re.search(rb"\nattributes (\d+)\n", text)[1]))
    return ids, np.frombuffer(blocks, "<f8", offset=ids.nbytes)


def _with_blocks(data: bytes, ids=None, weights=None, rows=None) -> bytes:
    """``data`` with the row ids (uint16), the stored weights (float64) or
    the rows count replaced."""
    text, _ = model_parts(data)
    old_ids, old_weights = _blocks(data)
    if rows is not None:
        text = text[: text.rindex(b"\nrows ")] + b"\nrows %d\n" % rows
    ids = np.array(old_ids if ids is None else ids, "<u2")
    weights = np.array(old_weights if weights is None else weights, "<f8")
    return model_file(text, ids.tobytes() + weights.tobytes())


class TestPersistenceV2:
    def _model(self, rng):
        labels = ["N", "V", "PRP"]
        idx = FeatureIndex(labels, ["FLAG=ContainsDigit", "LEN=L_2", "W0=a\\b", "W0=khub"])
        return Model(idx, rng.standard_normal(idx.size),
                     FeatureCatalogue().without("context", "affixes"),
                     NormalizationLexicon({"krte": "korte", "k\\": "ka\nb"}))

    def test_round_trip_carries_features(self, rng):
        model = self._model(rng)
        data = save_model(model)
        assert data.startswith(b"MIXTAG-MODEL 4 ")
        loaded = load_model(data)
        assert loaded.catalogue == model.catalogue
        assert loaded.lexicon.sorted_items() == model.lexicon.sorted_items()
        assert loaded.lexicon.fingerprint() == model.lexicon.fingerprint()
        assert loaded.index.attributes == model.index.attributes
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert save_model(loaded) == data

    def test_file_layout(self, rng):
        model = self._model(rng)
        data = save_model(model)
        text, blocks = model_parts(data)
        assert data == b"MIXTAG-MODEL 4 %d\n" % len(text) + text + blocks
        assert text.decode().split("\n") == [
            "labels 3", "N", "V", "PRP", "catalogue off:context,affixes",
            "lexicon 2", "k\\\\\tka\\nb", "krte\tkorte",
            "attributes 4", "FLAG=ContainsDigit", "LEN=L_2", "W0=a\\\\b", "W0=khub",
            "rows 4", "",
        ]
        # four distinct rows: ids 0-3 as little-endian uint16, then every
        # weight as little-endian float64
        assert blocks == np.arange(4, dtype="<u2").tobytes() + model.weights.astype("<f8").tobytes()

    @pytest.mark.parametrize("lexicon", [None, "0123456789abcdef"])
    def test_lexicon_required(self, rng, lexicon):
        model = self._model(rng)
        with pytest.raises(ValueError, match="must be a NormalizationLexicon"):
            Model(model.index, model.weights, model.catalogue, lexicon)

    def test_unsorted_attributes(self, rng):
        data = _text_edited(save_model(self._model(rng)),
                            b"\nFLAG=ContainsDigit\nLEN=L_2\n", b"\nLEN=L_2\nFLAG=ContainsDigit\n")
        with pytest.raises(ModelFormatError, match="attributes not strictly sorted"):
            load_model(data)

    def test_duplicate_attribute(self, rng):
        data = _text_edited(save_model(self._model(rng)), b"\nFLAG=ContainsDigit\n", b"\nLEN=L_2\n")
        with pytest.raises(ModelFormatError, match="attributes not strictly sorted"):
            load_model(data)

    def test_unsorted_lexicon(self, rng):
        data = _text_edited(save_model(self._model(rng)),
                            b"\nk\\\\\tka\\nb\nkrte\tkorte\n", b"\nkrte\tkorte\nk\\\\\tka\\nb\n")
        with pytest.raises(ModelFormatError, match="lexicon entries not strictly sorted"):
            load_model(data)

    def test_repeated_lexicon_short_form(self, rng):
        data = _text_edited(save_model(self._model(rng)), b"\nkrte\tkorte\n", b"\nk\\\\\tkorte\n")
        with pytest.raises(ModelFormatError, match="^lexicon entries not strictly sorted$"):
            load_model(data)

    @pytest.mark.parametrize("old, new, message", [
        (b"\nlabels 3\nN\nV\nPRP\n", b"\nlabels 0\n", "label set must be nonempty"),
        (b"\nN\nV\nPRP\n", b"\nN\nV\nN\n", "duplicate labels"),
        (b"\nN\nV\nPRP\n", b"\nN\n\nPRP\n", "invalid label ''"),
        (b"\nN\nV\nPRP\n", b"\nN\nV\tJ\nPRP\n", "invalid label 'V\\tJ'"),
        (b"\nN\nV\nPRP\n", b"\nN\nV\r\nPRP\n", "invalid label 'V\\r'"),
    ], ids=["empty-set", "repeated", "empty-label", "tab", "cr"])
    def test_bad_label_block(self, rng, old, new, message):
        data = _text_edited(save_model(self._model(rng)), old, new)
        with pytest.raises(ModelFormatError, match=f"^bad label block: {re.escape(message)}$"):
            load_model(data)

    @pytest.mark.parametrize("old, new", [
        (b"\nLEN=L_2\n", b"\nLEN=L\\_2\n"),  # unescapes to LEN=L_2
        (b"\nkrte\tkorte\n", b"\nkrte\tk\\orte\n"),
        (b"\nW0=a\\\\b\n", b"\nW0=a\\\\b\\\n"),  # a lone trailing backslash
        (b"\nLEN=L_2\n", b"\nLEN=L\t2\n"),  # a raw tab
    ])
    def test_non_canonical_escape(self, rng, old, new):
        data = _text_edited(save_model(self._model(rng)), old, new)
        with pytest.raises(ModelFormatError, match="non-canonical escape"):
            load_model(data)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_weight_count(self, extra):
        # 4 transitions and 3 stored rows of 2
        weights = _blocks(SMALL_MODEL)[1]
        weights = weights[:extra] if extra < 0 else np.append(weights, [1.0])
        with pytest.raises(ModelFormatError, match=f"^row id and weight blocks hold {88 + 8 * extra} bytes, "
                           "expected 88: 4 row ids of 2 bytes and 10 weights$"):
            load_model(_with_blocks(SMALL_MODEL, weights=weights))

    def test_non_finite_weight(self):
        weights = _blocks(SMALL_MODEL)[1].copy()
        weights[5] = np.nan
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(_with_blocks(SMALL_MODEL, weights=weights))

    @pytest.mark.parametrize("ids", [[0, 1, 0], [0, 1, 0, 2, 2]])
    def test_wrong_row_id_count(self, ids):
        with pytest.raises(ModelFormatError, match=f"^row id and weight blocks hold {80 + 2 * len(ids)} "
                           "bytes, expected 88: 4 row ids"):
            load_model(_with_blocks(SMALL_MODEL, ids=ids))

    @pytest.mark.parametrize("ids", [[1, 0, 0, 2], [0, 2, 1, 0], [0, 0, 2, 1]])
    def test_row_ids_out_of_first_use_order(self, ids):
        # the same rows, numbered in another order, would be a second spelling
        with pytest.raises(ModelFormatError, match="^row ids not in order of first use$"):
            load_model(_with_blocks(SMALL_MODEL, ids=ids))

    @pytest.mark.parametrize("ids, used", [([0, 1, 2, 3], 4), ([0, 1, 0, 1], 2)])
    def test_row_ids_must_number_every_stored_row(self, ids, used):
        # id 3 names no stored row; or stored row 2 has no attribute
        with pytest.raises(ModelFormatError, match=f"^row ids number {used} rows, expected 3$"):
            load_model(_with_blocks(SMALL_MODEL, ids=ids))

    def test_stored_rows_must_differ(self):
        # each attribute its own row, the first and third equal
        weights = load_model(SMALL_MODEL).weights
        data = _with_blocks(SMALL_MODEL, ids=[0, 1, 2, 3], weights=weights, rows=4)
        with pytest.raises(ModelFormatError, match="^stored state rows not distinct$"):
            load_model(data)

    def test_equal_rows_are_stored_once(self):
        assert b"\nrows 3\n" in SMALL_MODEL
        assert _blocks(SMALL_MODEL)[0].tolist() == [0, 1, 0, 2]

    def test_rows_equal_but_for_the_sign_of_zero_are_distinct(self):
        weights = load_model(SMALL_MODEL).weights.copy()
        weights[8] = -0.0
        weights[9] = 0.0
        weights[4:6] = 0.0
        data = save_model(replace(load_model(SMALL_MODEL), weights=weights))
        assert b"\nrows 4\n" in data
        assert load_model(data).weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("fingerprint, message", [
        (b"off:nope", "unknown feature family"),
        (b"off:affixes,context", "non-canonical catalogue"),
        (b"off:", "unknown feature family"),
        (b"none", "bad catalogue"),
    ])
    def test_bad_catalogue(self, rng, fingerprint, message):
        data = _text_edited(save_model(self._model(rng)), b"off:context,affixes", fingerprint)
        with pytest.raises(ModelFormatError, match=message):
            load_model(data)

    @pytest.mark.parametrize("old, new", [
        (b"\nlabels 3\n", b"\nlabels 03\n"),
        (b"\nlexicon 2\n", b"\nlexicon +2\n"),
        (b"\nattributes 4\n", b"\nattributes 4 \n"),
        (b"\nrows 4\n", b"\nrows 04\n"),
    ])
    def test_non_canonical_count(self, rng, old, new):
        with pytest.raises(ModelFormatError, match="count"):
            load_model(_text_edited(save_model(self._model(rng)), old, new))

    def test_lexicon_entry_with_tab(self, rng):
        data = _text_edited(save_model(self._model(rng)), b"\nkrte\tkorte\n", b"\nkrte\tko\\trte\n")
        with pytest.raises(ModelFormatError, match="bad lexicon block"):
            load_model(data)

    @pytest.mark.parametrize("tail", [b"x\n", b"\n"])
    def test_trailing_lines(self, rng, tail):
        data = save_model(self._model(rng))
        text, blocks = model_parts(data)
        with pytest.raises(ModelFormatError, match="^text after the rows line$"):
            load_model(model_file(text + tail, blocks))
        with pytest.raises(ModelFormatError, match=f"^row id and weight blocks hold {len(blocks) + len(tail)} bytes"):
            load_model(data + tail)

    def test_missing_final_newline(self, rng):
        text, blocks = model_parts(save_model(self._model(rng)))
        with pytest.raises(ModelFormatError, match="^model text does not end with a newline$"):
            load_model(model_file(text[:-1], blocks))

    @pytest.mark.parametrize("size", [b"0%d", b"+%d", b"-%d", b"%d ", b" %d", b"%d\r", b"%d.0", b"%dx"])
    def test_non_canonical_text_length(self, size):
        text, blocks = model_parts(SMALL_MODEL)
        data = b"MIXTAG-MODEL 4 " + size % len(text) + b"\n" + text + blocks
        with pytest.raises(ModelFormatError, match="^bad text length"):
            load_model(data)

    @pytest.mark.parametrize("short", [1, 2, 5])
    def test_text_length_ending_mid_line(self, short):
        # the text block would end inside the rows line
        text, blocks = model_parts(SMALL_MODEL)
        data = b"MIXTAG-MODEL 4 %d\n" % (len(text) - short) + text + blocks
        with pytest.raises(ModelFormatError, match="^model text does not end with a newline$"):
            load_model(data)

    def test_text_length_past_the_end(self):
        text, blocks = model_parts(SMALL_MODEL)
        data = b"MIXTAG-MODEL 4 %d\n" % (len(text) + len(blocks) + 1) + text + blocks
        with pytest.raises(ModelFormatError, match="^truncated model file$"):
            load_model(data)

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"], ids=["ff", "cut", "surrogate"])
    def test_text_not_utf8(self, bad):
        data = _text_edited(SMALL_MODEL, b"\nN\n", b"\nN" + bad + b"\n")
        with pytest.raises(ModelFormatError, match="^model text is not UTF-8"):
            load_model(data)

    def test_header_not_utf8(self):
        data = SMALL_MODEL.replace(b"MIXTAG-MODEL 4 ", b"MIXTAG-MODEL \xff4 ", 1)
        with pytest.raises(ModelFormatError, match="^unsupported model version '�4'$"):
            load_model(data)

    @settings(max_examples=400, deadline=None)
    @given(byte_edits(SMALL_MODEL, EDIT_BYTES, EDIT_POSITIONS))
    def test_byte_edits_load_and_resave_identically(self, edits):
        data = apply_byte_edits(SMALL_MODEL, edits)
        try:
            model = load_model(data)
        except ModelFormatError:
            return
        assert save_model(model) == data


class TestIdWidth:
    """Row ids take 2 bytes while the stored rows number at most 65,536."""

    @staticmethod
    def _model(n_rows):
        # one label, and a distinct state weight for each attribute
        index = FeatureIndex(["X"], [f"A{i:05d}" for i in range(n_rows)])
        return Model(index, np.arange(index.size) / 7)

    @pytest.mark.parametrize("n_rows, width", [(65_536, 2), (65_537, 4)])
    def test_width_follows_the_rows_count(self, n_rows, width):
        model = self._model(n_rows)
        data = save_model(model)
        text, blocks = model_parts(data)
        assert text.endswith(b"\nrows %d\n" % n_rows)
        assert len(blocks) == width * n_rows + 8 * (1 + n_rows)
        ids = np.frombuffer(blocks, f"<u{width}", n_rows)
        assert np.array_equal(ids, np.arange(n_rows))
        loaded = load_model(data)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert save_model(loaded) == data

    @pytest.mark.parametrize("n_rows, claimed", [(65_536, 65_537), (65_537, 65_536)])
    def test_blocks_must_match_the_rows_count(self, n_rows, claimed):
        # the claimed count would take ids of the other width
        data = _text_edited(save_model(self._model(n_rows)), b"\nrows %d\n" % n_rows, b"\nrows %d\n" % claimed)
        with pytest.raises(ModelFormatError, match="^row id and weight blocks hold"):
            load_model(data)
