import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixtag.crf import (
    _forward_backward,
    _viterbi,
    FeatureIndex,
    LabelSet,
    Lattice,
    Model,
    ModelFormatError,
    build_lattice,
    index_features,
    load_model,
    log_partition,
    posterior_marginals,
    save_model,
    sequence_score,
    viterbi,
    viterbi_lattice,
)

import oracles
from conftest import model_from_lattice


def aset(*attrs):
    return tuple(attrs)


SMALL_MODEL = save_model(
    Model(LabelSet(["N", "V"]), FeatureIndex(2, ["W0=a\\b", "W0=k1"]),
          np.array([0.5, -1.25, 3.0, 0.0, 1e-5, -2.5, 0.125, 7.0]))
)
# bytes that can shift fields and lines or break a number
EDIT_BYTES = st.sampled_from(list(b"\t\n\\\r0123456789e+-_.\x00\xffNV"))


class TestLabelSet:
    def test_indexing(self):
        ls = LabelSet(["N", "V", "J"])
        assert ls.index("V") == 1
        assert ls[2] == "J"
        assert len(ls) == 3

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            LabelSet(["N"]).index("V")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            LabelSet(["N", "N"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LabelSet([])


class TestFeatureIndex:
    def test_expansion_over_all_labels(self):
        labels = LabelSet(["A", "B", "C"])
        attrs = [[aset("LEN=L_1")] for _ in range(5)]
        idx = index_features(attrs, labels, cutoff=1)
        base = idx.state_base("LEN=L_1")
        assert base is not None
        assert [base + y for y in range(3)] == [9, 10, 11]

    def test_cutoff_drops_rare_attributes(self):
        labels = LabelSet(["A", "B", "C"])
        attrs = [[aset("LEN=L_1")] for _ in range(5)]
        idx = index_features(attrs, labels, cutoff=6)
        assert idx.state_base("LEN=L_1") is None

    def test_dense_transitions(self):
        labels = LabelSet(["A", "B", "C"])
        idx = index_features([[aset("x")]], labels)
        # transition yp -> y sits in slot yp * L + y, below every state slot
        slots = {yp * 3 + y for yp in range(3) for y in range(3)}
        assert slots == set(range(idx.state_base("x")))
        trans = build_lattice(Model(labels, idx, np.arange(idx.size)), [aset("x")]).trans
        assert all(trans[yp, y] == yp * 3 + y for yp, y in np.ndindex(3, 3))

    def test_slots_contiguous(self):
        labels = LabelSet(["A", "B"])
        idx = index_features([[aset("p"), aset("q")]], labels)
        assert idx.size == 4 + 2 * 2

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            index_features([], LabelSet(["A"]))


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
        labels = LabelSet(["a", "b", "c"])
        idx = FeatureIndex(3, ["f"])
        w = np.zeros(idx.size)
        w[idx.state_base("f") + 2] = 0.7
        model = Model(labels, idx, w)
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


class TestBatchedForwardBackward:
    """The one recursion run over many sentences at once, against brute force."""

    def _batch(self, rng, lengths, L, scale=1.0):
        lattices = [oracles.random_dyadic_lattice(rng, T, L) for T in lengths]
        trans = scale * lattices[0][1]
        state = scale * np.concatenate([s for s, _ in lattices])
        offsets = np.cumsum([0, *lengths])
        return state, trans, offsets

    def _check(self, state, trans, offsets):
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

    def test_ragged_unsorted_batch(self, rng):
        # lengths out of order and repeated, a one-token sentence first and last
        self._check(*self._batch(rng, [1, 3, 6, 2, 3, 4, 5, 6, 1], 3))

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
        self._check(state, trans, offsets)


def log_prob(model, attrs, labels):
    """log P(y | x) of one labeling: path score minus log Z."""
    lattice = build_lattice(model, attrs)
    label_ids = [model.labels.index(y) for y in labels]
    return sequence_score(lattice, label_ids) - log_partition(lattice)


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
        with pytest.raises(KeyError):
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
        assert sequence_score(lat, path) == pytest.approx(score, rel=1e-12)


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
        labels = LabelSet(["N", "V", "PRP"])
        idx = FeatureIndex(3, ["LEN=L_2", "W0=khub", "FLAG=ContainsDigit"])
        w = rng.standard_normal(idx.size)
        return Model(labels, idx, w, "all", "empty")

    def test_round_trip_exact(self, rng):
        model = self._model(rng)
        loaded = load_model(save_model(model))
        assert loaded.labels == model.labels
        assert loaded.index.attributes == model.index.attributes
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.catalogue_fingerprint == model.catalogue_fingerprint
        assert loaded.lexicon_fingerprint == model.lexicon_fingerprint

    def test_save_is_deterministic(self, rng):
        model = self._model(rng)
        assert save_model(model) == save_model(model)

    def test_unsupported_version(self, rng):
        data = save_model(self._model(rng)).replace(b"MIXTAG-MODEL 1", b"MIXTAG-MODEL 2", 1)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(data)

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(b"NOT-A-MODEL 1\n")

    def test_truncated(self, rng):
        data = save_model(self._model(rng))
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(data[: len(data) // 2])

    def test_non_finite_weight_rejected(self, rng):
        data = save_model(self._model(rng)).decode()
        lines = data.split("\n")
        first_trans = lines.index("transitions") + 1
        cols = lines[first_trans].split("\t")
        cols[2] = "1e999"
        lines[first_trans] = "\t".join(cols)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model("\n".join(lines).encode())

    def test_unknown_label_in_transitions(self, rng):
        data = save_model(self._model(rng)).replace(b"\nN\tN\t", b"\nZZ\tN\t", 1)
        with pytest.raises(ModelFormatError, match="transition block"):
            load_model(data)

    def test_unknown_label_in_states(self, rng):
        data = save_model(self._model(rng)).replace(b"\nLEN=L_2\tN\t", b"\nLEN=L_2\tZZ\t")
        with pytest.raises(ModelFormatError, match="state block"):
            load_model(data)

    def test_bad_label_count(self, rng):
        data = save_model(self._model(rng)).replace(b"\nlabels 3\n", b"\nlabels x\n")
        with pytest.raises(ModelFormatError, match="labels count"):
            load_model(data)

    def test_duplicate_state_block(self, rng):
        # the second attribute block repeats the first one's attribute
        data = save_model(self._model(rng)).replace(b"\nW0=khub\t", b"\nLEN=L_2\t")
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_model(data)

    def test_special_characters_round_trip(self, rng):
        labels = LabelSet(["X", "Y"])
        idx = FeatureIndex(2, ["W0=a\tb", "W0=a\nb", "W0=a\\b", "W0=a\\tb", "W0=\\"])
        model = Model(labels, idx, rng.standard_normal(idx.size))
        loaded = load_model(save_model(model))
        assert loaded.index.attributes == idx.attributes
        assert np.array_equal(loaded.weights, model.weights)

    def test_block_spelled_differently(self):
        # "\\a" unescapes to "a", but a block's label lines must spell its
        # attribute exactly as the first line does
        model = Model(LabelSet(["X", "Y"]), FeatureIndex(2, ["W0=ab"]), np.zeros(6))
        data = save_model(model).replace(b"\nW0=ab\tY\t", b"\nW0=\\ab\tY\t")
        assert data != save_model(model)
        with pytest.raises(ModelFormatError, match="state block"):
            load_model(data)

    def test_transition_rows_swapped(self, rng):
        # rows N and V trade places whole, each spelled consistently
        lines = save_model(self._model(rng)).decode().split("\n")
        i = lines.index("transitions") + 1
        lines[i:i + 6] = lines[i + 3:i + 6] + lines[i:i + 3]
        with pytest.raises(ModelFormatError, match="transition block out of order"):
            load_model("\n".join(lines).encode())

    def test_trailing_garbage(self, rng):
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(save_model(self._model(rng)) + b"x\n")

    @pytest.mark.parametrize("header", ["transitions", "states 3"])
    def test_tab_moved_to_next_line(self, rng, header):
        # a line short one tab, then one with an extra tab: joined, the two
        # lines read exactly as the original ones
        lines = save_model(self._model(rng)).decode().split("\n")
        i = lines.index(header) + 1
        key, label, weight = lines[i].split("\t")
        lines[i:i + 2] = [f"{key}\t{label}", f"{weight}\t{lines[i + 1]}"]
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model("\n".join(lines).encode())

    @pytest.mark.parametrize(
        "header, block", [("transitions", "transition block"), ("states 3", "state block")]
    )
    def test_non_numeric_weight(self, rng, header, block):
        lines = save_model(self._model(rng)).decode().split("\n")
        i = lines.index(header) + 2
        lines[i] = lines[i].rpartition("\t")[0] + "\t1.5x"
        with pytest.raises(ModelFormatError, match=f"bad weight.*{block}"):
            load_model("\n".join(lines).encode())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(SMALL_MODEL)), EDIT_BYTES,
                              st.sampled_from(["replace", "insert", "delete"])),
                    min_size=1, max_size=3))
    def test_byte_edits_load_or_raise_model_format_error(self, edits):
        data = bytearray(SMALL_MODEL)
        for pos, byte, op in edits:
            pos = min(pos, len(data))
            if op == "insert":
                data.insert(pos, byte)
            elif pos == len(data):
                continue
            elif op == "delete":
                del data[pos]
            else:
                data[pos] = byte
        try:
            model = load_model(bytes(data))
        except ModelFormatError:
            return
        saved = save_model(model)
        assert save_model(load_model(saved)) == saved

    def test_escaped_attribute_round_trip(self):
        labels = LabelSet(["X"])
        idx = FeatureIndex(1, ["W0=a\\b"])
        model = Model(labels, idx, np.array([0.5, -0.25]))
        loaded = load_model(save_model(model))
        assert loaded.index.attributes == ("W0=a\\b",)
