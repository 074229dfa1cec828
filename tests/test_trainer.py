import math
import os
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import mixtag
from mixtag import crf, tagging, trainer
from mixtag.corpus import Corpus, Sentence, Token
from mixtag.crf import Model, _forward_backward, build_lattice, log_partition
from mixtag.features import (
    FeatureCatalogue,
    extract_corpus_attributes,
    extract_sentence_attributes,
)
from mixtag.trainer import (
    GRADIENT_TOLERANCE,
    IndexedCorpus,
    StopReason,
    TrainConfig,
    index_corpus,
    objective_and_gradient,
    train,
)

import oracles
from conftest import make_corpus, make_sentence
from datagen import cyclic_ambiguous_corpus, strip_labels

# small catalogue keeps the toy parameter spaces tight
LEAN = FeatureCatalogue().without(
    "ortho", "vowel_count", "vowel_collapse", "normalization", "affixes"
)


def toy_corpus():
    return make_corpus(
        make_sentence(("the", "en", "D"), ("cat", "en", "N"), ("runs", "en", "V")),
        make_sentence(("a", "en", "D"), ("dog", "en", "N")),
        make_sentence(("cats", "en", "N"), ("run", "en", "V")),
        make_sentence(("the", "en", "D"), ("dog", "en", "N"), ("runs", "en", "V")),
        make_sentence(("run", "en", "V"),),
    )


def grouped_corpus(indexed):
    """The corpus that ``train`` optimizes over: ``indexed`` in its batch's grouped space."""
    return IndexedCorpus(indexed.batch.grouped, indexed.label_ids)


def numerical_gradient(weights, indexed, sigma2, h=1e-5):
    grad = np.empty_like(weights)
    for k in range(len(weights)):
        wp = weights.copy()
        wp[k] += h
        wm = weights.copy()
        wm[k] -= h
        fp, _ = objective_and_gradient(wp, indexed, sigma2)
        fm, _ = objective_and_gradient(wm, indexed, sigma2)
        grad[k] = (fp - fm) / (2 * h)
    return grad


class TestObjective:
    def test_uniform_gradient_single_token(self):
        # two one-token sentences, two labels, zero weights: W0=w fires only
        # in the sentence labelled A, so its gold slot gets 0.5 - 1 and the
        # competing slot 0.5
        corpus = make_corpus(make_sentence(("w", "en", "A")),
                             make_sentence(("v", "en", "B")))
        indexed = index_corpus(corpus, catalogue=LEAN)
        w = np.zeros(indexed.index.size)
        value, grad = objective_and_gradient(w, indexed, 10.0)
        assert value == pytest.approx(2 * math.log(2))
        base = indexed.index.state_base("W0=w")
        assert grad[base + 0] == pytest.approx(-0.5)
        assert grad[base + 1] == pytest.approx(0.5)

    def test_zero_weights_no_penalty(self):
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        w = np.zeros(indexed.index.size)
        value, _ = objective_and_gradient(w, indexed, 10.0)
        assert value == pytest.approx(indexed.token_count() * math.log(3))

    def test_gradient_matches_finite_differences(self, rng):
        # with only the length family and cutoff=2, "a" (the one LEN=L_1
        # token) keeps no retained attribute and compiles to an empty row
        length_only = FeatureCatalogue().without(
            *(f for f in FeatureCatalogue.family_names() if f != "length")
        )
        sparse_rows = index_corpus(toy_corpus(), catalogue=length_only, cutoff=2)
        assert np.any(np.bincount(sparse_rows.batch.rows, minlength=sparse_rows.token_count()) == 0)
        # one-token sentences only: no gold bigram, and an empty edge array
        one_token = index_corpus(make_corpus(
            make_sentence(("w", "en", "A")), make_sentence(("v", "en", "B")),
            make_sentence(("w", "en", "B")),
        ), catalogue=LEAN)
        assert np.all(np.diff(one_token.batch.offsets) == 1)
        sigma2 = 10.0
        for indexed in (index_corpus(toy_corpus(), catalogue=LEAN), sparse_rows, one_token):
            for _ in range(3):
                w = rng.standard_normal(indexed.index.size) * 0.5
                _, grad = objective_and_gradient(w, indexed, sigma2)
                fd = numerical_gradient(w, indexed, sigma2)
                denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
                assert np.max(np.abs(grad - fd) / denom) < 1e-4


class TestBatchedObjective:
    def test_equals_per_sentence_log_partitions(self, rng):
        # over the full space and, at w = expand(u), over the grouped one
        corpus = toy_corpus()
        indexed = index_corpus(corpus, catalogue=LEAN)
        grouped = grouped_corpus(indexed)
        assert grouped.batch.scale.max() > 1
        for space, full_weights in ((indexed, lambda u: u), (grouped, grouped.batch.expand)):
            u = rng.standard_normal(space.index.size)
            model = Model(indexed.index, full_weights(u))
            expected = float(np.dot(u, u)) / (2 * 10.0)
            for sentence in corpus:
                lattice = build_lattice(model, extract_sentence_attributes(sentence, catalogue=LEAN))
                gold = [indexed.index.labels.index(token.pos) for token in sentence]
                expected += log_partition(lattice) - oracles.seq_score(lattice.state, lattice.trans, gold)
            value, _ = objective_and_gradient(u, space, 10.0)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_sentence_order_does_not_matter(self, rng):
        corpus = toy_corpus()
        order = [3, 0, 4, 2, 1]
        permuted = make_corpus(*(corpus.sentences[i] for i in order))
        indexed = index_corpus(corpus, catalogue=LEAN)
        indexed_permuted = index_corpus(permuted, catalogue=LEAN)
        assert indexed_permuted.index.attributes == indexed.index.attributes
        w = rng.standard_normal(indexed.index.size)
        value, grad = objective_and_gradient(w, indexed, 10.0)
        value_p, grad_p = objective_and_gradient(w, indexed_permuted, 10.0)
        assert value_p == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert np.allclose(grad_p, grad, rtol=0, atol=1e-12)


class TestGroupedObjective:
    """The objective over the grouped space is the full one at ``expand(u)``."""

    CORPORA = {
        "lean": lambda: index_corpus(toy_corpus(), catalogue=LEAN),
        "full catalogue": lambda: index_corpus(toy_corpus()),
        "cutoff 2": lambda: index_corpus(cyclic_ambiguous_corpus(12, seed=5), cutoff=2),
    }

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_isometry(self, rng, name):
        indexed = self.CORPORA[name]()
        grouped = grouped_corpus(indexed)
        batch = grouped.batch
        assert batch.scale.max() > 1  # some group has several members
        L = indexed.index.n_labels
        for _ in range(3):
            u = rng.standard_normal(grouped.index.size)
            w = batch.expand(u)
            assert trainer._dot(w, w) == pytest.approx(trainer._dot(u, u), rel=1e-12)
            value, grad = objective_and_gradient(u, grouped, 10.0)
            full_value, full_grad = objective_and_gradient(w, indexed, 10.0)
            assert value == pytest.approx(full_value, rel=1e-12)
            assert np.allclose(grad[: L * L], full_grad[: L * L], rtol=1e-12, atol=1e-12)
            # each member's gradient row is its group's over sqrt(k_g)
            rows = (grad / batch.scale)[L * L:].reshape(-1, L)[batch.group]
            assert np.allclose(full_grad[L * L:].reshape(-1, L), rows, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        sigma2 = 10.0
        grouped = grouped_corpus(index_corpus(toy_corpus(), catalogue=LEAN))
        assert grouped.batch.scale.max() > 1
        for _ in range(3):
            u = rng.standard_normal(grouped.index.size) * 0.5
            _, grad = objective_and_gradient(u, grouped, sigma2)
            fd = numerical_gradient(u, grouped, sigma2)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4


class TestStoredBins:
    """The batch's pair bins are built once per corpus and never written,
    and only training builds its groups."""

    BINS = ("_state_bins", "_count_bins")

    @classmethod
    def arrays(cls, indexed):
        batch = indexed.batch
        stored = ("rows", "cols", "offsets", "group", "scale", *cls.BINS)
        return {
            "label_ids": indexed.label_ids,
            **{name: getattr(batch, name) for name in stored if getattr(batch, name) is not None},
        }

    def test_index_corpus_builds_no_bins(self):
        indexed = index_corpus(toy_corpus())
        assert not {*self.BINS, "grouped"} & set(vars(indexed.batch))

    def test_only_training_builds_groups(self, monkeypatch):
        batches = []
        compile_batch = crf.FeatureIndex.compile

        def recorded(index, sentences):
            batches.append(compile_batch(index, sentences))
            return batches[-1]

        monkeypatch.setattr(crf.FeatureIndex, "compile", recorded)
        model, _ = train(toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=2))
        assert [("grouped" in vars(batch)) for batch in batches] == [True]
        stripped = strip_labels(toy_corpus())
        tagging.tag_corpus(model, stripped)
        tagging.tag_sentence(model, stripped.sentences[0])
        assert len(batches) == 3
        for batch in batches[1:]:
            assert "grouped" not in vars(batch) and batch.scale is None

    def test_weights_and_corpus_arrays_unchanged(self, rng):
        # the grouped batch too, whose scores and counts apply its scale
        full = index_corpus(toy_corpus())
        grouped = grouped_corpus(full)
        assert grouped.batch.scale.max() > 1
        for indexed in (full, grouped):
            w = rng.standard_normal(indexed.index.size)
            w_before = w.copy()
            before = {name: array.copy() for name, array in self.arrays(indexed).items()}
            for _ in range(2):
                _, grad = objective_and_gradient(w, indexed, 10.0)
                grad += 1.0  # the caller owns the gradient
                assert np.array_equal(w, w_before)
                for name, array in self.arrays(indexed).items():
                    assert np.array_equal(array, before[name]), name
                    assert array.dtype == before[name].dtype, name

    def test_batch_equals_compile_of_extracted_attributes(self):
        corpus = toy_corpus()
        indexed = index_corpus(corpus, catalogue=LEAN)
        # compile reads its sentences once, so a generator will do
        batch = indexed.index.compile(extract_corpus_attributes(corpus, catalogue=LEAN))
        for name in ("rows", "cols", "offsets"):
            assert np.array_equal(getattr(batch, name), getattr(indexed.batch, name)), name
        assert batch.offsets.tolist() == [0, 3, 5, 7, 10, 11]

    def test_second_evaluation_is_bit_equal(self, rng):
        indexed = index_corpus(toy_corpus())
        for w in (np.zeros(indexed.index.size), rng.standard_normal(indexed.index.size)):
            value, grad = objective_and_gradient(w, indexed, 10.0)
            again, grad_again = objective_and_gradient(w, indexed, 10.0)
            assert again == value
            assert np.array_equal(grad_again, grad)
            # and equal to a corpus that builds its bins afresh
            fresh, grad_fresh = objective_and_gradient(w, index_corpus(toy_corpus()), 10.0)
            assert fresh == value
            assert np.array_equal(grad_fresh, grad)


class TestFinalObjective:
    """train reuses the optimizer's last evaluation for the final objective."""

    def _count_calls(self, monkeypatch):
        calls = []
        objective = trainer.objective_and_gradient

        def counted(*args):
            calls.append(args[0].copy())
            return objective(*args)

        monkeypatch.setattr(trainer, "objective_and_gradient", counted)
        return calls

    def test_zero_iterations_evaluates_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        _, report = train(toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=0))
        assert len(calls) == 1
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        start = indexed.batch.grouped.expand(calls[0])  # the optimizer sees the grouped space
        assert report.final_objective == objective_and_gradient(start, indexed, 10.0)[0]

    def test_no_evaluation_after_optimizer(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        config = TrainConfig(max_iterations=8)
        model, report = train(toy_corpus(), catalogue=LEAN, config=config)
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        # the optimizer sees the grouped space; the model holds its expansion
        assert np.array_equal(indexed.batch.grouped.expand(calls[-1]), model.weights)
        expected, _ = objective_and_gradient(calls[-1], grouped_corpus(indexed), config.l2_sigma2)
        assert report.final_objective == expected
        full, _ = objective_and_gradient(model.weights, indexed, config.l2_sigma2)
        assert full == pytest.approx(expected, rel=1e-12)


class TestExactSums:
    """The numpy sums add in pair order from 0, as a plain loop does."""

    def test_state_scores_and_expected_counts_equal_loops(self, rng, monkeypatch):
        indexed = index_corpus(toy_corpus())
        L, n = indexed.index.n_labels, indexed.token_count()
        w = rng.standard_normal(indexed.index.size)
        W = w[L * L:].reshape(-1, L)
        rows, cols = indexed.batch.rows.tolist(), indexed.batch.cols.tolist()
        assert rows == sorted(rows) and len(rows) > n

        state = np.zeros((n, L))
        for t, c in zip(rows, cols):
            for y in range(L):
                state[t, y] += W[c, y]
        lattice = index_corpus(toy_corpus()).batch.scores(w)  # builds its bins afresh
        assert np.array_equal(lattice.state, state)
        assert np.array_equal(lattice.trans, w[: L * L].reshape(L, L))

        # the objective's own state scores and marginals, from its stored bins;
        # the objective subtracts the gold labels from its node array in place
        seen = []

        def recorded(state, trans, offsets):
            node, edge, log_z = _forward_backward(state, trans, offsets)
            seen.append((state.copy(), node.copy(), edge))
            return node, edge, log_z

        gold = indexed.label_ids.tolist()
        starts = set(indexed.batch.offsets[:-1].tolist())
        bigrams = np.zeros((L, L))
        for t in range(1, n):
            if t not in starts:
                bigrams[gold[t - 1], gold[t]] += 1
        monkeypatch.setattr(trainer, "_forward_backward", recorded)
        for _ in range(2):  # the first call builds the bins, the second reuses them
            _, grad = objective_and_gradient(w, indexed, 10.0)
            objective_state, node, edge = seen[-1]
            assert np.array_equal(objective_state, state)
            counts = np.zeros_like(W)
            for t, c in zip(rows, cols):
                for y in range(L):
                    counts[c, y] += node[t, y] - float(y == gold[t])
            expected = np.concatenate([(edge.sum(axis=0) - bigrams).ravel(), counts.ravel()])
            expected += w / 10.0
            assert np.array_equal(grad, expected)

    def test_unknown_attributes_score_zero(self, rng):
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        known = indexed.index.attributes
        batch = indexed.index.compile([[("?",), (known[2], "?", known[0])], [(), ("?",)]])
        assert batch.rows.tolist() == [1, 1] and batch.cols.tolist() == [2, 0]
        assert batch.offsets.tolist() == [0, 2, 4]
        w = rng.standard_normal(indexed.index.size)
        L = indexed.index.n_labels
        state = batch.scores(w).state
        W = w[L * L:].reshape(-1, L)
        assert np.array_equal(state[[0, 2, 3]], np.zeros((3, L)))
        assert np.array_equal(state[1], 0.0 + W[2] + W[0])

    @pytest.mark.parametrize("slot", [0, -1], ids=["transition", "state"])
    def test_non_finite_weight_is_rejected(self, slot):
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        w = np.zeros(indexed.index.size)
        w[slot] = np.inf
        with pytest.raises(ValueError, match="non-finite lattice score"):
            objective_and_gradient(w, indexed, 10.0)


class TestScores:
    """Every batch scores to one checked type, the ``Lattice``."""

    @staticmethod
    def batch(kind):
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        if kind == "tagging":  # as tag_corpus compiles an unlabeled corpus
            attrs = extract_corpus_attributes(strip_labels(toy_corpus()), catalogue=LEAN)
            return indexed.index.compile(attrs)
        return indexed.batch.grouped if kind == "grouped" else indexed.batch

    @pytest.mark.parametrize("kind", ["tagging", "index_corpus", "grouped"])
    def test_scores_are_a_lattice(self, kind, rng):
        batch = self.batch(kind)
        lattice = batch.scores(rng.standard_normal(batch.index.size))
        assert isinstance(lattice, crf.Lattice)
        L = batch.index.n_labels
        assert lattice.state.shape == (batch.offsets[-1], L) and lattice.trans.shape == (L, L)


# Recorded with scipy 1.17.1 (numpy 2.4.6), from scipy.optimize.minimize's
# L-BFGS-B with maxcor=10, ftol=1e-5, gtol=1e-12: the objective after each
# iteration at max_iterations=8, and the converged objective and iteration
# count at the default 200.  L-BFGS-B with no bounds steps along the same
# two-loop direction; where its line search accepts the first trial step,
# as in all 8 iterations on the first corpus, both optimizers take the same
# steps.  On the second corpus scipy's Moré-Thuente search interpolates at
# iteration 3, so only the converged results compare.
SCIPY_HISTORY_8 = [
    579.6757075878206, 300.09887636365016, 295.6525142604278, 232.05141358624314,
    203.05226174870688, 179.76424301684858, 172.9204198851767, 152.70930878558096,
]
SCIPY_CONVERGED = {  # (sentences, seed, noise) -> (objective, iterations)
    (60, 3, 0.1): (70.68131406299531, 63),
    (40, 11, 0.05): (24.179170701464734, 47),
}
# The stop rule ends both runs once a step gains at most 1e-5 relative, so
# the two converged objectives may differ by a few such steps.
CONVERGED_REL_TOL = 1e-4


class TestOptimizer:
    def test_history_matches_scipy(self, monkeypatch):
        calls = []
        objective = trainer.objective_and_gradient
        monkeypatch.setattr(trainer, "objective_and_gradient",
                            lambda *args: calls.append(1) or objective(*args))
        corpus = cyclic_ambiguous_corpus(60, seed=3, noise=0.1)
        _, report = train(corpus, catalogue=LEAN, config=TrainConfig(max_iterations=8))
        assert report.iterations == 8
        assert len(calls) == 9  # one per accepted unit step, plus the start
        values = [value for value, _ in report.history]
        assert values == pytest.approx(SCIPY_HISTORY_8, rel=1e-9)
        assert report.final_objective == values[-1]

    @pytest.mark.parametrize("args", sorted(SCIPY_CONVERGED))
    def test_converged_objective_near_scipy(self, args):
        n, seed, noise = args
        objective, iterations = SCIPY_CONVERGED[args]
        corpus = cyclic_ambiguous_corpus(n, seed=seed, noise=noise)
        _, report = train(corpus, catalogue=LEAN)
        assert report.final_objective == pytest.approx(objective, rel=CONVERGED_REL_TOL)
        assert abs(report.iterations - iterations) <= 0.2 * iterations

    def test_zero_gradient_at_start_takes_no_step(self):
        # with one label every path is the gold path: objective and gradient
        # are 0 at the zero start, and the unit direction -g/|g| is undefined
        corpus = make_corpus(make_sentence(("a", "en", "N"), ("b", "en", "N")),
                             make_sentence(("c", "en", "N"),))
        model, report = train(corpus)
        assert report.iterations == 0
        assert report.final_objective == 0.0
        assert report.history == []
        assert not model.weights.any()

    def test_step_underflow_keeps_current_weights(self, monkeypatch):
        # an objective that rises in every direction from the second point:
        # the line search backtracks below MIN_STEP and training stops there
        objective = trainer.objective_and_gradient
        points = []

        def rising(w, *args):
            value, grad = objective(w, *args)
            points.append(w.copy())
            return (value if len(points) <= 2 else value + 1e3), grad

        monkeypatch.setattr(trainer, "objective_and_gradient", rising)
        model, report = train(toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=8))
        assert report.iterations == 1
        grouped = index_corpus(toy_corpus(), catalogue=LEAN).batch.grouped
        assert np.array_equal(model.weights, grouped.expand(points[1]))
        assert report.final_objective == report.history[0][0]


class TestLbfgsDirection:
    """The buffered two-loop recursion against the plain reference."""

    @staticmethod
    def _pairs(rng, m, n):
        pairs = deque(maxlen=trainer.LBFGS_MEMORY)
        for _ in range(m):
            s = rng.normal(size=n)
            y = s + 0.5 * rng.normal(size=n)
            pairs.append((s, y, 1.0 / trainer._dot(s, y)))
        return pairs

    @pytest.mark.parametrize("m", [0, 1, 7, 10])
    def test_equals_plain_recursion_bit_for_bit(self, rng, m):
        pairs = self._pairs(rng, m, 3001)
        grad = rng.normal(size=3001)
        grad_before = grad.copy()
        stored = [(s.copy(), y.copy(), rho) for s, y, rho in pairs]
        direction = trainer._lbfgs_direction(grad, pairs)
        want = oracles.two_loop_direction(grad, list(pairs), trainer._dot)
        assert direction.tobytes() == want.tobytes()
        assert np.array_equal(grad, grad_before)
        for (s, y, rho), (s0, y0, rho0) in zip(pairs, stored, strict=True):
            assert np.array_equal(s, s0) and np.array_equal(y, y0) and rho == rho0
        for array in [grad, *(v for s, y, _ in pairs for v in (s, y))]:
            assert not np.shares_memory(direction, array)


class TestBlasThreads:
    def test_model_bytes_do_not_depend_on_blas_thread_count(self):
        # BLAS splits a dot product of more than about 10,000 elements across
        # its threads; every optimizer vector, one slot per (group, label), is
        # longer than that here, and the full index has over 50,000 slots
        src = str(Path(mixtag.__file__).resolve().parents[1])
        path = os.pathsep.join([src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
        probe = (
            "import hashlib; from datagen import separable_corpus; "
            "from mixtag.crf import save_model; "
            "from mixtag.trainer import TrainConfig, index_corpus, train; "
            "corpus = separable_corpus(300, seed=3, variants=50); "
            "model, report = train(corpus, config=TrainConfig(max_iterations=10)); "
            "print(model.index.size, index_corpus(corpus).batch.grouped.index.size, "
            "report.iterations, hashlib.sha256(save_model(model)).hexdigest())"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.split())
        size, grouped_size, iterations, _ = outputs[0]
        assert int(size) > 50_000 and int(grouped_size) > 10_000 and int(iterations) == 10
        assert outputs[0] == outputs[1]


class TestStopReason:
    def test_max_iterations(self):
        corpus = cyclic_ambiguous_corpus(60, seed=3, noise=0.1)
        _, report = train(corpus, catalogue=LEAN, config=TrainConfig(max_iterations=8))
        assert report.iterations == 8
        assert report.stop_reason is StopReason.MAX_ITERATIONS

    def test_zero_iterations_is_max_iterations(self):
        _, report = train(toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=0))
        assert report.stop_reason is StopReason.MAX_ITERATIONS

    def test_converged(self):
        corpus = cyclic_ambiguous_corpus(40, seed=11, noise=0.05)
        config = TrainConfig()
        _, report = train(corpus, catalogue=LEAN, config=config)
        assert report.stop_reason is StopReason.CONVERGED
        assert 2 <= report.iterations < config.max_iterations
        values = [value for value, _ in report.history]
        relative = [(a - b) / max(abs(a), abs(b), 1.0) for a, b in zip(values, values[1:])]
        assert relative[-1] <= config.tolerance < min(relative[:-1])

    def test_zero_gradient(self):
        corpus = make_corpus(make_sentence(("a", "en", "N"), ("b", "en", "N")),
                             make_sentence(("c", "en", "N"),))
        indexed = index_corpus(corpus)
        _, grad = objective_and_gradient(np.zeros(indexed.index.size), indexed, 10.0)
        assert np.max(np.abs(grad)) <= GRADIENT_TOLERANCE
        for max_iterations in (0, 200):
            _, report = train(corpus, config=TrainConfig(max_iterations=max_iterations))
            assert report.stop_reason is StopReason.ZERO_GRADIENT

    def test_no_step(self, monkeypatch):
        objective = trainer.objective_and_gradient
        calls = []

        def rising(w, *args):
            value, grad = objective(w, *args)
            calls.append(1)
            return (value if len(calls) <= 2 else value + 1e3), grad

        monkeypatch.setattr(trainer, "objective_and_gradient", rising)
        _, report = train(toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=8))
        assert report.iterations == 1
        assert report.stop_reason is StopReason.NO_STEP

    def test_values_are_their_names(self):
        assert [reason.value for reason in StopReason] == [
            "max_iterations", "converged", "zero_gradient", "no_step",
        ]


class TestTrain:
    def test_separable_corpus_fits_exactly(self):
        # surface uniquely determines the label
        sentences = []
        for k in range(10):
            sentences.append(
                make_sentence(
                    (f"w{k % 4}", "en", f"T{k % 4}"),
                    (f"w{(k + 1) % 4}", "en", f"T{(k + 1) % 4}"),
                    (f"w{(k + 2) % 4}", "en", f"T{(k + 2) % 4}"),
                )
            )
        corpus = make_corpus(*sentences)
        config = TrainConfig(max_iterations=50)
        model, report = train(corpus, catalogue=LEAN, config=config)
        from mixtag.tagging import tag_corpus
        from mixtag.corpus import write_corpus, TRAIN3COL

        stripped = Corpus(
            tuple(
                Sentence(tuple(Token(t.surface, t.lang) for t in s)) for s in corpus
            )
        )
        tagged = tag_corpus(model, stripped, catalogue=LEAN)
        assert write_corpus(tagged, TRAIN3COL) == write_corpus(corpus, TRAIN3COL)

    def test_zero_iterations_returns_zero_model(self):
        model, report = train(
            toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=0)
        )
        assert np.all(model.weights == 0)
        assert report.iterations == 0

    def test_objective_not_worse_than_uniform(self):
        corpus = toy_corpus()
        model, report = train(corpus, catalogue=LEAN, config=TrainConfig(max_iterations=30))
        assert report.final_objective <= corpus.token_count() * math.log(3) + 1e-9

    def test_accepted_objectives_non_increasing(self):
        _, report = train(toy_corpus(), catalogue=LEAN, config=TrainConfig(max_iterations=30))
        values = [v for v, _ in report.history]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_deterministic_across_runs_and_workers(self):
        config = TrainConfig(max_iterations=25)
        m1, _ = train(toy_corpus(), catalogue=LEAN, config=config)
        m2, _ = train(toy_corpus(), catalogue=LEAN, config=config)
        assert np.array_equal(m1.weights, m2.weights)

    def test_cutoff_that_keeps_no_attribute_fits_transitions(self):
        # no pair at all: the scores and counts are still float arrays
        corpus = cyclic_ambiguous_corpus(20, seed=2)
        model, report = train(corpus, config=TrainConfig(cutoff=10**6, max_iterations=5))
        assert model.index.attributes == () and report.iterations == 5
        assert report.final_objective < corpus.token_count() * math.log(len(model.labels))
        tagged = tagging.tag_corpus(model, strip_labels(corpus))
        assert tagged.token_count() == corpus.token_count()

    def test_labels_that_differ_in_a_trailing_nul_stay_apart(self):
        # fixed-width numpy strings drop trailing NULs, so "N\x00" would
        # read as "N" there
        corpus = make_corpus(
            make_sentence(("a", "en", "N"), ("b", "en", "N\x00")),
            make_sentence(("b", "en", "N\x00"), ("a", "en", "N"), ("b", "en", "N\x00")),
        )
        model, _ = train(corpus, catalogue=LEAN, config=TrainConfig(max_iterations=30))
        assert model.labels == ("N", "N\x00")
        loaded = crf.load_model(crf.save_model(model))
        assert loaded.labels == model.labels
        stripped = strip_labels(corpus)
        assert tagging.tag_corpus(loaded, stripped) == corpus
        assert [tagging.tag_sentence(loaded, s) for s in stripped] == list(corpus)

    def test_file_stores_at_most_one_state_row_per_group(self):
        # every member of a group is trained to the same row of bits
        corpus = cyclic_ambiguous_corpus(40, seed=3)
        model, _ = train(corpus, config=TrainConfig(max_iterations=10))
        data = crf.save_model(model)
        groups = len(index_corpus(corpus).batch.grouped.index.attributes)
        stored = int(re.search(rb"\nrows (\d+)\n", data)[1])
        assert stored <= groups < len(model.index.attributes)
        assert crf.load_model(data).weights.tobytes() == model.weights.tobytes()

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            train(make_corpus())

    def test_unlabeled_token_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            train(make_corpus(make_sentence(("w", "en"))))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cutoff": 0},
            {"l2_sigma2": 0.0},
            {"l2_sigma2": float("nan")},
            {"max_iterations": -1},
            {"tolerance": 0.0},
            {"tolerance": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_infinite_sigma2_and_tolerance_accepted(self):
        # sigma^2 = inf is no penalty; tolerance = inf stops after one step
        config = TrainConfig(l2_sigma2=float("inf"), tolerance=float("inf"))
        assert config.l2_sigma2 == config.tolerance == float("inf")
