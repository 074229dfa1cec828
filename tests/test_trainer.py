import math

import numpy as np
import pytest

from mixtag import trainer
from mixtag.corpus import Corpus, Sentence, Token
from mixtag.crf import (
    Model,
    _forward_backward,
    _state_scores,
    build_lattice,
    log_partition,
    sequence_score,
)
from mixtag.features import FeatureCatalogue, extract_sentence_attributes
from mixtag.trainer import (
    GRADIENT_TOLERANCE,
    StopReason,
    TrainConfig,
    index_corpus,
    objective_and_gradient,
    train,
)

from conftest import make_corpus, make_sentence
from datagen import cyclic_ambiguous_corpus

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
        assert np.any(np.bincount(sparse_rows.rows, minlength=sparse_rows.token_count()) == 0)
        sigma2 = 10.0
        for indexed in (index_corpus(toy_corpus(), catalogue=LEAN), sparse_rows):
            for _ in range(3):
                w = rng.standard_normal(indexed.index.size) * 0.5
                _, grad = objective_and_gradient(w, indexed, sigma2)
                fd = numerical_gradient(w, indexed, sigma2)
                denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
                assert np.max(np.abs(grad - fd) / denom) < 1e-4


class TestBatchedObjective:
    def test_equals_per_sentence_log_partitions(self, rng):
        corpus = toy_corpus()
        indexed = index_corpus(corpus, catalogue=LEAN)
        w = rng.standard_normal(indexed.index.size)
        model = Model(indexed.labels, indexed.index, w)
        expected = float(np.dot(w, w)) / (2 * 10.0)
        for sentence in corpus:
            lattice = build_lattice(model, extract_sentence_attributes(sentence, catalogue=LEAN))
            gold = [indexed.labels.index(token.pos) for token in sentence]
            expected += log_partition(lattice) - sequence_score(lattice, gold)
        value, _ = objective_and_gradient(w, indexed, 10.0)
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


class TestStoredBins:
    """The objective's pair bins are built once per corpus and never written."""

    ARRAYS = ("rows", "cols", "label_ids", "offsets", "empirical", "state_bins", "count_bins")

    def test_index_corpus_builds_no_bins(self):
        indexed = index_corpus(toy_corpus())
        assert not {"state_bins", "count_bins"} & set(vars(indexed))

    def test_weights_and_corpus_arrays_unchanged(self, rng):
        indexed = index_corpus(toy_corpus())
        w = rng.standard_normal(indexed.index.size)
        w_before = w.copy()
        before = {name: getattr(indexed, name).copy() for name in self.ARRAYS}
        for _ in range(2):
            _, grad = objective_and_gradient(w, indexed, 10.0)
            grad += 1.0  # the caller owns the gradient
            assert np.array_equal(w, w_before)
            for name in self.ARRAYS:
                assert np.array_equal(getattr(indexed, name), before[name]), name
                assert getattr(indexed, name).dtype == before[name].dtype, name

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
        assert report.final_objective == objective_and_gradient(calls[0], indexed, 10.0)[0]

    def test_no_evaluation_after_optimizer(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        config = TrainConfig(max_iterations=8)
        model, report = train(toy_corpus(), catalogue=LEAN, config=config)
        assert np.array_equal(calls[-1], model.weights)
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        expected, _ = objective_and_gradient(model.weights, indexed, config.l2_sigma2)
        assert report.final_objective == expected


class TestExactSums:
    """The numpy sums add in pair order from 0, as a plain loop does."""

    def test_state_scores_and_expected_counts_equal_loops(self, rng, monkeypatch):
        indexed = index_corpus(toy_corpus())
        L, n = indexed.index.n_labels, indexed.token_count()
        w = rng.standard_normal(indexed.index.size)
        W = w[L * L:].reshape(-1, L)
        rows, cols = indexed.rows.tolist(), indexed.cols.tolist()
        assert rows == sorted(rows) and len(rows) > n

        state = np.zeros((n, L))
        for t, c in zip(rows, cols):
            for y in range(L):
                state[t, y] += W[c, y]
        got = _state_scores(w, indexed.index, indexed.rows, indexed.cols, n)
        assert np.array_equal(got, state)

        # the objective's own state scores and marginals, from its stored bins
        seen = []

        def recorded(state, trans, offsets):
            seen.append((state.copy(), *_forward_backward(state, trans, offsets)))
            return seen[-1][1:]

        monkeypatch.setattr(trainer, "_forward_backward", recorded)
        for _ in range(2):  # the first call builds the bins, the second reuses them
            _, grad = objective_and_gradient(w, indexed, 10.0)
            objective_state, node, edge, _ = seen[-1]
            assert np.array_equal(objective_state, state)
            counts = np.zeros_like(W)
            for t, c in zip(rows, cols):
                for y in range(L):
                    counts[c, y] += node[t, y]
            expected = np.concatenate([edge.sum(axis=0).ravel(), counts.ravel()])
            expected -= indexed.empirical
            expected += w / 10.0
            assert np.array_equal(grad, expected)

    def test_unknown_attributes_score_zero(self, rng):
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        known = indexed.index.attributes
        rows, cols = indexed.index.compile([("?",), (known[2], "?", known[0]), (), ("?",)])
        assert rows.tolist() == [1, 1] and cols.tolist() == [2, 0]
        w = rng.standard_normal(indexed.index.size)
        state = _state_scores(w, indexed.index, rows, cols, 4)
        L = indexed.index.n_labels
        W = w[L * L:].reshape(-1, L)
        assert np.array_equal(state[[0, 2, 3]], np.zeros((3, L)))
        assert np.array_equal(state[1], 0.0 + W[2] + W[0])


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
        assert np.array_equal(model.weights, points[1])
        assert report.final_objective == report.history[0][0]


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
            {"max_iterations": -1},
            {"tolerance": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
