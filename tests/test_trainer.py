import math

import numpy as np
import pytest
import scipy.optimize

from mixtag import trainer
from mixtag.corpus import Corpus, Sentence, Token
from mixtag.crf import Model, build_lattice, log_partition, sequence_score
from mixtag.features import FeatureCatalogue, extract_sentence_attributes
from mixtag.trainer import (
    TrainConfig,
    index_corpus,
    objective_and_gradient,
    train,
)

from conftest import make_corpus, make_sentence

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
        assert np.any(np.diff(sparse_rows.X.indptr) == 0)
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
        calls_when_optimizer_returned = []
        minimize = scipy.optimize.minimize

        def recorded(*args, **kwargs):
            result = minimize(*args, **kwargs)
            calls_when_optimizer_returned.append(len(calls))
            return result

        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        config = TrainConfig(max_iterations=8)
        model, report = train(toy_corpus(), catalogue=LEAN, config=config)
        assert calls_when_optimizer_returned == [len(calls)]
        indexed = index_corpus(toy_corpus(), catalogue=LEAN)
        expected, _ = objective_and_gradient(model.weights, indexed, config.l2_sigma2)
        assert report.final_objective == expected


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
