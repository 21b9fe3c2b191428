"""Tests for the topic modelling substrate (dictionary, LDA, intent, analysis)."""

import numpy as np
import pytest

from repro.tables import Column, Table
from repro.topic import (
    Dictionary,
    LatentDirichletAllocation,
    TableIntentEstimator,
    top_salient_topics,
    topic_saliency,
    topic_type_distribution,
)

from oracles import choice_lda_fit, choice_lda_transform


def _documents():
    sports = [["team", "score", "goal", "win", "league"] for _ in range(15)]
    finance = [["stock", "price", "market", "share", "profit"] for _ in range(15)]
    return sports + finance


def _random_documents(n_documents=40, vocabulary_size=120, seed=0):
    """Documents of 0-40 tokens over ``tok0..``; the first one is empty."""
    rng = np.random.default_rng(seed)
    vocabulary = [f"tok{i}" for i in range(vocabulary_size)]
    sizes = [0] + rng.integers(1, 40, size=n_documents - 1).tolist()
    return [[vocabulary[i] for i in rng.integers(0, vocabulary_size, size=n)] for n in sizes]


def _read_only_copy(lda, **state_overrides):
    """A fresh model holding ``lda``'s state as non-writeable arrays."""
    state = {**lda.state_dict(), **state_overrides}
    for array in state.values():
        array.setflags(write=False)
    copy = LatentDirichletAllocation(**lda.config_dict())
    copy.load_state_dict(state)
    return copy


class TestDictionary:
    def test_fit_and_lookup(self):
        dictionary = Dictionary(no_below=1).fit([["a", "b"], ["a", "c"]])
        assert "a" in dictionary
        assert len(dictionary) >= 2

    def test_no_below_filters_rare(self):
        dictionary = Dictionary(no_below=2).fit([["a", "b"], ["a", "c"]])
        assert "a" in dictionary
        assert "b" not in dictionary

    def test_no_above_filters_ubiquitous(self):
        documents = [["the", f"w{i}"] for i in range(10)]
        dictionary = Dictionary(no_below=1, no_above=0.5).fit(documents)
        assert "the" not in dictionary

    def test_doc2bow(self):
        dictionary = Dictionary(no_below=1).fit([["a", "b", "a"]])
        bow = dict(dictionary.doc2bow(["a", "a", "b", "zzz"]))
        assert bow[dictionary.token_to_id["a"]] == 2
        assert len(bow) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Dictionary(no_below=0)
        with pytest.raises(ValueError):
            Dictionary(no_above=0.0)

    def test_max_size(self):
        documents = [[f"w{i}" for i in range(50)]] * 2
        dictionary = Dictionary(no_below=1, max_size=10).fit(documents)
        assert len(dictionary) == 10


class TestLDA:
    @pytest.fixture(scope="class")
    def fitted(self):
        return LatentDirichletAllocation(n_topics=4, n_iterations=20, seed=0).fit(_documents())

    def test_transform_is_distribution(self, fitted):
        vector = fitted.transform(["team", "goal", "win"])
        assert vector.shape == (4,)
        assert vector.sum() == pytest.approx(1.0)
        assert np.all(vector >= 0)

    def test_empty_document_uniform(self, fitted):
        vector = fitted.transform([])
        assert np.allclose(vector, 0.25)

    def test_related_documents_have_similar_topics(self, fitted):
        sports_a = fitted.transform(["team", "goal", "league"])
        sports_b = fitted.transform(["win", "score", "team"])
        finance = fitted.transform(["stock", "market", "profit"])
        sim_same = float(sports_a @ sports_b)
        sim_diff = float(sports_a @ finance)
        assert sim_same > sim_diff

    def test_topic_top_tokens(self, fitted):
        tokens = fitted.topic_top_tokens(0, k=3)
        assert len(tokens) <= 3
        assert all(isinstance(t, str) for t in tokens)

    def test_topic_word_distribution_normalised(self, fitted):
        distribution = fitted.topic_word_distribution()
        assert np.allclose(distribution.sum(axis=1), 1.0)

    def test_transform_many_shape(self, fitted):
        matrix = fitted.transform_many([["team"], ["stock"]])
        assert matrix.shape == (2, 4)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LatentDirichletAllocation(n_topics=3).transform(["a"])

    def test_invalid_topics(self):
        with pytest.raises(ValueError):
            LatentDirichletAllocation(n_topics=0)

    def test_deterministic_given_seed(self):
        a = LatentDirichletAllocation(n_topics=3, n_iterations=10, seed=1).fit(_documents())
        b = LatentDirichletAllocation(n_topics=3, n_iterations=10, seed=1).fit(_documents())
        assert np.array_equal(a.transform(["team", "goal"]), b.transform(["team", "goal"]))


class TestSamplerParity:
    """The inline categorical draw and frozen-φ inference match the
    ``rng.choice`` sampler (``tests/oracles.py``) bit for bit."""

    @pytest.fixture(scope="class", params=[1, 8, 24, 200])
    def fitted_pair(self, request):
        documents = _random_documents()
        config = dict(n_topics=request.param, n_iterations=4, infer_iterations=6, seed=2)
        lda = LatentDirichletAllocation(**config).fit(documents)
        oracle = choice_lda_fit(LatentDirichletAllocation(**config), documents)
        return lda, oracle

    @staticmethod
    def _inputs(lda):
        vocabulary = lda.dictionary.id_to_token
        rng = np.random.default_rng(7)
        return {
            "random": _random_documents(n_documents=6, seed=3)[1:],
            "empty": [[]],
            "out_of_vocabulary": [["zzz", "not-a-token", "qqq"]],
            "wide": [[vocabulary[i] for i in rng.integers(0, len(vocabulary), size=512)]],
        }

    def test_fit_counts_identical(self, fitted_pair):
        lda, oracle = fitted_pair
        assert np.array_equal(lda.topic_token_counts, oracle.topic_token_counts)
        assert np.array_equal(lda.topic_counts, oracle.topic_counts)
        assert lda.dictionary.id_to_token == oracle.dictionary.id_to_token

    @pytest.mark.parametrize("kind", ["random", "empty", "out_of_vocabulary", "wide"])
    def test_transform_identical(self, fitted_pair, kind):
        # Read-only counts: inference must never write the (shared) model.
        lda = _read_only_copy(fitted_pair[0])
        for document in self._inputs(lda)[kind]:
            assert np.array_equal(lda.transform(document), choice_lda_transform(lda, document))

    def test_fallback_draw_identical(self, fitted_pair):
        # Infinite topic totals zero every weight, so each draw takes the
        # uniform ``rng.integers`` fallback instead of the categorical one.
        lda = fitted_pair[0]
        lda = _read_only_copy(lda, topic_counts=np.full(lda.n_topics, np.inf))
        for kind in ("random", "wide"):
            for document in self._inputs(lda)[kind]:
                assert np.array_equal(lda.transform(document), choice_lda_transform(lda, document))


class TestIntentEstimator:
    @pytest.fixture(scope="class")
    def estimator(self, corpus_small):
        estimator = TableIntentEstimator(n_topics=6, n_iterations=6, infer_iterations=6, seed=0)
        estimator.fit([t.without_headers() for t in corpus_small[:60]])
        return estimator

    # Note: the fixture request for corpus_small at class scope works because
    # corpus_small is session-scoped.

    def test_topic_vector_is_distribution(self, estimator, corpus_small):
        vector = estimator.topic_vector(corpus_small[0])
        assert vector.shape == (6,)
        assert vector.sum() == pytest.approx(1.0)

    def test_topic_vectors_batch(self, estimator, corpus_small):
        matrix = estimator.topic_vectors(corpus_small[:4])
        assert matrix.shape == (4, 6)

    def test_unfitted_raises(self, corpus_small):
        estimator = TableIntentEstimator(n_topics=4)
        with pytest.raises(RuntimeError):
            estimator.topic_vector(corpus_small[0])

    def test_reuse_vectors_infers_each_document_once(self, estimator, corpus_small, monkeypatch):
        tables = corpus_small[:4]
        expected = [estimator.topic_vector(t) for t in tables]
        calls = []
        transform = estimator.lda.transform
        monkeypatch.setattr(estimator.lda, "transform", lambda d: calls.append(d) or transform(d))
        with estimator.reuse_vectors():
            first = [estimator.topic_vector(t) for t in tables]
            second = [estimator.topic_vector(t) for t in tables]
        assert len(calls) == len({tuple(d) for d in calls}) == len(tables)
        for a, b, c in zip(expected, first, second):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        estimator.topic_vector(tables[0])  # outside the block: inferred again
        assert len(calls) == len(tables) + 1

    def test_table_document_ignores_headers(self, estimator):
        table = Table(
            columns=[Column(values=["Paris", "Rome"], header="city", semantic_type="city")]
        )
        document = estimator.table_document(table)
        assert "city" not in document
        assert "paris" in document


class TestTopicAnalysis:
    @pytest.fixture(scope="class")
    def setup(self, corpus_small):
        estimator = TableIntentEstimator(n_topics=5, n_iterations=6, infer_iterations=5, seed=0)
        tables = [t for t in corpus_small if t.n_columns > 1][:40]
        estimator.fit([t.without_headers() for t in tables])
        return estimator, tables

    def test_type_topic_distribution_shape(self, setup):
        estimator, tables = setup
        matrix = topic_type_distribution(estimator, tables)
        assert matrix.shape == (78, 5)
        assert np.all(matrix >= 0)

    def test_saliency_scores(self, setup):
        estimator, tables = setup
        matrix = topic_type_distribution(estimator, tables)
        saliency = topic_saliency(matrix, k=3)
        assert saliency.shape == (5,)
        assert np.all(saliency >= 0)

    def test_top_salient_topics(self, setup):
        estimator, tables = setup
        summaries = top_salient_topics(estimator, tables, n_topics=3, k_types=4)
        assert len(summaries) == 3
        assert summaries[0].saliency >= summaries[-1].saliency
        for summary in summaries:
            assert len(summary.top_types) == 4
