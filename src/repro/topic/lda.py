"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

This is the offline replacement for gensim's LDA: documents (tables) are
random mixtures of latent topics, topics are distributions over tokens, and
inference integrates out the multinomial parameters and samples topic
assignments directly.  Training keeps per-topic/token and per-document/topic
count matrices; inference for unseen documents runs a short Gibbs chain with
the topic-token counts frozen.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.topic.dictionary import Dictionary

__all__ = ["LatentDirichletAllocation"]


def _draw_topic(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an index with probability proportional to ``weights``.

    Bit-identical to ``rng.choice(weights.size, p=weights / weights.sum())``:
    the same cumulative sum, renormalisation and right-sided search over one
    ``rng.random()`` double, without ``choice``'s per-call argument checks.
    A non-positive or non-finite sum falls back to a uniform
    ``rng.integers`` draw.
    """
    total = weights.sum()
    if total <= 0 or not math.isfinite(total):
        return int(rng.integers(0, weights.size))
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class LatentDirichletAllocation:
    """Collapsed-Gibbs LDA.

    Parameters
    ----------
    n_topics:
        Number of latent topics (the paper uses 400; tests use far fewer).
    alpha:
        Symmetric Dirichlet prior on the document-topic distribution.
    beta:
        Symmetric Dirichlet prior on the topic-token distribution.
    n_iterations:
        Gibbs sweeps over the corpus during :meth:`fit`.
    """

    def __init__(
        self,
        n_topics: int = 50,
        alpha: float | None = None,
        beta: float = 0.01,
        n_iterations: int = 30,
        infer_iterations: int = 15,
        seed: int = 0,
    ) -> None:
        if n_topics < 1:
            raise ValueError("n_topics must be positive")
        self.n_topics = n_topics
        # A sparse document-topic prior keeps the inferred table-intent
        # distributions peaky (tables express one or two intents, not a
        # smooth mixture of dozens), which makes the topic features far more
        # discriminative than the classic 50/K heuristic on short documents.
        self.alpha = alpha if alpha is not None else min(0.1, 5.0 / n_topics)
        self.beta = beta
        self.n_iterations = n_iterations
        self.infer_iterations = infer_iterations
        self.seed = seed
        self.dictionary: Dictionary | None = None
        self.topic_token_counts: np.ndarray | None = None
        self.topic_counts: np.ndarray | None = None
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    # -------------------------------------------------------------- training

    def fit(
        self,
        documents: Sequence[Sequence[str]],
        dictionary: Dictionary | None = None,
    ) -> "LatentDirichletAllocation":
        """Train the topic model on tokenised documents."""
        documents = [list(d) for d in documents]
        self.dictionary = dictionary or Dictionary().fit(documents)
        vocabulary_size = max(1, len(self.dictionary))
        rng = np.random.default_rng(self.seed)

        doc_tokens = [
            np.array(self.dictionary.doc2ids(d), dtype=np.int64) for d in documents
        ]
        assignments = [
            rng.integers(0, self.n_topics, size=tokens.size) for tokens in doc_tokens
        ]

        # Token-major while sampling, so each token's topic counts are one
        # contiguous row; transposed back to topic-major when done.
        token_topic = np.zeros((vocabulary_size, self.n_topics), dtype=np.float64)
        topic_totals = np.zeros(self.n_topics, dtype=np.float64)
        doc_topic = np.zeros((len(documents), self.n_topics), dtype=np.float64)
        for tokens, topics, doc_topic_row in zip(doc_tokens, assignments, doc_topic):
            np.add.at(token_topic, (tokens, topics), 1)
            np.add.at(topic_totals, topics, 1)
            np.add.at(doc_topic_row, topics, 1)
        doc_tokens = [tokens.tolist() for tokens in doc_tokens]
        assignments = [topics.tolist() for topics in assignments]

        beta_sum = self.beta * vocabulary_size
        for _ in range(self.n_iterations):
            for tokens, topics, doc_topic_row in zip(
                doc_tokens, assignments, doc_topic
            ):
                for position, token in enumerate(tokens):
                    token_row = token_topic[token]
                    old_topic = topics[position]
                    doc_topic_row[old_topic] -= 1
                    token_row[old_topic] -= 1
                    topic_totals[old_topic] -= 1
                    weights = (
                        (token_row + self.beta)
                        / (topic_totals + beta_sum)
                        * (doc_topic_row + self.alpha)
                    )
                    new_topic = _draw_topic(weights, rng)
                    topics[position] = new_topic
                    doc_topic_row[new_topic] += 1
                    token_row[new_topic] += 1
                    topic_totals[new_topic] += 1

        self.topic_token_counts = np.ascontiguousarray(token_topic.T)
        self.topic_counts = topic_totals
        self._fitted = True
        return self

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable constructor configuration."""
        return {
            "n_topics": self.n_topics,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_iterations": self.n_iterations,
            "infer_iterations": self.infer_iterations,
            "seed": self.seed,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state: count matrices + dictionary order."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None
        assert self.topic_token_counts is not None and self.topic_counts is not None
        return {
            "tokens": np.array(self.dictionary.id_to_token, dtype=np.str_),
            "topic_token_counts": self.topic_token_counts.copy(),
            "topic_counts": self.topic_counts.copy(),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.dictionary = Dictionary.from_tokens(state["tokens"].tolist())
        # Zero-copy: :meth:`transform` only *reads* the count matrices, so
        # they can safely be non-writeable shared-memory views (one copy of
        # the topic model for a whole serving fleet).
        self.topic_token_counts = np.asarray(
            state["topic_token_counts"], dtype=np.float64
        )
        self.topic_counts = np.asarray(state["topic_counts"], dtype=np.float64)
        self._fitted = True

    # ------------------------------------------------------------- inference

    def transform(self, document: Sequence[str]) -> np.ndarray:
        """Infer the topic distribution of one tokenised document."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None
        assert self.topic_token_counts is not None and self.topic_counts is not None
        tokens = np.array(self.dictionary.doc2ids(document), dtype=np.int64)
        if tokens.size == 0:
            return np.full(self.n_topics, 1.0 / self.n_topics)
        rng = np.random.default_rng(self.seed + 1)
        topics = rng.integers(0, self.n_topics, size=tokens.size)
        doc_topic_row = np.bincount(topics, minlength=self.n_topics).astype(np.float64)
        topics = topics.tolist()
        # The topic-token counts are frozen at inference, so each position's
        # topic-token factor is gathered once per document: one (tokens, K)
        # matrix instead of two vector ops per token per sweep.
        vocabulary_size = max(1, len(self.dictionary))
        topic_norm = self.topic_counts + self.beta * vocabulary_size
        phi = (self.topic_token_counts[:, tokens] + self.beta).T / topic_norm
        # Average the document-topic counts over the second half of the
        # chain: a single final sweep is a high-variance sample, and that
        # variance would leak straight into the topic features.
        accumulated = np.zeros(self.n_topics, dtype=np.float64)
        n_accumulated = 0
        burn_in = max(1, self.infer_iterations // 2)
        for iteration in range(self.infer_iterations):
            for position, token_phi in enumerate(phi):
                old_topic = topics[position]
                doc_topic_row[old_topic] -= 1
                new_topic = _draw_topic(token_phi * (doc_topic_row + self.alpha), rng)
                topics[position] = new_topic
                doc_topic_row[new_topic] += 1
            if iteration >= burn_in:
                accumulated += doc_topic_row
                n_accumulated += 1
        if n_accumulated == 0:
            accumulated, n_accumulated = doc_topic_row, 1
        distribution = accumulated / n_accumulated + self.alpha
        return distribution / distribution.sum()

    def transform_many(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Infer topic distributions for several documents."""
        if not documents:
            return np.zeros((0, self.n_topics))
        return np.stack([self.transform(d) for d in documents])

    def topic_top_tokens(self, topic: int, k: int = 10) -> list[str]:
        """Most probable tokens of a topic."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.dictionary is not None and self.topic_token_counts is not None
        order = np.argsort(-self.topic_token_counts[topic])
        return [
            self.dictionary.id_to_token[i]
            for i in order[:k]
            if i < len(self.dictionary)
        ]

    def topic_word_distribution(self) -> np.ndarray:
        """The (n_topics, vocabulary) topic-token probability matrix."""
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")
        assert self.topic_token_counts is not None
        counts = self.topic_token_counts + self.beta
        return counts / counts.sum(axis=1, keepdims=True)
