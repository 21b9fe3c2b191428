"""Reference implementations the runtime paths are checked against.

The library serves one path per layer: the vectorized featurization engine
and the batched structured decode.  Their parity contracts are stated
against the simple implementations kept here:

* **Features** — :func:`loop_raw_features` featurizes one column one value
  at a time in pure Python (``char_features`` / ``column_statistics`` plus
  one tokenization of the capped token prefix).  The engine must match it
  ``allclose``; the streaming accumulators must match it bit for bit.
* **Decode** — :func:`per_table_predict` / :func:`per_table_predict_proba`
  run the model one table at a time (one forward pass and one Viterbi or
  marginal decode per table); :func:`per_table_decode` decodes given
  column-wise scores one table at a time.  The batched decode must match
  the labels bit for bit.
* **Both** — :func:`loop_predict_table` / :func:`loop_predict_proba_table`
  chain the per-value features into a per-table forward pass and decode,
  the in-memory reference that bulk annotation is checked against.
* **Topics** — :func:`choice_lda_fit` / :func:`choice_lda_transform` run
  collapsed Gibbs sampling with one ``Generator.choice(p=...)`` call per
  token.  :class:`~repro.topic.LatentDirichletAllocation` draws each token's
  topic inline (and freezes the topic-token factor per document at
  inference); its count matrices and topic vectors must match these bit
  for bit.

Importable from ``tests/`` (on ``sys.path`` under pytest) and from
``benchmarks/`` (whose ``conftest.py`` appends ``tests/``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embeddings import tokenize_values
from repro.features import ColumnFeaturizer, char_features, column_statistics
from repro.models import SatoModel, TopicAwareModel
from repro.tables import Column, Table
from repro.topic import LatentDirichletAllocation
from repro.topic.dictionary import Dictionary

__all__ = [
    "loop_raw_features",
    "loop_transform_columns",
    "loop_transform_table",
    "loop_columnwise_proba",
    "loop_predict_table",
    "loop_predict_proba_table",
    "per_table_decode",
    "per_table_predict",
    "per_table_predict_proba",
    "choice_gibbs_sweep",
    "choice_lda_fit",
    "choice_lda_transform",
]


def loop_raw_features(featurizer: ColumnFeaturizer, column: Column) -> np.ndarray:
    """Raw (unstandardized) features of one column, one value at a time."""
    tokens = tokenize_values(column.values)[: featurizer.max_tokens_per_column]
    char_vector = char_features(column.values)
    word_vector = featurizer.word_model.mean_vector(tokens)
    para_vector = featurizer.paragraph_embedder.embed(tokens)
    stat_vector = column_statistics(column.values)
    return np.concatenate([char_vector, word_vector, para_vector, stat_vector])


def loop_transform_columns(
    featurizer: ColumnFeaturizer, columns: Sequence[Column]
) -> np.ndarray:
    """Standardised features for a batch, featurized column by column."""
    if not columns:
        return np.zeros((0, featurizer.n_features), dtype=np.float64)
    if not featurizer.is_fitted:
        raise RuntimeError("featurizer must be fitted before transform")
    raw = np.stack([loop_raw_features(featurizer, column) for column in columns])
    return featurizer.standardize_matrix(raw)


def loop_transform_table(featurizer: ColumnFeaturizer, table: Table) -> np.ndarray:
    """Standardised features for every column of one table."""
    return loop_transform_columns(featurizer, table.columns)


def loop_columnwise_proba(model: SatoModel, table: Table) -> np.ndarray:
    """Column-wise scores of one table from per-value features."""
    column_model = model.column_model
    if not table.columns:
        return np.zeros((0, column_model.n_classes))
    features = loop_transform_table(column_model.featurizer, table)
    topics = None
    if isinstance(column_model, TopicAwareModel):
        topic = column_model.intent_estimator.topic_vector(table)
        topics = np.tile(topic, (features.shape[0], 1))
    return column_model.predict_proba_matrix(features, topics)


def loop_predict_table(model: SatoModel, table: Table) -> list[str]:
    """Labels of one table: per-value features, per-table decode."""
    return model.labels_from_proba(loop_columnwise_proba(model, table))


def loop_predict_proba_table(model: SatoModel, table: Table) -> np.ndarray:
    """Structured distributions of one table: per-value features, per-table decode."""
    return model.marginals_from_proba(loop_columnwise_proba(model, table))


def per_table_decode(
    model: SatoModel, probabilities: Sequence[np.ndarray]
) -> list[list[str]]:
    """Labels given per-table column-wise scores, one Viterbi per table."""
    return [model.labels_from_proba(proba) for proba in probabilities]


def per_table_predict(model: SatoModel, tables: Sequence[Table]) -> list[list[str]]:
    """Labels for a batch, one forward pass and one decode per table."""
    return [model.predict_table(table) for table in tables]


def per_table_predict_proba(
    model: SatoModel, tables: Sequence[Table]
) -> list[np.ndarray]:
    """Structured distributions for a batch, decoded one table at a time."""
    return [model.predict_proba_table(table) for table in tables]


def choice_gibbs_sweep(
    lda: LatentDirichletAllocation,
    tokens: np.ndarray,
    topics: np.ndarray,
    doc_topic_row: np.ndarray,
    topic_token: np.ndarray,
    topic_totals: np.ndarray,
    vocabulary_size: int,
    rng: np.random.Generator,
    update_topics: bool,
) -> None:
    """One Gibbs sweep over a document, sampling with ``rng.choice(p=...)``.

    ``update_topics`` moves the shared topic-token counts with each token
    (training); without it they stay frozen (inference).
    """
    beta_sum = lda.beta * vocabulary_size
    for position in range(tokens.size):
        token = tokens[position]
        old_topic = topics[position]
        doc_topic_row[old_topic] -= 1
        if update_topics:
            topic_token[old_topic, token] -= 1
            topic_totals[old_topic] -= 1

        weights = (
            (topic_token[:, token] + lda.beta)
            / (topic_totals + beta_sum)
            * (doc_topic_row + lda.alpha)
        )
        weights_sum = weights.sum()
        if weights_sum <= 0 or not np.isfinite(weights_sum):
            new_topic = int(rng.integers(0, lda.n_topics))
        else:
            new_topic = int(rng.choice(lda.n_topics, p=weights / weights_sum))

        topics[position] = new_topic
        doc_topic_row[new_topic] += 1
        if update_topics:
            topic_token[new_topic, token] += 1
            topic_totals[new_topic] += 1


def choice_lda_fit(
    lda: LatentDirichletAllocation,
    documents: Sequence[Sequence[str]],
    dictionary: Dictionary | None = None,
) -> LatentDirichletAllocation:
    """Train ``lda`` in place with :func:`choice_gibbs_sweep`; returns it."""
    documents = [list(d) for d in documents]
    lda.dictionary = dictionary or Dictionary().fit(documents)
    vocabulary_size = max(1, len(lda.dictionary))
    rng = np.random.default_rng(lda.seed)

    doc_tokens = [
        np.array(lda.dictionary.doc2ids(d), dtype=np.int64) for d in documents
    ]
    assignments = [
        rng.integers(0, lda.n_topics, size=tokens.size) for tokens in doc_tokens
    ]

    topic_token = np.zeros((lda.n_topics, vocabulary_size), dtype=np.float64)
    topic_totals = np.zeros(lda.n_topics, dtype=np.float64)
    doc_topic = np.zeros((len(documents), lda.n_topics), dtype=np.float64)
    for d, (tokens, topics) in enumerate(zip(doc_tokens, assignments)):
        for token, topic in zip(tokens, topics):
            topic_token[topic, token] += 1
            topic_totals[topic] += 1
            doc_topic[d, topic] += 1

    for _ in range(lda.n_iterations):
        for d, (tokens, topics) in enumerate(zip(doc_tokens, assignments)):
            choice_gibbs_sweep(
                lda,
                tokens,
                topics,
                doc_topic[d],
                topic_token,
                topic_totals,
                vocabulary_size,
                rng,
                update_topics=True,
            )

    lda.topic_token_counts = topic_token
    lda.topic_counts = topic_totals
    lda._fitted = True
    return lda


def choice_lda_transform(
    lda: LatentDirichletAllocation, document: Sequence[str]
) -> np.ndarray:
    """Topic distribution of one document, frozen counts, ``choice`` sampling."""
    if not lda.is_fitted:
        raise RuntimeError("LDA model is not fitted")
    assert lda.dictionary is not None
    tokens = np.array(lda.dictionary.doc2ids(document), dtype=np.int64)
    if tokens.size == 0:
        return np.full(lda.n_topics, 1.0 / lda.n_topics)
    rng = np.random.default_rng(lda.seed + 1)
    topics = rng.integers(0, lda.n_topics, size=tokens.size)
    doc_topic_row = np.zeros(lda.n_topics, dtype=np.float64)
    for topic in topics:
        doc_topic_row[topic] += 1
    vocabulary_size = max(1, len(lda.dictionary))
    accumulated = np.zeros(lda.n_topics, dtype=np.float64)
    n_accumulated = 0
    burn_in = max(1, lda.infer_iterations // 2)
    for iteration in range(lda.infer_iterations):
        choice_gibbs_sweep(
            lda,
            tokens,
            topics,
            doc_topic_row,
            lda.topic_token_counts,
            lda.topic_counts,
            vocabulary_size,
            rng,
            update_topics=False,
        )
        if iteration >= burn_in:
            accumulated += doc_topic_row
            n_accumulated += 1
    if n_accumulated == 0:
        accumulated, n_accumulated = doc_topic_row, 1
    distribution = accumulated / n_accumulated + lda.alpha
    return distribution / distribution.sum()
