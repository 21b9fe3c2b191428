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
