"""Layout helpers for padded/masked batched model-core inference.

Featurization is vectorized (``repro.features.engine``) and requests are
micro-batched (``repro.serving.scheduler``); the column network forward and
the CRF Viterbi decode are batched across a whole micro-batch too
(:meth:`~repro.models.sato.SatoModel.predict_tables`):

* **Forward** — every column of every table is flattened onto one *column
  axis* (table boundaries recorded as offsets), featurized in a single
  batched call and pushed through the column network as one matrix, so each
  layer is one matmul over ``sum(n_columns)`` rows regardless of how many
  tables the batch holds.
* **Decode** — the per-table column-wise score matrices are packed into a
  padded ``(n_tables, max_cols, n_types)`` log-unary tensor plus a
  ``lengths`` vector, and :meth:`~repro.crf.LinearChainCRF.viterbi_batch`
  decodes every chain simultaneously with length masking: one vectorised
  recurrence step per column *position* instead of per column.  Padded
  positions are never read, so the pad value is irrelevant.

This module holds the two layout steps: :func:`split_by_table` (column axis
back to per-table rows) and :func:`pad_unaries` (per-table scores to one
padded log-unary tensor).  The per-table decode (``SatoModel.predict_table``)
is the bit-exact parity oracle: for the same fitted model the batched path
produces the same decoded labels, including on 1-column tables and
tie-breaking unaries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tables import Table

__all__ = ["pad_unaries", "split_by_table"]

#: Epsilon of every log-unary, shared with ``repro.models.sato``: one
#: constant keeps batched log-unaries bit-identical to the per-table path's.
_LOG_EPS = 1e-12


def split_by_table(rows: np.ndarray, tables: Sequence[Table]) -> list[np.ndarray]:
    """Split a column-axis row matrix back into one slice per table.

    Inverse of flattening a batch of tables onto the column axis: ``rows``
    holds one row per column of every table, in table order; the returned
    views carry ``tables[i].n_columns`` rows each.

    Examples:
        >>> import numpy as np
        >>> from repro.tables import Column, Table
        >>> one = Table(columns=[Column(values=["a"])])
        >>> two = Table(columns=[Column(values=["b"]), Column(values=["c"])])
        >>> parts = split_by_table(np.arange(3)[:, None], [one, two])
        >>> [part.ravel().tolist() for part in parts]
        [[0], [1, 2]]
    """
    split: list[np.ndarray] = []
    offset = 0
    for table in tables:
        split.append(rows[offset : offset + table.n_columns])
        offset += table.n_columns
    return split


def pad_unaries(
    probabilities: Sequence[np.ndarray], n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-table score matrices into a padded log-unary tensor.

    Parameters
    ----------
    probabilities:
        One ``(n_columns, n_states)`` column-wise score matrix per table.
    n_states:
        Number of semantic types (the tensor's last axis).

    Returns
    -------
    ``(unaries, lengths)`` where ``unaries`` has shape ``(n_tables,
    max_cols, n_states)`` holding ``log(p + eps)`` in real positions and
    zeros in padding, and ``lengths`` holds each table's true column count.
    The scatter is fully vectorised: one concatenation, one ``log`` over
    every real row, one fancy-indexed assignment.

    Examples:
        >>> import numpy as np
        >>> unaries, lengths = pad_unaries(
        ...     [np.full((1, 2), 0.5), np.full((3, 2), 0.25)], n_states=2
        ... )
        >>> unaries.shape, lengths.tolist()
        ((2, 3, 2), [1, 3])
        >>> bool(np.all(unaries[0, 1:] == 0.0))  # padding rows stay zero
        True
        >>> bool(np.allclose(unaries[1], np.log(0.25 + 1e-12)))
        True
    """
    lengths = np.array([p.shape[0] for p in probabilities], dtype=np.int64)
    n_tables = len(lengths)
    max_cols = int(lengths.max()) if n_tables else 0
    unaries = np.zeros((n_tables, max_cols, n_states), dtype=np.float64)
    total = int(lengths.sum())
    if total:
        flat = np.concatenate([np.asarray(p, dtype=np.float64) for p in probabilities])
        rows = np.repeat(np.arange(n_tables), lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        positions = np.arange(total) - starts
        unaries[rows, positions] = np.log(flat + _LOG_EPS)
    return unaries, lengths
