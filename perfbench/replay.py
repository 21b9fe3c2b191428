"""Traced in-process replay: per-layer self times from benchmark-side spans.

The replay drives the same inputs as a timed run through each layer's
public *batch* entry point, in the order the program calls them, with a
benchmark-side span around every call.  Spans carry a name, start, end,
parent and a shared id per request (serve) or table (annotate); they are
kept in memory and written out when the run ends.  A layer's self time is
its spans' durations minus the part covered by their child spans.

Timed runs never execute this module: they run the program as deployed.
The replay's composed labels must equal the timed run's labels.
"""

from __future__ import annotations

import json
import time
import traceback
from contextlib import contextmanager

import numpy as np

#: Benchmark-side root spans; every other span, except ``bench.*``
#: bookkeeping, is a program layer.
ROOTS = ("request", "table")


def is_layer(name: str) -> bool:
    return name not in ROOTS and not name.startswith("bench.")


class Spans:
    """In-memory span recorder with self-time aggregation."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, group, **units):
        record = {
            "name": name,
            "id": group,
            "parent": self._open[-1] if self._open else None,
            "units": units,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record["units"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def layers(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds, summed units."""
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, dict] = {}
        for record, children in zip(self.records, child_time):
            total = record["end"] - record["start"]
            layer = out.setdefault(
                record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "units": {}}
            )
            layer["count"] += 1
            layer["total_s"] += total
            layer["self_s"] += total - children
            for unit, amount in record["units"].items():
                layer["units"][unit] = layer["units"].get(unit, 0) + amount
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)


class NoSpans(Spans):
    """Records nothing: the same replay untraced, to price the tracing."""

    @contextmanager
    def span(self, name: str, group, **units):
        yield units


def guarded_replay(result: dict, replay, *args) -> None:
    """Run a replay; if a layer's entry point is gone, its metrics go absent.

    The timed run's results stand either way: the replay only adds
    per-layer numbers and the fidelity check.
    """
    try:
        replay(result, *args)
    except Exception:
        traceback.print_exc()
        result["absent"].append("replay")


# ------------------------------------------------------------------ serving


class ServeReplay:
    """The serving request path, one layer call at a time.

    Mirrors a single-process server: parse, column fingerprints, feature
    and topic caches keyed by content, featurize misses, infer topics of
    missing tables, one forward pass, one batched decode, JSON encode.
    """

    def __init__(self, model, spans: Spans) -> None:
        self.model = model
        self.column_model = model.column_model
        self.featurizer = model.column_model.featurizer
        self.intent = getattr(model.column_model, "intent_estimator", None)
        self.spans = spans
        self.features: dict[str, np.ndarray] = {}
        self.topics: dict[tuple, np.ndarray] = {}

    def request(self, group, body: bytes) -> list[str]:
        """One ``/v1/predict`` request body; the table's labels."""
        from repro.serving import column_fingerprint
        from repro.tables import Table

        span = self.spans.span
        with span("request", group):
            with span("server.parse", group) as units:
                payload = json.loads(body.decode("utf-8"))
                tables = [Table.from_dict(payload["table"])]
                units["tables"] = 1
            with span("predictor.batch", group, batches=1):
                columns = [column for table in tables for column in table.columns]
                with span("predictor.fingerprint", group, columns=len(columns)):
                    keys = [column_fingerprint(column) for column in columns]
                missing = {}
                for key, column in zip(keys, columns):
                    if key not in self.features and key not in missing:
                        missing[key] = column
                if missing:
                    with span("features.transform", group, columns=len(missing)):
                        rows = self.featurizer.transform_columns(list(missing.values()))
                    for key, row in zip(missing, rows):
                        self.features[key] = row.copy()
                features = np.stack([self.features[key] for key in keys])
                topics = self._topics(group, tables, keys)
                with span("models.forward", group, columns=len(columns)):
                    proba = self.column_model.predict_proba_matrix(features, topics)
                bounds = np.cumsum([table.n_columns for table in tables])[:-1]
                per_table = np.split(proba, bounds)
                with span("crf.decode", group, tables=len(tables)):
                    labels = self.model.labels_from_proba_batch(per_table)
            with span("server.encode", group, tables=1):
                reply = {
                    "table_id": tables[0].table_id,
                    "labels": list(labels[0]),
                    "n_columns": tables[0].n_columns,
                    "model_version": None,
                }
                (json.dumps(reply) + "\n").encode("utf-8")
        return list(labels[0])

    def _topics(self, group, tables, keys):
        if self.intent is None:
            return None
        table_keys, offset = [], 0
        for table in tables:
            table_keys.append(tuple(keys[offset : offset + table.n_columns]))
            offset += table.n_columns
        missing = {}
        for key, table in zip(table_keys, tables):
            if key not in self.topics and key not in missing:
                missing[key] = table
        if missing:
            with self.spans.span("topic.infer", group, tables=len(missing)):
                vectors = self.intent.topic_vectors(list(missing.values()))
            for key, vector in zip(missing, vectors):
                self.topics[key] = vector
            with self.spans.span("bench.tokens", group) as units:
                units["tokens"] = sum(
                    len(self.intent.table_document(table)) for table in missing.values()
                )
        return np.concatenate(
            [
                np.tile(self.topics[key], (table.n_columns, 1))
                for key, table in zip(table_keys, tables)
            ]
        )


# ------------------------------------------------------------------- ingest


class AnnotateReplay:
    """The bulk annotation path of one table stream, layer by layer.

    Without a store: chunks fold into per-column accumulators, which
    finalize into features.  With a store: the stream is sketched
    (fingerprinted while deferred), store hits skip featurization and
    misses are accumulated, finalized and written back, as an incremental
    re-annotation does.  Both end in topic inference over the capped
    table document, one forward pass, CRF marginals and decode.
    """

    def __init__(self, model, spans: Spans, store=None) -> None:
        self.model = model
        self.featurizer = model.column_model.featurizer
        self.intent = getattr(model.column_model, "intent_estimator", None)
        token_cap = self.featurizer.max_tokens_per_column
        if self.intent is not None:
            token_cap = max(token_cap, self.intent.max_tokens_per_table)
        self.token_cap = token_cap
        self.spans = spans
        self.store = store
        if store is not None:
            from repro.features import sketchstore

            # Resolving a section loads its log, as the program's first
            # store lookup does.
            with spans.span("sketchstore.open", "store"):
                self.column_section = store.section(
                    sketchstore.column_section_config(
                        self.featurizer, producer="accumulator", token_cap=token_cap
                    )
                )
                self.topic_section = (
                    store.section(sketchstore.topic_section_config(self.intent))
                    if self.intent is not None
                    else None
                )

    def stream(self, stream) -> list[str]:
        group = stream.table_id
        with self.spans.span("table", group):
            if self.store is None:
                features, tokens, table_key = self._eager(group, stream)
            else:
                features, tokens, table_key = self._sketched(group, stream)
            return self._finish(group, features, tokens, table_key)

    def _chunks(self, group, stream):
        chunks = iter(stream.chunks)
        while True:
            with self.spans.span("ingest.read", group) as units:
                chunk = next(chunks, None)
                units["rows"] = 0 if chunk is None else chunk.n_rows
            if chunk is None:
                return
            yield chunk

    def _eager(self, group, stream):
        span = self.spans.span
        accumulators = [
            self.featurizer.column_accumulator(self.token_cap)
            for _ in range(stream.n_columns)
        ]
        for chunk in self._chunks(group, stream):
            with span("features.accumulate", group) as units:
                for accumulator, values in zip(accumulators, chunk.columns):
                    accumulator.partial_fit(
                        values, start_row=chunk.start_row, row_span=chunk.n_rows
                    )
                units["values"] = chunk.n_rows * len(accumulators)
        with span("features.finalize", group, columns=len(accumulators)):
            features = self.featurizer.finalize_columns(accumulators)
        tokens = [accumulator.token_list() for accumulator in accumulators]
        return features, tokens, None

    def _sketched(self, group, stream):
        from repro.features import sketchstore

        span = self.spans.span
        store = self.store
        sketcher = sketchstore.StreamSketcher(
            self.featurizer, stream.n_columns, token_cap=self.token_cap
        )
        for chunk in self._chunks(group, stream):
            with span("sketchstore.fingerprint", group) as units:
                sketcher.feed(chunk)
                units["values"] = chunk.n_rows * stream.n_columns
        fingerprints = sketcher.fingerprints()
        rows, tokens = [], []
        for index, fingerprint in enumerate(fingerprints):
            row = column_tokens = None
            if not sketcher.flushed:
                with span("sketchstore.get", group, lookups=1):
                    sketch = store.get(self.column_section, fingerprint)
                row = sketchstore.sketch_row(sketch, self.featurizer.n_features)
                column_tokens = sketchstore.sketch_tokens(sketch)
            if row is None or column_tokens is None:
                with span("features.accumulate", group, values=sketcher.n_rows):
                    accumulator = sketcher.accumulator(index)
                with span("features.finalize", group, columns=1):
                    row = self.featurizer.raw_from_accumulator(accumulator)
                column_tokens = accumulator.token_list()
                sketch = sketchstore.column_sketch(
                    self.featurizer, accumulator, sketcher.n_rows, row=row
                )
                with span("sketchstore.put", group, puts=1):
                    store.put(self.column_section, fingerprint, sketch)
            rows.append(row)
            tokens.append(column_tokens)
        with span("features.finalize", group, columns=0):
            features = self.featurizer.standardize_matrix(np.stack(rows))
        return features, tokens, sketchstore.combine_fingerprints(fingerprints)

    def _finish(self, group, features, tokens, table_key) -> list[str]:
        from repro.types import TYPE_TO_INDEX

        span = self.spans.span
        topics = None
        if self.intent is not None:
            vector = None
            if table_key is not None:
                from repro.features import sketchstore

                with span("sketchstore.get", group, lookups=1):
                    sketch = self.store.get(self.topic_section, table_key)
                vector = sketchstore.topic_vector_from_sketch(sketch, self.intent.n_topics)
            if vector is None:
                document: list[str] = []
                for column_tokens in tokens:
                    document.extend(column_tokens)
                    if len(document) >= self.intent.max_tokens_per_table:
                        break
                document = document[: self.intent.max_tokens_per_table]
                with span("topic.infer", group, tables=1, tokens=len(document)):
                    vector = self.intent.topic_vector_from_tokens(document)
                if table_key is not None:
                    with span("sketchstore.put", group, puts=1):
                        self.store.put(
                            self.topic_section, table_key, {"topic": vector.tolist()}
                        )
            topics = np.tile(vector, (features.shape[0], 1))
        with span("models.forward", group, columns=features.shape[0]):
            proba = self.model.column_model.predict_proba_matrix(features, topics)
        with span("crf.marginals", group, tables=1):
            marginals = self.model.marginals_from_proba(proba)
        with span("crf.decode", group, tables=1):
            labels = self.model.labels_from_proba(proba)
        # Touch the confidences the way a record does, so marginals are used.
        [float(marginals[i, TYPE_TO_INDEX[label]]) for i, label in enumerate(labels)]
        return labels


# ------------------------------------------------------------------ metrics

#: Module of each span name, for per-module self-time shares.
MODULES = {
    "server.parse": "serving.server",
    "server.encode": "serving.server",
    "predictor.batch": "serving.predictor",
    "predictor.fingerprint": "serving.predictor",
    "features.transform": "features",
    "features.accumulate": "features",
    "features.finalize": "features",
    "sketchstore.fingerprint": "features.sketchstore",
    "sketchstore.get": "features.sketchstore",
    "sketchstore.put": "features.sketchstore",
    "sketchstore.open": "features.sketchstore",
    "topic.infer": "topic",
    "models.forward": "models",
    "crf.decode": "crf",
    "crf.marginals": "crf",
    "ingest.read": "ingest",
}


def layer_metrics(spans: Spans, wall_s: float) -> dict[str, float]:
    """Per-layer unit costs (self time per unit of work) and coverage.

    A layer the replay never entered reports 0 (no work done).
    ``replay.coverage`` is the share of the replay's wall time, less the
    benchmark's own bookkeeping spans, covered by layer self times.
    """
    layers = spans.layers()

    def per(name: str, unit: str, scale: float) -> float:
        layer = layers.get(name)
        amount = layer["units"].get(unit, 0) if layer else 0
        return layer["self_s"] / amount * scale if amount else 0.0

    def units(name: str, unit: str) -> float:
        layer = layers.get(name)
        return float(layer["units"].get(unit, 0)) if layer else 0.0

    batch = layers.get("predictor.batch")
    tables = units("topic.infer", "tables")
    tokens = units("topic.infer", "tokens") + units("bench.tokens", "tokens")
    bookkeeping = sum(
        layer["total_s"] for name, layer in layers.items() if name.startswith("bench.")
    )
    covered = sum(layer["self_s"] for name, layer in layers.items() if is_layer(name))
    timed_wall = max(wall_s - bookkeeping, 1e-12)
    metrics = {
        "server.parse_us_per_table": per("server.parse", "tables", 1e6),
        "server.encode_us_per_table": per("server.encode", "tables", 1e6),
        "predictor.fingerprint_us_per_column": per("predictor.fingerprint", "columns", 1e6),
        "predictor.batch_ms": batch["total_s"] / batch["count"] * 1e3 if batch else 0.0,
        "features.transform_us_per_column": per("features.transform", "columns", 1e6),
        "features.accumulate_us_per_value": per("features.accumulate", "values", 1e6),
        "features.finalize_us_per_column": per("features.finalize", "columns", 1e6),
        "topic.infer_ms_per_table": per("topic.infer", "tables", 1e3),
        "topic.tokens_per_table": tokens / tables if tables else 0.0,
        "models.forward_us_per_column": per("models.forward", "columns", 1e6),
        "crf.decode_us_per_table": per("crf.decode", "tables", 1e6),
        "crf.marginals_us_per_table": per("crf.marginals", "tables", 1e6),
        "ingest.read_us_per_row": per("ingest.read", "rows", 1e6),
        "ingest.rows": units("ingest.read", "rows"),
        "sketchstore.get_us": per("sketchstore.get", "lookups", 1e6),
        "sketchstore.put_us": per("sketchstore.put", "puts", 1e6),
        "sketchstore.fingerprint_us_per_value": per("sketchstore.fingerprint", "values", 1e6),
        "replay.coverage": covered / timed_wall,
        "replay.wall_s": wall_s,
    }
    for module in sorted(set(MODULES.values())):
        self_s = sum(
            layer["self_s"] for name, layer in layers.items() if MODULES.get(name) == module
        )
        metrics[f"share.{module}"] = self_s / timed_wall
    return metrics
