"""NDJSON (newline-delimited JSON objects) source adapter.

Each line is one JSON object = one row.  The first object fixes the
column schema (its keys, in insertion order) — a streaming reader cannot
widen columns it has already emitted, so later objects introducing new
keys are a structural error.  Missing keys and JSON ``null`` both map to
the missing cell (the empty string); other scalars keep their JSON
spelling (``true``/``false``, ``1.5``); nested arrays/objects are stored
as compact JSON text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.ingest.base import (
    DEFAULT_CHUNK_ROWS,
    IngestError,
    SourceAdapter,
    register_adapter,
)
from repro.tables import Table, TableChunk, TableStream

__all__ = ["NdjsonAdapter"]


def _cell(value: object) -> str:
    """Canonical string form of one JSON cell value."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


@register_adapter
class NdjsonAdapter(SourceAdapter):
    """One table per ``.ndjson`` file; one JSON object per line."""

    name = "ndjson"
    suffixes = (".ndjson",)

    def streams(
        self, path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[TableStream]:
        path = Path(path)
        try:
            handle = path.open(encoding="utf-8-sig")
        except OSError as exc:
            raise IngestError(f"cannot open: {exc}", source=path) from exc

        def rows() -> Iterator[dict]:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:  # bad or too-deep JSON
                    raise IngestError(
                        f"malformed NDJSON on line {line_number}: {exc}", source=path
                    ) from exc
                if not isinstance(record, dict):
                    raise IngestError(
                        f"line {line_number} is not a JSON object "
                        f"(got {type(record).__name__})",
                        source=path,
                    )
                yield record

        row_iter = rows()
        try:
            first = next(row_iter)
        except StopIteration:
            handle.close()
            raise IngestError("empty NDJSON file (no rows)", source=path) from None
        except IngestError:
            handle.close()
            raise
        headers = tuple(first.keys())
        header_set = set(headers)

        def chunks() -> Iterator[TableChunk]:
            try:
                block: list[list[str]] = [[] for _ in headers]
                start_row = 0
                block_rows = 0
                for record_number, record in enumerate(
                    _chain_first(first, row_iter), start=1
                ):
                    unknown = set(record) - header_set
                    if unknown:
                        raise IngestError(
                            f"object {record_number} introduces keys not in the "
                            f"first object's schema: {sorted(unknown)}",
                            source=path,
                        )
                    for j, key in enumerate(headers):
                        block[j].append(_cell(record.get(key)))
                    block_rows += 1
                    if block_rows >= chunk_rows:
                        yield TableChunk(
                            columns=tuple(tuple(values) for values in block),
                            start_row=start_row,
                        )
                        start_row += block_rows
                        block_rows = 0
                        block = [[] for _ in headers]
                if block_rows:
                    yield TableChunk(
                        columns=tuple(tuple(values) for values in block),
                        start_row=start_row,
                    )
            finally:
                handle.close()

        yield TableStream(
            headers=headers,
            chunks=chunks(),
            table_id=path.stem,
            metadata={"source": str(path), "format": self.name},
        )

    def write_fixture(self, table: Table, path: str | Path) -> Path:
        path = Path(path)
        headers = [
            column.header if column.header is not None else f"col{i}"
            for i, column in enumerate(table.columns)
        ]
        with path.open("w", encoding="utf-8") as handle:
            for row in table.rows():
                record = dict(zip(headers, row))
                handle.write(json.dumps(record, ensure_ascii=False))
                handle.write("\n")
        return path


def _chain_first(first: dict, rest: Iterator[dict]) -> Iterator[dict]:
    yield first
    yield from rest
