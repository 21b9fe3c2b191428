"""Adapter for the native tables-JSONL corpus format.

``.jsonl`` files written by :func:`repro.tables.tables_to_jsonl` (one
:class:`~repro.tables.Table` per line, values + headers + labels) ingest
back as one stream per line, re-chunked to ``chunk_rows``.  This lets
``repro-sato annotate`` run over generated corpora and evaluation suites
exactly like over external CSV/SQLite sources.
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
from repro.tables import Table, TableStream, table_stream
from repro.tables.io import tables_to_jsonl

__all__ = ["TablesJsonlAdapter"]


@register_adapter
class TablesJsonlAdapter(SourceAdapter):
    """One table per line of a native-format ``.jsonl`` corpus file."""

    name = "tables-jsonl"
    suffixes = (".jsonl",)

    def streams(
        self, path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[TableStream]:
        path = Path(path)
        try:
            handle = path.open(encoding="utf-8-sig")
        except OSError as exc:
            raise IngestError(f"cannot open: {exc}", source=path) from exc
        with handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except (ValueError, RecursionError) as exc:  # bad or too-deep JSON
                    raise IngestError(
                        f"malformed JSONL on line {line_number}: {exc}", source=path
                    ) from exc
                if not isinstance(payload, dict) or "columns" not in payload:
                    raise IngestError(
                        f"line {line_number} is not a serialised table "
                        "(expected an object with a 'columns' key)",
                        source=path,
                    )
                table = Table.from_dict(payload)
                if table.table_id is None:
                    table.table_id = f"{path.stem}:{line_number}"
                stream = table_stream(table, chunk_rows)
                stream.metadata.setdefault("source", str(path))
                stream.metadata.setdefault("format", self.name)
                yield stream

    def write_fixture(self, table: Table, path: str | Path) -> Path:
        path = Path(path)
        tables_to_jsonl([table], path)
        return path
