"""Seeded benchmark inputs: tables, request bodies, schedules and CSV corpora.

Every input is a pure function of the workload seed: the same seed gives
byte-identical request bodies, schedules and files, another seed gives
different ones.  Sub-streams are derived from ``(seed, purpose)`` with a
stable hash, so adding a new purpose never shifts an existing one.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

def derive_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for one purpose, stable across processes and runs."""
    digest = hashlib.blake2b(f"{seed}:{purpose}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little") & 0x7FFFFFFF


def generator_tables(
    seed: int, purpose: str, n_tables: int, prefix: str, singleton_rate: float
) -> list:
    """Small generator tables (4-18 rows), uniquely named."""
    from repro.corpus import CorpusConfig, CorpusGenerator

    config = CorpusConfig(
        n_tables=n_tables,
        min_rows=4,
        max_rows=18,
        singleton_rate=singleton_rate,
        seed=derive_seed(seed, purpose),
    )
    tables = CorpusGenerator(config).generate()
    for index, table in enumerate(tables):
        table.table_id = f"{prefix}{index:05d}"
    return tables


def table_payload(table) -> dict:
    """The wire form of a table: identity and values only, no headers."""
    return {
        "table_id": table.table_id,
        "columns": [{"values": list(column.values)} for column in table.columns],
    }


def http_post(path: str, payload: dict) -> bytes:
    """A complete, pre-encoded HTTP/1.1 POST request."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def poisson_offsets(seed: int, n: int, rate: float) -> np.ndarray:
    """Due times (seconds from phase start) of an open-loop Poisson schedule."""
    rng = np.random.default_rng(derive_seed(seed, "schedule"))
    gaps = rng.exponential(1.0 / rate, size=n)
    return np.concatenate([[0.0], np.cumsum(gaps[:-1])])


# --------------------------------------------------------------- CSV corpora

#: The shipped wide-table layout, scaled from a few rows to bulk sizes.
WIDE_SPEC = Path("specs") / "wide_tables.json"


def wide_tables(seed: int, tables_per_layout: int, min_rows: int, max_rows: int):
    """Tables built from the wide-table spec layout, scaled up and reseeded.

    Row counts are spread evenly over ``[min_rows, max_rows]`` and are the
    same for every seed (only the values change), so corpus size, and
    with it the work per pass, does not vary from seed to seed.
    """
    from repro.corpus.spec import build_corpus, parse_spec

    payload = json.loads(WIDE_SPEC.read_text(encoding="utf-8"))
    payload["seed"] = derive_seed(seed, "wide")
    step = (max_rows - min_rows) / max(1, tables_per_layout - 1)
    payload["tables"] = [
        {
            **layout,
            "name": f"{layout['name']}_{index:02d}",
            "count": 1,
            "rows": {"min": round(min_rows + index * step), "max": round(min_rows + index * step)},
        }
        for layout in payload["tables"]
        for index in range(tables_per_layout)
    ]
    return build_corpus(parse_spec(payload)).tables


def csv_name(table) -> str:
    return table.table_id.replace("/", "__") + ".csv"


def write_csv_corpus(tables, directory: Path) -> None:
    """One CSV per table (header row first), in a fresh directory."""
    directory.mkdir(parents=True, exist_ok=False)
    for table in tables:
        with open(directory / csv_name(table), "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([column.header for column in table.columns])
            writer.writerows(zip(*(column.values for column in table.columns)))


def mutate_tables(seed: int, tables, changed: set[int]) -> list:
    """Copies of ``tables`` where the tables at indices ``changed`` changed.

    A changed table gets ~5% of its rows appended again as seeded copies
    of existing rows (an append-style update), so every one of its
    columns changes content while its semantic types stay the same.
    """
    from repro.tables import Column, Table

    rng = np.random.default_rng(derive_seed(seed, "mutate"))
    out = []
    for index, table in enumerate(tables):
        if index not in changed:
            out.append(table)
            continue
        n_rows = table.n_rows
        extra = rng.choice(n_rows, size=max(1, n_rows // 20), replace=True).tolist()
        columns = [
            Column(
                values=list(column.values) + [column.values[row] for row in extra],
                header=column.header,
                semantic_type=column.semantic_type,
            )
            for column in table.columns
        ]
        out.append(Table(columns=columns, table_id=table.table_id))
    return out
