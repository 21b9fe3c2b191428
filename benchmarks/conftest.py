"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper.  The
experiment configuration is selected with the ``REPRO_BENCH_PRESET``
environment variable (``tiny`` / ``fast`` / ``large``; default ``fast``) so
the same harness scales from a quick smoke run to an overnight job.
Regenerated reports are printed and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig

RESULTS_DIR = Path(__file__).parent / "results"

# The per-value and per-table reference implementations live beside the
# tests (tests/oracles.py); appended, not prepended, so tests/conftest.py
# never shadows this module.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

_PRESETS = {
    "tiny": ExperimentConfig.tiny,
    "fast": ExperimentConfig.fast,
    "large": ExperimentConfig.large,
}


def bench_config() -> ExperimentConfig:
    """The experiment configuration used by all benchmarks in this run."""
    preset = os.environ.get("REPRO_BENCH_PRESET", "fast").lower()
    if preset not in _PRESETS:
        raise ValueError(f"unknown REPRO_BENCH_PRESET {preset!r}")
    return _PRESETS[preset]()


def emit(name: str, text: str) -> None:
    """Print a regenerated report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result under benchmarks/results/.

    CI uploads these as artifacts so that numbers like columns/sec are a
    tracked series, not a one-off claim in a PR description.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_once(benchmark, function, *args, **kwargs):
    """Run a benchmark exactly once (model training is far too slow to repeat)."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return bench_config()
