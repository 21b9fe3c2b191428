"""Small statistics helpers shared by every workload."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is trusted only with this many samples beyond it.
TAIL_SAMPLES = 10


def tail_quantile(n: int, cap: float = 0.99) -> float:
    """The highest quantile (at most ``cap``) with >= 10 samples beyond it.

    Never below the median: a phase too short for any tail reports p50.
    """
    if n <= 0:
        return 0.5
    return max(0.5, min(cap, 1.0 - TAIL_SAMPLES / n))


def percentile(values, q: float) -> float:
    """Nearest-rank quantile; ``inf`` entries (failures) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_ms) -> dict:
    """p50 and the trusted tail percentile of one phase, failures as ``inf``."""
    q = tail_quantile(len(latencies_ms))
    return {
        "n": len(latencies_ms),
        "p50": percentile(latencies_ms, 0.5),
        "tail_q": q,
        "tail": percentile(latencies_ms, q),
    }


def pooled_rate(rounds) -> float:
    """Tables/s over ``(tables served, seconds)`` capacity rounds together.

    Pooling averages the host's speed over the whole run.  A round that
    issued nothing adds neither tables nor time, so it never pulls the
    rate towards 0.
    """
    seconds = sum(elapsed for _, elapsed in rounds)
    return sum(tables for tables, _ in rounds) / seconds if seconds > 0 else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def f1_scores(truth: list[list[str]], predicted: list[list[str] | None]) -> tuple[float, float]:
    """(macro F1, support-weighted F1) of per-table label lists.

    Tables are flattened column by column; a table whose prediction is
    missing (a failed request) counts every one of its columns as wrong.
    """
    from repro.evaluation.metrics import macro_f1, support_weighted_f1

    y_true, y_pred = [], []
    for labels, guess in zip(truth, predicted):
        y_true.extend(labels)
        y_pred.extend(guess if guess is not None else [""] * len(labels))
    return macro_f1(y_true, y_pred), support_weighted_f1(y_true, y_pred)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
