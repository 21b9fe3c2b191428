"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
from replay import Spans  # noqa: E402


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    # Inputs read the shipped spec relative to the repository root.
    monkeypatch.chdir(HERE.parent)


def serve_bytes(seed: int) -> bytes:
    tables = inputs.generator_tables(seed, "serve-cold", 6, "t", singleton_rate=0.3)
    requests = [inputs.http_post("/v1/predict", {"table": inputs.table_payload(t)}) for t in tables]
    schedule = inputs.poisson_offsets(seed, 8, 20.0)
    return b"".join(requests) + schedule.tobytes()


def corpus_bytes(seed: int, directory: Path) -> bytes:
    tables = inputs.wide_tables(seed, 2, 5, 9)
    tables = inputs.mutate_tables(seed, tables, {1})
    inputs.write_csv_corpus(tables, directory)
    return b"".join(path.read_bytes() for path in sorted(directory.iterdir()))


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    assert serve_bytes(5) == serve_bytes(5)
    assert serve_bytes(5) != serve_bytes(6)
    first = corpus_bytes(5, tmp_path / "a")
    assert first == corpus_bytes(5, tmp_path / "b")
    assert first != corpus_bytes(6, tmp_path / "c")


def test_corpus_shape_does_not_depend_on_the_seed():
    shapes = [
        [(t.n_rows, t.n_columns) for t in inputs.wide_tables(seed, 3, 10, 30)]
        for seed in (1, 2)
    ]
    assert shapes[0] == shapes[1]
    assert [rows for rows, _ in shapes[0][:3]] == [10, 20, 30]


def test_mutation_changes_every_column_of_changed_tables_only():
    from repro.features.sketchstore import values_fingerprint

    tables = inputs.wide_tables(3, 2, 5, 9)
    changed = inputs.mutate_tables(3, tables, {0})
    for index, (before, after) in enumerate(zip(tables, changed)):
        same = [
            values_fingerprint(a.values) == values_fingerprint(b.values)
            for a, b in zip(before.columns, after.columns)
        ]
        assert all(same) == (index != 0) and any(same) == (index != 0)
        assert before.labels == after.labels


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_quantile(1000) == pytest.approx(0.99)
    assert stats.tail_quantile(5000) == pytest.approx(0.99)
    assert stats.tail_quantile(200) == pytest.approx(0.95)
    assert stats.tail_quantile(12) == 0.5
    values = [float(v) for v in range(1, 201)]
    summary = stats.latency_summary(values)
    assert summary["tail"] == 190.0
    assert sum(v > summary["tail"] for v in values) == 10
    assert summary["p50"] == 100.0


def test_failures_count_as_infinite_latency():
    values = [float(v) for v in range(1, 191)] + [math.inf] * 10
    assert stats.latency_summary(values)["tail"] == 190.0
    values[0] = math.inf  # an eleventh failure reaches the tail
    assert stats.latency_summary(values)["tail"] == math.inf


def test_a_capacity_round_that_sent_nothing_does_not_lower_the_rate():
    rounds = [(40, 2.0), (30, 1.5)]
    assert stats.pooled_rate(rounds) == 20.0
    assert stats.pooled_rate(rounds + [(0, 0.0), (0, 0.0)]) == 20.0
    # A round whose requests all failed did take time: it lowers the rate.
    assert stats.pooled_rate(rounds + [(0, 1.5)]) == 14.0


class _Ok(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_closed_loop_flags_a_pool_that_runs_out():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Ok)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        requests = [inputs.http_post("/v1/predict", {"table": {"columns": []}})] * 3
        replies, elapsed, ran_out = loadgen.closed_loop(port, requests, 30.0)
        assert ran_out and sorted(replies) == [0, 1, 2] and elapsed < 30.0
        replies, elapsed, ran_out = loadgen.closed_loop(port, requests, 30.0, first=3)
        assert ran_out and replies == {} and elapsed == 0.0
        assert stats.pooled_rate([(40, 2.0), (len(replies), elapsed)]) == 20.0
        replies, _, ran_out = loadgen.closed_loop(port, requests * 1000, 0.2)
        assert not ran_out and all(reply.ok for reply in replies.values())
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_f1_wrapper_agrees_with_the_evaluation_module():
    from repro.evaluation.metrics import macro_f1, support_weighted_f1

    truth = [["age", "city"], ["age"]]
    predicted = [["age", "age"], None]  # the second request failed
    macro, weighted = stats.f1_scores(truth, predicted)
    # age: precision 1/2, recall 1/2 -> F1 1/2; city: F1 0.
    assert macro == pytest.approx(0.25)
    assert weighted == pytest.approx((2 * 0.5 + 1 * 0.0) / 3)
    flat_true, flat_pred = ["age", "city", "age"], ["age", "age", ""]
    assert macro == pytest.approx(macro_f1(flat_true, flat_pred))
    assert weighted == pytest.approx(support_weighted_f1(flat_true, flat_pred))


def test_self_time_excludes_child_spans():
    spans = Spans()
    with spans.span("request", 1):
        with spans.span("predictor.batch", 1):
            with spans.span("models.forward", 1, columns=4):
                sum(range(20000))
    layers = spans.layers()
    forward = layers["models.forward"]
    batch = layers["predictor.batch"]
    assert forward["units"] == {"columns": 4}
    assert batch["self_s"] == pytest.approx(batch["total_s"] - forward["total_s"])
    assert layers["request"]["self_s"] >= 0.0
