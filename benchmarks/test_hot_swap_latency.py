"""Hot-swap latency: p99 request latency during swaps vs steady state.

Zero-downtime hot swap is only "zero downtime" if swapping a model under
load does not meaningfully degrade tail latency.  This benchmark stands up
a real registry-backed HTTP server, measures per-request latency from a
closed-loop client pool in two phases — steady state (no swaps) and a swap
storm (continuous admin reloads alternating between two published
versions) — and asserts that the swap-phase p99 stays within the 2x budget
of the steady-state p99.

The tracked trend metric is ``p99_headroom`` = (2 * steady p99) / swap p99:
1.0 means exactly at budget, higher is better.  CI gates on it via
``benchmarks/baselines.json`` and uploads the JSON to the bench-trend
artifact flow.
"""

from __future__ import annotations

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from conftest import emit, emit_json, run_once

from repro.experiments.pipeline import build_corpus, make_model_factories
from repro.obs import percentile
from repro.registry import ModelRegistry
from repro.serving import Predictor, serve_in_thread

#: Latency floor (seconds) for the budget comparison: below this, "p99"
#: measures socket and scheduler noise, not the serving path, and a 2x
#: ratio would be meaningless jitter arithmetic.
STEADY_FLOOR_SECONDS = 0.020


def _measure_phase(
    port: int, payload: bytes, n_clients: int, requests_per_client: int
) -> list[float]:
    """Closed-loop load: each client sends sequential requests, timing each."""

    def client(_index: int) -> list[float]:
        latencies = []
        for _ in range(requests_per_client):
            started = time.perf_counter()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                assert reply.status == 200
                reply.read()
            latencies.append(time.perf_counter() - started)
        return latencies

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        results = list(pool.map(client, range(n_clients)))
    return sorted(latency for batch in results for latency in batch)


def _hot_swap_comparison(config, registry_root) -> dict:
    dataset = build_corpus(config)
    tables = dataset.multi_column().tables
    split = max(1, int(len(tables) * 0.8))
    train, serve = tables[:split], tables[split:] or tables[:1]
    factory = make_model_factories(config)["Base"]

    registry = ModelRegistry(registry_root)
    v1 = registry.publish(factory().fit(train), "bench")
    registry.promote("bench", v1.version)
    v2 = registry.publish(factory().fit(train[: max(1, len(train) // 2)]), "bench")

    table_payload = json.dumps({"table": serve[0].to_dict()}).encode("utf-8")
    n_clients, per_client = 8, 12

    predictor = Predictor.from_registry(registry, "bench")
    with serve_in_thread(
        predictor, port=0, registry=registry, model_name="bench"
    ) as handle:
        port = handle.port
        _measure_phase(port, table_payload, 2, 4)  # warm caches + code paths
        steady = _measure_phase(port, table_payload, n_clients, per_client)

        # Swap storm: alternate versions as fast as reloads complete while
        # the same load profile runs.
        stop = False

        def swapper() -> int:
            swaps = 0
            versions = [v2.version, v1.version]
            while not stop:
                target = versions[swaps % 2]
                body = json.dumps({"version": target}).encode("utf-8")
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/admin/reload",
                    data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as reply:
                    assert reply.status == 200
                swaps += 1
            return swaps

        with ThreadPoolExecutor(max_workers=1) as admin:
            swap_future = admin.submit(swapper)
            try:
                swapping = _measure_phase(
                    port, table_payload, n_clients, per_client
                )
            finally:
                stop = True
            n_swaps = swap_future.result(timeout=30)

    steady_p99 = percentile(steady, 0.99)
    swap_p99 = percentile(swapping, 0.99)
    budget = 2.0 * max(steady_p99, STEADY_FLOOR_SECONDS)
    return {
        "n_requests_per_phase": n_clients * per_client,
        "n_swaps_during_storm": n_swaps,
        "steady": {
            "p50_ms": percentile(steady, 0.50) * 1e3,
            "p99_ms": steady_p99 * 1e3,
        },
        "swap": {
            "p50_ms": percentile(swapping, 0.50) * 1e3,
            "p99_ms": swap_p99 * 1e3,
        },
        "p99_budget_ms": budget * 1e3,
        "p99_headroom": budget / max(swap_p99, 1e-9),
    }


def test_hot_swap_latency(benchmark, config, tmp_path):
    result = run_once(benchmark, _hot_swap_comparison, config, tmp_path / "registry")
    lines = [
        "Hot-swap latency: p99 during swap storm vs steady state",
        f"  requests/phase : {result['n_requests_per_phase']}",
        f"  swaps in storm : {result['n_swaps_during_storm']}",
        f"  steady p50/p99 : {result['steady']['p50_ms']:.1f} / "
        f"{result['steady']['p99_ms']:.1f} ms",
        f"  swap   p50/p99 : {result['swap']['p50_ms']:.1f} / "
        f"{result['swap']['p99_ms']:.1f} ms",
        f"  p99 budget     : {result['p99_budget_ms']:.1f} ms (2x steady)",
        f"  p99 headroom   : {result['p99_headroom']:.2f}x",
    ]
    emit("hot_swap_latency", "\n".join(lines))
    emit_json("hot_swap_latency", result)

    # The storm must have actually swapped while we measured, and the swap
    # phase p99 must stay within the 2x steady-state budget.
    assert result["n_swaps_during_storm"] >= 2
    assert result["p99_headroom"] >= 1.0, (
        f"p99 during swaps {result['swap']['p99_ms']:.1f}ms exceeds "
        f"2x steady-state budget {result['p99_budget_ms']:.1f}ms"
    )
