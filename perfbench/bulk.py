"""Bulk annotation workloads: ``StreamingAnnotator`` over CSV corpora.

The timed passes run in a worker process (this file run as a script), so
its peak RSS is the program's and set-up covers interpreter start,
imports, ``load_model`` and annotator construction.  The benchmark
process generates the corpora, warms the sketch store and computes the
reference labels, all untimed.

* ``annotate-wide``: store-less passes over the wide-table corpus,
  checked against ``Predictor.predict_tables`` labels.
* ``reannotate-incremental``: the same corpus with a share of tables
  changed, re-annotated against a fresh copy of a store warmed on the
  unchanged corpus; records must equal a store-less annotate of the
  changed corpus exactly (the store's bit-identity contract).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import inputs
import stats
from model import program_env
from replay import guarded_replay

SETUP_SPAWNS = 3
#: Nominal seconds per pass: a run makes ``--seconds / PASS_SECONDS``
#: passes and reports the fastest.  On the 2-core x86 VM the benchmark was
#: defined on, a pass took 1.7-3 s (wide) and 0.3-0.55 s (incremental) as
#: the host's speed drifted, in phases from seconds to minutes long.
PASS_SECONDS = {"annotate-wide": 1.4, "reannotate-incremental": 0.3}
#: Corpus scale: tables per wide layout (two layouts, 14 and 16 columns)
#: and rows per table, ~120k values in all.
TABLES_PER_LAYOUT = 5
MIN_ROWS, MAX_ROWS = 400, 1200
#: The one table in ten an incremental re-annotation finds changed: the
#: middle-sized table of the first layout, so the changed volume is the
#: same for every seed while its content is seeded.
CHANGED = {TABLES_PER_LAYOUT // 2}


# ------------------------------------------------------------------- worker


def worker(args: dict) -> dict:
    """Set up, then annotate the corpus in ``args["passes"]`` timed passes."""
    from repro.ingest import StreamingAnnotator
    from repro.serving import load_model

    started = time.perf_counter()
    model = load_model(args["bundle"])
    load_s = time.perf_counter() - started
    pristine = args.get("store")

    def annotator(index: int):
        if pristine is None:
            return StreamingAnnotator(model)
        # The first pass's copy is made by the parent before the spawn, so
        # set-up times opening the store, not copying it.
        if index:
            store_copy(pristine, args["work"], f"pass{index}")
        return StreamingAnnotator(
            model, sketch_store=store_copy_path(args["work"], f"pass{index}")
        )

    current = annotator(0)
    print(json.dumps({"ready": True, "load_s": load_s}), flush=True)
    if args.get("setup_only"):
        current.close()
        return {}
    passes = []
    while True:
        records, latencies = [], []
        started = previous = time.perf_counter()
        for record in current.annotate_source(args["corpus"]):
            now = time.perf_counter()
            latencies.append(now - previous)
            previous = now
            records.append(record)
        passes.append(
            {
                "seconds": time.perf_counter() - started,
                "latencies_s": latencies,
                "records": records,
                "store": current.sketch_store and current.sketch_store.stats(),
            }
        )
        current.close()
        if len(passes) == args["passes"]:
            break
        current = annotator(len(passes))
    return {"passes": passes, "peak_rss_mb": stats.vm_hwm_mb()}


def store_copy_path(work, tag: str) -> Path:
    return Path(work) / f"store-{tag}"


def store_copy(pristine, work, tag: str) -> Path:
    """A fresh copy of the warmed store, for one pass or the replay."""
    copy = store_copy_path(work, tag)
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(pristine, copy)
    return copy


def spawn_worker(args: dict, work: Path) -> tuple[float, float, dict]:
    """Run one worker; (spawn-to-ready seconds, load_model seconds, result)."""
    if args["store"] is not None:
        store_copy(args["store"], work, "pass0")
    request = work / "worker-args.json"
    request.write_text(json.dumps(args))
    started = time.perf_counter()
    with open(work / "worker.log", "ab") as log:
        process = subprocess.Popen(
            [sys.executable, __file__, str(request)],
            stdout=subprocess.PIPE, stderr=log, env=program_env(),
        )
        try:
            line = process.stdout.readline()
            ready_s = time.perf_counter() - started
            output = process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait()
    ready = json.loads(line) if line.strip() else {}
    if code != 0 or not ready.get("ready"):
        raise RuntimeError(f"annotate worker failed (see {work / 'worker.log'})")
    return ready_s, ready["load_s"], json.loads(output) if output.strip() else {}


# ------------------------------------------------------------------ runs


def run(name: str, seed: int, seconds: float, trace: bool, bundle: Path, work: Path) -> dict:
    from repro.ingest import StreamingAnnotator
    from repro.serving import Predictor, load_model

    tables = inputs.wide_tables(seed, TABLES_PER_LAYOUT, MIN_ROWS, MAX_ROWS)
    original = work / "corpus"
    inputs.write_csv_corpus(tables, original)
    model = load_model(bundle)
    corpus, store, changed = original, None, set()
    if name == "reannotate-incremental":
        changed = CHANGED
        tables = inputs.mutate_tables(seed, tables, changed)
        corpus = work / "corpus-changed"
        inputs.write_csv_corpus(tables, corpus)
        store = work / "store-warm"
        warmer = StreamingAnnotator(model, sketch_store=store)
        for _ in warmer.annotate_source(original):
            pass
        warmer.close()

    # A fixed number of passes (not a deadline), so the sample count, and
    # with it the tail percentile, is the same on every commit.
    passes = max(1, round(seconds / PASS_SECONDS[name]))
    args = {"bundle": str(bundle), "corpus": str(corpus), "work": str(work),
            "passes": passes, "store": None if store is None else str(store)}
    ready, loads = [], []
    for _ in range(SETUP_SPAWNS - 1):
        ready_s, load_s, _ = spawn_worker({**args, "setup_only": True}, work)
        ready.append(ready_s)
        loads.append(load_s)
    ready_s, load_s, timed = spawn_worker(args, work)
    ready.append(ready_s)
    loads.append(load_s)

    # Reference per table id (a record's id is its file's stem): labels of
    # Predictor.predict_tables, or for the incremental workload the whole
    # record of a store-less annotate of the same corpus.
    ids = [Path(inputs.csv_name(table)).stem for table in tables]
    if store is None:
        expected = dict(zip(ids, Predictor(model).predict_tables(tables)))
    else:
        reference = StreamingAnnotator(model).annotate_source(corpus)
        expected = {record["table_id"]: record for record in reference}
    mismatches = []
    for index, annotated in enumerate(timed["passes"]):
        records = {record["table_id"]: record for record in annotated["records"]}
        for table_id in ids:
            record = records.get(table_id)
            if record is None:
                mismatches.append(f"pass {index} {table_id}: no record")
                continue
            if store is not None and record != expected[table_id]:
                mismatches.append(f"pass {index} {table_id}: differs from store-less annotate")
            elif store is None and labels_of(record) != expected[table_id]:
                mismatches.append(
                    f"pass {index} {table_id}: annotated {labels_of(record)} "
                    f"!= reference {expected[table_id]}"
                )

    by_id = dict(zip(ids, tables))
    first = timed["passes"][0]["records"]
    served = [labels_of(record) for record in first]
    truth = [by_id[record["table_id"]].labels for record in first]
    macro, weighted = stats.f1_scores(truth, served)
    # Best of N: a pass does the same work every time, so the fastest pass
    # and each table's fastest record are the estimates the host's slow
    # phases disturb least.  Averaging over passes gave quartile spreads of
    # ~0.2 across seeds, the fastest pass 0.06-0.13.
    rate = len(tables) / min(annotated["seconds"] for annotated in timed["passes"])
    best_ms: dict[str, float] = {}
    for annotated in timed["passes"]:
        for record, seconds in zip(annotated["records"], annotated["latencies_s"]):
            table_id = record["table_id"]
            best_ms[table_id] = min(seconds * 1e3, best_ms.get(table_id, math.inf))
    latency = stats.latency_summary(
        [s * 1e3 for annotated in timed["passes"] for s in annotated["latencies_s"]]
    )
    end_to_end = {
        "setup_s": stats.median(ready),
        "peak_rss_mb": timed["peak_rss_mb"],
        "latency_p50_ms": stats.percentile(best_ms.values(), 0.5),
        "tables_per_s": rate,
        "macro_f1": macro,
        "weighted_f1": weighted,
    }
    per_layer = {
        "latency.p99_ms": latency["tail"],
        "latency.p99_quantile": latency["tail_q"],
        "setup.load_s": stats.median(loads),
        "setup.ready_s": stats.median(ready),
        "setup.warm_s": 0.0,
    }
    meta = {
        "tables": len(tables),
        "values": sum(t.n_rows * t.n_columns for t in tables),
        "passes_s": [annotated["seconds"] for annotated in timed["passes"]],
        "table_latency": {"samples": latency["n"], "tail_quantile": latency["tail_q"]},
        "setup_ready_s": ready,
        "changed_tables": [tables[index].table_id for index in sorted(changed)],
    }
    if store is not None:
        hits = sum(annotated["store"]["hits"] for annotated in timed["passes"])
        lookups = hits + sum(annotated["store"]["misses"] for annotated in timed["passes"])
        per_layer["sketchstore.hit_ratio"] = hits / lookups if lookups else 0.0
        unchanged = [t for index, t in enumerate(tables) if index not in changed]
        # One lookup per column plus one per table topic.
        meta["expected_hit_ratio"] = sum(t.n_columns + 1 for t in unchanged) / sum(
            t.n_columns + 1 for t in tables
        )
    result = {
        "attempted": len(tables) * len(timed["passes"]),
        "failed": len(mismatches),
        "mismatches": mismatches,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "absent": [],
        "meta": meta,
        "correct": not mismatches,
    }
    if trace:
        guarded_replay(result, replay_annotate, model, corpus, store, served, work)
    for path in (original, corpus, store):
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)
    for path in work.glob("store-pass*"):
        shutil.rmtree(path, ignore_errors=True)
    return result


def labels_of(record: dict) -> list[str]:
    return [column["predicted_type"] for column in record["columns"]]


def replay_annotate(result, model, corpus, store, served, work) -> None:
    """Traced replay of one pass; against a fresh store copy if incremental.

    The same pass also runs untraced before and after the traced one, in
    this process, so ``replay.overhead_tables_per_s`` prices the spans
    alone rather than a different process or code path.
    """
    from replay import AnnotateReplay, NoSpans, Spans, layer_metrics
    from repro.features.sketchstore import SketchStore
    from repro.ingest import open_source

    def one_pass(spans):
        sketches = None
        if store is not None:
            sketches = SketchStore(store_copy(store, work, "replay"))
        started = time.perf_counter()
        replay = AnnotateReplay(model, spans, store=sketches)
        composed = [replay.stream(stream) for stream in open_source(corpus)]
        wall_s = time.perf_counter() - started
        if sketches is not None:
            sketches.close()
            shutil.rmtree(store_copy_path(work, "replay"), ignore_errors=True)
        return composed, wall_s

    untraced = [one_pass(NoSpans())]
    spans = Spans()
    composed, wall_s = one_pass(spans)
    untraced.append(one_pass(NoSpans()))
    spans.dump(work / "spans.json")
    metrics = layer_metrics(spans, wall_s)
    untraced_rate = stats.median([len(labels) / seconds for labels, seconds in untraced])
    metrics["replay.overhead_tables_per_s"] = untraced_rate - len(composed) / wall_s
    result["per_layer"].update(metrics)
    if any(labels != served for labels in [composed] + [labels for labels, _ in untraced]):
        result["correct"] = False
        result["mismatches"].append("replay labels differ from the timed run")


if __name__ == "__main__":
    arguments = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(worker(arguments)), flush=True)
