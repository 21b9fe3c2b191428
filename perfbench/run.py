"""Benchmark of the full Sato variant: cold serving and bulk annotation.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 14 --trace 0

Workloads: ``serve-cold`` (``repro-sato serve`` over HTTP), ``annotate-wide``
and ``reannotate-incremental`` (``StreamingAnnotator`` over CSV files).  The
model is the ``"Sato"`` factory of the fast experiment preset, trained once
per source tree (see ``model.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced in-process replay with
``--trace 1``, with the names and units ``BENCHMARK.json`` lists.  Run
metadata, every label mismatch and the names of per-layer metrics the
program no longer exposes go to standard error and to
``.bench_work/<run>/meta.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import bulk
import model
import serve

#: The benchmark definition: workload names and every metric's name and unit.
DEFINITION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUNNERS = {
    "serve-cold": serve.run,
    "annotate-wide": bulk.run,
    "reannotate-incremental": bulk.run,
}


def metric_units(definition: dict, section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in definition[section]}


def run_metadata(seed: int, bundle: Path) -> dict:
    import numpy

    from repro.serving import load_model, model_fingerprint

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "model_bundle": str(bundle),
        "model_fingerprint": model_fingerprint(load_model(bundle)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_env": {
            key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src", "repro", "__init__.py").is_file():
        print("perfbench: run from a repository checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")

    definition = json.loads(DEFINITION.read_text(encoding="utf-8"))
    bundle = model.ensure_bundle()
    work = Path(".bench_work") / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    meta = run_metadata(args.seed, bundle)
    started = time.perf_counter()
    result = RUNNERS[args.workload](args.workload, args.seed, args.seconds, bool(args.trace), bundle, work)
    meta.update(workload=args.workload, trace=args.trace, run_s=time.perf_counter() - started)
    meta.update(result["meta"])

    wanted = metric_units(definition, "per_layer" if args.trace else "end_to_end")
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    absent = set(wanted) - set(measured)
    if args.trace:
        absent |= set(result["absent"])
    absent = sorted(absent)
    meta["absent"] = absent
    meta["mismatches"] = result["mismatches"]
    (work / "meta.json").write_text(json.dumps(meta, indent=2))
    print(json.dumps(meta), file=sys.stderr)
    for mismatch in result["mismatches"]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    if absent:
        print(f"not measured here or no longer exposed (reported as 0): {', '.join(absent)}", file=sys.stderr)
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
