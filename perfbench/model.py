"""The model under test: the full Sato variant, trained once per source tree.

Training takes tens of seconds, so the bundle is cached under
``.bench_cache/`` keyed on a hash of every file under ``src/``: a change to
the program retrains, a rerun of the same tree does not.  Training always
happens outside every timed and set-up window.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

CACHE_DIR = Path(".bench_cache")


def program_env(**extra: str) -> dict[str, str]:
    """Environment of a child process that runs the program from ``src/``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", os.environ.get("PYTHONPATH")) if part
    )
    return env


def source_hash(root: Path = Path("src")) -> str:
    """Content hash of the program's source tree (paths and bytes)."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_bundle() -> Path:
    """Path of the trained full-Sato bundle, training it on first use."""
    bundle = CACHE_DIR / f"sato-{source_hash()}"
    if (bundle / "manifest.json").exists():
        return bundle
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.pipeline import build_corpus, make_model_factories
    from repro.serving import save_model

    config = ExperimentConfig.fast()
    tables = build_corpus(config).multi_column().tables
    model = make_model_factories(config)["Sato"]()
    model.fit(tables)
    staging = CACHE_DIR / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    save_model(model, staging)
    # Rename last, so an interrupted run never leaves a half-written bundle.
    try:
        os.replace(staging, bundle)
    except OSError:
        if not (bundle / "manifest.json").exists():
            raise
        shutil.rmtree(staging, ignore_errors=True)  # another run got there first
    return bundle
