"""The host-side options of the ``repro`` command line.

Campaign kinds, their run options and their REST validation are
declared by the job-spec dataclasses (:mod:`repro.api.jobs`,
:class:`~repro.api.facade.RunOptions`).  What remains here are the
options naming resources of the host a command runs on — the cache and
model roots, the dataset-generation pool, the log level — shared by
the campaign subcommands and by ``generate``, ``serve`` and ``cache``.
:class:`HostOptions` declares them with the same
:func:`~repro.api.jobs.arg` metadata, so one renderer turns every
declaration into argparse flags.

``model_dir`` belongs to the ``model`` group: only commands that
resolve model checkpoints take it.  A ``repro serve`` job submission
may carry ``workers`` and ``verbose``; the daemon owns the rest (its
cache/model roots are fixed at startup).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..api.jobs import Declared, arg


def default_workers() -> int | None:
    """Worker default: ``$REPRO_BENCH_WORKERS`` (unset/empty/0 = serial)."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    try:
        return int(raw) or None
    except ValueError:
        return None


@dataclass(frozen=True)
class HostOptions(Declared):
    """Host resources of one ``repro`` invocation."""

    model_dir: str | None = arg(
        None,
        group="model",
        help="model checkpoint registry root (default: "
        "$REPRO_MODEL_DIR or ~/.cache/repro-vvd/models)",
    )
    cache_dir: str | None = arg(
        None,
        help="dataset cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-vvd/datasets)",
    )
    workers: int | None = arg(
        default_factory=default_workers,
        help="process-pool size for dataset generation "
        "(default: $REPRO_BENCH_WORKERS or serial)",
    )
    verbose: bool = arg(False, help="print per-step/per-set progress")
    quiet: bool = arg(
        False,
        help="suppress summaries and sentinels (log level WARNING); "
        "corruption warnings and errors still print",
    )
