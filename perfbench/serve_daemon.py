"""``repro serve`` with the layer spans of the traced run installed.

Usage: ``python3 perfbench/serve_daemon.py <span dir> <launched> <repro
CLI arguments...>``.  Imports the CLI, records the import as the
``startup.import`` span (from the parent's launch timestamp), wraps the
layer entry points and hands the remaining arguments to the ``repro``
CLI.  Spans are written when the daemon exits after SIGTERM.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    span_dir, launched, *cli_args = argv
    from repro.campaign.cli import main as repro_main

    recorder = tracer.Recorder(span_dir)
    recorder.add("startup.import", float(launched), time.monotonic())
    tracer.install_spans(recorder)
    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
