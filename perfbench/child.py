"""One timed campaign unit in a fresh interpreter.

Usage: ``python3 perfbench/child.py <order.json>``.  The order names the
workload kind (``grid`` or ``stream``), the seed, explicit cache and
model roots, the run options and the parent's launch timestamp
(``time.monotonic()``, one clock for every process on the host).  The
child imports :mod:`repro.api`, prepares the campaign, optionally runs
it, and writes its measurements and output digests to ``order["out"]``.

Set-up is everything from interpreter launch to a prepared handle, so
interpreter start-up and ``import repro.api`` count.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: The benchmark's grid: the ``mobility-snr`` axes at reduced scale,
#: plus a ``seed`` axis that carries the workload seed.
GRID_NAME = "perfbench-mobility-snr"
GRID_BASE = "multi-human-crossing"
GRID_AXES = (
    ("num_humans", (1, 2)),
    ("speed", ((0.15, 0.35), (1.0, 1.6))),
    ("snr_db", (3.0, 9.5)),
    ("num_sets", (4,)),
    ("packets_per_set", (50,)),
)
GRID_SUITE = "quick"

#: The stream workload: 16 links x 200 slots, so the proactive policy
#: serves 200 micro-batched rounds of 16 depth frames.
STREAM_BASE = "stream-smoke"
STREAM_ARGS = dict(
    links=16,
    slots=200,
    policies=("proactive", "reactive"),
    traffic="mixed",
    qos="triple",
)


def build_job(kind: str, seed: int):
    """Register the seeded scenario or grid; return the job spec."""
    if kind == "grid":
        from repro.api import GridJob
        from repro.campaign.grid import GridSpec, register_grid

        register_grid(
            GridSpec(
                name=GRID_NAME,
                description="benchmark grid: mobility-snr axes, reduced scale",
                base=GRID_BASE,
                axes=GRID_AXES + (("seed", (seed,)),),
            ),
            replace=True,
        )
        return GridJob(grid=GRID_NAME, suite=GRID_SUITE, seed=seed)
    if kind == "stream":
        from repro.api import StreamJob
        from repro.campaign.scenario import get_scenario, register_scenario

        name = f"perfbench-{STREAM_BASE}-seed{seed}"
        register_scenario(
            get_scenario(STREAM_BASE).variant(
                name=name,
                description="benchmark stream scenario",
                seed=seed,
            ),
            replace=True,
        )
        return StreamJob(scenario=name, seed=seed, **STREAM_ARGS)
    raise ValueError(f"unknown campaign kind {kind!r}")


def digests(kind: str, handle) -> dict:
    """The outputs the correctness gate compares, as sha256 hex digests."""
    if kind == "grid":
        data = handle.results_path().read_bytes()
        return {"results.json": hashlib.sha256(data).hexdigest()}
    outputs = handle.directory / "outputs"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outputs.glob("stream@*.out"))
    }


def peak_rss_kb() -> int:
    """Largest resident set of this process and its waited-for children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def main(order_path: str) -> int:
    with open(order_path) as handle:
        order = json.load(handle)
    launched = order["launched"]
    try:
        import repro.api as api

        imported = time.monotonic()
        job = build_job(order["kind"], order["seed"])
        handle = api.prepare(
            job, cache_dir=order["cache_dir"], model_dir=order["model_dir"]
        )
        prepared = time.monotonic()
        result = {"setup_s": prepared - launched}
        if order["mode"] == "run":
            if order.get("trace_dir"):
                import tracer

                recorder = tracer.Recorder(order["trace_dir"])
                recorder.add("startup.import", launched, imported)
                recorder.add("api.prepare", imported, prepared)
                tracer.install_spans(recorder)
            elif order.get("ops_path"):
                import tracer

                tracer.install_op_timer(order["kind"], order["ops_path"])
            options = api.RunOptions(
                jobs=order["jobs"], fresh=order["fresh"]
            )
            start = time.monotonic()
            outcome = handle.run(options)
            end = time.monotonic()
            result.update(
                run_s=end - start,
                window=[start, end],
                executed=len(outcome.executed),
                skipped=len(outcome.skipped),
                quarantined=len(outcome.quarantined),
                retried=outcome.retried,
                exit_code=outcome.exit_code,
                digests=digests(order["kind"], handle),
            )
        result["peak_rss_kb"] = peak_rss_kb()
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(order["out"], "w") as handle:
        json.dump(result, handle)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
