"""Unit tests of the benchmark's percentile, self-time and span-merge math."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import analysis  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402


def span(span_id, start, end, parent=None, name="x", pid=1, **attrs):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "pid": pid, "attrs": attrs}


def test_p95_of_200_samples_leaves_ten_beyond():
    samples = [float(i) for i in range(200, 0, -1)]
    p95 = analysis.nearest_rank(samples, 95)
    assert p95 == 190.0
    assert sum(value > p95 for value in samples) == 10
    assert analysis.nearest_rank(samples, 50) == 100.0


def test_p90_of_100_samples_leaves_ten_beyond():
    samples = list(range(1, 101))
    p90 = analysis.nearest_rank(samples, 90)
    assert sum(value > p90 for value in samples) == 10


def test_percentile_of_no_samples_raises():
    with pytest.raises(ValueError):
        analysis.nearest_rank([], 50)


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 5.0, parent="a"),
        span("c", 3.0, 4.0, parent="b"),
    ]
    selfs = analysis.self_times(spans)
    assert selfs == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})


def test_self_time_subtracts_sibling_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent="a"),
        span("c", 4.0, 6.0, parent="a"),
        # Overlapping siblings (two threads under one parent) cover
        # their shared interval once.
        span("d", 5.0, 7.0, parent="a"),
    ]
    assert analysis.self_times(spans)["a"] == pytest.approx(5.0)


def test_union_length_clips_and_merges():
    assert analysis.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert analysis.union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert analysis.union_length([]) == 0.0


def test_spans_merged_from_forked_pids():
    # Two workers restart their sequence numbers; the per-process nonce
    # in the id keeps parents distinct after the files are concatenated.
    worker_a = [span("100-aa:0", 0.0, 4.0, pid=100),
                span("100-aa:1", 1.0, 2.0, parent="100-aa:0", pid=100)]
    worker_b = [span("101-bb:0", 2.0, 6.0, pid=101),
                span("101-bb:1", 2.5, 5.5, parent="101-bb:0", pid=101)]
    merged = worker_a + worker_b
    selfs = analysis.self_times(merged)
    assert selfs["100-aa:0"] == pytest.approx(3.0)
    assert selfs["101-bb:0"] == pytest.approx(1.0)
    # Busy at once in two processes covers the wall time once.
    assert analysis.coverage_share(merged, 0.0, 10.0) == pytest.approx(0.6)


def test_outermost_counts_self_delegation_once():
    spans = [
        span("a", 0, 4, name="channel.cir"),
        span("b", 1, 3, parent="a", name="channel.cir"),
        span("c", 5, 6, name="channel.cir"),
    ]
    assert [s["id"] for s in analysis.outermost(spans, "channel.cir")] == ["a", "c"]


#: Recorder checks run in a fresh interpreter: a Recorder registers
#: process-wide fork and exit hooks, which must not leak into the
#: interpreter that runs the rest of the test suite.
RECORDER_SCRIPT = """
import json, multiprocessing, os, sys
sys.path.insert(0, sys.argv[2])
import tracer

def double(value):
    return 2 * value

recorder = tracer.Recorder(sys.argv[1])
inner = recorder.wrap("inner", double, lambda a, k, r: {"n": r})
outer = recorder.wrap("outer", lambda: inner(3))
assert outer() == 6
worker = multiprocessing.get_context("fork").Process(target=inner, args=(5,))
worker.start()
worker.join(30)
forward = recorder.wrap("nn.forward", double, skip_under="nn.train")
train = recorder.wrap("nn.train", lambda: forward(1))
train()
forward(2)
print(json.dumps({"pid": os.getpid(), "worker": worker.pid,
                  "exitcode": worker.exitcode}))
"""


def test_recorder_merges_spans_from_forked_workers(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", RECORDER_SCRIPT, str(tmp_path), PERFBENCH],
        capture_output=True, text=True, timeout=60, check=True,
    )
    run = json.loads(out.stdout)
    assert run["exitcode"] == 0
    spans = tracer.load_spans(str(tmp_path))
    by_pid = {}
    for item in spans:
        by_pid.setdefault(item["pid"], []).append(item)
    assert set(by_pid) == {run["pid"], run["worker"]}
    parent = {s["name"]: s for s in by_pid[run["pid"]]}
    assert parent["inner"]["parent"] == parent["outer"]["id"]
    assert parent["inner"]["attrs"] == {"n": 6}
    (child,) = by_pid[run["worker"]]
    assert child["parent"] is None
    assert child["attrs"] == {"n": 10}
    assert len({s["id"] for s in spans}) == len(spans)
    # The forward pass under training is not recorded; the later one is.
    assert [s["name"] for s in by_pid[run["pid"]] if s["name"].startswith("nn.")] == [
        "nn.train", "nn.forward"
    ]


def test_layer_matrix_guard():
    counts = {"dataset.load": 3, "startup.import": 1, "api.prepare": 1}
    problems = layers.guard_violations(layers.GRID_COLD, counts)
    assert any("dataset.load_s" in p and "absent" in p for p in problems)
    assert any(p.startswith("phy.synth_s: no phy.synth call") for p in problems)
    assert not any(p.startswith("startup.import_s") for p in problems)
