"""The per-layer metrics of the traced run and the layer matrix.

Each :class:`LayerMetric` names the span its value comes from, the
workloads on which that span must record at least one call (``moves``:
the layer's time moves an end-to-end metric there) and the workloads on
which it must record none (``absent``).  The harness fails a traced run
whose spans break the matrix: a wrapper bound to a name no caller
resolves records nothing where the matrix expects calls.
"""

from __future__ import annotations

from dataclasses import dataclass

GRID_COLD = "grid-cold"
GRID_WARM = "grid-warm"
STREAM_VVD = "stream-vvd"
SERVE_MIXED = "serve-mixed"
WORKLOADS = (GRID_COLD, GRID_WARM, STREAM_VVD, SERVE_MIXED)
CAMPAIGNS = (GRID_COLD, GRID_WARM, STREAM_VVD)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Span whose calls the layer-matrix guard counts (None: no guard).
    span: str | None
    moves: tuple = ()
    absent: tuple = ()


def _m(name, unit, span, moves=(), absent=(), better="lower"):
    return LayerMetric(name, unit, better, span, tuple(moves), tuple(absent))


_PIPELINE_ABSENT = (SERVE_MIXED,)
_COLD = (GRID_COLD, STREAM_VVD)
_NOT_SERVE = (GRID_COLD, GRID_WARM, STREAM_VVD)
_NOT_STREAM = (GRID_COLD, GRID_WARM, SERVE_MIXED)

LAYER_METRICS = (
    _m("startup.import_s", "s", "startup.import", WORKLOADS),
    _m("api.prepare_s", "s", "api.prepare", WORKLOADS),
    _m("phy.synth_s", "s", "phy.synth", CAMPAIGNS, _PIPELINE_ABSENT),
    _m("phy.synth_calls", "count", "phy.synth", CAMPAIGNS, _PIPELINE_ABSENT),
    _m("phy.decode_s", "s", "phy.decode", CAMPAIGNS, _PIPELINE_ABSENT),
    _m("phy.decode_calls", "count", "phy.decode", CAMPAIGNS, _PIPELINE_ABSENT),
    _m("channel.cir_s", "s", "channel.cir", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("channel.cir_calls", "count", "channel.cir", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("vision.render_s", "s", "vision.render", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("vision.render_frames", "frames", "vision.render", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("vision.ray_isect_s", "s", "vision.ray_isect", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("dataset.generate_s", "s", "dataset.generate", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("dataset.sets_generated", "count", "dataset.generate", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("dataset.save_s", "s", "dataset.save", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("dataset.bytes_written", "bytes", "dataset.save", _COLD, (GRID_WARM, SERVE_MIXED)),
    _m("dataset.load_s", "s", "dataset.load", (GRID_WARM,), _COLD + _PIPELINE_ABSENT),
    _m("dataset.sets_loaded", "count", "dataset.load", (GRID_WARM,), _COLD + _PIPELINE_ABSENT),
    _m("dataset.bytes_read", "bytes", "dataset.load", (GRID_WARM,), _COLD + _PIPELINE_ABSENT),
    _m("campaign.cache_self_s", "s", "campaign.cache", _NOT_SERVE, _PIPELINE_ABSENT),
    _m("campaign.model_resolve_s", "s", "campaign.model_resolve", (STREAM_VVD,), _NOT_STREAM),
    _m("campaign.steps_executed", "count", "campaign.run", WORKLOADS),
    _m("campaign.steps_failed", "count", None),
    _m("campaign.retries", "count", None),
    _m("campaign.worker_busy_share", "share", "campaign.step", WORKLOADS, better="higher"),
    _m("experiments.evaluate_s", "s", "experiments.evaluate", (GRID_COLD, GRID_WARM), (STREAM_VVD, SERVE_MIXED)),
    _m("experiments.combinations", "count", "experiments.evaluate", (GRID_COLD, GRID_WARM), (STREAM_VVD, SERVE_MIXED)),
    _m("nn.forward_s", "s", "nn.forward", (STREAM_VVD,), _NOT_STREAM),
    _m("nn.forward_calls", "count", "nn.forward", (STREAM_VVD,), _NOT_STREAM),
    _m("nn.forward_batch_mean", "frames", "nn.forward", (STREAM_VVD,), _NOT_STREAM, better="higher"),
    _m("nn.train_s", "s", "nn.train", (STREAM_VVD,), _NOT_STREAM),
    _m("stream.flush_self_ms_p50", "ms", "stream.flush", (STREAM_VVD,), _NOT_STREAM),
    _m("stream.simulate_self_s", "s", "stream.simulate", (STREAM_VVD,), _NOT_STREAM),
    _m("stream.capacity_s", "s", "stream.capacity", (SERVE_MIXED, STREAM_VVD), (GRID_COLD, GRID_WARM)),
    _m("stream.capacity_points", "count", "stream.capacity", (SERVE_MIXED, STREAM_VVD), (GRID_COLD, GRID_WARM)),
    _m("serve.submit_ms_p50", "ms", "serve.submit", (SERVE_MIXED,), CAMPAIGNS),
    _m("serve.poll_ms_p50", "ms", "serve.poll", (SERVE_MIXED,), CAMPAIGNS),
    _m("serve.results_ms_p50", "ms", "serve.results", (SERVE_MIXED,), CAMPAIGNS),
    _m("serve.queue_wait_ms_p50", "ms", None),
    _m("serve.exec_ms_p50", "ms", None),
    _m("serve.dedup_share", "share", None),
    _m("serve.http_errors", "count", None),
    _m("trace.unaccounted_share", "share", None),
    _m("trace.overhead_s", "s", None),
)


def guard_violations(workload: str, span_counts: dict) -> list[str]:
    """Layer-matrix breaches of one traced run, as messages."""
    problems = []
    for metric in LAYER_METRICS:
        if metric.span is None:
            continue
        calls = span_counts.get(metric.span, 0)
        if workload in metric.moves and calls == 0:
            problems.append(
                f"{metric.name}: no {metric.span} call on {workload}"
            )
        if workload in metric.absent and calls:
            problems.append(
                f"{metric.name}: {calls} {metric.span} call(s) on "
                f"{workload}, where the layer should be absent"
            )
    return problems
