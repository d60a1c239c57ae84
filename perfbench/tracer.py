"""Wall-clock side channel of the benchmark: spans and op timers.

The traced run wraps the public entry points of each ``repro`` layer
(:data:`LAYER_TARGETS`) and records one span per call, in memory, in
every process: campaign workers are forked, so they inherit the
wrappers, and each forked process writes its own span file when it
exits.  The wrappers only read a clock and append to a list; they never
touch arguments or results, so the program's outputs stay
byte-identical to an untraced run (the harness checks that).

The end-to-end run records no spans.  It only times the workload's
unit operation with one clock pair per call (:func:`install_op_timer`).
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import multiprocessing.util as mp_util
import os
import sys
import threading
import time
import uuid


def _frames(args, kwargs, result) -> dict:
    return {"n": int(len(result))}


def _saved_bytes(args, kwargs, result) -> dict:
    path = str(kwargs.get("path", args[1] if len(args) > 1 else ""))
    for candidate in (path, path + ".npz"):
        if os.path.exists(candidate):
            return {"n": os.path.getsize(candidate)}
    return {"n": 0}


def _loaded_bytes(args, kwargs, result) -> dict:
    path = str(kwargs.get("path", args[0] if args else ""))
    return {"n": os.path.getsize(path) if os.path.exists(path) else 0}


def _batch(args, kwargs, result) -> dict:
    return {"n": int(len(args[1]))}


def _predictions(args, kwargs, result) -> dict:
    return {"n": len(result)}


def _campaign_outcome(args, kwargs, result) -> dict:
    return {
        "executed": len(result.executed),
        "quarantined": len(result.quarantined),
        "retried": int(result.retried),
    }


#: ``(module, attribute path, span name, attrs function, skip-under)``
#: for every wrapped layer entry point.  A span is not recorded while a
#: span named ``skip-under`` is open in the same thread: validation
#: forwards inside training count as training, not inference.
LAYER_TARGETS = (
    ("repro.phy.batch", "BatchPhyEngine.synthesize_received", "phy.synth", None, None),
    ("repro.phy.receiver", "Receiver.decode_with_estimate", "phy.decode", None, None),
    ("repro.phy.receiver", "Receiver.decode_standard", "phy.decode", None, None),
    ("repro.phy.receiver", "Receiver.decode_batch", "phy.decode", None, None),
    ("repro.channel.environment", "IndoorEnvironment.cir_batch", "channel.cir", None, None),
    ("repro.channel.environment", "IndoorEnvironment.cir_multi_batch", "channel.cir", None, None),
    ("repro.vision.camera", "DepthCamera.render_batch", "vision.render", _frames, None),
    ("repro.vision.camera", "DepthCamera.render_multi_batch", "vision.render", _frames, None),
    ("repro.vision.rendering", "ray_cylinder_intersection_batch", "vision.ray_isect", None, None),
    ("repro.dataset.generator", "generate_measurement_set", "dataset.generate", None, None),
    ("repro.dataset.io", "save_measurement_set", "dataset.save", _saved_bytes, None),
    ("repro.dataset.io", "load_measurement_set", "dataset.load", _loaded_bytes, None),
    ("repro.campaign.cache", "DatasetCache.load_or_generate", "campaign.cache", None, None),
    ("repro.campaign.models", "ModelCheckpointRegistry.load_or_train", "campaign.model_resolve", None, None),
    ("repro.campaign.runner", "Campaign._attempt", "campaign.step", None, None),
    ("repro.campaign.runner", "_supervised_entry", "campaign.step", None, None),
    ("repro.api.facade", "CampaignHandle.run", "campaign.run", _campaign_outcome, None),
    ("repro.api.facade", "prepare", "api.prepare", None, None),
    ("repro.experiments.runner", "EvaluationRunner.run_combination", "experiments.evaluate", None, None),
    ("repro.nn.model", "Sequential.forward", "nn.forward", _batch, "nn.train"),
    ("repro.core.training", "train_vvd", "nn.train", None, None),
    ("repro.stream.service", "PredictionService.flush", "stream.flush", _predictions, None),
    ("repro.stream.simulator", "StreamSimulator.run", "stream.simulate", None, None),
    ("repro.stream.capacity", "simulate_capacity", "stream.capacity", None, None),
)


class Recorder:
    """Per-process, in-memory span store written once at process exit."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        # multiprocessing clears its finalizers in a new worker and then
        # runs the after-fork hooks; the flush is registered there
        # because forked workers leave through os._exit, not atexit.
        mp_util.register_after_fork(self, Recorder._arm_worker_flush)
        atexit.register(self.flush)

    def _reset(self) -> None:
        self.proc = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.spans: list = []
        self._seq = itertools.count()
        self._local = threading.local()

    def _arm_worker_flush(self) -> None:
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def stack(self) -> list:
        """The open spans of the calling thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end) -> None:
        """Record a root span measured outside a wrapper (start-up phases)."""
        self.spans.append(
            (f"{self.proc}:{next(self._seq)}", name, start, end, None,
             os.getpid(), {})
        )

    def wrap(self, name, fn, attrs=None, skip_under=None):
        """``fn`` wrapped to record one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            if skip_under is not None and any(
                open_name == skip_under for _, open_name in stack
            ):
                return fn(*args, **kwargs)
            span_id = f"{self.proc}:{next(self._seq)}"
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            result = failed = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                values = {}
                if attrs is not None and failed is None:
                    values = attrs(args, kwargs, result)
                self.spans.append(
                    (span_id, name, start, end, parent, os.getpid(), values)
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def flush(self) -> None:
        """Write this process's spans as JSON lines (once)."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.proc}.jsonl")
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, pid, attrs in spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "pid": pid,
                    "attrs": attrs,
                }) + "\n")


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``: ``from x import f`` copies the function object into
    the importing module, so patching ``x`` alone misses those callers."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(module_name: str, path: str, make) -> None:
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    replacement = make(original)
    setattr(owner, attr, replacement)
    if not parents:
        _rebind(original, replacement)


def install_spans(recorder: Recorder) -> None:
    """Wrap every layer entry point in :data:`LAYER_TARGETS` with ``recorder``."""
    for module_name, path, name, attrs, skip_under in LAYER_TARGETS:
        _patch(
            module_name,
            path,
            lambda fn, name=name, attrs=attrs, skip=skip_under: recorder.wrap(
                name, fn, attrs, skip
            ),
        )


def load_spans(directory: str) -> list[dict]:
    """Every span written under ``directory``, from every process."""
    spans = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry)) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


#: Unit operation of each end-to-end workload kind that is timed with
#: one clock pair per call in the untraced run.
OP_TARGETS = {
    "grid": ("repro.campaign.grid", "run_grid_point_task"),
    "stream": ("repro.stream.service", "PredictionService.flush"),
}


def install_op_timer(kind: str, path: str) -> None:
    """Time each unit operation of ``kind``; append ``start end`` lines.

    Lines go straight to ``path`` (append mode, one small write per
    call), so operations timed in forked workers survive their
    ``os._exit``.  Empty flushes are not operations and are skipped.
    """
    module_name, attr_path = OP_TARGETS[kind]

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            end = time.monotonic()
            if result:
                with open(path, "a") as handle:
                    handle.write(f"{start!r} {end!r}\n")
            return result

        return timed

    _patch(module_name, attr_path, make)


def read_op_times(path: str) -> list[float]:
    """Durations in seconds of the operations :func:`install_op_timer` logged."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        pairs = [line.split() for line in handle if line.strip()]
    return [float(end) - float(start) for start, end in pairs]
