"""The repository's benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-cold --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of :mod:`tracer` installed, and reports the per-layer metrics.
Every timed unit runs in a fresh interpreter (or, for ``serve-mixed``,
a fresh ``repro serve`` daemon), over a fresh cache and model root
inside ``.perfbench_work/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402

ROOT = os.getcwd()
DEFAULT_SEED = 7
#: Set-up samples per run: set-up-only launches top up the set-ups of
#: the run's units (the warm grid's untimed fill included) to this many.
SETUP_SAMPLES = 2
#: Longest any one child process may take, seconds.
CHILD_TIMEOUT_S = 150.0
#: Campaign workloads: child kind, ``RunOptions.jobs``, whether units
#: run warm (fresh steps over a cache an untimed run filled), the
#: campaign's step count, its timed operations per unit (200 slots
#: serve one 16-frame round each; the grid has 8 members) and the fewest
#: timed units a run measures.  The flush-round p95 of one stream unit
#: follows the host's speed during that unit's flushes, so a
#: stream run pools the 400 rounds of two units.
CAMPAIGN_WORKLOADS = {
    "grid-cold": dict(kind="grid", jobs=2, warm=False, steps=9, ops=8, units=1),
    "grid-warm": dict(kind="grid", jobs=1, warm=True, steps=9, ops=8, units=1),
    "stream-vvd": dict(kind="stream", jobs=1, warm=False, steps=6, ops=200, units=2),
}
#: Inherited thread-count variables, recorded and never set.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT",
)


class BenchError(RuntimeError):
    """A child failed or left processes behind: the run is not valid."""


# -- processes ----------------------------------------------------------
def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


class Child:
    """One child process in its own session, reaped with its rusage."""

    def __init__(self, argv, env, log_path, pipe_stdout=False):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipe_stdout else self.log,
            stderr=self.log,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self.rusage = None
        self.status = None

    def poll(self) -> bool:
        """Reap the child if it exited; True once it has."""
        if self.status is None:
            pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
            if pid == 0:
                return False
            self.status = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.status
            self.rusage = rusage
        return True

    def wait(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while not self.poll():
            if time.monotonic() > deadline:
                raise BenchError(f"child {self.pid} timed out after {timeout:.0f} s")
            time.sleep(0.02)
        return self.status

    def stop(self, sig=signal.SIGKILL, grace: float = 0.0) -> None:
        """Signal the child's whole group, reap it, and check none is left."""
        try:
            if not self.poll():
                os.killpg(self.pid, sig)
                try:
                    self.wait(grace or 10.0)
                except BenchError:
                    os.killpg(self.pid, signal.SIGKILL)
                    self.wait(10.0)
        finally:
            self._reap_group()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()

    def _reap_group(self) -> None:
        deadline = time.monotonic() + 10.0
        while _group_members(self.pid):
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if time.monotonic() > deadline:
                raise BenchError(
                    f"processes of group {self.pid} survived teardown: "
                    f"{_group_members(self.pid)}"
                )
            time.sleep(0.02)

    @property
    def peak_rss_kb(self) -> int:
        return self.rusage.ru_maxrss if self.rusage else 0


class Run:
    """The state of one benchmark invocation: work dir, env, records."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # Relative and fixed, so every path string the program sees (and
        # hashes) is the same in every checkout and run; a directory left
        # by a killed run is removed first.
        self.work = os.path.join(".perfbench_work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self._counter = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.dropped_env = sorted(k for k in os.environ if k.startswith("REPRO_"))
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        # A fixed hash seed fixes set/dict layouts and with them the
        # allocation pattern: under random seeds the warm grid's peak
        # RSS flips from run to run between two modes (about 202 and
        # 267 MB).  The mode can still differ between checkouts.
        self.env["PYTHONHASHSEED"] = "0"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fresh_dir(self, label: str) -> str:
        self._counter += 1
        path = os.path.join(self.work, f"{self._counter:02d}-{label}")
        os.makedirs(path)
        return path

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# -- campaign workloads -------------------------------------------------
def campaign_unit(run: Run, kind: str, *, cache: str, jobs: int, fresh: bool,
                  mode: str = "run", trace: bool = False,
                  timed_ops: bool = False) -> dict:
    """Run ``child.py`` once; return its measurements plus its rusage."""
    unit = run.fresh_dir(f"{kind}-{mode}")
    order = {
        "kind": kind,
        "seed": run.seed,
        "cache_dir": os.path.join(cache, "datasets"),
        "model_dir": os.path.join(cache, "models"),
        "jobs": jobs,
        "fresh": fresh,
        "mode": mode,
        "out": os.path.join(unit, "result.json"),
        "trace_dir": os.path.join(unit, "spans") if trace else None,
        "ops_path": os.path.join(unit, "ops.txt") if timed_ops else None,
    }
    if trace:
        os.makedirs(order["trace_dir"])
    order_path = os.path.join(unit, "order.json")
    order["launched"] = time.monotonic()
    with open(order_path, "w") as handle:
        json.dump(order, handle)
    child = Child(
        [sys.executable, os.path.join(HERE, "child.py"), order_path],
        run.env,
        os.path.join(unit, "child.log"),
    )
    try:
        status = child.wait(CHILD_TIMEOUT_S)
    finally:
        child.stop()
    result = {}
    if os.path.exists(order["out"]):
        with open(order["out"]) as handle:
            result = json.load(handle)
    if status != 0 or "error" in result:
        with open(os.path.join(unit, "child.log"), "rb") as handle:
            tail = handle.read()[-2000:].decode(errors="replace")
        raise BenchError(
            f"{kind} child exited {status}: "
            f"{result.get('error', '')}{tail}"
        )
    result["peak_rss_kb"] = max(result["peak_rss_kb"], child.peak_rss_kb)
    if timed_ops:
        result["ops_s"] = tracer.read_op_times(order["ops_path"])
    if trace:
        result["spans"] = tracer.load_spans(order["trace_dir"])
    return result


def setup_samples(run: Run, kind: str, have: int) -> list[float]:
    """Set-up times of prepare-only launches, ``have`` short of
    :data:`SETUP_SAMPLES`."""
    return [
        campaign_unit(
            run, kind, cache=run.fresh_dir("setup-cache"),
            jobs=1, fresh=False, mode="setup",
        )["setup_s"]
        for _ in range(SETUP_SAMPLES - have)
    ]


def repeat_units(run: Run, make_unit, min_units: int = 1) -> list[dict]:
    """Timed units until ``--seconds`` of measuring passed and at least
    ``min_units`` ran."""
    units = []
    start = time.monotonic()
    while len(units) < min_units or time.monotonic() - start < run.seconds:
        units.append(make_unit())
    return units


def _check_campaign(run: Run, units: list[dict], expected_steps: int) -> None:
    for unit in units:
        steps = unit["executed"] + unit["skipped"]
        run.attempted += unit["executed"]
        run.failed += unit["quarantined"]
        run.check(unit["exit_code"] == 0, f"campaign exit code {unit['exit_code']}")
        run.check(unit["quarantined"] == 0, f"{unit['quarantined']} step(s) quarantined")
        run.check(steps == expected_steps, f"{steps} steps, expected {expected_steps}")


def campaign_units(run: Run, kind: str, jobs: int, warm: bool,
                   min_units: int) -> tuple[list, list]:
    """The untimed cold fill of a warm workload, and the timed units."""
    cache = run.fresh_dir("cache") if warm else None
    reference = []
    if warm:
        reference.append(campaign_unit(run, kind, cache=cache, jobs=2, fresh=False))

    def make(**extra):
        return campaign_unit(run, kind, cache=cache or run.fresh_dir("cache"),
                             jobs=jobs, fresh=warm, **extra)

    if run.trace:
        return reference, [make(), make(trace=True)]
    return reference, repeat_units(run, lambda: make(timed_ops=True), min_units)


# -- serve workload -----------------------------------------------------
class Daemon:
    """A ``repro serve --slots 2`` process and its listening time."""

    def __init__(self, run: Run, trace_dir: str | None = None):
        self.dir = run.fresh_dir("serve")
        cli = ["serve", "--port", "0", "--slots", "2",
               "--cache-dir", os.path.join(self.dir, "datasets"),
               "--model-dir", os.path.join(self.dir, "models")]
        launched = time.monotonic()
        if trace_dir:
            argv = [sys.executable, os.path.join(HERE, "serve_daemon.py"),
                    trace_dir, repr(launched), *cli]
        else:
            argv = [sys.executable, "-m", "repro", *cli]
        self.url = None
        self.listening = threading.Event()
        self.child = Child(argv, run.env, os.path.join(self.dir, "daemon.log"),
                           pipe_stdout=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        deadline = time.monotonic() + 60.0
        while not self.listening.wait(0.05):
            if self.child.poll() or time.monotonic() > deadline:
                self.stop()
                raise BenchError("repro serve did not start listening")
        self.setup_s = self.listened - launched

    def _read(self) -> None:
        log = os.path.join(self.dir, "daemon.out")
        with open(log, "wb") as sink:
            for line in self.child.proc.stdout:
                if self.url is None and b"listening on http://" in line:
                    self.listened = time.monotonic()
                    self.url = line.split(b"listening on ")[1].split()[0].decode()
                    self.listening.set()
                sink.write(line)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then check the group is gone."""
        try:
            self.child.stop(signal.SIGTERM, grace=30.0)
        finally:
            self.reader.join(10.0)
        if self.child.status not in (0, -signal.SIGTERM):
            raise BenchError(f"repro serve exited {self.child.status}")


def serve_session(run: Run, trace: bool = False) -> dict:
    """One daemon plus one client run through the seeded submission list."""
    span_dir = None
    if trace:
        span_dir = run.fresh_dir("spans")
    daemon = Daemon(run, trace_dir=span_dir)
    try:
        unit = run.fresh_dir("client")
        order = {"url": daemon.url, "seed": run.seed,
                 "out": os.path.join(unit, "result.json"),
                 "trace_dir": span_dir}
        order_path = os.path.join(unit, "order.json")
        with open(order_path, "w") as handle:
            json.dump(order, handle)
        client = Child([sys.executable, os.path.join(HERE, "serve_client.py"), order_path],
                       run.env, os.path.join(unit, "client.log"))
        try:
            client.wait(CHILD_TIMEOUT_S)
        finally:
            client.stop()
    finally:
        daemon.stop()
    if not os.path.exists(order["out"]):
        raise BenchError("serve client wrote no result")
    with open(order["out"]) as handle:
        result = json.load(handle)
    if "error" in result:
        raise BenchError(f"serve client failed: {result['error']}")
    result["setup_s"] = daemon.setup_s
    result["peak_rss_kb"] = max(result["peak_rss_kb"], client.peak_rss_kb,
                                daemon.child.peak_rss_kb)
    if trace:
        result["spans"] = tracer.load_spans(span_dir)
    return result


def _check_serve(run: Run, session: dict) -> None:
    import serve_client

    run.attempted += session["jobs"] + session["requests"]
    run.failed += session["http_errors"] + len(session["failures"])
    for failure in session["failures"]:
        run.check(False, failure.strip().splitlines()[-1])
    replays = serve_client.THREADS * serve_client.REPLAYS_PER_THREAD
    dups = serve_client.THREADS * serve_client.DUP_PER_THREAD
    run.check(len(session["replay_s"]) == replays,
              f"{len(session['replay_s'])} replays, expected {replays}")
    run.check(session["deduped"] == dups,
              f"{session['deduped']} deduplicated submissions, expected {dups}")


def daemon_setups(run: Run, have: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - have):
        daemon = Daemon(run)
        daemon.stop()
        samples.append(daemon.setup_s)
    return samples


# -- correctness --------------------------------------------------------
def check_digests(run: Run, group: str, observed: list[dict]) -> None:
    """All units agree with each other and, for a pinned seed, the pin."""
    first = observed[0]
    print(f"{group} digests: {json.dumps(first, sort_keys=True)}")
    for other in observed[1:]:
        run.check(other == first, f"{group} outputs differ between units: {first} vs {other}")
    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle)[group]
    pinned = pins.get(str(run.seed))
    if pinned is not None:
        run.check(first == pinned, f"{group} outputs {first} differ from the pin {pinned}")


# -- metrics ------------------------------------------------------------
def end_to_end(run: Run, setups: list[float], units: list[dict], ops: list[float]) -> dict:
    run_s = [unit["run_s"] for unit in units]
    for index, unit in enumerate(units):
        print(f"unit {index}: run_s={unit['run_s']:.4f} "
              f"peak_rss_mb={unit['peak_rss_kb'] / 1024:.1f}")
    print("setup samples: " + " ".join(f"{value:.4f}" for value in setups))
    success = 1.0 - run.failed / max(run.attempted, 1)
    return {
        "setup_s": (analysis.median(setups), "s", len(setups)),
        "run_s": (analysis.median(run_s), "s", len(run_s)),
        "peak_rss_mb": (max(u["peak_rss_kb"] for u in units) / 1024.0, "MB", len(units)),
        "success_rate": (success, "ratio", run.attempted),
        "op_p50_ms": (analysis.median(ops) * 1e3, "ms", len(ops)),
        "op_p95_ms": (analysis.nearest_rank(ops, 95) * 1e3, "ms", len(ops)),
    }


def per_layer(run: Run, traced: dict, untraced: dict, jobs: int, extra: dict) -> dict:
    spans = traced["spans"]
    lo, hi = traced["window"]
    run_s = traced["run_s"]
    selfs = analysis.self_times(spans)

    def self_sum(name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == name)

    def calls(name):
        return len(analysis.outermost(spans, name))

    def attr_sum(name, key="n"):
        return sum(s["attrs"].get(key, 0) for s in analysis.outermost(spans, name))

    def dur_p50_ms(name):
        return analysis.median(s["end"] - s["start"] for s in spans if s["name"] == name) * 1e3

    forwards = analysis.outermost(spans, "nn.forward")
    flushes = [s for s in spans if s["name"] == "stream.flush" and s["attrs"].get("n")]
    busy = sum(
        min(s["end"], hi) - max(s["start"], lo)
        for s in spans if s["name"] == "campaign.step" and s["end"] > lo and s["start"] < hi
    )
    layer_spans = [s for s in spans if s["name"] not in ("campaign.run", "campaign.step")]
    values = {
        "startup.import_s": sum(s["end"] - s["start"] for s in spans if s["name"] == "startup.import"),
        "api.prepare_s": self_sum("api.prepare"),
        "phy.synth_s": self_sum("phy.synth"),
        "phy.synth_calls": calls("phy.synth"),
        "phy.decode_s": self_sum("phy.decode"),
        "phy.decode_calls": calls("phy.decode"),
        "channel.cir_s": self_sum("channel.cir"),
        "channel.cir_calls": calls("channel.cir"),
        "vision.render_s": self_sum("vision.render"),
        "vision.render_frames": attr_sum("vision.render"),
        "vision.ray_isect_s": self_sum("vision.ray_isect"),
        "dataset.generate_s": self_sum("dataset.generate"),
        "dataset.sets_generated": calls("dataset.generate"),
        "dataset.save_s": self_sum("dataset.save"),
        "dataset.bytes_written": attr_sum("dataset.save"),
        "dataset.load_s": self_sum("dataset.load"),
        "dataset.sets_loaded": calls("dataset.load"),
        "dataset.bytes_read": attr_sum("dataset.load"),
        "campaign.cache_self_s": self_sum("campaign.cache"),
        "campaign.model_resolve_s": self_sum("campaign.model_resolve"),
        "campaign.steps_executed": attr_sum("campaign.run", "executed"),
        "campaign.steps_failed": attr_sum("campaign.run", "quarantined"),
        "campaign.retries": attr_sum("campaign.run", "retried"),
        "campaign.worker_busy_share": busy / (jobs * run_s),
        "experiments.evaluate_s": self_sum("experiments.evaluate"),
        "experiments.combinations": calls("experiments.evaluate"),
        "nn.forward_s": self_sum("nn.forward"),
        "nn.forward_calls": len(forwards),
        "nn.forward_batch_mean": (
            sum(s["attrs"]["n"] for s in forwards) / len(forwards) if forwards else 0.0
        ),
        "nn.train_s": self_sum("nn.train"),
        "stream.flush_self_ms_p50": analysis.median(selfs[s["id"]] for s in flushes) * 1e3,
        "stream.simulate_self_s": self_sum("stream.simulate"),
        "stream.capacity_s": self_sum("stream.capacity"),
        "stream.capacity_points": calls("stream.capacity"),
        "serve.submit_ms_p50": dur_p50_ms("serve.submit"),
        "serve.poll_ms_p50": dur_p50_ms("serve.poll"),
        "serve.results_ms_p50": dur_p50_ms("serve.results"),
        "serve.queue_wait_ms_p50": extra.get("queue_wait_ms_p50", 0.0),
        "serve.exec_ms_p50": extra.get("exec_ms_p50", 0.0),
        "serve.dedup_share": extra.get("dedup_share", 0.0),
        "serve.http_errors": extra.get("http_errors", 0),
        "trace.unaccounted_share": 1.0 - analysis.coverage_share(layer_spans, lo, hi),
        "trace.overhead_s": run_s - untraced["run_s"],
    }
    counts: dict = {}
    for span in spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    for problem in layers.guard_violations(run.workload, counts):
        run.check(False, f"layer matrix: {problem}")
    return {m.name: (values[m.name], m.unit, None) for m in layers.LAYER_METRICS}


def _serve_extra(session: dict) -> dict:
    records = session["records"]
    waits = [r["started_at"] - r["submitted_at"] for r in records if r.get("started_at")]
    execs = [r["finished_at"] - r["started_at"] for r in records if r.get("started_at")]
    return {
        "queue_wait_ms_p50": analysis.median(waits) * 1e3,
        "exec_ms_p50": analysis.median(execs) * 1e3,
        "dedup_share": session["deduped"] / max(session["submissions"], 1),
        "http_errors": session["http_errors"],
    }


# -- workloads ----------------------------------------------------------
def run_campaign_workload(run: Run) -> dict:
    spec = CAMPAIGN_WORKLOADS[run.workload]
    kind = spec["kind"]
    reference, units = campaign_units(run, kind, spec["jobs"], spec["warm"],
                                      spec["units"])
    _check_campaign(run, units, spec["steps"])
    check_digests(run, kind, [u["digests"] for u in reference + units])
    if run.trace:
        untraced, traced = units
        return per_layer(run, traced, untraced, spec["jobs"], {})
    ops = [op for unit in units for op in unit["ops_s"]]
    expected = spec["ops"] * len(units)
    run.check(len(ops) == expected, f"{len(ops)} operations timed, expected {expected}")
    launched = reference + units
    setups = [u["setup_s"] for u in launched] + setup_samples(run, kind, len(launched))
    return end_to_end(run, setups, units, ops)


def run_serve_workload(run: Run) -> dict:
    if run.trace:
        untraced = serve_session(run)
        traced = serve_session(run, trace=True)
        for session in (untraced, traced):
            _check_serve(run, session)
        check_digests(run, "serve", [untraced["digests"], traced["digests"]])
        return per_layer(run, traced, untraced, 2, _serve_extra(traced))
    sessions = repeat_units(run, lambda: serve_session(run))
    for session in sessions:
        _check_serve(run, session)
    check_digests(run, "serve", [s["digests"] for s in sessions])
    setups = [s["setup_s"] for s in sessions] + daemon_setups(run, len(sessions))
    ops = [op for s in sessions for op in s["replay_s"]]
    return end_to_end(run, setups, sessions, ops)


# -- reporting ----------------------------------------------------------
def host_info(run: Run) -> dict:
    sys.path.insert(0, ROOT)
    from tools.bench_trajectory import host_metadata

    import numpy

    info = host_metadata()
    info["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        info["blas"] = "unknown"
    info["thread_env"] = {name: os.environ.get(name) for name in THREAD_VARS}
    info["dropped_env"] = run.dropped_env
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is torn down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api", "facade.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        print(f"host: {json.dumps(host_info(run), sort_keys=True)}")
        if run.workload == layers.SERVE_MIXED:
            metrics = run_serve_workload(run)
        else:
            metrics = run_campaign_workload(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    for problem in run.problems:
        print(f"check failed: {problem}")
    if run.problems:
        run.failed = run.attempted
        if "success_rate" in metrics:
            metrics["success_rate"] = (0.0, "ratio", run.attempted)
    print(f"{run.workload} seed={run.seed} trace={int(run.trace)}")
    for name, (value, unit, count) in metrics.items():
        samples = "" if count is None else f"  (n={count})"
        print(f"  {name:28s} {value:>14.6g} {unit}{samples}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
