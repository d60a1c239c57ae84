"""Closed-loop client of the ``serve-mixed`` workload.

Usage: ``python3 perfbench/serve_client.py <order.json>``.  Two threads
work through a seeded list of ``CapacityJob`` submissions against one
``repro serve`` daemon; each thread sends its next request only after
the previous one completed, and waits a seeded think time before each
operation.  Every spec belongs to one thread, so the only concurrent
submissions of one spec are the deliberate duplicates:

* ``new``: a distinct spec (about a second of queueing simulation),
  run once; its results bytes become that spec's reference;
* ``dup``: a distinct spec submitted twice back to back, so the second
  submission dedups onto the active run (``created: false``);
* ``replay``: a resubmission of a finished spec of the same thread, a
  pure manifest replay whose results must equal the reference bytes.

Replay latency runs from submit to the results body.  The order file
names the daemon URL, the seed, the output path and, for the traced
run, a span directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

THREADS = 2
NEW_PER_THREAD = 5
DUP_PER_THREAD = 2
REPLAYS_PER_THREAD = 100
#: Mean client poll interval while a job is active, seconds.  Each wait
#: is drawn from [0, 2 * POLL_S): on a fixed grid every latency would be
#: a whole number of polls, and the median would jump a full interval
#: (about 47 or 67 ms) between runs.
POLL_S = 0.02
#: Upper bound of the seeded think time before each operation, seconds.
#: It spans the daemon's 0.1 s queue poll, so a closed loop cannot lock
#: onto one phase of that poll and replay latencies sample all of it.
THINK_S = 0.1
#: Give up on a job after this long, seconds.
JOB_TIMEOUT_S = 60.0


def capacity_spec(rng: random.Random) -> dict:
    """One distinct modeled-capacity job, about a second of simulation."""
    return {
        "kind": "capacity",
        "links": [64, 128],
        "duration": 50.0,
        "traffic": "mixed",
        "qos": "triple",
        "seed": rng.randrange(1, 10**6),
    }


def plan(seed: int) -> tuple[list[dict], list[list[list[tuple[str, int, float]]]]]:
    """The specs and each thread's rounds of ``(op, spec index, think s)``.

    A round is one introduction (``new`` or ``dup``) followed by a share
    of the thread's replays.  Both threads run each round's introduction
    together, between two barriers, so a distinct run's simulation never
    contends with the other thread's replays for the daemon's
    interpreter lock; replays measure service overhead alone.  The seed
    picks which introductions are duplicates, the spec seeds, the
    replayed specs and the think times.  A replay names a spec its own
    thread introduced earlier, so it always finds a finished job.
    """
    rng = random.Random(seed)
    intros = NEW_PER_THREAD + DUP_PER_THREAD
    specs: list[dict] = []
    lists = []
    for _ in range(THREADS):
        kinds = ["new"] * NEW_PER_THREAD + ["dup"] * DUP_PER_THREAD
        rng.shuffle(kinds)
        mine: list[int] = []
        rounds = []
        for index, kind in enumerate(kinds):
            specs.append(capacity_spec(rng))
            mine.append(len(specs) - 1)
            replays = REPLAYS_PER_THREAD // intros + (
                index < REPLAYS_PER_THREAD % intros
            )
            rounds.append(
                [(kind, mine[-1], rng.uniform(0, THINK_S))]
                + [("replay", rng.choice(mine), rng.uniform(0, THINK_S))
                   for _ in range(replays)]
            )
        lists.append(rounds)
    return specs, lists


class Session:
    """Shared counters and references of one client run."""

    def __init__(self, client, seed: int) -> None:
        self.client = client
        self.jitter = random.Random(seed)
        self.lock = threading.Lock()
        self.reference: dict[int, bytes] = {}
        self.replay_s: list[float] = []
        self.records: list[dict] = []
        self.jobs = 0
        self.requests = 0
        self.http_errors = 0
        self.submissions = 0
        self.deduped = 0
        self.failures: list[str] = []

    def call(self, method, *args):
        response = method(*args)
        with self.lock:
            self.requests += 1
            if not response.ok:
                self.http_errors += 1
        if not response.ok:
            raise RuntimeError(
                f"HTTP {response.status} from {method.__name__}: "
                f"{response.body[:200]!r}"
            )
        return response

    def submit(self, spec: dict) -> tuple[str, bool]:
        body = self.call(self.client.submit, spec).json()
        with self.lock:
            self.submissions += 1
            self.deduped += not body["created"]
        return body["job"]["job_id"], body["created"]

    def finish(self, job_id: str) -> bytes:
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            record = self.call(self.client.job, job_id).json()["job"]
            if record["state"] not in ("queued", "running"):
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {record['state']}")
            with self.lock:
                pause = self.jitter.uniform(0, 2 * POLL_S)
            time.sleep(pause)
        with self.lock:
            self.jobs += 1
            self.records.append(record)
        if record["state"] != "done":
            raise RuntimeError(f"job {job_id} ended {record['state']}")
        return self.call(self.client.results, job_id).body

    def run_op(self, op: str, index: int, spec: dict) -> None:
        if op == "replay":
            start = time.monotonic()
            job_id, created = self.submit(spec)
            body = self.finish(job_id)
            elapsed = time.monotonic() - start
            if not created:
                raise RuntimeError(f"replay of spec {index} was deduped")
            if body != self.reference[index]:
                raise RuntimeError(f"replay of spec {index} changed its results")
            with self.lock:
                self.replay_s.append(elapsed)
            return
        job_id, created = self.submit(spec)
        if not created:
            raise RuntimeError(f"first submission of spec {index} was deduped")
        if op == "dup":
            _, created_again = self.submit(spec)
            if created_again:
                raise RuntimeError(f"duplicate of spec {index} was not deduped")
        self.reference[index] = self.finish(job_id)


def main(order_path: str) -> int:
    with open(order_path) as handle:
        order = json.load(handle)
    try:
        from repro.serve.client import ServeClient

        if order.get("trace_dir"):
            import tracer

            recorder = tracer.Recorder(order["trace_dir"])
            for attr, name in (("submit", "serve.submit"),
                               ("job", "serve.poll"),
                               ("results", "serve.results")):
                setattr(ServeClient, attr,
                        recorder.wrap(name, getattr(ServeClient, attr)))
        specs, lists = plan(order["seed"])
        session = Session(ServeClient(order["url"], timeout=30.0), order["seed"])

        barrier = threading.Barrier(THREADS, timeout=JOB_TIMEOUT_S)

        def run(op, index, think):
            time.sleep(think)
            session.run_op(op, index, specs[index])

        def worker(rounds):
            try:
                for intro, *replays in rounds:
                    barrier.wait()
                    run(*intro)
                    barrier.wait()
                    for replay in replays:
                        run(*replay)
            except Exception:
                barrier.abort()
                session.failures.append(traceback.format_exc())

        threads = [
            threading.Thread(target=worker, args=(rounds,), name=f"client-{i}")
            for i, rounds in enumerate(lists)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.monotonic()
        reference = hashlib.sha256()
        for index in range(len(specs)):
            reference.update(session.reference.get(index, b"<missing>"))
        result = {
            "run_s": end - start,
            "window": [start, end],
            "replay_s": session.replay_s,
            "jobs": session.jobs,
            "requests": session.requests,
            "http_errors": session.http_errors,
            "submissions": session.submissions,
            "deduped": session.deduped,
            "records": session.records,
            "failures": session.failures,
            "digests": {"results": reference.hexdigest()},
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(order["out"], "w") as handle:
        json.dump(result, handle)
    return 0 if "error" not in result and not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
