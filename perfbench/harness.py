"""Closed-loop timing, answer checks, metrics and the run report.

One client, one thread, one op in flight.  A run repeats whole passes over
its ops (each pass in a fresh seeded order) until it has measured for the
requested seconds and completed at least MIN_OPS ops, so every run times the
same multiset of ops.  Answers are checked between ops, off the clock.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy

import workloads
from tracer import Tracer, layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEADLINE_S = 10.0
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 3
MESSAGE_CHARS = 300


class OpDeadline(Exception):
    """Raised inside an op that runs past the per-op deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline("op exceeded its deadline")


@contextlib.contextmanager
def deadline_alarm():
    """Route SIGALRM to OpDeadline; run_op arms the timer per op."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def make_workdir() -> str:
    path = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ------------------------------------------------------------ the loop


@dataclass
class LoopStats:
    booked: list[float] = field(default_factory=list)  # seconds; failed ops at the deadline
    correct: int = 0
    failures: list[dict] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.booked)

    @property
    def busy_s(self) -> float:
        return sum(self.booked)


def run_op(op: workloads.Op, answers: dict, deadline: float, tracer: Tracer | None = None):
    """Run one op under the deadline (inside deadline_alarm); return
    (booked seconds, failure row or None)."""
    failure = None
    root = tracer.begin_op(op.key) if tracer else None
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            start = time.perf_counter()
            raw = op.call()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline as exc:
        failure = {"op": op.key, "kind": "deadline", "type": type(exc).__name__, "message": str(exc)}
    except Exception as exc:  # an op that raises is a failed op, never a fast answer
        failure = {"op": op.key, "kind": "raised", "type": type(exc).__name__,
                   "message": str(exc)[:MESSAGE_CHARS]}
    finally:
        if tracer:
            tracer.end_op(root)
    if failure is None:
        want = answers.get(op.key)
        try:
            got = op.canon(raw)
        except Exception as exc:
            got = f"unreadable answer: {type(exc).__name__}: {exc}"[:MESSAGE_CHARS]
        if got != want:
            failure = {"op": op.key, "kind": "wrong", "type": "WrongAnswer",
                       "message": f"expected {want!r}, got {got!r}"}
    return (deadline, failure) if failure else (elapsed, None)


def run_loop(ops: list[workloads.Op], answers: dict, seed: int, *, seconds: float, min_ops: int,
             deadline: float = DEADLINE_S, tracer: Tracer | None = None) -> LoopStats:
    """Whole seeded-order passes until `seconds` elapsed and `min_ops` ops ran
    (a single pass when both are 0)."""
    stats = LoopStats()
    start = time.perf_counter()
    with deadline_alarm():
        while True:
            order = list(ops)
            random.Random(f"order/{seed}/{stats.passes}").shuffle(order)
            for op in order:
                booked, failure = run_op(op, answers, deadline, tracer)
                stats.booked.append(booked)
                if failure:
                    failure["pass"] = stats.passes
                    stats.failures.append(failure)
                else:
                    stats.correct += 1
            stats.passes += 1
            if time.perf_counter() - start >= seconds and stats.attempted >= min_ops:
                return stats


def run_known_failure(prepared: workloads.Prepared, deadline: float) -> list[dict]:
    """Run the documented baseline failure once, untimed, and report its outcome."""
    inst, flags = workloads.KNOWN_FAILURE
    if inst.key not in prepared.files:
        return []
    argv = ["solve", "--input", prepared.files[inst.key]] + flags
    op = workloads.Op("known", f"cli/EE-stb/{inst.key}", lambda: workloads.run_cli(argv), workloads.canon_cli)
    with deadline_alarm():
        _, failure = run_op(op, {}, deadline)
    return [failure or {"op": op.key, "kind": "answered", "type": None, "message": "no longer fails"}]


# ------------------------------------------------------------- metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as its own --setup-probe run reports it."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "afkit")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as handle:
                src.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "deadline_s": DEADLINE_S, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": commit, "src_sha256": src.hexdigest(),
    }


def _metric_specs(kind: str) -> list[dict]:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))[kind]


# ---------------------------------------------------------------- runs


def set_up(workload: str, seed: int, workdir: str):
    """Everything before the first timed op: answers, instances, the run's ops."""
    expected = load_json(EXPECTED_PATH)
    prepared = workloads.prepare(workload, "full", expected, workdir)
    return expected, prepared, workloads.sample(prepared.universe, seed)


def probe_setup(workload: str, seed: int, t0: float) -> float:
    """Set-up only, for the repeated set-up samples; t0 is the process start clock."""
    workdir = make_workdir()
    try:
        set_up(workload, seed, workdir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(workload: str, seed: int, seconds: int, t0: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics.  t0 is the process start clock."""
    workdir = make_workdir()
    try:
        expected, prepared, ops = set_up(workload, seed, workdir)
        setups = [time.perf_counter() - t0]
        stats = run_loop(ops, expected["answers"], seed, seconds=seconds, min_ops=MIN_OPS)
        rss = peak_rss_mb()
        known = run_known_failure(prepared, DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups += [setup_probe(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    values = {
        "ops_per_s": stats.correct / stats.busy_s,
        "latency_p50_ms": percentile(stats.booked, 50) * 1000.0,
        "latency_p90_ms": percentile(stats.booked, 90) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in _metric_specs("end_to_end")}
    detail = {
        "stamp": stamp(workload, seed, seconds, 0),
        "ops_in_pass": len(ops), "passes": stats.passes, "latency_samples": stats.attempted,
        "fail_rate": len(stats.failures) / stats.attempted,
        "setup_samples_s": setups, "failures": stats.failures, "baseline_failures": known,
    }
    return detail, _result(stats.attempted, len(stats.failures), metrics)


def traced_run(workload: str, seed: int, seconds: int, scale: str = "full") -> tuple[dict, dict]:
    """Traced run: one untraced and one traced pass of every workload (the
    named one first), so each layer metric is measured where its layer runs."""
    expected = load_json(EXPECTED_PATH)
    order = [workload] + [w for w in workloads.WORKLOADS if w != workload]
    tracer = Tracer()
    workdir = make_workdir()
    try:
        tracer.install()
        prepared = {}
        try:
            for w in order:
                tracer.op = f"setup/{w}"
                prepared[w] = workloads.prepare(w, scale, expected, workdir)
            tracer.op = None
        finally:
            tracer.remove()
        attempted = failed = 0
        untraced_s = traced_s = 0.0
        failures, per_workload = [], {}
        names = [m["name"] for m in _metric_specs("per_layer")]
        for w in order:
            ops = workloads.sample(prepared[w].universe, seed)
            plain = run_loop(ops, expected["answers"], seed, seconds=0, min_ops=0)
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced = run_loop(ops, expected["answers"], seed, seconds=0, min_ops=0, tracer=tracer)
            finally:
                tracer.remove()
            for stats in (plain, traced):
                attempted += stats.attempted
                failed += len(stats.failures)
                failures += stats.failures
            untraced_s += plain.busy_s
            traced_s += traced.busy_s
            per_workload[w] = {
                "trace.overhead": traced.busy_s / plain.busy_s - 1.0,
                "layers": layer_metrics(tracer.spans[lo:], names, base=lo),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write(spans_path)
    values = layer_metrics(tracer.spans, names)
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in _metric_specs("per_layer")}
    detail = {
        "stamp": stamp(workload, seed, seconds, 1), "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": len(tracer.spans), "per_workload": per_workload, "failures": failures,
    }
    return detail, _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


