"""Self-test of the benchmark, on the tiny instances of every workload.

    python3 perfbench/selftest.py

Checks that a clean run answers every op as recorded; that a planted wrong
expected answer, a planted raise and a missed deadline each count as a failed
op booked at the deadline; that each traced op's span self-times sum to its
traced latency; and that a traced run reports every per-layer metric named in
BENCHMARK.json.  Exits 1 and lists what failed otherwise.
"""
from __future__ import annotations

import os
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import afkit.semantics  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import END, NAME, OP, OP_SPAN, START, Tracer, self_times  # noqa: E402

SEED = 7
DEADLINE = 2.0
problems: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def planted_raise():
    raise RuntimeError("planted")


def planted_sleep():
    time.sleep(DEADLINE * 10)


def loop(ops, answers, tracer=None, deadline=DEADLINE):
    return harness.run_loop(ops, answers, SEED, seconds=0, min_ops=0, deadline=deadline, tracer=tracer)


def check_workload(workload: str, expected: dict, workdir: str) -> None:
    prepared = workloads.prepare(workload, "tiny", expected, workdir)
    ops = workloads.sample(prepared.universe, SEED)
    answers = expected["answers"]

    clean = loop(ops, answers)
    check(not clean.failures and clean.attempted == len(ops),
          f"{workload}: clean tiny pass answers all {len(ops)} ops as recorded {clean.failures[:2]}")

    wrong, boom = ops[0], ops[1]
    planted_answers = dict(answers, **{wrong.key: "PLANTED"})
    planted_ops = [workloads.Op(boom.slot, boom.key, planted_raise, boom.canon) if op is boom else op
                   for op in ops]
    planted = loop(planted_ops, planted_answers)
    kinds = {f["op"]: (f["kind"], f["type"]) for f in planted.failures}
    check(kinds == {wrong.key: ("wrong", "WrongAnswer"), boom.key: ("raised", "RuntimeError")},
          f"{workload}: planted wrong answer and planted raise are the failed ops {kinds}")
    check(len(planted.failures) / planted.attempted == 2 / len(ops),
          f"{workload}: fail_rate counts both planted failures")
    check(sorted(planted.booked)[-2:] == [DEADLINE, DEADLINE],
          f"{workload}: failed ops are booked at the deadline")
    check(all(f["message"] for f in planted.failures), f"{workload}: failure rows keep their message")

    tracer = Tracer()
    tracer.install()
    try:
        traced = loop(ops, answers, tracer)
    finally:
        tracer.remove()
    check(not traced.failures, f"{workload}: traced tiny pass answers every op")
    own = self_times(tracer.spans)
    sums: dict[str, float] = {}
    roots: dict[str, float] = {}
    for span, t in zip(tracer.spans, own):
        sums[span[OP]] = sums.get(span[OP], 0.0) + t
        if span[NAME] == OP_SPAN:
            roots[span[OP]] = span[END] - span[START]
    gap = max(abs(sums[k] - roots[k]) for k in roots)
    check(len(roots) == len(ops) and gap < 1e-9,
          f"{workload}: each op's span self-times sum to its traced latency (max gap {gap:.1e} s)")


def main() -> int:
    expected = harness.load_json(harness.EXPECTED_PATH)
    workdir = harness.make_workdir()
    try:
        for workload in workloads.WORKLOADS:
            check_workload(workload, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sleeper = workloads.Op("sleep", "sleep", planted_sleep, workloads.canon_bool)
    start = time.perf_counter()
    late = loop([sleeper], {}, deadline=0.05)
    check(late.failures[0]["kind"] == "deadline" and late.booked == [0.05]
          and time.perf_counter() - start < 1.0,
          "an op past its deadline is interrupted, failed and booked at the deadline")

    original = afkit.semantics.enumerate_extensions
    detail, result = harness.traced_run("enum", SEED, 0, scale="tiny")
    names = [m["name"] for m in harness.load_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]]
    check(result["correct"] and sorted(result["metrics"]) == sorted(names),
          "a traced tiny run answers correctly and reports every per-layer metric")
    unexercised = [n for n in names if n.endswith(".self_ms") and not result["metrics"][n]["value"] > 0]
    check(not unexercised, f"every layer runs in the traced run {unexercised}")
    check(afkit.semantics.enumerate_extensions is original, "the traced run restores afkit's functions")
    os.remove(os.path.join(ROOT, detail["spans_file"]))

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
