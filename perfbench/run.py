"""Closed-loop benchmark of the polyconj command, one client in one process.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  One run sets up a workload's inputs from ``--seed``, then
runs whole rounds of ops, each op timed from its first command to its last,
until ``--seconds`` of op time have passed.  Every answer is checked outside
the timed region.  The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see perfbench/DESIGN.md).  Work files go
to ``.perfbench_work/`` in the checkout; the span file of a traced run stays
there.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("chain", "dense", "conj_large", "referee")
SETUP_REPEATS = 5
# Stop starting rounds after this much wall time, so a run ends in time.
WALL_LIMIT_S = 150.0

# Public calls reported one by one in a traced run (span names).
REPORTED_CALLS = (
    "cli.run",
    "formats.parse_instance",
    "formats.serialize_instance",
    "reductions.ssp_to_sspprime",
    "reductions.sspprime_to_tssp",
    "reductions.tssp_to_conjugacy",
    "reductions.pullback_sspprime_to_ssp",
    "reductions.pullback_tssp_to_sspprime",
    "reductions.conjugator_to_assignment",
    "reductions.assignment_to_conjugator",
    "conjugacy.search_conjugator",
    "conjugacy.verify_certificate",
    "conjugacy.reachable_g1_values",
    "group.conjugate",
    "group.multiply",
    "group.inverse",
    "tssp.solve_tssp_dp",
    "tssp.build_dp",
    "tssp.extract_assignment",
    "tssp.twisted_sum",
    "search.solve_ssp_brute",
    "search.solve_sspprime_brute",
    "search.solve_tssp_brute",
)
# Counts taken over the first traced round, with their units; they repeat
# exactly for a given seed.
REPORTED_COUNTS = {
    "formats.bytes_read": "bytes",
    "conjugacy.sweep_states": "count",
    "tssp.states": "count",
    "search.candidates": "count",
    "reductions.bits_in": "bit",
    "reductions.bits_out": "bit",
    "group.h": "count",
    "cli.exit_0": "count",
    "cli.exit_1": "count",
    "cli.exit_2": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes, for the smoke test")
    return p.parse_args(argv)


class Stats:
    """Latency and outcome of every attempted op."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_class: dict[str, list[float]] = {}
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.ops = 0

    def record(self, label: str, latency: float, ok: bool, timed: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        if timed:
            self.ops += 1
            self.timed_s += latency
            self.latencies.append(latency if ok else math.inf)
            self.by_class.setdefault(label, []).append(self.latencies[-1])


def run_case(workload, case, scratch, stats, timed=True, tracer=None, check_span=None):
    """One op, timed, then its check, untimed.  Returns the op's latency."""
    traced = tracer is not None
    if traced:
        tracer.recording = True
    start = time.perf_counter()
    try:
        with tracer.span("op") if traced else nullcontext():
            answer = workload.op(case, scratch)
        error = None
    except Exception as exc:  # a raise is a failed op, not a crashed run
        error = exc
    latency = time.perf_counter() - start
    if traced:
        tracer.recording = False
    if error is None:
        try:
            workload.check(case, answer, check_span or (lambda name: nullcontext()))
        except Exception as exc:
            error = exc
    if error is not None and stats.failed < 5:
        print(f"FAILED {workload.name} {case.label}: {type(error).__name__}: {error}",
              file=sys.stderr)
    stats.record(case.label, latency, error is None, timed)
    return latency


def run_round(workload, cases, scratch, stats, tracer=None, check_span=None):
    """Run one round of cases; returns its total op time."""
    total = 0.0
    for case in cases:
        if out_of_time():
            break
        if tracer is not None:
            tracer.op_id = stats.ops
        total += run_case(workload, case, scratch, stats, tracer=tracer, check_span=check_span)
    return total


def out_of_time() -> bool:
    return time.perf_counter() - T_START > WALL_LIMIT_S


def percentile(sorted_values, p):
    k = (len(sorted_values) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    return b if math.isinf(b) else a + (b - a) * (k - lo)


def inputs_rng(args) -> random.Random:
    return random.Random(f"perfbench:{args.workload}:{args.seed}")


def set_up(workload, args, work):
    """Generate and write the inputs SETUP_REPEATS times, each time afresh
    from the seed, and keep the last set.  Returns the pool, the median
    time of one set-up, and a digest of the input files."""
    times = []
    for i in range(SETUP_REPEATS):
        inputs = work / f"inputs{i}"
        start = time.perf_counter()
        inputs.mkdir(parents=True)
        pool = workload.setup(inputs, inputs_rng(args))
        times.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(inputs)
    digest = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return pool, statistics.median(times), digest.hexdigest()


def fill_expected(workload, pool) -> None:
    """Store each case's expected answer, where its check needs one worked
    out.  The referee runs in a child process, so that this process's peak
    memory is that of set-up and the ops alone."""
    if not hasattr(workload, "expected"):
        return
    from workloads import expected_answers

    cases = [case for cases in pool for case in cases]
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as child:
        answers = child.submit(expected_answers, workload, cases).result()
    for case, answer in zip(cases, answers):
        case.extra["expected"] = answer


def end_to_end(stats, setup_s, tail_p):
    lat = sorted(x * 1e3 for x in stats.latencies)
    n = len(lat)
    beyond = math.floor(n * (100 - tail_p) / 100)
    if beyond < 10:
        print(f"  note: only {beyond} samples beyond p{tail_p:g}")
    ok = sum(1 for x in lat if not math.isinf(x))
    metrics = {
        "op_latency_p50_ms": (percentile(lat, 50), "ms", f"n={n}"),
        "op_latency_tail_ms": (percentile(lat, tail_p), "ms", f"p{tail_p:g}, n={n}"),
        "throughput_ops_per_s": (ok / stats.timed_s, "1/s", f"{ok} ops in {stats.timed_s:.3f} s"),
        "setup_s": (setup_s, "s", f"import + median of {SETUP_REPEATS} input set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "whole process"),
    }
    return metrics


def per_layer(tracer, stats_ops, untraced_s, traced_s):
    from tracing import LAYERS

    self_times = tracer.self_times()
    roots = tracer.roots()
    per_call: dict[str, list[float]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    harness = 0.0
    for i, (name, *_rest) in enumerate(tracer.spans):
        entry = per_call.setdefault(name, [0.0, 0])
        entry[0] += self_times[i]
        entry[1] += 1
        on_op_path = tracer.spans[roots[i]][0] == "op"
        layer = name.split(".", 1)[0]
        if on_op_path and layer in layer_self:
            layer_self[layer] += self_times[i]
        elif name == "op":
            harness += self_times[i]
    n = max(stats_ops, 1)
    metrics = {}
    for name in REPORTED_CALLS:
        total, calls = per_call.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (total / n, "s/op", "")
        metrics[f"{name}.calls"] = (calls / n, "1/op", "")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layer_self[layer] / n, "s/op", "op path only")
    metrics["harness.self_s"] = (harness / n, "s/op", "benchmark's own work inside ops")
    counts = tracer.counts
    for name, unit in REPORTED_COUNTS.items():
        note = "computed as 2^n or 3^n per call" if name == "search.candidates" else ""
        metrics[name] = (counts.get(name, 0), unit, f"first round{note and ', ' + note}")
    searches = counts.get("conjugacy.searches", 0)
    metrics["conjugacy.fast_path_frac"] = (
        1 - counts.get("conjugacy.sweeps", 0) / searches if searches else 0.0, "fraction",
        "first round")
    states = counts.get("tssp.states", 0)
    metrics["tssp.useful_ratio"] = (
        counts.get("tssp.rows", 0) / states if states else 0.0, "fraction",
        "n / states, first round")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / n, "s/op", "traced minus untraced")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "fraction", "")
    dominant = max(layer_self, key=layer_self.get)
    return metrics, dominant


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polyconj" / "__init__.py").is_file():
        print(f"error: no polyconj package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload](args.tiny)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pool, setup_s, digest = set_up(workload, args, work)
        setup_s += import_s
        fill_expected(workload, pool)
        scratch = work / "op"
        scratch.mkdir()
        stats = Stats()
        first = pool[0][0]
        run_case(workload, first, scratch, stats, timed=False)  # warm-up
        print(f"workload {workload.name}: closed loop, 1 client, seed {args.seed}, "
              f"inputs sha256 {digest}")
        if args.trace:
            return traced_run(workload, pool, scratch, stats, args)
        rounds = 0
        while stats.timed_s < args.seconds and not out_of_time():
            run_round(workload, pool[rounds % len(pool)], scratch, stats)
            rounds += 1
        metrics = end_to_end(stats, setup_s, workload.tail_percentile)
        print(f"  {stats.ops} ops in {rounds} rounds, {stats.timed_s:.3f} s timed")
        for label, lat in stats.by_class.items():
            print(f"  class {label}: median {statistics.median(lat) * 1e3:.3f} ms, "
                  f"min {min(lat) * 1e3:.3f}, max {max(lat) * 1e3:.3f} (n={len(lat)})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(metrics, stats)


def traced_run(workload, pool, scratch, stats, args) -> int:
    """Run each round twice, untraced and traced, alternating which goes
    first, until ``--seconds`` of op time; exact counts come from the first
    traced round."""
    from tracing import Tracer

    tracer = Tracer()

    @contextmanager
    def check_span(name):
        tracer.recording = True
        try:
            with tracer.span(name):
                yield
        finally:
            tracer.recording = False

    untraced, traced = Stats(), Stats()
    untraced_s = traced_s = 0.0
    rounds = 0
    while untraced_s + traced_s < args.seconds and not out_of_time():
        cases = pool[rounds % len(pool)]
        for with_tracer in ((False, True) if rounds % 2 == 0 else (True, False)):
            if not with_tracer:
                untraced_s += run_round(workload, cases, scratch, untraced)
                continue
            tracer.counting = rounds == 0
            tracer.install()
            try:
                traced_s += run_round(workload, cases, scratch, traced, tracer, check_span)
            finally:
                tracer.uninstall()
        rounds += 1
    metrics, dominant = per_layer(tracer, traced.ops, untraced_s, traced_s)
    spans = WORK / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    span_file = spans / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    print(f"  {rounds} rounds of {traced.ops // rounds} ops, each untraced and traced: "
          f"{untraced_s:.3f} s untraced, {traced_s:.3f} s traced; "
          f"{len(tracer.spans)} spans in {span_file.name}")
    print(f"  dominant layer on the op path: {dominant}")
    for stat in (untraced, traced):
        stats.attempted += stat.attempted
        stats.failed += stat.failed
    return report(metrics, stats)


def report(metrics, stats) -> int:
    failed_frac = stats.failed / max(stats.attempted, 1)
    width = max(len(k) for k in metrics)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<{width}} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':<{width}} = {failed_frac:.6g}  "
          f"({stats.failed} of {stats.attempted} attempted)")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
