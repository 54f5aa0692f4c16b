"""Benchmark of the tccs workbench: one workload per run.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

It imports `src/tccs` and `tests/oracles.py` from the source tree it
sits in.  The workloads are described in `perfbench/workloads.py` and
`perfbench/record.json`.

One client sends one query at a time (a closed loop, one thread) until
the queries have kept the library busy for `--seconds`, always finishing
the round it is in.  A round is a fixed list of input slots, filled
with fresh names each round, so slot j of every round is the same
program under other names.  Inputs are made and answers recorded
between queries, outside the timers.  Every answer is checked, also
between queries and outside the timers, against references that do not
come from the code under test (analytic counts, `tests/oracles.py`, the
counters recorded in `perfbench/expected.json`).  Only the first round
is kept, so the harness's own memory does not grow with the run.

With `--trace 0` the run reports the end-to-end metrics: throughput,
median latency, set-up time (the median of five set-ups, each in a
fresh interpreter: importing the library, then the workload's own
set-up) and peak resident memory.  Every time among them is at
reference speed: scaled by a calibration loop timed every 0.1 s during
the queries and around each set-up, because the shared host's speed
drifts by more than a regression would move it (`perfbench/speed.py`).
The unscaled figures are printed too.  With `--trace 1` an untraced and
a traced stream of queries take turns for `--seconds` in all, and the
run reports the per-layer metrics, per traced query, and the tracing
overhead.  The spans are written to `.bench_build/perfbench-traces/`.

Every metric is printed on its own line with its unit; the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 when every answer was correct, 1 when one was not,
and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


class Lane:
    """One stream of queries: entry points, inputs, and what they gave."""

    def __init__(self, wl, layers, inputs, gate, tracer=None, clock=None):
        self.wl = wl
        self.layers = layers
        self.inputs = inputs
        self.gate = gate
        self.tracer = tracer
        self.clock = clock
        # start and end of each query on the wall clock
        self.spans: list[tuple[float, float]] = []
        # each query's seconds, less any calibration that interrupted it
        self.latencies: list[float] = []
        # per-layer counters summed over the lane's answers
        self.counters: dict[str, float] = {}
        self.text_bytes = 0
        # (input, outcome, error) per query of the round in progress
        self.round: list[tuple] = []

    def run(self) -> float:
        wl = self.wl
        inp = next(self.inputs)
        error = None
        if self.tracer is None:
            active = contextlib.nullcontext()
        else:
            self.tracer.query = len(self.latencies)
            active = tracing.rebound(self.tracer)
        with active:
            t0 = time.perf_counter()
            try:
                raw = wl.query(self.layers, inp)
            except Exception:
                raw, error = None, traceback.format_exc()
            t1 = time.perf_counter()
        dt = t1 - t0
        if self.clock is not None:
            dt -= self.clock.inside(t0, t1)
        out = None
        if error is None:
            try:
                out = wl.outcome(inp, raw)
            except Exception:
                error = traceback.format_exc()
        self.spans.append((t0, t1))
        self.latencies.append(dt)
        self.text_bytes += len(wl.text(inp) or "")
        if out is not None:
            for key, value in out["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
        self.round.append((inp, out, error))
        if len(self.round) == wl.round_size:
            self.gate.check_round(self.round)
            self.round = []
        return dt

    def scaled(self) -> list[float]:
        """Each query's latency at reference speed."""
        scale = self.clock.scale
        return [
            dt * scale(t0, t1) for (t0, t1), dt in zip(self.spans, self.latencies)
        ]


def run_rounds(wl, lanes, budget):
    """Run whole rounds until the first lane has been busy `budget` seconds.

    Within a round the lanes take turns query by query, so that drift in
    the machine's speed touches them alike.
    """
    busy = 0.0
    while busy < budget:
        for _ in range(wl.round_size):
            busy += lanes[0].run()
            for lane in lanes[1:]:
                lane.run()


class Gate:
    """Checks every answer, a round at a time, and keeps the failures.

    Query numbers run over all lanes in the order their rounds end.  The
    first round is kept: later rounds must give the same answers slot by
    slot, and it alone goes to `tests/oracles.py`, after the run.
    """

    def __init__(self, wl, expected) -> None:
        self.wl = wl
        self.expected = expected
        self.first: list[tuple] | None = None
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}
        self.notes: list[str] = []

    def fail(self, i, msg):
        self.failures.setdefault(i, []).append(msg)

    def check_round(self, records):
        wl, size = self.wl, self.wl.round_size
        start = self.attempted
        self.attempted += size
        if self.first is None:
            self.first = records
        for j, (inp, out, error) in enumerate(records):
            i = start + j
            if error is not None:
                self.fail(i, error.strip().splitlines()[-1])
                continue
            for msg in wl.check(inp, out):
                self.fail(i, msg)
            ref = self.first[j][1]
            if i == j or ref is None:
                continue
            if (out["semantic"], out["work"]) != (ref["semantic"], ref["work"]):
                self.fail(i, "answer differs from query %d, the same input "
                             "under other names" % j)
            elif j in self.failures:
                self.fail(i, "same answer as query %d, which failed" % j)
        outs = [out for _, out, _ in records]
        if any(out is None for out in outs):
            return
        got = wl.summary(outs)
        expected = self.expected
        if got["semantic"] != expected["semantic"] and not any(
            i in self.failures for i in range(start, start + size)
        ):
            for i in range(start, start + size):
                self.fail(i, "round counters %s differ from expected.json %s"
                          % (got["semantic"], expected["semantic"]))
        if got["work"] != expected["work"] and not self.notes:
            self.notes.append(
                "work counters %s differ from expected.json %s; reported, "
                "not a failure" % (got["work"], expected["work"]))

    def check_oracle(self, oracles):
        """Check the first round against `tests/oracles.py`.  A slot that
        fails there fails in every round: each gave the same answer."""
        size = self.wl.round_size
        first = self.first
        if first is None or any(out is None for _, out, _ in first):
            return
        bad = self.wl.oracle([(inp, out) for inp, out, _ in first], oracles)
        for j, msgs in bad.items():
            for msg in msgs:
                self.fail(j, msg)
            for i in range(j + size, self.attempted, size):
                if i not in self.failures:
                    self.fail(i, "same answer as query %d, which failed" % j)


# Times one set-up in a fresh interpreter: importing the library, then
# the workload's own set-up.
SETUP_PROBE = """
import sys, time
root, perfbench, name, seed = sys.argv[1:]
t0 = time.perf_counter()
sys.path[:0] = [root + "/src", root + "/tests", perfbench]
import oracles, tccs, workloads
workloads.WORKLOADS[name](int(seed)).setup()
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, seed: int, clock) -> tuple[float, float]:
    """Seconds one fresh interpreter takes to set the workload up, at
    reference speed and on the wall clock.

    A fresh interpreter's own first loops run cold, so the calibration
    loop runs here, five times before the set-up and five times after.
    """
    for _ in range(5):
        clock.take()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT), str(HERE), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    end = time.perf_counter()
    for _ in range(5):
        clock.take()
    took = float(proc.stdout.strip().splitlines()[-1])
    return took * clock.scale(start, end), took


def quantile(values, q):
    """The q-th percentile, as `statistics.quantiles` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "tccs" / "__init__.py").is_file()
            and (ROOT / "tests" / "oracles.py").is_file()):
        print("error: %s is not a tccs source tree (src/tccs and "
              "tests/oracles.py are missing)" % ROOT, file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import oracles

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    expected = json.loads((HERE / "expected.json").read_text())[wl.name]

    print("workload %s, seed %d, %g s, trace %d"
          % (wl.name, args.seed, args.seconds, args.trace))

    gate = Gate(wl, expected)
    clock = speed.Clock() if args.trace == 0 else None
    timed = Lane(wl, tracing.direct_layers(), wl.inputs(), gate, clock=clock)
    metrics: dict[str, tuple[float, str]] = {}
    # printed with the metrics, but not part of the result object: the
    # tail exists only with 1000 queries or more, and the failure ratio
    # is 0 on a correct run
    printed: list[str] = []
    run_failures: list[str] = []
    if args.trace == 0:
        setups = [measure_setup(wl.name, args.seed, clock)
                  for _ in range(SETUP_REPEATS)]
        print("setup at reference speed: %s s; on the wall clock: %s s" % (
            " ".join("%.4f" % s for s, _ in setups),
            " ".join("%.4f" % w for _, w in setups)))
        with clock.sampling():
            run_rounds(wl, [timed], args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = timed.latencies
        lat = timed.scaled()
        metrics["queries_per_s"] = (len(lat) / sum(lat), "1/s")
        metrics["query_p50_ms"] = (1e3 * statistics.median(lat), "ms")
        metrics["setup_s"] = (statistics.median(s for s, _ in setups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print("queries: %d in rounds of %d, %.3f s busy, %d calibrations" % (
            len(lat), wl.round_size, sum(wall), len(clock.times)))
        print("unscaled: %.6g 1/s, median %.6g ms, set-up %.6g s; "
              "calibration loop median %.4g ms, reference %.4g ms" % (
                  len(wall) / sum(wall), 1e3 * statistics.median(wall),
                  statistics.median(w for _, w in setups),
                  1e3 * statistics.median(clock.times), 1e3 * speed.REFERENCE_S))
        if len(lat) >= 1000:
            printed.append("metric query_p99_ms = %.6g ms (unscaled %.6g ms)" % (
                1e3 * quantile(lat, 99), 1e3 * quantile(wall, 99)))
        else:
            printed.append("query_p99_ms not reported: %d queries, fewer than "
                           "1000; query_p50_ms is their median" % len(lat))
        print_tail(wl, timed, lat)
    else:
        tracer = tracing.Tracer()
        traced = Lane(wl, tracer.layers(), wl.inputs(stream=1), gate, tracer)
        run_rounds(wl, [timed, traced], args.seconds / 2)
        per_layer, run_failures = layer_report(wl, timed, traced)
        metrics.update(per_layer)
        tracer.write(TRACE_DIR / ("%s-seed%d.jsonl.gz" % (wl.name, args.seed)))
        print("queries: %d untraced in %.3f s, %d traced in %.3f s, "
              "in rounds of %d" % (
                  len(timed.latencies), sum(timed.latencies),
                  len(traced.latencies), sum(traced.latencies), wl.round_size))
        print_tail(wl, timed, timed.latencies, traced)

    gate.check_oracle(oracles)
    failures, notes = gate.failures, gate.notes
    attempted = gate.attempted
    failed = len(failures)
    for i in sorted(failures)[:10]:
        print("FAILED query %d: %s" % (i, "; ".join(failures[i])))
    for msg in run_failures:
        print("FAILED run: %s" % msg)
    for note in notes:
        print("note: %s" % note)
    for name, (value, unit) in metrics.items():
        print("metric %s = %.6g %s" % (name, value, unit))
    for line in printed:
        print(line)
    print("metric failed_ratio = %.6g ratio" % (failed / attempted))
    correct = failed == 0 and not run_failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def layer_report(wl, timed, traced):
    """Per-layer metrics per traced query, and the run's own failures."""
    tracer = traced.tracer
    untraced_s, traced_s = sum(timed.latencies), sum(traced.latencies)
    queries = len(traced.latencies)
    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        calls, busy, self_s = totals[layer]
        metrics[layer + ".calls"] = (calls / queries, "count")
        metrics[layer + ".busy_s"] = (busy / queries, "s")
        if layer in tracing.PARENT_LAYERS:
            metrics[layer + ".self_s"] = (self_s / queries, "s")

    counters = traced.counters
    parse_busy = totals["parse"][1]
    parsed_kb = traced.text_bytes / 1024
    metrics["parse.kb_per_s"] = (parsed_kb / parse_busy if parse_busy else 0.0, "kB/s")
    metrics["build_lts.states"] = (tracer.states / queries, "count")
    metrics["build_lts.edges"] = (tracer.edges / queries, "count")
    metrics["build_lts.ms_per_state"] = (
        1e3 * totals["build_lts"][1] / tracer.states if tracer.states else 0.0, "ms")
    for key in ("check_states.rounds", "check_states.cert_entries",
                "check_states.related", "largest_bisimulation.pairs",
                "falsify.hits"):
        metrics[key] = (counters.get(key, 0) / queries, "count")
    falsify_calls = totals["falsify"][0]
    metrics["falsify.hit_ratio"] = (
        counters.get("falsify.hits", 0) / falsify_calls if falsify_calls else 0.0,
        "ratio")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / queries, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.coverage"] = (tracer.top_level_busy() / untraced_s, "ratio")

    run_failures = [
        "layer %s recorded no calls" % layer
        for layer in wl.required if totals[layer][0] == 0
    ]
    return metrics, run_failures


def print_tail(wl, timed, lat, traced=None):
    """Name the inputs behind the slowest 1% of queries, given 1000 or more.

    Slot j of every round is the input of slot j of the first round
    under other names.  In a traced run, the traced query with the same
    number tells how many contexts the falsifier tried: one graph build
    each.
    """
    if len(lat) < 1000:
        return
    cut = quantile(lat, 99)
    seen = set()
    for i in sorted(range(len(lat)), key=lambda i: -lat[i]):
        if lat[i] < cut:
            break
        label = wl.describe(timed.gate.first[i % wl.round_size][0])
        if not label or label in seen:
            continue
        seen.add(label)
        if traced is not None:
            label += ", falsifier tried %d contexts" % traced.tracer.children_of(
                i, "falsify", "build_lts")
        print("slowest 1%%: %.1f ms, %s" % (1e3 * lat[i], label))


if __name__ == "__main__":
    sys.exit(main())
