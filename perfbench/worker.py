"""One workload in one process: set up, signal readiness, measure, report.

Started by ``run.py``; not meant to be run by hand.  Stdout carries exactly
two lines for the launcher: ``READY <reference loop ns>`` once set-up
(imports, inputs, references, warm-up) is done, and finally one JSON
object with the results.  Everything else goes to stderr.

Untraced (``--trace 0``): a closed loop, one op in flight, for
``--seconds``; every op's latency is recorded and its output checked.
Traced (``--trace 1``): set-up runs under the tracer; then the fixed pass
(the first ``pass_size`` ops) runs untraced, for the tracing overhead, and
traced, repeated until ``--seconds`` have passed.  Times are reported in
nominal time (see ``speed.py``); the untraced run also returns its wall
figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402  (the benchmark's own modules, beside this file)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS_SHOWN = 5
TICK_S = 0.1
# ops per block for op_tail_ms (so p96).  Single-op hiccups of about 0.1 ms
# hit 0.3-3% of ops on the reference machine, depending on its state; with
# blocks of 1,000 (p99) the tail of arith-enum's 0.12 ms op fell on them in
# some runs and not in others, and its ten-seed spread reached 0.26.
TAIL_BLOCK = 250
STARTUP_CASES = 20  # CLI commands the launcher times in fresh interpreters


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Tally:
    """Attempted and failed ops; an op fails on a wrong answer or an exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def judge(self, wl, i: int, out, error=None) -> bool:
        """Count op ``i``, which returned ``out`` or raised ``error``; True if it passed."""
        self.attempted += 1
        ok = False
        if error is None:
            try:
                ok = bool(wl.check(i, out))
            except Exception as exc:  # a malformed output is a wrong answer
                error = exc
        if not ok:
            self.failed += 1
            if self.failed <= MAX_ERRORS_SHOWN:
                what = f"raised {type(error).__name__}: {error}" if error else "gave a wrong answer"
                print(f"op {i} {what}: {wl.input_text(i)[:200]}", file=sys.stderr)
        return ok


def attempt(wl, i: int, tracer=None):
    """Run op ``i`` once: its output (None if it raised), the exception, and its latency in ns."""
    op = wl.ops[i]
    if tracer is not None:
        tracer.enabled = True
    start = perf_counter_ns()
    try:
        return wl.run(op), None, perf_counter_ns() - start
    except Exception as exc:  # an unexpected exception is a failed op
        return None, exc, perf_counter_ns() - start
    finally:
        if tracer is not None:
            tracer.enabled = False


def timed_loop(wl, seconds: float, tally: Tally):
    """Closed loop for ``seconds``, cut into ticks of at least ``TICK_S``.

    The reference loop is timed at every tick boundary (outside the ticks),
    so each tick has its own factor to nominal time.  Returns the wall
    latency of every op (ns), the outputs of the fixed pass, and the ticks
    as (first op, ops, wall ns, factor).
    """
    n = len(wl.ops)
    latencies, kept, ticks = [], [], []
    ref_before = speed.reference_ns()
    start = tick_start = now = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    first = i = 0
    while now < deadline:
        out, error, ns = attempt(wl, i % n)
        latencies.append(ns)
        tally.judge(wl, i % n, out, error)
        if i < wl.pass_size:
            kept.append(out)
        i += 1
        now = perf_counter_ns()
        if now - tick_start >= TICK_S * 1e9 or now >= deadline:
            ref_after = speed.reference_ns()
            ticks.append((first, i - first, now - tick_start, speed.scale(ref_before, ref_after)))
            ref_before, first = ref_after, i
            tick_start = now = perf_counter_ns()
    return latencies, kept, ticks


def timed_metrics(latencies, ticks) -> tuple[dict, dict]:
    """End-to-end metrics in nominal time, and the same figures in wall time for the record."""
    nominal = []
    for first, count, _, factor in ticks:
        nominal.extend(ns * factor for ns in latencies[first : first + count])
    tail_ms, pct, beyond, blocks = tail(nominal)
    metrics = {
        "ops_per_s": len(latencies) * 1e9 / sum(ns * f for _, _, ns, f in ticks),
        "op_p50_ms": statistics.median(nominal) / 1e6,
        "op_tail_ms": tail_ms,
    }
    factors = sorted(f for *_, f in ticks)
    raw = {
        "ops_per_s": len(latencies) * 1e9 / sum(ns for _, _, ns, _ in ticks),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail(latencies)[0],
        "factor_min_median_max": [factors[0], statistics.median(factors), factors[-1]],
        "tail": {"percentile": pct, "samples_beyond": beyond, "blocks": blocks, "samples": len(latencies)},
        "ticks": len(ticks),
    }
    return metrics, raw


def timed_pass(wl, tally: Tally, tracer=None):
    """The fixed pass once; returns its nominal time (ns), its outputs and its factor to nominal time."""
    outs = []
    ref_before = speed.reference_ns()
    start = perf_counter_ns()
    for i in range(wl.pass_size):
        out, error, _ = attempt(wl, i, tracer)
        tally.judge(wl, i, out, error)
        outs.append(out)
    wall = perf_counter_ns() - start
    factor = speed.scale(ref_before, speed.reference_ns())
    return wall * factor, outs, factor


def scaled(delta: dict, factor: float) -> dict:
    """A tracer delta with its self times in nominal time."""
    return {**delta, "self_ns": [ns * factor for ns in delta["self_ns"]]}


def tail(latencies_ns):
    """Latency (ms) at the highest percentile with at least 10 samples beyond it.

    The run is cut into ``max(1, n // TAIL_BLOCK)`` blocks of consecutive
    ops, as equal as they can be, so that no op is dropped; the figure is
    the median over the blocks of each block's 11th-slowest op, so that a
    few hiccups of the machine cannot set it alone.  Also returns the
    percentile (of the smallest block), the samples beyond it per block,
    and the number of blocks.
    """
    n = len(latencies_ns)
    k = max(1, n // TAIL_BLOCK)
    blocks = [latencies_ns[j * n // k : (j + 1) * n // k] for j in range(k)]
    size = n // k
    beyond = min(10, size - 1)
    value = statistics.median(sorted(block)[-beyond - 1] for block in blocks)
    return value / 1e6, 100.0 * (size - beyond) / size, beyond, k


def fingerprint(wl, seed: int, outputs) -> dict:
    k = wl.pass_size
    fp = {
        "workload": wl.name,
        "seed": seed,
        "pass_size": k,
        "input_digest": _digest(wl.input_text(i) for i in range(k)),
        "output_digest": _digest("<failed>" if o is None else wl.output_text(o) for o in outputs[:k]),
        "counts": wl.counts(),
    }
    fp["id"] = _digest([repr(sorted(fp.items()))])
    return fp


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled, tracer.phase = True, "setup"
        ref_before = speed.reference_ns()
        before = tracer.snapshot()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer:
        tracer.enabled, tracer.phase = False, None
        setup_delta = scaled(tracer.delta(before, tracer.snapshot()), speed.scale(ref_before, speed.reference_ns()))
    # warm up on the last ops of the list, which the timed loop reaches last
    warm = Tally()
    for i in range(len(wl.ops) - wl.warm_ops, len(wl.ops)):
        warm.judge(wl, i, *attempt(wl, i)[:2])
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    print(f"READY {speed.reference_ns()}", flush=True)
    if args.setup_only:
        os._exit(0)  # skip tearing down the inputs; the launcher times only readiness

    tally = Tally()
    tally.failed += warm.failed
    tally.attempted += warm.attempted
    result = {"workload": wl.name}
    if not tracer:
        latencies, kept, ticks = timed_loop(wl, args.seconds, tally)
        result["metrics"], result["wall"] = timed_metrics(latencies, ticks)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["ops"] = len(latencies)
        result["fingerprint"] = fingerprint(wl, args.seed, kept)
        result["startup_cases"] = wl.startup_cases(STARTUP_CASES)
    else:
        tracer.uninstall()
        untraced = [timed_pass(wl, tally)[0] for _ in range(5)]
        tracer.install()
        passes, walls, first_outputs = [], [], None
        deadline = perf_counter_ns() + int(args.seconds * 1e9)
        while not passes or perf_counter_ns() < deadline:
            tracer.phase = "pass" if not passes else None
            before = tracer.snapshot()
            wall, outs, factor = timed_pass(wl, tally, tracer)
            passes.append(scaled(tracer.delta(before, tracer.snapshot()), factor))
            walls.append(wall)
            first_outputs = first_outputs or outs
        tracer.uninstall()
        traced_rate = wl.pass_size / (statistics.median(walls) / 1e9)
        untraced_rate = wl.pass_size / (statistics.median(untraced) / 1e9)
        metrics = tracer.metrics(setup_delta, passes)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead"] = untraced_rate / traced_rate
        result["metrics"] = metrics
        result["passes"] = len(passes)
        result["calls_repeat"] = all(p["calls"] == passes[0]["calls"] for p in passes)
        if not result["calls_repeat"]:
            tally.failed += 1
            print("traced passes made different calls", file=sys.stderr)
        result["ops"] = len(passes) * wl.pass_size
        result["fingerprint"] = fingerprint(wl, args.seed, first_outputs)
        result["spans_dropped"] = tracer.dropped
        if args.spans:
            tracer.write_spans(args.spans)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
