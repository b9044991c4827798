"""The benchmark's command: run one workload, or all of them, and report.

    python3 perfbench/run.py --workload arith-enum --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from the repository root; the program is imported from ``src/``.  The
benchmark's processes are pinned to one CPU, so that the reference loop
(``speed.py``) runs where the measured work runs.  One untraced run of one
workload:

1. times ``SETUP_REPEATS`` set-ups, each a fresh interpreter from launch to
   readiness (the last one is the measured process itself), and reports
   their median as ``setup_s``;
2. runs the measured process's closed loop (see ``worker.py``);
3. launches a fresh ``python -m alacarte.cli`` process for each of the
   CLI commands the worker names (``worker.STARTUP_CASES`` of them), one
   after another and each followed by a bare interpreter launch, checks
   each one's exit code and stdout, and reports their median time as
   ``startup_ms``, scaled by the bare launches (``speed.py``).

Every time is reported in nominal time (``speed.py``).  A traced run
(``--trace 1``) does none of the set-up repeats or launches and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full record of each run (fingerprint, environment,
wall-clock figures, tail percentile) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # the benchmark's own modules, beside this file
from tracer import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("arith-enum", "arith-deep", "lang-fuzz", "cli")
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "startup_ms": "ms",
}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ALACARTE_FUEL", None)
    return env


def _worker_argv(workload, seed, seconds, trace, *extra):
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]


def run_worker(argv) -> tuple[float, float, dict | None]:
    """Start a worker; return its launch-to-READY time (wall s), the factor to nominal time, and its final JSON."""
    ref_before = speed.reference_ns()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S)
        ready = proc.stdout.readline().split()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(argv[2:])}")
    if len(ready) != 2 or ready[0] != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(argv[2:])}")
    lines = rest.strip().splitlines()
    return setup_s, speed.scale(ref_before, int(ready[1])), json.loads(lines[-1]) if lines else None


def _launch(argv, expected=None) -> tuple[float, bool]:
    """One fresh interpreter running ``argv``: its wall time (ms) and whether it exited 0 with ``expected``."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"launch timed out: {argv}")
    elapsed = (time.perf_counter() - start) * 1e3
    ok = proc.returncode == 0 and (expected is None or proc.stdout == expected)
    if not ok:
        print(f"launch went wrong (exit {proc.returncode}): {argv}", file=sys.stderr)
    return elapsed, ok


def startup_launches(cases) -> tuple[list[float], list[float], int]:
    """Each CLI command in a fresh interpreter, one at a time, each followed by a bare one.

    Returns the CLI launches' wall times (ms), the bare launches' (ms), and
    how many CLI launches went wrong.
    """
    cli_ms, bare_ms, bad = [], [], 0
    for argv, expected in cases:
        ms, ok = _launch(["-m", "alacarte.cli", *argv], expected)
        cli_ms.append(ms)
        bad += not ok
        ms, ok = _launch(speed.BARE_LAUNCH)
        if not ok:
            raise BenchError("a bare interpreter launch failed")
        bare_ms.append(ms)
    return cli_ms, bare_ms, bad


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git checkout (no repository above it is asked)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """Digest of the program's sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload once; returns the full record."""
    load_before = os.getloadavg()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        spans = OUT_DIR / f"spans-{stem}.jsonl"
        _, _, result = run_worker(_worker_argv(workload, seed, seconds, 1, "--spans", str(spans)))
        metrics = result["metrics"]
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["passes"] = result["passes"]
        record["calls_repeat"] = result["calls_repeat"]
        record["spans_dropped"] = result["spans_dropped"]
    else:
        setups = [
            run_worker(_worker_argv(workload, seed, seconds, 0, "--setup-only"))[:2]
            for _ in range(SETUP_REPEATS - 1)
        ]
        *measured, result = run_worker(_worker_argv(workload, seed, seconds, 0))
        setups.append(tuple(measured))
        launch_ms, bare_ms, bad = startup_launches(result["startup_cases"])
        result["attempted"] += len(launch_ms)
        result["failed"] += bad
        metrics = dict(result["metrics"])
        metrics["setup_s"] = statistics.median(s * f for s, f in setups)
        metrics["startup_ms"] = statistics.median(launch_ms) * speed.BARE_NOMINAL_MS / statistics.median(bare_ms)
        metrics = {name: metrics[name] for name in END_TO_END}
        wall = result["wall"]
        wall["setup_s"] = statistics.median(s for s, _ in setups)
        wall["startup_ms"] = statistics.median(launch_ms)
        record["wall"] = wall
        record["setup_samples"] = [{"wall_s": s, "factor": f} for s, f in setups]
        record["startup_samples"] = [{"wall_ms": ms, "bare_ms": b} for ms, b in zip(launch_ms, bare_ms)]
        record["tail"] = wall["tail"]
    record.update(
        attempted=result["attempted"],
        failed=result["failed"],
        ops=result["ops"],
        metrics=metrics,
        fingerprint=result["fingerprint"],
        environment=environment(),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
    )
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or metric_unit(name)


def print_record(record: dict):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, value in record["metrics"].items():
        line = f"  {name:34s} {value:14.6g} {unit_of(name)}"
        if name == "op_tail_ms":
            t = record["tail"]
            line += (
                f"  (p{t['percentile']:.4g} with {t['samples_beyond']} samples beyond, median of"
                f" {t['blocks']} blocks; {t['samples']} samples)"
            )
        elif name == "setup_s":
            line += f"  (median of {len(record['setup_samples'])}; wall {record['wall']['setup_s']:.4g} s)"
        elif name == "startup_ms":
            line += f"  (median of {len(record['startup_samples'])} launches; wall {record['wall']['startup_ms']:.4g} ms)"
        print(line)
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':34s} {ratio:14.6g} ratio  ({record['failed']} of {record['attempted']})")
    fp = record["fingerprint"]
    print(f"  fingerprint {fp['id']}  counts {json.dumps(fp['counts'], sort_keys=True)}")


def summary(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "alacarte" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'alacarte'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every child
    try:
        records = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_record(record)
    if args.workload == "all":
        print(json.dumps({r["workload"]: summary(r) for r in records}, sort_keys=True))
    else:
        print(json.dumps(summary(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
