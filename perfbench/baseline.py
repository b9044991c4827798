"""Run every workload over seeds 1-10 and summarise each end-to-end metric.

    python3 perfbench/baseline.py

Run from the repository root.  Runs ``run.py`` once per seed and workload,
one run at a time, for ``run_seconds`` from ``BENCHMARK.json``, and prints
for each workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The summary also holds
whether every run was correct and each seed's fingerprint id: compare two
summaries as a speed change only where the fingerprints agree.  The last
line of stdout is the summary as JSON, which is also written to
``.perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS  # the benchmark's own command, beside this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    summary = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        fingerprints = {}
        correct = True
        for seed in SEEDS:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
                correct = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = ROOT / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json"
            fingerprints[seed] = json.loads(record.read_text())["fingerprint"]["id"]
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()), flush=True)
        rows = {}
        for name, xs in values.items():
            median = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (median, median, median)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(xs)}
            print(f"  {workload:10s} {name:12s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {rows[name]['spread']:.3f}")
        summary[workload] = {"correct": correct, "fingerprints": fingerprints, "metrics": rows}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "baseline.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
