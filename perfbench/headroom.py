"""Headroom of each acceptance criterion: elapsed time against its budget.

    python3 perfbench/headroom.py

Run from the repository root.  Runs the acceptance suite
(``tests/test_acceptance.py``) once, unchanged, reads the
``criterion N: STATUS (Xs / Ys) description`` lines it prints in its
summary, and prints for each criterion the ratio elapsed/budget and the
headroom budget/elapsed (the roadmap's target is a headroom of at least
2x).  The last line of stdout is the same table as JSON.  Exits 0 when the
suite printed a line for every criterion it ran, 1 otherwise; a criterion
over budget shows as FAIL in the table and does not change the exit code.
This is a report, not a workload: the benchmark's runs never call it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"criterion\s+(\d+): (PASS|FAIL) \(\s*([\d.]+)s /\s*([\d.]+)s\) (.*)")
TIMEOUT_S = 1800


def parse(text: str) -> list[dict]:
    rows = []
    for line in text.splitlines():
        m = LINE.search(line)
        if m:
            number, status, elapsed, budget, description = m.groups()
            elapsed, budget = float(elapsed), float(budget)
            rows.append(
                {
                    "criterion": int(number),
                    "status": status,
                    "elapsed_s": elapsed,
                    "budget_s": budget,
                    "ratio": elapsed / budget,
                    "headroom": budget / elapsed if elapsed else None,
                    "description": description.strip(),
                }
            )
    return sorted(rows, key=lambda r: r["criterion"])


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    rows = parse(proc.stdout)
    if not rows:
        print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n", file=sys.stderr)
        print("the acceptance suite printed no criterion lines", file=sys.stderr)
        return 1
    print(f"{'criterion':>9}  {'status':6} {'elapsed':>8} {'budget':>7} {'ratio':>6} {'headroom':>8}")
    for r in rows:
        headroom = f"{r['headroom']:7.2f}x" if r["headroom"] else "      -"
        print(
            f"{r['criterion']:>9}  {r['status']:6} {r['elapsed_s']:7.1f}s {r['budget_s']:6.0f}s "
            f"{r['ratio']:6.2f} {headroom}  {r['description']}"
        )
    # an elapsed time printed as 0.0s has unbounded headroom
    short = [r["criterion"] for r in rows if r["headroom"] is not None and r["headroom"] < 2]
    print(f"criteria below 2x headroom: {short or 'none'}")
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pytest_exit": proc.returncode,
        "criteria": rows,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
