"""Smoke run: every workload at tiny size, untraced and traced, a second each.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is a result object with the
metrics BENCHMARK.json lists, and that every check passed.  Takes about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w["name"],
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                res = {}
            ok = (proc.returncode == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                  and set(res["metrics"]) == {m["name"] for m in listed})
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={trace}")
            if not ok:
                bad += 1
                sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
