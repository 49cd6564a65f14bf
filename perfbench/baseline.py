"""Measure every workload once untraced and once traced, and write the
figures, with the seed, Python version and CPU count, to baseline.json.

    python3 perfbench/baseline.py --seed 1
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name} run exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "seed": args.seed,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        record["workloads"][name] = {
            "end_to_end": run_once(name, args.seed, seconds, 0),
            "per_layer": run_once(name, args.seed, seconds, 1),
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
