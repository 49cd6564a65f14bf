"""The wcontact benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload codim4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The operations run in one thread, in one process at a time, in a closed
loop: each starts when the previous one has returned.

With ``--trace 0`` it runs the whole number of untraced passes over the
workload's operations that comes closest to ``--seconds`` (at least one),
each in a fresh interpreter (child.py), with set-up probes in fresh
interpreters before and after; every outcome is checked exactly, and the
end-to-end metrics are reported.  With ``--trace 1`` it runs one untraced
pass in a fresh interpreter and one traced pass in this process, and
reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-<seed>.jsonl``.  All reported times are
scaled to a reference host speed (see hostspeed.py); the summary line and
the per-layer metrics also give the unscaled time of the untraced pass.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Without a
wcontact source tree next to it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import workloads
from child import check_pass, run_pass
from hostspeed import HostSpeed
from tracer import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
# Set-up probes per run, half before the passes and half after: a probe
# takes a tenth of a second, so spreading them out samples more than one
# period of the host's load.
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 170
# Operation latencies are reported over single operations only where a pass
# has enough of them for a 90th percentile with ten samples beyond it; in a
# workload with fewer the latency sample is the whole pass.
LATENCY_MIN_OPS = 100

# (name, unit, better); the bounds live in BENCHMARK.json
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]


def run_child(workload: str, seed: int, one_pass: bool) -> dict:
    """The record of child.py run in a fresh interpreter: a set-up probe,
    or with ``one_pass`` one untraced pass."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)] + (["--pass"] if one_pass else [])
    proc = subprocess.run(
        cmd, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S if one_pass else SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise workloads.BenchError(
            f"{workload} child exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_passes(workload: str, seed: int, seconds: float) -> List[dict]:
    """Untraced passes, each in a fresh interpreter, as many as come closest
    to ``seconds`` of unscaled time (at least one), judged by the pass just
    run."""
    passes = []
    while not passes or sum(p["raw_s"] for p in passes) \
            + passes[-1]["raw_s"] / 2 < seconds:
        passes.append(run_child(workload, seed, True))
    return passes


def p90(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            workloads.import_package()
            inputs = work.inputs(args.seed)
            ops = work.ops(inputs)
            passes = [run_child(work.name, args.seed, True)]
            digests = {work.inputs_digest(inputs), passes[0]["inputs_sha256"]}
            tr = Tracer()
            with HostSpeed() as speed, tr:
                marks, outcomes = run_pass(ops, tr)
            traced_failures = check_pass(ops, outcomes)
        else:
            half = SETUP_PROBES // 2
            probes = [run_child(work.name, args.seed, False)
                      for _ in range(half)]
            passes = fresh_passes(work.name, args.seed, args.seconds)
            probes += [run_child(work.name, args.seed, False)
                       for _ in range(half)]
            digests = {r["inputs_sha256"] for r in probes + passes}
    except (workloads.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    walls = [sum(p["op_times"]) for p in passes]
    raw = statistics.median(p["raw_s"] for p in passes)
    failures = [bad for p in passes for bad in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    if args.trace:
        traced = sum(speed.scaled(a, b) for a, b in marks)
        values = layer_metrics(tr.spans, traced, walls[0], raw, speed.scaled)
        spec = PER_LAYER
        workloads.WORK.mkdir(exist_ok=True)
        tr.write(workloads.WORK / f"trace-{work.name}-{args.seed}.jsonl")
        failures += traced_failures
        attempted += len(ops)
        note = "one untraced pass in a fresh interpreter, one traced pass"
    else:
        n_ops = passes[0]["ops"]
        latencies = [t for p in passes for t in p["op_times"]] \
            if n_ops >= LATENCY_MIN_OPS else walls
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in probes),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": p90(latencies),
            "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
        }
        spec = END_TO_END
        note = (f"{len(passes)} pass(es) in fresh interpreters, "
                f"{len(latencies)} latency samples")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spec}

    failed = len(failures)  # operations; a digest mismatch is not one
    if len(digests) != 1:
        failures.append(
            "the same seed built different inputs in another interpreter")
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{work.name} seed {args.seed}: {passes[0]['ops']} operations a "
          f"pass, {note}; untraced pass {raw:.4g} s unscaled; "
          f"{attempted} attempted, {failed} failed, "
          f"failed_ops {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
