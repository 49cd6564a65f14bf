"""One workload in a fresh interpreter: its set-up time and, with
``--pass``, one untraced pass over its operations.

    python3 perfbench/child.py --workload germs --seed 3 [--pass]

The set-up is ``import wcontact`` plus building the workload's inputs, up to
the point where the first operation would start; it is scaled to the
reference host speed measured by calibration bursts just before and after.
With ``--pass`` the operations then run once, each timed and scaled by the
calibration sampler (see hostspeed.py), and every outcome is checked.  A
fresh interpreter for every pass means every pass pays what a user's
``wcontact`` process pays once (lazy imports, cold caches), and nothing one
pass leaves behind can speed up the next.

Prints one JSON line: ``setup_s`` and ``inputs_sha256``, and with ``--pass``
also ``ops``, the scaled ``op_times``, the unscaled ``raw_s``,
``peak_rss_mib`` and the ``failures`` of the pass.
"""

import argparse
import json
import resource
from time import perf_counter
from typing import List, Optional, Sequence

import workloads
from hostspeed import REFERENCE_S, HostSpeed, burst

BURST = 10


def run_pass(ops: Sequence[workloads.Op], tracer=None):
    """Run every operation once; returns each one's (start, end) times and
    its outcome."""
    marks, outcomes = [], []
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            result = tracer.run_op(i, op.run) if tracer else op.run()
            outcome = (result, None)
        except Exception as exc:  # an outcome to check, not a crash
            outcome = (None, exc)
        marks.append((t0, perf_counter()))
        outcomes.append(outcome)
    return marks, outcomes


def check_pass(ops: Sequence[workloads.Op], outcomes) -> List[str]:
    """The failure reason of every operation whose outcome is wrong."""
    failures = []
    for op, (result, exc) in zip(ops, outcomes):
        try:
            reason = op.check(result, exc)
        except Exception as err:  # a malformed result fails its operation
            reason = f"check raised {type(err).__name__}: {err}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="one_pass", action="store_true")
    args = ap.parse_args(argv)
    work = workloads.WORKLOADS[args.workload]
    speed = burst(BURST)
    t0 = perf_counter()
    workloads.import_package()
    inputs = work.inputs(args.seed)
    setup_s = perf_counter() - t0
    speed = (speed + burst(BURST)) / 2
    record = {"setup_s": setup_s * REFERENCE_S * speed,
              "inputs_sha256": work.inputs_digest(inputs)}
    if args.one_pass:
        ops = work.ops(inputs)
        with HostSpeed() as host:
            marks, outcomes = run_pass(ops)
        record.update(
            ops=len(ops),
            op_times=[host.scaled(a, b) for a, b in marks],
            raw_s=marks[-1][1] - marks[0][0],
            peak_rss_mib=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            failures=check_pass(ops, outcomes))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
