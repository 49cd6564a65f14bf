"""Every operation of the benchmark's germs and sampling workloads passes its
own exact check at seed 1, so a change that breaks an answer the benchmark
checks fails here and not only under ``perfbench/run.py``; and the germs
results and sampling reports at seed 1 keep their bytes."""

import hashlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# sha256 of the reprs, one a line, of the 396 sampling reports at seed 1, as
# recorded at 4af998c: every sampled point, verdict and rejection count
SAMPLING_SEED1_SHA256 = \
    "eca74b7e6e3adb282e24d2feef1932794915d78da758e42800a6c1fbb26fb736"
# sha256 of the reprs, one a line, of the germs results at seed 1 (for an
# operation that raises, its error's type and message), as recorded at
# adeebad: every colength, invariant, normal form and refusal
GERMS_SEED1_SHA256 = \
    "9ee779bf93756cd6096a5d9727f4c319e93dbabfbad293e64e64742567dfb765"


@pytest.mark.parametrize("name", ["germs", "sampling"])
def test_every_operation_passes_its_check(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    workload = workloads.WORKLOADS[name]
    failures = []
    for op in workload.ops(workload.inputs(1)):
        try:
            result, exc = op.run(), None
        except Exception as raised:
            result, exc = None, raised
        reason = op.check(result, exc)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    assert not failures


def test_sampling_reports_keep_their_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    workload = workloads.WORKLOADS["sampling"]
    ops = workload.ops(workload.inputs(1))
    assert len(ops) == 396
    digest = hashlib.sha256()
    for op in ops:
        digest.update(repr(op.run()).encode() + b"\n")
    assert digest.hexdigest() == SAMPLING_SEED1_SHA256


def test_germs_results_keep_their_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    workload = workloads.WORKLOADS["germs"]
    digest = hashlib.sha256()
    for op in workload.ops(workload.inputs(1)):
        try:
            line = repr(op.run())
        except Exception as raised:
            line = f"{type(raised).__name__}: {raised}"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GERMS_SEED1_SHA256
