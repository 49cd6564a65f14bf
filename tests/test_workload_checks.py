"""Every operation of the benchmark's germs and sampling workloads passes its
own exact check at seed 1, so a change that breaks an answer the benchmark
checks fails here and not only under ``perfbench/run.py``."""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


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
