"""Every function the benchmark tracer wraps still exists, so a refactor that
renames or deletes one fails here and not only under ``perfbench/run.py``."""

import pathlib

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_every_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    for module, path, span, _ in tracer.TARGETS:
        assert callable(tracer._resolve(module, path)), span
