"""Tests of the benchmark itself (not of wcontact).

    python3 -m pytest -q perfbench/test_perfbench.py

The codim4 tests run the shipped job twice, about a minute in all.
"""

import gc
import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import child
import hostspeed
import run
import tracer
import workloads

workloads.import_package()

from wcontact import charts, poly, series  # noqa: E402

HERE = Path(__file__).resolve().parent


ORIGINALS = {id(tracer._resolve(m, p)) for m, p, _, _ in tracer.TARGETS}


def _original_bindings():
    """Every (namespace, attribute) bound to a traced function's original."""
    return {(ns, attr): value for ns in tracer._namespaces()
            for attr, value in vars(ns).items() if id(value) in ORIGINALS}


def test_tracer_replaces_every_binding_and_restores_them():
    before = _original_bindings()
    # the copies made by "from .groebner import ..." and the class aliases
    names = {(getattr(ns, "__name__", ""), attr) for ns, attr in before}
    for module in ("charts", "geometry", "jobs", "cli"):
        assert (f"wcontact.{module}", "gb_buchberger") in names
    assert ("Poly", "__rmul__") in names
    assert ("TruncatedSeries", "__rmul__") in names

    inputs = workloads.germs_inputs(3)
    ops = workloads.germs_ops(inputs)[2:]  # skip the two slow operations
    tr = tracer.Tracer()
    with tr:
        assert _original_bindings() == {}
        assert len(tr._bindings) == len(before)
        _, outcomes = child.run_pass(ops, tr)
    assert _original_bindings() == before
    assert all(getattr(ns, attr) is value for (ns, attr), value
               in before.items())
    assert child.check_pass(ops, outcomes) == []
    names = {s[0] for s in tr.spans}
    assert {"op", "series.certify", "nondegeneracy.phi",
            "nondegeneracy.star", "poly.mul"} <= names
    roots = [s for s in tr.spans if s[3] < 0]
    assert [s[4] for s in roots] == list(range(len(ops)))


def test_self_time_excludes_children():
    spans = [["a.x", 0.0, 10.0, -1, 0, None],
             ["b.y", 1.0, 4.0, 0, 0, None],
             ["b.y", 5.0, 6.0, 0, 0, None],
             ["a.x", 2.0, 3.0, 1, 0, None]]
    stats = tracer.span_stats(spans)
    assert stats["a.x"].self_s == pytest.approx(10.0 - 4.0 + 1.0)
    assert stats["b.y"].self_s == pytest.approx(3.0)
    assert stats["a.x"].total_s == pytest.approx(10.0)  # nested one is inside
    assert stats["b.y"].max_s == pytest.approx(3.0)


def test_host_speed_scales_by_the_calibration_time_around_an_interval():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # a slow host (loop twice the reference) from 0 to 10 s, then a fast one
    speed.samples = [(t / 10, 2 * ref) for t in range(100)] \
        + [(10 + t / 10, ref) for t in range(100)]
    inside = sum(d for t, d in speed.samples if 1.0 <= t < 3.0)
    assert speed.scaled(1.0, 3.0) == pytest.approx((2.0 - inside) / 2)
    assert speed.scaled(15.01, 15.03) == pytest.approx(0.02)
    live = hostspeed.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with live:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(live.samples) >= 3  # the timer sampled while code ran
    assert signal.getsignal(signal.SIGALRM) is before


def test_calibration_loop_never_collects_garbage():
    inside = []

    def record(phase, info):  # a collection with the loop on the stack
        frame = sys._getframe()
        while frame is not None:
            if frame.f_code is hostspeed.calibration_loop.__code__:
                inside.append(phase)
            frame = frame.f_back

    threshold = gc.get_threshold()
    gc.callbacks.append(record)
    try:
        gc.set_threshold(1)  # would collect on every allocation
        for _ in range(3):
            hostspeed.calibration_loop()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(record)
    assert inside == [] and gc.isenabled()


@pytest.fixture(scope="module")
def codim4_runs():
    inputs = workloads.codim4_inputs(workloads.JOB_SEED)
    (op,) = workloads.codim4_ops(inputs)
    untraced = op.run()
    tr = tracer.Tracer()
    with tr:
        traced = tr.run_op(0, op.run)
    return untraced, traced, tr


def test_codim4_report_matches_recorded_digest(codim4_runs):
    untraced, _, _ = codim4_runs
    assert workloads.check_codim4_report(*untraced, workloads.JOB_SEED) \
        is None


def test_traced_codim4_gives_same_report_bytes(codim4_runs):
    untraced, traced, tr = codim4_runs
    assert traced == untraced
    tasks = {s[0] for s in tr.spans if s[0].startswith("jobs.task.")}
    assert tasks == {f"jobs.task.{t}" for t in workloads.CODIM4_TASKS}


@pytest.mark.parametrize("flag", [("sing_matches", "equal"),
                                  ("star_check", "surjective"),
                                  ("correspondence", "ok"),
                                  ("lift_equivalence", "ok")])
def test_codim4_checker_rejects_a_false_flag(codim4_runs, flag):
    code, data = codim4_runs[0]
    report = json.loads(data)
    report["tasks"][flag[0]]["result"][flag[1]] = False
    bad = json.dumps(report, indent=2).encode() + b"\n"
    assert workloads.check_codim4_report(code, bad, 5) is not None


def test_codim4_run_that_writes_no_report_fails(codim4_runs, monkeypatch):
    from wcontact import cli
    inputs = workloads.codim4_inputs(workloads.JOB_SEED)
    (op,) = workloads.codim4_ops(inputs)
    assert inputs["report"].is_file()  # left by the passes of the fixture
    monkeypatch.setattr(cli, "main", lambda argv: 0)  # exits 0, writes none
    _, outcomes = child.run_pass([op])
    assert child.check_pass([op], outcomes) != []


def test_codim4_checker_rejects_other_bytes(codim4_runs):
    code, data = codim4_runs[0]
    report = json.loads(data)
    eq = report["tasks"]["equations"]["result"]["equations"][0]
    eq["canonical"] = eq["canonical"].replace("2*k*l", "3*k*l")
    bad = json.dumps(report, indent=2).encode() + b"\n"
    assert workloads.check_codim4_report(code, bad, 5) is not None
    assert workloads.check_codim4_report(code, data + b" ",
                                         workloads.JOB_SEED) is not None
    assert workloads.check_codim4_report(1, data, workloads.JOB_SEED) \
        is not None


def test_weierstrass_checker_rejects_a_flipped_coefficient():
    ring = poly.PolyRing(("x", "y", "s"))
    E = ring.parse("x^3 + x^4 + y*x + s - y")
    u, P = series.weierstrass_prepare_x(E, 3, N=5, small=("y", "s"))
    assert workloads.check_weierstrass(E, 3, 5, u, P) is None
    e, c = next((e, c) for e, c in P.terms.items() if e[0] < 3)
    flipped = poly.Poly(ring, {**P.terms, e: -c})
    assert workloads.check_weierstrass(E, 3, 5, u, flipped) is not None
    not_monic = P + ring.parse("x^3")
    assert workloads.check_weierstrass(E, 3, 5, u, not_monic) is not None


def _op(inputs, prefix):
    return next(op for op in workloads.germs_ops(inputs)
                if op.label.startswith(prefix))


def test_germ_checkers_reject_wrong_values():
    inputs = workloads.germs_inputs(4)
    milnor = _op(inputs, "milnor SQH")
    mu = milnor.run()
    assert milnor.check(mu, None) is None
    assert milnor.check(mu + 1, None) is not None
    tjurina = _op(inputs, "tjurina SQH")
    tau = tjurina.run()
    assert tjurina.check(tau, None) is None
    assert tjurina.check(tau - 1, None) is not None
    assert milnor.check(None, ValueError("boom")) is not None

    not_isolated = _op(inputs, "tjurina x*y*s")
    from wcontact.errors import CertificationFailed, NotIsolated
    assert not_isolated.check(None, NotIsolated("x")) is None
    assert not_isolated.check(3, None) is not None
    assert not_isolated.check(None, CertificationFailed("x")) is not None

    phi = _op(inputs, "phi")
    assert phi.check(SimpleNamespace(rank=2, surjective=True), None) is None
    assert phi.check(SimpleNamespace(rank=1, surjective=True), None)
    star = _op(inputs, "star")
    assert star.check(SimpleNamespace(surjective=True, relative_dimension=0),
                      None) is None
    assert star.check(SimpleNamespace(surjective=False,
                                      relative_dimension=0), None)


def test_sampling_checker_rejects_failed_elimination():
    inputs = workloads.sampling_inputs(5)
    op = workloads.sampling_ops(inputs)[0]
    report = op.run()
    assert op.check(report, None) is None
    report.samples[0].elimination_ok = False
    assert op.check(report, None) is not None
    report.samples[0].elimination_ok = True
    report.samples[1].equivalent = False
    assert op.check(report, None) is not None
    short = charts.CorrespondenceReport("contact", 2, report.samples[:2],
                                        0, 0)
    assert op.check(short, None) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    work = workloads.WORKLOADS[name]
    a = work.inputs_digest(work.inputs(7))
    assert a == work.inputs_digest(work.inputs(7))
    assert a != work.inputs_digest(work.inputs(8))


def test_children_build_the_same_inputs_in_fresh_interpreters():
    work = workloads.WORKLOADS["sampling"]
    digest = work.inputs_digest(work.inputs(9))
    probe = run.run_child("sampling", 9, False)
    assert probe["inputs_sha256"] == digest and 0 < probe["setup_s"] < 30
    (one,) = run.fresh_passes("sampling", 9, 0)
    assert one["inputs_sha256"] == digest and one["failures"] == []
    assert one["ops"] == len(one["op_times"]) == 396
    assert 0 < sum(one["op_times"]) and 0 < one["raw_s"]


def test_sqh_germs_lie_above_the_newton_diagonal():
    rng = __import__("random").Random(1)
    ring = poly.PolyRing(("x", "y"))
    for a, b in workloads.SQH_SHAPES:
        f = workloads.sqh_germ(rng, a, b, ring)
        extra = [e for e in f.terms if e not in ((0, a), (b, 0))]
        assert extra and all(i * a + j * b > a * b for i, j in extra)
        assert f.terms[(0, a)] == f.terms[(b, 0)] == Fraction(1)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package_source():
    bare = workloads.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "germs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
