"""End-to-end command-line interface and job-runner tests; every JSON report
must validate against the published schema."""

import ast
import builtins
import collections
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

import wcontact
from wcontact import cli
from wcontact.charts import GroebnerStratumChart
from wcontact.cli import build_parser, load_family, main
from wcontact.errors import (JobError, ParseError, UnknownVariable,
                             WContactError)
from wcontact.jobs import parse_job, run_job
from wcontact.ops import OPS
from wcontact.poly import PolyRing, canonical_form

PKG_DIR = pathlib.Path(wcontact.__file__).parent
FAM = str(PKG_DIR / "data" / "codim4.fam")
JOB = str(PKG_DIR / "data" / "codim4.job")
SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "schema" /
     "report.schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    data = json.loads(out.read_text())
    return code, data


def check(args, tmp_path):
    code, data = run_cli(args, tmp_path)
    VALIDATOR.validate(data)
    return code, data


class TestSubcommands:
    def test_gb(self, tmp_path):
        code, data = check(["gb", "--gens", "y-x, y^2-1",
                            "--vars", "x,y", "--order", "lex y>x"],
                           tmp_path)
        assert code == 0
        canon = {g["canonical"] for g in data["generators"]}
        assert canon == {"y - x", "x^2 - 1"}

    def test_nf(self, tmp_path):
        code, data = check(["nf", "--poly", "x^4",
                            "--gens", "x^2-m*x-n", "--vars", "x,m,n",
                            "--order", "lex x>m>n"], tmp_path)
        assert code == 0
        assert data["normal_form"]["canonical"] == \
            "x*m^3 + 2*x*m*n + m^2*n + n^2"

    def test_colength(self, tmp_path):
        code, data = check(["colength", "--gens", "y-x^2, x^3"], tmp_path)
        assert code == 0
        assert data["colength"] == 3
        assert data["quotient_basis"] == ["1", "x", "x^2"]

    def test_prepare(self, tmp_path):
        code, data = check(["prepare", "--family", FAM], tmp_path)
        assert code == 0
        assert data["w"] == 4

    def test_phi(self, tmp_path):
        code, data = check(["phi", "--family", FAM,
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["surjective"] is True
        assert data["rank"] == 2

    def test_delta(self, tmp_path):
        code, data = check(["delta", "--family", FAM,
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["rank"] == 0

    def test_psi(self, tmp_path):
        code, data = check(["psi", "--family", FAM,
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["rank"] == 0

    def test_star(self, tmp_path):
        code, data = check(["star", "--family", FAM,
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["surjective"] is True
        assert data["relative_dimension"] == 0

    def test_relaxed(self, tmp_path):
        code, data = check(["relaxed", "--family", FAM,
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["surjective"] is True

    def test_chart(self, tmp_path):
        code, data = check(["chart", "--chart", "y, x^2",
                            "--order", "lex y>x"], tmp_path)
        assert code == 0
        assert data["colength"] == 2
        assert data["parameters"] == ["k", "l", "m", "n"]
        assert data["stratum_equations"] == []

    def test_hilb_eq(self, tmp_path):
        code, data = check(["hilb-eq", "--family", FAM,
                            "--chart", "y, x^2", "--order", "lex y>x",
                            "--chart-params", "k,l,m,n"], tmp_path)
        assert code == 0
        assert len(data["equations"]) == 2
        assert data["chart_parameters"] == ["k", "l", "m", "n"]

    def test_lift(self, tmp_path):
        code, data = check(["lift", "--family", FAM,
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["kind"] == "contact"
        assert data["base_z"] == "0"
        assert len(data["generators"]) == 3

    def test_lift_prime(self, tmp_path):
        fam = tmp_path / "int.fam"
        fam.write_text("vars x y\nparams t\nkind interior\n"
                       "y^2 + x^3 + t*y\n")
        code, data = check(["lift-prime", "--family", str(fam),
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["kind"] == "interior"

    def test_verify_corr(self, tmp_path):
        code, data = check(["verify-corr", "--family", FAM,
                            "--ideal", "y, x^2", "--samples", "5",
                            "--seed", "9"], tmp_path)
        assert code == 0
        assert data["ok"] is True
        assert data["samples"] == 5
        assert data["seed"] == 9

    def test_sing(self, tmp_path):
        code, data = check(["sing", "--eqs", "x*y", "--vars", "x,y",
                            "--codim", "1"], tmp_path)
        assert code == 0
        canon = {g["canonical"] for g in data["generators"]}
        assert canon == {"x*y", "y", "x"}

    def test_tangent(self, tmp_path):
        code, data = check(["tangent", "--eqs", "x*y", "--vars", "x,y",
                            "--point", "x=0,y=0"], tmp_path)
        assert code == 0
        assert data["tangent_dimension"] == 2

    def test_variety_eq(self, tmp_path):
        code, data = check(["variety-eq", "--a", "x^2", "--b", "x",
                            "--vars", "x,y"], tmp_path)
        assert code == 0
        assert data["equal"] is True

    def test_milnor(self, tmp_path):
        code, data = check(["milnor", "--poly", "y^2+x^4"], tmp_path)
        assert code == 0
        assert data["milnor"] == 3

    def test_tjurina(self, tmp_path):
        code, data = check(["tjurina", "--poly", "y*z+x^4",
                            "--vars", "x,y,z"], tmp_path)
        assert code == 0
        assert data["tjurina"] == 3

    def test_delta_inv(self, tmp_path):
        code, data = check(["delta-inv", "--poly", "y^2+x^4",
                            "--branches", "2"], tmp_path)
        assert code == 0
        assert data["delta"] == 2


class TestFamilyFiles:
    def test_load_codim4(self):
        F = load_family(FAM)
        assert F.kind == "contact"
        assert F.w == 4
        assert F.params == ("s", "t")

    def test_missing_expression(self, tmp_path):
        fam = tmp_path / "bad.fam"
        fam.write_text("vars x y\nparams s\n")
        with pytest.raises(ParseError):
            load_family(str(fam))

    def test_comments_and_blanks(self, tmp_path):
        fam = tmp_path / "c.fam"
        fam.write_text("# header\nvars x y\nparams\n\ny^2 + x^4  # eq\n")
        F = load_family(str(fam))
        assert F.w == 4 and F.params == ()


class TestVariableNames:
    """The geometric variables are the names of a .fam vars line, and the
    lift coordinate is z, with _ appended while a variable has that name."""

    def test_renamed_geometric_variables_give_the_same_reports(self,
                                                               tmp_path):
        uv = tmp_path / "uv.fam"
        uv.write_text("vars u v\nparams s t\n"
                      "(v^2+u^4)+s*u*(v+u^3)+t*(v+u^4)\n")
        for argv in (["verify-corr", "--seed", "3"], ["lift-equiv"],
                     ["hilb-eq"]):
            reports = []
            for fam, chart in ((FAM, "y, x^2"), (str(uv), "v, u^2")):
                out = tmp_path / "out.json"
                code = main(argv + ["--family", fam, "--chart", chart,
                                    "--out", str(out)])
                assert code == 0, argv
                VALIDATOR.validate(json.loads(out.read_text()))
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], argv

    # E = y*f + x^4*g with f = y + z*x and g = 1 + z; the interior lift's
    # graph relation is z_ - E
    @pytest.mark.parametrize("command, fam_text, graph", [
        ("lift", "vars x y\nparams z\n(y^2+x^4)+z*x*(y+x^3)\n",
         "(y + z*x) - z_*(1 + z)"),
        ("lift-prime", "vars x y\nparams z\nkind interior\n"
         "y^2 + x^3 + z*y\n", "z_ - (y^2 + x^3 + z*y)")])
    def test_a_parameter_named_z_moves_the_lift_coordinate(
            self, command, fam_text, graph, tmp_path):
        fam = tmp_path / "pz.fam"
        fam.write_text(fam_text)
        code, data = check([command, "--family", str(fam),
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        ring = PolyRing(("x", "y", "z", "z_"))
        assert ring.parse(data["graph_relation"]) == ring.parse(graph)
        code, data = check(["verify-corr", "--family", str(fam),
                            "--ideal", "y, x^2"], tmp_path)
        assert code == 0
        assert data["ok"] is True


class TestExitCodes:
    def test_operation_failure_is_one(self, tmp_path):
        out = tmp_path / "err.json"
        code = main(["milnor", "--poly", "y^2", "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["error"]["type"] == "NotIsolated"

    def test_missing_file_is_two(self, tmp_path, capsys):
        code = main(["prepare", "--family", str(tmp_path / "nope.fam")])
        assert code == 2

    def test_bad_usage_is_two(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["gb"])   # missing required args
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gb", "--gens", "x,y", "--vars", "x,x"],
        ["gb", "--gens", "0", "--vars", "x"],
        ["nf", "--poly", "x", "--gens", "0", "--vars", "x,y"],
    ], ids=["duplicate-vars", "gb-zero-gens", "nf-zero-gens"])
    def test_unusable_flag_values_are_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: wcontact {argv[0]} ")
        assert f"wcontact {argv[0]}: error: --" in captured.err

    @pytest.mark.parametrize("argv,code,stdout,stderr", [
        (["milnor", "--poly", "y^2+x^4", "--format", "text"], 0,
         "milnor: 3", ""),
        (["gb"], 2, "", "usage: wcontact gb "),
    ], ids=["milnor", "missing-flags"])
    def test_python_dash_m(self, argv, code, stdout, stderr):
        env = dict(os.environ, PYTHONPATH=str(PKG_DIR.parent))
        proc = subprocess.run([sys.executable, "-m", "wcontact", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == code
        assert proc.stdout.strip() == stdout
        assert proc.stderr.startswith(stderr)

    def test_text_format(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code = main(["milnor", "--poly", "y^2+x^4", "--format", "text",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text() == "milnor: 3\n"
        assert main(["milnor", "--poly", "y^2+x^4", "--format", "text"]) == 0
        assert capsys.readouterr().out == "milnor: 3\n"


SMALL_JOB = """\
# compact smoke job
seed 7
trunc 10
vars x y
params s t
family F = contact (y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)
ideal I = y, x^2
chart C = staircase y, x^2 order lex y>x names k,l,m,n
task chart_c = chart C
task star_check = star F I
task corr = verify-corr F I samples 4
task lifted = lift F I
"""


class TestJobs:
    def test_small_job_runs(self):
        report = run_job(SMALL_JOB)
        assert report["seed"] == 7
        assert report["truncation"] == 10
        assert report["failed_tasks"] == 0
        assert sorted(report["tasks"]) == ["chart_c", "corr", "lifted",
                                           "star_check"]
        assert report["tasks"]["star_check"]["result"]["surjective"] is True
        assert report["tasks"]["corr"]["result"]["ok"] is True

    def test_report_is_deterministic(self):
        a = json.dumps(run_job(SMALL_JOB), indent=2)
        b = json.dumps(run_job(SMALL_JOB), indent=2)
        assert a == b
        VALIDATOR.validate(json.loads(a))

    def test_timing_is_opt_in(self):
        report = run_job(SMALL_JOB, include_timing=True)
        assert all("elapsed_s" in entry
                   for entry in report["tasks"].values())
        plain = run_job(SMALL_JOB)
        assert all("elapsed_s" not in entry
                   for entry in plain["tasks"].values())

    def test_forward_reference_rejected_before_execution(self):
        text = SMALL_JOB + "task early = variety-eq later I\n" \
                           "task later = sing I codim 2\n"
        with pytest.raises(JobError):
            parse_job(text)

    def test_duplicate_name_rejected(self):
        with pytest.raises(JobError):
            parse_job(SMALL_JOB + "ideal I = x\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(JobError):
            parse_job("frobnicate 3\n")

    def test_per_task_failure_reported(self):
        text = SMALL_JOB + "poly P = y^2\ntask bad = milnor P\n"
        report = run_job(text)
        assert report["failed_tasks"] == 1
        entry = report["tasks"]["bad"]
        assert entry["ok"] is False
        assert entry["error"]["type"] == "NotIsolated"

    def test_cli_run_seed_override(self, tmp_path):
        job = tmp_path / "s.job"
        job.write_text(SMALL_JOB)
        out = tmp_path / "r.json"
        code = main(["run", str(job), "--seed", "99", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["seed"] == 99

    @pytest.mark.parametrize("task,message", [
        ("hilb-eq F Nope", "unknown chart 'Nope'"),
        ("milnor Nope", "unknown polynomial 'Nope'"),
    ])
    def test_unknown_name_fails_the_task(self, task, message, tmp_path):
        job = tmp_path / "u.job"
        job.write_text(SMALL_JOB + f"task bad = {task}\n")
        out = tmp_path / "r.json"
        assert main(["run", str(job), "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["failed_tasks"] == 1
        assert data["tasks"]["bad"]["error"] == {"type": "JobError",
                                                 "message": message}

    @pytest.mark.parametrize("task,message", [
        ("chart", "task 'chart' needs 1 argument(s), got 0"),
        ("verify-corr F I samples",
         "task 'verify-corr': 'samples' needs an integer"),
        ("verify-corr F I samples abc",
         "task 'verify-corr': 'samples' needs an integer"),
        ("sing I", "task 'sing' needs 'codim N'"),
        ("nested I I codim x", "task 'nested': 'codim' needs an integer"),
        ("delta-inv P q",
         "task 'delta-inv': 'branches' must be an integer"),
    ], ids=["chart-no-args", "samples-no-count", "samples-not-int",
            "sing-no-codim", "codim-not-int", "branches-not-int"])
    def test_bad_task_arguments_rejected_before_running(
            self, task, message, tmp_path, capsys):
        job = tmp_path / "a.job"
        job.write_text(SMALL_JOB + f"task a = {task}\n")
        line = SMALL_JOB.count("\n") + 1
        out = tmp_path / "r.json"
        assert main(["run", str(job), "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        # the whole job is refused: no task ran, so there is no task report
        assert data == {"error": {"type": "JobError",
                                  "message": f"line {line}: {message}"}}
        assert "Traceback" not in capsys.readouterr().err

    def test_parse_error_carries_its_line(self, tmp_path, capsys):
        text = "vars x y\npoly P = x +\n"
        with pytest.raises(ParseError) as err:
            parse_job(text)
        assert err.value.position == 3
        assert str(err.value) == "line 2: expected a term (at position 3)"
        job = tmp_path / "p.job"
        job.write_text(text)
        out = tmp_path / "r.json"
        assert main(["run", str(job), "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["error"]["type"] == "ParseError"
        assert data["error"]["message"].startswith("line 2:")
        assert "Traceback" not in capsys.readouterr().err

    def test_sampling_failure_fails_the_task(self, tmp_path, capsys):
        job = tmp_path / "z.job"
        job.write_text(SMALL_JOB + "ideal Z = 0\n"
                                   "task a = verify-corr F Z samples 3\n")
        out = tmp_path / "r.json"
        assert main(["run", str(job), "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["failed_tasks"] == 1
        assert data["tasks"]["a"]["error"]["type"] == "SamplingFailed"
        assert "Traceback" not in capsys.readouterr().err

    def test_variety_eq_does_not_depend_on_the_argument_order(
            self, tmp_path):
        # I lives in the ring before the chart's names, J in the one after
        job = tmp_path / "o.job"
        job.write_text("ideal I = y, x^2\n"
                       "chart C = staircase y, x^2 order lex y>x "
                       "names k,l,m,n\n"
                       "ideal J = k*y, x^2\n"
                       "task a = variety-eq I J\n"
                       "task b = variety-eq J I\n")
        out = tmp_path / "r.json"
        assert main(["run", str(job), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["tasks"]["a"]["result"] == {"equal": False}
        assert data["tasks"]["b"]["result"] == {"equal": False}

    def test_shipped_job_report_bytes(self, tmp_path):
        """The codim-4 job at its own seed renders the report whose digest
        the benchmark records."""
        out = tmp_path / "r.json"
        assert main(["run", JOB, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b4db4276950861ea9b6ca6fc141d6080f483b6fc8f3d8c5da1408abe92e34197")

    def test_cli_run_failure_exit_code(self, tmp_path):
        job = tmp_path / "f.job"
        job.write_text(SMALL_JOB + "poly P = y^2\ntask bad = milnor P\n")
        out = tmp_path / "r.json"
        code = main(["run", str(job), "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        assert data["failed_tasks"] == 1


JOB_HEAD = """\
seed 5
vars x y
params s t
family F = contact (y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)
family G = interior y^2 + x^3 + t*y
ideal I = y, x^2
chart C = staircase y, x^2 order lex y>x names k,l,m,n
poly P = y^2+x^4
"""


def _interior_fam(tmp_path):
    fam = tmp_path / "int.fam"
    fam.write_text("vars x y\nparams t\nkind interior\ny^2 + x^3 + t*y\n")
    return str(fam)


# op: (command-line flags, job declarations, task arguments)
AGREEMENT = {
    "gb": (["--gens", "y-x, y^2-1", "--vars", "x,y", "--order", "lex y>x"],
           "ideal A = y-x, y^2-1", "A lex y>x"),
    "nf": (["--poly", "x^3", "--gens", "x^2-y", "--vars", "x,y",
            "--order", "lex x>y"], "poly Q = x^3\nideal A = x^2-y",
           "Q A lex x>y"),
    "colength": (["--gens", "y-x^2, x^3"], "ideal A = y-x^2, x^3", "A"),
    "prepare": (["--family", FAM], "", "F"),
    "phi": (["--family", FAM, "--ideal", "y, x^2"], "", "F I"),
    "delta": (["--family", FAM, "--ideal", "y, x^2"], "", "F I"),
    "psi": (["--family", FAM, "--ideal", "y, x^2"], "", "F I"),
    "star": (["--family", FAM, "--ideal", "y, x^2"], "", "F I"),
    "relaxed": (["--family", FAM, "--ideal", "y, x^2"], "", "F I"),
    "chart": (["--chart", "y, x^2", "--order", "lex y>x"], "", "C"),
    "hilb-eq": (["--family", FAM, "--chart", "y, x^2", "--order", "lex y>x",
                 "--chart-params", "k,l,m,n"], "", "F C"),
    "lift": (["--family", FAM, "--ideal", "y, x^2"], "", "F I"),
    "lift-prime": (["--family", None, "--ideal", "y, x^2"], "", "G I"),
    "verify-corr": (["--family", FAM, "--ideal", "y, x^2", "--samples", "3"],
                    "", "F I samples 3"),
    "lift-equiv": (["--family", FAM, "--chart", "y, x^2", "--order",
                    "lex y>x"], "", "F C"),
    "sing": (["--eqs", "x*y", "--vars", "x,y", "--codim", "1"],
             "ideal A = x*y", "A codim 1"),
    "tangent": (["--eqs", "x*y", "--vars", "x,y", "--point", "x=1,y=0"],
                "ideal A = x*y", "A point x=1,y=0"),
    "variety-eq": (["--a", "x^2", "--b", "x", "--vars", "x,y"],
                   "ideal A = x^2\nideal B = x", "A B"),
    "nested": (["--eqs", "x*y - s^2", "--ideal", "s, x*y", "--vars", "x,y,s",
                "--codim", "1"], "ideal A = x*y - s^2\nideal B = s, x*y",
               "A B codim 1"),
    "milnor": (["--poly", "y^2+x^4"], "", "P"),
    "tjurina": (["--poly", "y^2+x^4", "--vars", "x,y"], "", "P"),
    "delta-inv": (["--poly", "y^2+x^4", "--branches", "2"], "", "P 2"),
}


def test_agreement_covers_every_op():
    assert set(AGREEMENT) == set(OPS)


def _offered_flags(parser, command):
    sub = parser._subparsers._group_actions[0].choices[command]
    return {s for a in sub._actions for s in a.option_strings} \
        - {"-h", "--help"}


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_flag_is_read(op):
    """A subcommand offers the flags its argument spec reads, --vars when
    it reads polynomials in no other ring, and the output flags."""
    spec = OPS[op]
    kinds = {a.kind for a in spec.args}
    read = {f"--{a.name}" for a in spec.args}
    if kinds & {"chart", "chart-or-ideal"}:
        read |= {"--chart", "--order", "--chart-params"}
    if kinds & {"ideal", "gens", "poly"} and \
            not kinds & {"family", "vars", "listed-vars"}:
        read.add("--vars")
    assert _offered_flags(build_parser(), op) == \
        read | {"--out", "--format", "--timing"}


def test_run_flags():
    assert _offered_flags(build_parser(), "run") == \
        {"--out", "--format", "--timing", "--seed"}


@pytest.mark.parametrize("op", sorted(AGREEMENT))
def test_front_ends_agree(op, tmp_path):
    """Each operation gives one result object from the command line and
    from a one-task job."""
    flags, decls, task = AGREEMENT[op]
    flags = [_interior_fam(tmp_path) if f is None else f for f in flags]
    text = JOB_HEAD + decls + f"\ntask t = {op} {task}\n"
    if op == "verify-corr":  # a job seeds each task from seed:taskname
        flags += ["--seed", str(parse_job(text).sub_seed("t"))]
    code, cli_result = check([op] + flags, tmp_path)
    report = run_job(text)
    VALIDATOR.validate(report)
    assert code == 0 and report["failed_tasks"] == 0
    job_result = json.loads(json.dumps(report["tasks"]["t"]["result"]))
    assert job_result == cli_result


# malformed inputs from both front ends: (argv or job line, exit code)
MALFORMED = [
    (["colength", "--gens", "x,y", "--trunc", "0"], 2),
    (["star", "--family", FAM, "--ideal", "y, x^2", "--trunc", "-1"], 2),
    (["prepare", "--family", FAM, "--trunc", "0"], 2),
    (["prepare", "--family", FAM, "--trunc", "-1"], 2),
    (["milnor", "--poly", "x/y"], 2),
    (["milnor", "--poly", "x/0"], 2),
    (["gb", "--gens", "x,y", "--vars", "x,y", "--order", "foo"], 2),
    (["colength", "--gens", "0"], 2),
    (["phi", "--family", FAM, "--ideal", "0"], 2),
    (["sing", "--eqs", "0", "--vars", "x,y", "--codim", "1"], 2),
    (["sing", "--eqs", "x*y", "--vars", "x,y", "--codim", "-1"], 2),
    (["tangent", "--eqs", "x*y", "--vars", "x,y", "--point", "x=a"], 2),
    (["tangent", "--eqs", "x^2-y", "--vars", "x,y", "--point", "x=1/0"], 2),
    (["tangent", "--eqs", "x*y", "--vars", "x,y", "--point", "q=1"], 2),
    (["tangent", "--eqs", "x^2-y", "--vars", "x,y", "--point", "x=5,x=1,y=1"],
     2),
    (["prepare", "--family", "vars x\ny^2+x^4\n"], 2),
    (["prepare", "--family", "kind weird\ny^2+x^4\n"], 2),
    (["delta-inv", "--poly", "y^2+x^4", "--branches", "0"], 2),
    (["verify-corr", "--family", FAM, "--ideal", "y", "--samples", "0"], 2),
    (["verify-corr", "--family", FAM, "--ideal", "y", "--samples", "-2"], 2),
    (["gb", "--vars", "x,y", "--gens", "x,y", "--order", "lex x>x"], 2),
    (["gb", "--vars", "x,y", "--gens", "x,y", "--order", "lex x>q"], 2),
    (["nf", "--poly", "x", "--gens", "x,y", "--vars", "x,y",
      "--order", "degrevlex y>x>z"], 2),
    (["chart", "--chart", "y, x^2", "--order", "lex y>s"], 2),
    (["chart", "--chart", "y+x, x^2"], 2),
    (["chart", "--chart", "y, x^2", "--chart-params", "a,b"], 2),
    (["colength", "--gens", "x, y^2", "--vars", "x,x"], 2),
    (["prepare", "--family", "vars x x\ny^2+x^4\n"], 2),
    ("trunc 0", "JobError"),
    ("poly Q = x/y", "ParseError"),
    ("poly Q = y^2/0", "ParseError"),
    ("task a = gb I foo", "JobError"),
    ("task a = nf P I bar", "JobError"),
    ("task a = gb Z", "JobError"),
    ("task a = psi F Z", "JobError"),
    ("task a = phi F Z", "JobError"),
    ("task a = sing I codim 0", "JobError"),
    ("task a = tangent I point x=a", "JobError"),
    ("task a = tangent I point x=1/0", "JobError"),
    ("task a = tangent I point q=1", "JobError"),
    ("task a = tangent I point x=5,x=1,y=1", "JobError"),
    ("task a = delta-inv P 0", "JobError"),
    ("task a = verify-corr F I samples 0", "JobError"),
    ("task a = chart C extra", "JobError"),
    ("task a = sing I codim 2 x,y", "JobError"),
    ("task a = tjurina P x,x", "JobError"),
    ("task a = gb I lex x>x", "JobError"),
    ("task a = gb I lex x>q", "JobError"),
    ("task a = nf P I degrevlex y>x>z", "JobError"),
    ("vars x y z\nchart D = staircase z, x order lex y>x", "JobError"),
    ("chart D = staircase y, x^2 order foo", "JobError"),
    # inputs the library code does not handle
    (["prepare", "--family", FAM, "--trunc", "2"], "Unsupported"),
    (["lift-equiv", "--family", FAM, "--chart", "y^2, x*y, x^2"],
     "Unsupported"),
    (["milnor", "--poly", "0"], "Unsupported"),
    (["hilb-eq", "--family", FAM, "--chart", "y, x^2",
      "--chart-params", "s,u,v,w"], "Unsupported"),
    (["lift-equiv", "--chart", "y, x^2", "--family",
      "vars x y\nparams s\ny*(y+s*x) + x^2*(1+x+s*y)\n"], "Unsupported"),
    ("trunc 2\ntask a = prepare F", "Unsupported"),
    ("ideal J = y - s*x, x^2\ntask a = phi F J", "Unsupported"),
]


@pytest.mark.parametrize("case,outcome", MALFORMED,
                         ids=[" ".join(c) if isinstance(c, list) else c
                              for c, _ in MALFORMED])
def test_malformed_input_is_typed(case, outcome, tmp_path, capsys):
    """A usage error exits 2 on the command line; in a job the whole job or
    the one task fails with a JobError.  An input the library does not
    handle fails with Unsupported and exit 1.  No traceback either way."""
    out = tmp_path / "r.json"
    if isinstance(case, str):
        job = tmp_path / "m.job"
        job.write_text(JOB_HEAD + "ideal Z = 0\n" + case + "\n")
        argv = ["run", str(job)]
    else:
        argv = list(case)
        if "\n" in argv[-1]:  # a .fam file's text
            fam = tmp_path / "m.fam"
            fam.write_text(argv[-1])
            argv[-1] = str(fam)
    code = 2 if outcome == 2 else 1
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert f"wcontact {argv[0]}: error: --" in err
    else:
        data = json.loads(out.read_text())
        VALIDATOR.validate(data)
        errors = [data.get("error")] + [t.get("error") for t in
                                        data.get("tasks", {}).values()]
        assert [e["type"] for e in errors if e] == [outcome]


def test_chart_order_outside_the_geometric_ring_is_an_order_error(capsys):
    """A chart's order names only the two geometric variables; any other
    name is a usage error of --order, not of --chart."""
    assert main(["chart", "--chart", "y, x^2", "--order", "lex y>s"]) == 2
    assert "error: --order: 's' is not a variable of PolyRing(x, y)" in \
        capsys.readouterr().err


def test_a_fault_of_the_program_is_not_reported_as_input(monkeypatch):
    """Only the typed refusals of the library are reports: a handler that
    raises a plain ValueError has a bug, and the ValueError propagates out
    of both front ends."""
    def broken(**values):
        raise ValueError("a fault of the program")

    monkeypatch.setitem(OPS, "milnor", OPS["milnor"]._replace(handler=broken))
    with pytest.raises(ValueError, match="a fault of the program"):
        main(["milnor", "--poly", "y^2+x^4"])
    with pytest.raises(ValueError, match="a fault of the program"):
        run_job(JOB_HEAD + "task a = milnor P\n")


def test_the_library_raises_no_builtin_exception():
    """A refusal of the library is always a WContactError: no module of the
    package raises ValueError, TypeError, KeyError, Exception or any other
    built-in exception class (a bare ``raise`` re-raises and is allowed)."""
    found = []
    for path in sorted(PKG_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = getattr(exc, "id", "")
            builtin = getattr(builtins, name, None)
            if isinstance(builtin, type) and issubclass(builtin,
                                                        BaseException):
                found.append(f"{path.name}:{node.lineno} raises {name}")
    assert found == []


@pytest.mark.parametrize("text, message", [
    ("seed abc\n", "line 1: seed must be an integer"),
    ("seed 1.5\n", "line 1: seed must be an integer"),
    ("vars x\nfamily F = contact x^2\n",
     "line 2: the vars line needs at least two names"),
    ("vars x\nchart C = staircase x^2 order lex x\n",
     "line 2: the vars line needs at least two names"),
], ids=["seed-abc", "seed-1.5", "family-one-var", "chart-one-var"])
def test_job_directive_faults_are_named(text, message):
    with pytest.raises(JobError) as exc:
        parse_job(text)
    assert str(exc.value) == message


def test_a_job_expression_is_read_before_the_vars_count_is_checked():
    with pytest.raises(UnknownVariable, match="line 2: unknown variable 'y'"):
        parse_job("vars x\nfamily F = contact y^2 + x^4\n")


def test_undecodable_files_are_malformed_input(tmp_path, capsys):
    """Bytes that are not UTF-8 are read as replacement characters, which
    no parser accepts: a usage error of --family, a refused job."""
    fam = tmp_path / "bin.fam"
    fam.write_bytes(b"vars x y\n\xff\xfe\n")
    assert main(["prepare", "--family", str(fam)]) == 2
    assert "error: --family: unexpected character" in capsys.readouterr().err
    job, out = tmp_path / "bin.job", tmp_path / "r.json"
    job.write_bytes(b"seed 1\n\xff\xfe\n")
    assert main(["run", str(job), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["error"]["type"] == "JobError"


def _token_mutants(text, count, seed):
    """``count`` copies of ``text``, each with one to three of its
    space-separated tokens replaced, deleted, doubled or edited."""
    rng = random.Random(seed)
    pool = text.split() + ["", "0", "-1", "x,x", "foo", "(", ")", "1/0", "=",
                           ",", "^", "y>x", "1.5", "vars", "params"]
    for _ in range(count):
        lines = text.splitlines()
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            words = lines[i].split(" ")
            j = rng.randrange(len(words))
            edit = rng.randrange(4)
            if edit == 0:
                words[j] = rng.choice(pool)
            elif edit == 1:
                del words[j]
            elif edit == 2:
                words.insert(j, rng.choice(pool))
            elif words[j]:
                k = rng.randrange(len(words[j]))
                words[j] = (words[j][:k] + rng.choice("xy0123,()^*+-/>= ")
                            + words[j][k + 1:])
            lines[i] = " ".join(words)
        yield "\n".join(lines) + "\n"


def test_mutated_job_and_family_files_parse_or_fail_typed(tmp_path):
    """200 seeded token mutants each of the shipped job and family either
    parse or fail with a WContactError; any other exception would be a
    fault of the program."""
    outcomes = collections.Counter()
    fam = tmp_path / "m.fam"
    for path, load in ((JOB, parse_job), (FAM, load_family)):
        for text in _token_mutants(pathlib.Path(path).read_text(), 200, 23):
            if path == FAM:
                fam.write_text(text)
                text = str(fam)
            try:
                load(text)
                outcomes[path, "parsed"] += 1
            except WContactError:
                outcomes[path, "refused"] += 1
    assert len(outcomes) == 4, outcomes  # each file both parses and fails


class TestDefaultChartNames:
    """Without --chart-params or names, a chart's parameters take the
    letters k, l, m, n, ... that are not variables of the family's ring."""

    KT = "(y^2+x^4)+k*x*(y+x^3)+t*(y+x^4)"  # codim4's family, s renamed k

    def test_command_line(self, tmp_path):
        fam = tmp_path / "kt.fam"
        fam.write_text(f"vars x y\nparams k t\n{self.KT}\n")
        code, kt = check(["hilb-eq", "--family", str(fam),
                          "--chart", "y, x^2"], tmp_path)
        assert code == 0
        assert kt["family_parameters"] == ["k", "t"]
        assert kt["chart_parameters"] == ["l", "m", "n", "o"]
        code, st = check(["hilb-eq", "--family", FAM, "--chart", "y, x^2"],
                         tmp_path)
        assert code == 0
        # the same equations, with each name of s, k, l, m, n one letter on
        rename = str.maketrans("sklmn", "klmno")
        ring = PolyRing(("x", "y", "k", "t", "l", "m", "n", "o"))
        assert [canonical_form(ring.parse(q["canonical"]))
                for q in kt["equations"]] == \
            [canonical_form(ring.parse(q["canonical"].translate(rename)))
             for q in st["equations"]]

    def test_job(self):
        report = run_job(f"vars x y\nparams k t\nfamily F = contact {self.KT}"
                         "\nchart C = staircase y, x^2 order lex y>x\n"
                         "task c = chart C\ntask e = hilb-eq F C\n")
        assert report["failed_tasks"] == 0
        assert report["tasks"]["c"]["result"]["parameters"] == \
            ["l", "m", "n", "o"]


HELP_AND_USAGE = [[], ["-h"], ["--help"], ["bogus"]] + [
    argv for command in [*OPS, "run"]
    for argv in ([command, "--help"], [command, "--format", "xml"])]


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_help_and_usage_match_the_parser_of_every_subcommand(
        argv, capsys, monkeypatch):
    """main builds only the subparser of a command it is given first; its
    help and usage texts (the top level's, each subcommand's --help, a usage
    error of each subcommand) are byte for byte those of the parser of
    every subcommand."""
    built = []
    full = cli.build_parser

    def run():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command)
                        or full(command))
    single = run()
    commands = {*OPS, "run"}
    assert built == [argv[0] if argv and argv[0] in commands else None]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run() == single
    assert single[0] in (0, 2) and single[1] + single[2]


@pytest.mark.parametrize("argv,code", [
    (["colength", "--gens", "x,y", "--trunc", "0"], 2),
    (["star", "--family", FAM, "--ideal", "y, x^2", "--trunc", "-1"], 2),
], ids=["colength-trunc-0", "star-trunc-minus-1"])
def test_truncation_below_one_ends_in_time(argv, code):
    """colength and star derive their truncation orders, so they refuse
    --trunc at once instead of doubling an order that never grows."""
    env = dict(os.environ, PYTHONPATH=str(PKG_DIR.parent))
    proc = subprocess.run([sys.executable, "-m", "wcontact", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == code
    assert f"wcontact {argv[0]}: error: --trunc: not an argument of " \
        f"{argv[0]}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_inconsistent_result_exits_1(tmp_path, capsys, monkeypatch):
    """A failed internal consistency check (here: a chart reduction that
    leaves the chart's standard span) is a typed error with exit 1."""
    monkeypatch.setattr(GroebnerStratumChart, "geo_reduce", lambda self, p: p)
    out = tmp_path / "r.json"
    assert main(["lift-equiv", "--family", FAM, "--chart", "y, x^2",
                 "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    data = json.loads(out.read_text())
    VALIDATOR.validate(data)
    assert data["error"]["type"] == "InconsistentResult"


def test_runtime_never_imports_sympy(tmp_path):
    """The shipped codim-4 job, whose nested task runs the linear-factor
    test, and the nested op leave sympy unimported."""
    runs = [["run", JOB], ["nested", "--eqs", "x*y - s^2", "--ideal",
                           "s, x*y", "--vars", "x,y,s", "--codim", "1"]]
    script = "\n".join(
        ["import sys", "from wcontact.cli import main"]
        + [f"assert main({argv + ['--out', str(tmp_path / f'{i}.json')]!r})"
           " == 0" for i, argv in enumerate(runs)]
        + ["print(sorted(m for m in sys.modules if m.startswith('sympy')))"])
    env = dict(os.environ, PYTHONPATH=str(PKG_DIR.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads((tmp_path / "1.json").read_text())[
        "no_linear_factor_over_Q"] is False
