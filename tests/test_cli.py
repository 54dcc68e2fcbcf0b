"""Tests for the command line driver and its exit codes."""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mafem import cli, solver, study
from mafem.errors import NonConvergenceError
from mafem.problems import CATALOGUE, get_problem, problem_from_json
from mafem.solver import SolverConfig

PARABOLOID = {
    "name": "paraboloid",
    "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "f": {"name": "one"},
    "g": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
    "exact": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
    "levels": [1, 2],
}


@pytest.fixture()
def paraboloid_file(tmp_path):
    path = tmp_path / "paraboloid.json"
    path.write_text(json.dumps(PARABOLOID))
    return str(path)


def test_check_mesh_ok(capsys):
    rc = cli.main(["check-mesh", "--problem", "smooth", "--refinements", "2"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["ok"] is True
    assert rec["shape_regularity"] > 1.0


def test_solve_writes_artifacts(tmp_path, paraboloid_file):
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", paraboloid_file,
                   "--refinements", "1", "--out", out])
    assert rc == 0
    for fname in ("mesh.txt", "solution.txt", "report.json"):
        assert os.path.exists(os.path.join(out, fname))
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    assert rec["problem"]["name"] == "paraboloid"
    assert rec["dofs"] > 0
    assert all(s["converged"] for s in rec["solves"])


def test_solve_h_target(tmp_path, paraboloid_file):
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", paraboloid_file, "--h", "0.3",
                   "--out", out])
    assert rc == 0
    with open(os.path.join(out, "report.json")) as fh:
        assert json.load(fh)["h"] <= 0.3


def test_solve_degree_override(tmp_path, paraboloid_file):
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", paraboloid_file,
                   "--refinements", "1", "--k", "3", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    assert rec["problem"]["degree"] == 3
    from mafem.fespace import FeSpace
    from mafem.mesh import Mesh
    assert rec["dofs"] == FeSpace(Mesh.load(os.path.join(out, "mesh.txt")),
                                  3).num_dofs


def test_study_writes_csv_and_json(tmp_path, paraboloid_file, capsys):
    out = str(tmp_path / "run")
    rc = cli.main(["study", "--problem", paraboloid_file, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    with open(os.path.join(out, "study.csv")) as fh:
        csv_text = fh.read()
    assert printed == csv_text
    assert csv_text.startswith(
        "level,h,dofs,err_h2_broken,err_linf_interior,rate_h2\n")
    assert len(csv_text.strip().split("\n")) == 3
    with open(os.path.join(out, "study.json")) as fh:
        rec = json.load(fh)
    assert rec["failures"] == []


def test_study_without_exact_solution_leaves_error_cells_empty(tmp_path):
    path = tmp_path / "no_exact.json"
    path.write_text(json.dumps({
        "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "f": {"name": "one"},
        "g": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
        "levels": [1, 2],
    }))
    out = str(tmp_path / "run")
    assert cli.main(["study", "--problem", str(path), "--out", out]) == 0
    with open(os.path.join(out, "study.csv")) as fh:
        rows = fh.read().strip().split("\n")
    assert [row.split(",")[3:] for row in rows[1:]] == [["", "", ""]] * 2
    with open(os.path.join(out, "study.json")) as fh:
        rec = json.load(fh)
    assert rec["failures"] == []
    assert [lvl["err_linf_interior"] for lvl in rec["levels"]] == [None] * 2


def test_measure_writes_report(tmp_path, paraboloid_file):
    out = str(tmp_path / "run")
    rc = cli.main(["measure", "--problem", paraboloid_file,
                   "--refinements", "1", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "measure.json")) as fh:
        rec = json.load(fh)
    assert max(rec["residuals"]) <= 1e-9


def test_measure_on_a_triangle(tmp_path):
    # the bumps used to be placed by the compact's bounding box, and the
    # first one crossed the hypotenuse
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({**PARABOLOID,
                                "polygon": [[0, 0], [1, 0], [0, 1]]}))
    out = str(tmp_path / "run")
    rc = cli.main(["measure", "--problem", str(path), "--out", out])
    assert rc == 0
    with open(os.path.join(out, "measure.json")) as fh:
        rec = json.load(fh)
    assert max(rec["residuals"]) <= 1e-10


def test_missing_problem_file_exits_2(tmp_path, capsys):
    rc = cli.main(["solve", "--problem", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["solve", "--problem", str(bad)])
    assert rc == 2


def test_invalid_schema_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"name": "one"}}))
    rc = cli.main(["solve", "--problem", str(bad)])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-mesh", "--problem", "smooth", "--k", "0", "--refinements", "-1"],
    ["check-mesh", "--problem", "smooth", "--k", "1"],
    ["check-mesh", "--problem", "smooth", "--refinements", "-1"],
    ["solve", "--problem", "smooth", "--refinements", "-1"],
    ["solve", "--problem", "smooth", "--k", "0"],
    ["measure", "--problem", "smooth", "--refinements", "-1"],
    ["study", "--problem", "smooth", "--levels", "0"],
    ["study", "--problem", "smooth", "--levels", "-1"],
    ["solve", "--problem", "smooth", "--h", "0.3", "--refinements", "1"],
    ["solve", "--problem", "smooth", "--h", "nan"],
])
def test_bad_override_exits_2(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "run")])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_unknown_key_in_problem_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"name": "one"}, "g": {"name": "zero"},
                               "regularization": {"delta": 0.1}}))
    assert cli.main(["solve", "--problem", str(bad),
                     "--out", str(tmp_path / "run")]) == 2
    assert "'delta'" in capsys.readouterr().err


def test_wrong_type_in_problem_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"name": "one"}, "g": {"name": "zero"},
                               "levels": 2.5}))
    assert cli.main(["study", "--problem", str(bad),
                     "--out", str(tmp_path / "run")]) == 2
    assert "'levels'" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [[2, 2], [3, 2]])
def test_study_levels_not_increasing_exit_2(tmp_path, capsys, levels):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**PARABOLOID, "levels": levels}))
    out = tmp_path / "run"
    assert cli.main(["study", "--problem", str(bad), "--out", str(out)]) == 2
    assert "strictly increase" in capsys.readouterr().err
    assert not (out / "study.json").exists()
    assert not (out / "study.csv").exists()


def test_bad_usage_exits_2(capsys):
    assert cli.main(["solve"]) == 2
    assert cli.main([]) == 2


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_solver_failure_exits_1(tmp_path, paraboloid_file, monkeypatch,
                                capsys):
    def fail(problem, **kw):
        raise NonConvergenceError("stalled")

    monkeypatch.setattr(cli, "solve_problem", fail)
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", paraboloid_file, "--out", out])
    assert rc == 1
    assert "stalled" in capsys.readouterr().err
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    assert "report" not in rec and rec["solves"] == []
    rc = cli.main(["measure", "--problem", paraboloid_file, "--out", out])
    assert rc == 1


def starve(monkeypatch):
    """Solves capped at MAX_ITERS = 5 on the shift schedule (1, 1e-6),
    under which the degenerate problem's final shift stage at level 3
    stops at max_iters."""
    monkeypatch.setattr(solver, "MAX_ITERS", 5)
    monkeypatch.setattr(study, "SolverConfig", lambda **kw: SolverConfig(
        continuation_schedule=(1.0, 1e-6)))


def test_unconverged_solve_exits_1(tmp_path, monkeypatch, capsys):
    # nothing is written as a solution
    starve(monkeypatch)
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", "degenerate", "--refinements", "3",
                   "--out", out])
    assert rc == 1
    assert "max_iters" in capsys.readouterr().err
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    assert "report" not in rec
    [record] = rec["solves"]
    assert (record["status"], record["converged"]) == ("max_iters", False)
    assert [(s["truncate_M"], s["eps"], s["converged"])
            for s in record["stages"]] == [(None, 1.0, True),
                                           (None, 1e-6, False)]
    assert not os.path.exists(os.path.join(out, "solution.txt"))
    rc = cli.main(["measure", "--problem", "degenerate", "--refinements", "3",
                   "--out", out])
    assert rc == 1
    assert not os.path.exists(os.path.join(out, "measure.json"))


def test_failure_report_holds_the_problem_record(tmp_path, monkeypatch):
    # the failure report.json writes the problem as Problem.to_dict(), as
    # the success file does, not as a bare name
    starve(monkeypatch)
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", "degenerate", "--refinements", "3",
                   "--out", out])
    assert rc == 1
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    problem = get_problem("degenerate")
    assert rec["problem"]["name"] == problem.name
    assert rec["problem"] == json.loads(json.dumps(problem.to_dict()))


def test_every_json_file_goes_through_the_one_writer(tmp_path,
                                                     paraboloid_file,
                                                     monkeypatch):
    # report.json (success and failure), study.json, measure.json and
    # mesh_check.json are each written by cli._write_json, parse to the
    # dict it was given and end in exactly one newline
    written = []
    real = cli._write_json

    def spy(path, obj):
        written.append((os.path.basename(path), json.loads(json.dumps(obj))))
        real(path, obj)

    def fail(problem, **kw):
        raise NonConvergenceError("stalled")

    monkeypatch.setattr(cli, "_write_json", spy)
    runs = [("solve", 0, "report.json"), ("study", 0, "study.json"),
            ("measure", 0, "measure.json"),
            ("check-mesh", 0, "mesh_check.json"), ("solve", 1, "report.json")]
    for i, (command, code, name) in enumerate(runs):
        if i == len(runs) - 1:
            monkeypatch.setattr(cli, "solve_problem", fail)
        out = tmp_path / str(i)
        written.clear()
        assert cli.main([command, "--problem", paraboloid_file,
                         "--out", str(out)]) == code
        assert sorted(p.name for p in out.glob("*.json")) == [name]
        [(path, obj)] = written
        assert path == name
        text = (out / name).read_text()
        assert json.loads(text) == obj
        assert text.endswith("\n") and not text.endswith("\n\n")
    assert obj["solves"] == [] and obj["problem"]["name"] == "paraboloid"


def test_nonconvex_solve_exits_1(tmp_path, paraboloid_file, monkeypatch,
                                 capsys):
    # An allowance of -10 fails the certificate of the paraboloid, whose
    # lambda1 is 1: the solve reports status "nonconvex" and writes no
    # solution.
    monkeypatch.setattr(study, "CONVEX_ALLOWANCE", -10.0)
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", paraboloid_file, "--out", out])
    assert rc == 1
    assert "nonconvex" in capsys.readouterr().err
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    assert "report" not in rec
    [last] = rec["solves"]
    assert (last["status"], last["converged"]) == ("nonconvex", False)
    assert last["convexity"]["interior_min_lambda1"] == pytest.approx(1.0)
    assert not os.path.exists(os.path.join(out, "solution.txt"))


def test_study_failure_exits_1(paraboloid_file, tmp_path, monkeypatch):
    from mafem.study import StudyReport

    def all_fail(problem, **kw):
        rep = StudyReport(problem.name, problem.degree)
        rep.add_failure(2, NonConvergenceError("stalled"))
        return rep

    monkeypatch.setattr(cli, "run_convergence_study", all_fail)
    rc = cli.main(["study", "--problem", paraboloid_file,
                   "--out", str(tmp_path / "run")])
    assert rc == 1


COMMANDS = st.sampled_from(["solve", "study", "measure", "check-mesh"])


def _smooth_with(command_and_option):
    command, option = command_and_option
    return [command, "--problem=smooth", option]


def _not_a_problem_reference(text):
    return text not in CATALOGUE and not os.path.exists(text)


# argv that each hold one invalid value: an option out of range or, for
# solve, --h with --refinements, or a --problem that names neither a
# catalogue problem nor a file
INVALID_ARGV = st.one_of(
    st.tuples(COMMANDS, st.integers(max_value=1).map("--k={}".format))
    .map(_smooth_with),
    st.integers(max_value=0).map(
        lambda n: ["study", "--problem=smooth", "--levels={}".format(n)]),
    st.tuples(st.sampled_from(["solve", "measure", "check-mesh"]),
              st.integers(max_value=-1).map("--refinements={}".format))
    .map(_smooth_with),
    st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))
    .map(lambda h: ["solve", "--problem=smooth", "--h={!r}".format(h)]),
    st.tuples(st.floats(1e-3, 1.0), st.integers(0, 3)).map(
        lambda hr: ["solve", "--problem=smooth", "--h={!r}".format(hr[0]),
                    "--refinements={}".format(hr[1])]),
    st.tuples(COMMANDS, st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="\0"),
                                max_size=12)
              .filter(_not_a_problem_reference)).map(
        lambda ct: [ct[0], "--problem=" + ct[1]]),
)


def _broken_problem_text():
    """Texts that are not a valid problem: cut short, a required key
    missing, an unknown key, or a JSON value that is not an object."""
    full = json.dumps(PARABOLOID)
    cut = st.integers(0, len(full) - 1).map(lambda n: full[:n])
    missing = st.sampled_from(["polygon", "f", "g"]).map(
        lambda key: json.dumps({k: v for k, v in PARABOLOID.items()
                                if k != key}))
    unknown = st.text(min_size=1, max_size=8).filter(
        lambda key: key not in PARABOLOID).map(
        lambda key: json.dumps({**PARABOLOID, key: 1}))
    not_object = st.one_of(st.integers(), st.lists(st.integers()),
                           st.text(max_size=8), st.none()).map(json.dumps)
    return st.one_of(cut, missing, unknown, not_object)


def _no_solve(*args, **kwargs):
    raise AssertionError("invalid input reached a solve")


def _exits_2_without_solving(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve_problem", _no_solve)
    monkeypatch.setattr(cli, "run_convergence_study", _no_solve)
    rc = cli.main(argv + ["--out", str(tmp_path / "run")])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


INVALID_INPUT_SETTINGS = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@INVALID_INPUT_SETTINGS
@given(argv=INVALID_ARGV)
def test_invalid_option_exits_2_without_solving(argv, tmp_path, monkeypatch,
                                                capsys):
    _exits_2_without_solving(argv, tmp_path, monkeypatch, capsys)


@INVALID_INPUT_SETTINGS
@given(command=COMMANDS, text=_broken_problem_text())
def test_broken_problem_file_exits_2_without_solving(command, text, tmp_path,
                                                     monkeypatch, capsys):
    path = tmp_path / "problem.json"
    path.write_text(text)
    _exits_2_without_solving([command, "--problem", str(path)], tmp_path,
                             monkeypatch, capsys)


def test_negative_data_rejected(tmp_path, capsys):
    # f = 2x^2 - 0.5 is negative on part of the square; the shifts would
    # make every stage solvable, so the data itself must be rejected
    path = tmp_path / "negative_f.json"
    path.write_text(json.dumps({
        **PARABOLOID, "f": {"poly": [[-0.5, 0, 0], [0, 0, 0], [2.0, 0, 0]]},
        "regularization": {"epsilon_schedule": [1.0, 0.6]}}))
    with pytest.raises(ValueError, match="f is negative"):
        study.solve_problem(problem_from_json(str(path)), refinements=1)
    rc = cli.main(["solve", "--problem", str(path),
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "f is negative" in capsys.readouterr().err


def test_zero_density_at_the_last_shift_exits_2_before_any_stage(
        tmp_path, monkeypatch, capsys):
    # f truncated at M = 10 is 0 where the singular density exceeds 10, and
    # the last shift is 0: the path is rejected before its first stage,
    # naming the stage and the JSON key that would fix it
    path = tmp_path / "zero_density.json"
    path.write_text(json.dumps({
        "polygon": CATALOGUE["singular"]().polygon.vertices.tolist(),
        "f": {"name": "singular_f"}, "g": {"name": "singular_g"},
        "regularization": {"truncate_schedule": [10, 40],
                           "epsilon_schedule": [0.25, 0]}}))
    calls = []
    monkeypatch.setattr(solver, "newton_solve",
                        lambda *a, **kw: calls.append(a))
    rc = cli.main(["solve", "--problem", str(path), "--refinements", "2",
                   "--out", str(tmp_path / "run")])
    assert rc == 2 and calls == []
    err = capsys.readouterr().err
    assert "truncate_M=10.0" in err and "epsilon_schedule" in err


@pytest.mark.parametrize("command", ["solve", "study", "measure"])
def test_negative_shift_exits_2_without_solving(command, tmp_path,
                                                 monkeypatch, capsys):
    # a negative shift, a truncation level M <= 0 in a later stage, an
    # increasing shift or a decreasing M
    for reg in ({"epsilon_schedule": [-0.5]}, {"truncate_schedule": [10, 0]},
                {"epsilon_schedule": [0.0, 1.0]},
                {"truncate_schedule": [40, 10]}):
        path = tmp_path / "bad_regularization.json"
        path.write_text(json.dumps({
            "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "f": {"name": "smooth_f"}, "g": {"name": "smooth_g"},
            "levels": [2], "regularization": reg}))
        _exits_2_without_solving([command, "--problem", str(path)], tmp_path,
                                 monkeypatch, capsys)


@pytest.mark.parametrize("command", ["solve", "study", "measure",
                                     "check-mesh"])
def test_nonpositive_mollify_radius_exits_2(command, tmp_path, monkeypatch,
                                            capsys):
    # check-mesh used to accept it and exit 0; solve and study failed only
    # after meshing
    for radius in (-0.1, 0):
        path = tmp_path / "bad_radius.json"
        path.write_text(json.dumps({
            **PARABOLOID, "regularization": {"mollify_radius": radius}}))
        _exits_2_without_solving([command, "--problem", str(path)], tmp_path,
                                 monkeypatch, capsys)
