"""Tests for the command line driver and its exit codes."""

import json
import os

import pytest

from mafem import cli, study
from mafem.errors import NonConvergenceError
from mafem.solver import SolverConfig


@pytest.fixture()
def paraboloid_file(tmp_path):
    path = tmp_path / "paraboloid.json"
    path.write_text(json.dumps({
        "name": "paraboloid",
        "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "f": {"name": "one"},
        "g": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
        "exact": {"poly": [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]},
        "levels": [1, 2],
    }))
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


def test_measure_writes_report(tmp_path, paraboloid_file):
    out = str(tmp_path / "run")
    rc = cli.main(["measure", "--problem", paraboloid_file,
                   "--refinements", "1", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "measure.json")) as fh:
        rec = json.load(fh)
    assert max(rec["residuals"]) <= 1e-9


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
])
def test_bad_override_exits_2(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "run")])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_wrong_type_in_problem_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
                               "f": {"name": "one"}, "g": {"name": "zero"},
                               "levels": 2.5}))
    assert cli.main(["study", "--problem", str(bad),
                     "--out", str(tmp_path / "run")]) == 2
    assert "'levels'" in capsys.readouterr().err


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
        assert json.load(fh)["report"] is None
    rc = cli.main(["measure", "--problem", paraboloid_file, "--out", out])
    assert rc == 1


def test_unconverged_solve_exits_1(tmp_path, monkeypatch, capsys):
    # Solver settings under which the degenerate problem's final shift
    # stage stops at max_iters; nothing is written as a solution.
    monkeypatch.setattr(study, "SolverConfig", lambda **kw: SolverConfig(
        max_iters=8, continuation_schedule=(1.0, 1e-6)))
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--problem", "degenerate", "--refinements", "3",
                   "--out", out])
    assert rc == 1
    assert "max_iters" in capsys.readouterr().err
    with open(os.path.join(out, "report.json")) as fh:
        rec = json.load(fh)
    assert rec["report"]["status"] == "max_iters"
    assert rec["report"]["converged"] is False
    assert not os.path.exists(os.path.join(out, "solution.txt"))
    rc = cli.main(["measure", "--problem", "degenerate", "--refinements", "3",
                   "--out", out])
    assert rc == 1
    assert not os.path.exists(os.path.join(out, "measure.json"))


def test_study_failure_exits_1(paraboloid_file, tmp_path, monkeypatch):
    from mafem.study import StudyReport

    def all_fail(problem, **kw):
        rep = StudyReport(problem.name, problem.degree)
        rep.add_failure(2, "stalled")
        return rep

    monkeypatch.setattr(cli, "run_convergence_study", all_fail)
    rc = cli.main(["study", "--problem", paraboloid_file,
                   "--out", str(tmp_path / "run")])
    assert rc == 1
