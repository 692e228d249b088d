import re
from pathlib import Path

import numpy as np
import pytest

from stfem.adaptivity import ConvergenceRecord
from stfem.cli import (FINAL_TIME_GOAL, PRESETS, REGION_GOAL_P4, _setup,
                       build_parser, report_rates, run)
from stfem.goals import FinalTimeIntegralGoal, RegionEnergyGoal
from stfem.io import records_to_csv, write_vtk
from stfem.mesh import build_box_mesh, uniform_refine


def test_vtk_roundtrip_structure(tmp_path):
    mesh = uniform_refine(build_box_mesh(1, 2), 1)
    path = tmp_path / "mesh.vtk"
    write_vtk(str(path), mesh,
              point_data={"u": np.arange(mesh.n_vertices, dtype=float)},
              cell_data={"eta": np.ones(mesh.n_elements)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    ip = text.index(f"POINTS {mesh.n_vertices} double")
    pts = np.array([list(map(float, line.split()))
                    for line in text[ip + 1:ip + 1 + mesh.n_vertices]])
    assert np.allclose(pts[:, :2], mesh.vertices)
    assert np.all(pts[:, 2] == 0.0)
    ic = text.index(f"CELLS {mesh.n_elements} {mesh.n_elements * 4}")
    first = list(map(int, text[ic + 1].split()))
    assert first[0] == 3
    assert f"CELL_TYPES {mesh.n_elements}" in text
    assert "SCALARS u double 1" in text
    assert "SCALARS eta double 1" in text


def test_vtk_tet_mesh(tmp_path):
    mesh = build_box_mesh(2, 1)
    path = tmp_path / "tet.vtk"
    write_vtk(str(path), mesh)
    text = path.read_text()
    assert "CELL_TYPES 6" in text
    assert text.count("\n10") >= 5  # tetrahedron type ids


def test_csv_round_trip_precision(tmp_path):
    rec = ConvergenceRecord(level=0, dofs=9, elements=8, J_h=np.pi,
                            J_error=1.0 / 3.0, eta_h=2e-17)
    text = records_to_csv([rec])
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:4] == ["level", "dofs", "elements", "J_h"]
    vals = lines[1].split(",")
    assert float(vals[3]) == np.pi  # 17 significant digits round-trip
    assert float(vals[4]) == 1.0 / 3.0
    assert vals[-1] == ""  # nan fields stay empty


def test_report_rates_fit_recovery():
    dofs = [100, 400, 1600, 6400]
    recs = []
    for i, n in enumerate(dofs):
        recs.append(ConvergenceRecord(level=i, dofs=n, elements=n,
                                      J_error=float(n) ** -0.85))
    lines = report_rates(recs, d=1)
    jline = [l for l in lines if l.startswith("J_error")][0]
    slope = float(jline.split("slope vs dofs")[1].split()[0])
    assert slope == pytest.approx(-0.85, abs=0.01)


def test_report_rates_halving_errors():
    # dofs quadruple while the error halves: order 1 in h = N^(-1/2),
    # slope -0.5 against dofs
    recs = []
    err = 1.0
    for i, n in enumerate([100, 400, 1600, 6400]):
        recs.append(ConvergenceRecord(level=i, dofs=n, elements=n, J_error=err))
        err /= 2.0
    lines = report_rates(recs, d=1)
    jline = [l for l in lines if l.startswith("J_error")][0]
    slope = float(jline.split("slope vs dofs")[1].split()[0])
    assert slope == pytest.approx(-0.5, abs=1e-12)
    order_h = float(jline.split("order(h=N^-1/2)")[1].split()[0])
    assert order_h == pytest.approx(1.0, abs=1e-10)


def test_report_rates_needs_three_records():
    with pytest.raises(ValueError):
        report_rates([ConvergenceRecord(level=0, dofs=4, elements=2)], d=1)


def test_parser_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--nonsense"])
    assert exc.value.code == 2


def test_parser_rejects_bad_choice():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--preset", "bogus"])
    assert exc.value.code == 2


def test_run_smooth_convergence_writes_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = run(build_parser().parse_args(
        ["--preset", "smooth_convergence", "--dim", "1", "--p", "2",
         "--epsilon", "1", "--max-dofs", "800", "--max-levels", "5",
         "--out-csv", str(out)]))
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(ConvergenceRecord.CSV_FIELDS)
    body = [l for l in lines[1:] if l and not l.startswith("#")]
    assert len(body) >= 3
    l2 = [float(l.split(",")[14]) for l in body]
    assert all(l2[i] > l2[i + 1] for i in range(len(l2) - 1))
    assert any("l2_Q_error" in l for l in lines if l.startswith("#"))


def test_run_linear_goal_deterministic(tmp_path):
    argv = ["--preset", "linear_goal", "--dim", "1", "--max-dofs", "300",
            "--max-levels", "8", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(build_parser().parse_args(argv + ["--out-csv", str(a)])) == 0
    assert run(build_parser().parse_args(argv + ["--out-csv", str(b)])) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_nonlinear_goal_smoke(tmp_path):
    out = tmp_path / "ng.csv"
    code = run(build_parser().parse_args(
        ["--preset", "nonlinear_goal", "--dim", "1", "--max-dofs", "300",
         "--max-levels", "6", "--out-csv", str(out)]))
    assert code == 0
    body = [l for l in out.read_text().splitlines()[1:]
            if l and not l.startswith("#")]
    last = body[-1].split(",")
    assert float(last[4]) != 0.0  # J_error column populated


def test_run_emits_vtk_dumps(tmp_path):
    vtkdir = tmp_path / "vtk"
    code = run(build_parser().parse_args(
        ["--preset", "linear_goal", "--dim", "1", "--max-dofs", "120",
         "--max-levels", "3", "--out-vtk-dir", str(vtkdir)]))
    assert code == 0
    files = sorted(vtkdir.glob("level_*.vtk"))
    assert len(files) == 3
    assert "SCALARS indicator" in files[0].read_text()


def test_main_usage_error_exit_code():
    from stfem.cli import main
    assert main(["--theta", "1.5", "--preset", "linear_goal",
                 "--max-dofs", "50"]) == 2


@pytest.mark.parametrize("argv", [
    ["--initial-cells", "0"],
    ["--max-levels", "0"],
    # flags that the set-up would otherwise drop without a word
    ["--preset", "linear_goal", "--goal", "region_energy"],
    ["--preset", "smooth_convergence", "--mode", "dwr"],
    ["--preset", "custom", "--goal", "none", "--mode", "dwr"],
    ["--preset", "nonlinear_goal", "--initial-cells", "3"],
    ["--preset", "smooth_convergence", "--theta", "0.3"],
    ["--seed", "-1"],
    ["--out-csv", "/nonexistent/x.csv"],
])
def test_bad_setup_value_is_a_usage_error(argv, capsys):
    from stfem.cli import main
    assert main(argv + ["--max-dofs", "50"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_dof_budget_is_a_usage_error(capsys):
    # its own case: the test above appends --max-dofs 50, which would win
    from stfem.cli import main
    assert main(["--max-dofs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


ONE_ROUND = {1: 1, 2: 1}
BOX = {1: 8, 2: 48}
FINAL_TIME = (FinalTimeIntegralGoal, "dwr", ONE_ROUND, BOX, FINAL_TIME_GOAL)
REGION = (RegionEnergyGoal, "dwr", ONE_ROUND, {1: 32, 2: 384}, REGION_GOAL_P4)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("argv, expected", [
    (["--preset", "smooth_convergence"],
     (type(None), "uniform", {1: 2, 2: 3}, BOX, {1: None, 2: None})),
    (["--preset", "linear_goal"], FINAL_TIME),
    (["--preset", "custom"], FINAL_TIME),
    (["--preset", "nonlinear_goal"], REGION),
    (["--preset", "custom", "--goal", "region_energy"], REGION),
    (["--preset", "custom", "--goal", "none"],
     (type(None), "uniform", ONE_ROUND, BOX, {1: None, 2: None})),
])
def test_setup_at_default_flags(d, argv, expected):
    goal_cls, mode, rounds, elements, exact = expected
    prob, goal, mesh, cfg = _setup(build_parser().parse_args(
        argv + ["--dim", str(d)]))
    assert type(goal) is goal_cls
    assert cfg.mode == mode
    assert cfg.uniform_rounds == rounds[d]
    assert mesh.n_elements == elements[d]
    assert prob.exact_goal == exact[d]


def test_readme_cli_section_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command-line driver")[1].split("\n## ")[0]
    actions = {s: a for a in build_parser()._actions for s in a.option_strings}
    flags = {s for s in actions if s.startswith("--")} - {"--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags
    listed = re.findall(r"`(--[a-z-]+) \{([^}]*)\}`", section)
    assert listed
    for flag, choices in listed:
        assert set(choices.split(",")) == {str(c) for c in actions[flag].choices}
    presets = section.split("Presets:")[1].split("\n\n")[0]
    assert re.findall(r"`(\w+)`", presets) == list(PRESETS)


def test_main_loop_mesh_error_is_a_solver_failure(monkeypatch, capsys):
    from stfem import cli
    from stfem.mesh import MeshError

    def failing_loop(*args, **kwargs):
        raise MeshError("bisection closure did not terminate")

    monkeypatch.setattr(cli, "adaptive_loop", failing_loop)
    assert cli.main(["--preset", "linear_goal", "--max-dofs", "50"]) == 1
    assert "error: bisection closure" in capsys.readouterr().err


def test_main_loop_value_error_is_a_solver_failure(monkeypatch, capsys):
    # a ValueError raised inside the loop, like doerfler_mark's on
    # non-finite indicators, is a numerical failure (1), not a usage error
    from stfem import cli

    def failing_loop(*args, **kwargs):
        raise ValueError("indicators must be finite")

    monkeypatch.setattr(cli, "adaptive_loop", failing_loop)
    assert cli.main(["--preset", "linear_goal", "--max-dofs", "50"]) == 1
    assert "error: indicators must be finite" in capsys.readouterr().err


def test_default_gmres_preconditioner_converges_the_linear_goal_loop():
    # with a Jacobi preconditioner this loop's adjoint GMRES stops at its
    # 100-iteration cap and the run exits 1
    from stfem.cli import main
    assert main(["--preset", "linear_goal", "--dim", "1", "--seed", "7",
                 "--solver", "gmres", "--max-dofs", "60"]) == 0


def test_unconverged_levels_are_named_on_stderr(monkeypatch, capsys):
    # one GMRES step per solve: the ILU is near exact on the first levels,
    # whose solves converge, but not later
    from stfem import cli, solvers
    monkeypatch.setattr(solvers, "GMRES_MAX_ITER", 1)
    loop, results = cli.adaptive_loop, []

    def recording(*args):
        results.append(loop(*args))
        return results[-1]

    monkeypatch.setattr(cli, "adaptive_loop", recording)
    assert cli.main(["--preset", "linear_goal", "--solver", "gmres",
                     "--max-dofs", "70"]) == 1
    records = results[0].records
    failed = [r for r in records if not r.converged]
    assert failed and len(failed) < len(records)
    assert capsys.readouterr().err.splitlines() == [
        f"error: level {r.level} ({r.dofs} dofs) did not converge"
        for r in failed]
