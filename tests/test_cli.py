import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from steklovfem import (
    CR,
    P1,
    Pencil,
    assemble_boundary_mass,
    assemble_stiffness,
    build_dof_map,
    dense_oracle,
    solve_pencil,
)
from steklovfem.cli import _coefficient_field, build_parser, main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_study(*flags, capsys):
    return run_cli("study", "--domain", "square", "--element", "p1", *flags, capsys=capsys)


class TestRunConfig:
    """Validation and expansion of the study's level and index flags."""

    def test_levels_expand_by_doubling(self, tmp_path, capsys):
        target = tmp_path / "study.csv"
        code, _, _ = run_study("--min-level", "8", "--max-level", "64", "--ref-level", "128",
                               "--eig-index", "1", "--out", str(target), capsys=capsys)
        assert code == 0
        assert [ln.split(",")[0] for ln in target.read_text().splitlines()[1:]] == [
            "sqrt2/8", "sqrt2/16", "sqrt2/32", "sqrt2/64"]

    @pytest.mark.parametrize("bad", (6, 12, 24, 7, 0))
    def test_levels_must_be_base_times_power_of_two(self, bad, capsys):
        code, _, err = run_study("--min-level", str(bad), "--max-level", "128", capsys=capsys)
        assert code == 1
        assert "times a power of two" in err

    def test_ordering_checks(self, capsys):
        for flags, message in ((("--min-level", "64", "--max-level", "32"), "min-level"),
                               (("--max-level", "512", "--ref-level", "512"), "ref-level"),
                               (("--eig-index", "0"), "eig-index")):
            code, _, err = run_study(*flags, capsys=capsys)
            assert code == 1
            assert message in err

    def test_coefficient_field(self):
        args = build_parser().parse_args(
            ["study", "--domain", "square", "--element", "p1", "--alpha", "2,1,0",
             "--beta", "3"])
        coeff = _coefficient_field(args)
        assert coeff.alpha(np.array(0.5), np.array(0.0)) == pytest.approx(2.5)
        assert coeff.beta(np.array(0.5), np.array(0.25)) == pytest.approx(3.0)


class TestMeshCommand:
    def test_square_counts(self, capsys):
        code, out, _ = run_cli("mesh", "--domain", "square", "--level", "2", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mesh square 2"
        kinds = [ln.split()[0] for ln in lines[1:]]
        assert kinds.count("v") == 9 and kinds.count("t") == 8 and kinds.count("b") == 8

    def test_slit_duplicates_vertices(self, capsys):
        code, out, _ = run_cli("mesh", "--domain", "slit", "--level", "2", capsys=capsys)
        assert code == 0
        assert sum(ln.startswith("v ") for ln in out.splitlines()) == 10

    def test_odd_lshape_level_is_usage_error(self, capsys):
        code, _, err = run_cli("mesh", "--domain", "lshape", "--level", "3", capsys=capsys)
        assert code == 1
        assert "error" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "mesh.txt"
        code, out, _ = run_cli("mesh", "--domain", "square", "--level", "2",
                               "--out", str(target), capsys=capsys)
        assert code == 0 and out == ""
        assert target.read_text().startswith("mesh square 2\n")

    def test_unknown_domain_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mesh", "--domain", "pentagon", "--level", "2"])
        assert excinfo.value.code == 1

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "mesh.txt"
        code, out, err = run_cli("mesh", "--domain", "square", "--level", "2",
                                 "--out", str(target), capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("steklovfem: error: ") and err.count("\n") == 1
        assert str(target) in err


class TestAssembleCommand:
    def test_stiffness_header_and_dimension(self, capsys):
        code, out, _ = run_cli("assemble", "--domain", "square", "--level", "2",
                               "--element", "p1", capsys=capsys)
        assert code == 0
        header = out.splitlines()[0].split()
        assert header[0] == "matrix" and header[1] == "9"
        assert len(out.splitlines()) == 1 + int(header[2])

    def test_boundary_mass_matches_library(self, get_mesh, get_dofmap, capsys):
        code, out, _ = run_cli("assemble", "--domain", "lshape", "--level", "4",
                               "--element", "cr", "--which", "boundary-mass",
                               capsys=capsys)
        assert code == 0
        mesh = get_mesh("lshape", 4)
        dm = get_dofmap("lshape", 4, CR)
        expected = assemble_boundary_mass(mesh, dm)
        lines = out.splitlines()
        assert lines[0] == f"matrix {dm.n_dofs} {expected.nnz}"
        values = {(int(r), int(c)): float(v)
                  for _, r, c, v in (ln.split() for ln in lines[1:])}
        upper = expected.upper.tocoo()
        for r, c, v in zip(upper.row, upper.col, upper.data):
            assert values[(int(r), int(c))] == pytest.approx(v, rel=1e-15)

    def test_invalid_coefficient_exits_one(self, capsys):
        code, _, err = run_cli("assemble", "--domain", "square", "--level", "4",
                               "--element", "p1", "--alpha", "-1.0", capsys=capsys)
        assert code == 1
        assert "alpha" in err

    @pytest.mark.parametrize("command", ("assemble", "solve"))
    def test_non_finite_stiffness_exits_one(self, tmp_path, capsys, command):
        # inf passes the positivity check; 1e308 is finite but its element
        # contributions overflow when they are summed.
        target = tmp_path / "out.txt"
        for level, alpha in (("2", "inf"), ("16", "1e308")):
            code, out, err = run_cli(command, "--domain", "square", "--level", level,
                                     "--element", "p1", "--alpha", alpha,
                                     "--out", str(target), capsys=capsys)
            assert code == 1 and out == "" and not target.exists()
            assert err.startswith("steklovfem: error: ") and err.count("\n") == 1
            assert "non-finite" in err

    def test_constant_is_affine_with_zero_slopes(self, tmp_path, capsys):
        dumps = []
        for alpha in ("2", "2,0,0"):
            target = tmp_path / f"{alpha}.txt"
            code, _, _ = run_cli("assemble", "--domain", "lshape", "--level", "8",
                                 "--element", "cr", "--alpha", alpha,
                                 "--out", str(target), capsys=capsys)
            assert code == 0
            dumps.append(target.read_bytes())
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("triple, message", (("1,2", "C0 or C0,CX,CY"),
                                                 ("a,b,c", "could not convert")))
    def test_malformed_affine_triple_exits_one(self, capsys, triple, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["assemble", "--domain", "square", "--level", "4", "--element", "p1",
                  "--alpha", triple])
        assert excinfo.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--alpha-affine", "--beta-affine"))
    def test_affine_twin_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["assemble", "--domain", "square", "--level", "4", "--element", "p1",
                  flag, "1,0,0"])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSolveCommand:
    def test_lshape_table_value(self, capsys):
        code, out, _ = run_cli("solve", "--domain", "lshape", "--level", "8",
                               "--element", "p1", "--k", "2", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("lambda_2 = 0.92115806")
        assert float(lines[1].split("residual =")[1]) <= 1e-10

    def test_slit_table_value(self, capsys):
        code, out, _ = run_cli("solve", "--domain", "slit", "--level", "8",
                               "--element", "p1", "--k", "2", capsys=capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("lambda_2 = 0.79372467")

    def test_square_cr_matches_dense_oracle(self, get_mesh, get_dofmap, capsys):
        code, out, _ = run_cli("solve", "--domain", "square", "--level", "4",
                               "--element", "cr", "--k", "3", capsys=capsys)
        assert code == 0
        mesh = get_mesh("square", 4)
        dm = get_dofmap("square", 4, CR)
        oracle = dense_oracle(Pencil(assemble_stiffness(mesh, dm),
                                     assemble_boundary_mass(mesh, dm)), 3)
        printed = [float(ln.split()[2]) for ln in out.splitlines()]
        assert printed == pytest.approx(oracle.eigenvalues, abs=5e-9)

    @pytest.mark.parametrize("kind, family", (("lshape", P1), ("slit", CR)))
    def test_goes_through_solve_mesh(self, get_pencil, solve_mesh_calls, capsys, kind, family):
        code, out, _ = run_cli("solve", "--domain", kind, "--level", "16", "--element", family,
                               "--k", "3", capsys=capsys)
        assert code == 0
        assert solve_mesh_calls == [(kind, 16, family, 3, False, 0)]
        sol = solve_pencil(get_pencil(kind, 16, family), 3)
        assert out == "".join(f"lambda_{j} = {lam:.8f}   residual = {res:.8e}\n" for j, (lam, res)
                              in enumerate(zip(sol.eigenvalues, sol.residual_norms), start=1))

    def test_deterministic_output(self, capsys):
        args = ("solve", "--domain", "lshape", "--level", "8", "--element", "cr",
                "--k", "3")
        _, first, _ = run_cli(*args, capsys=capsys)
        _, second, _ = run_cli(*args, capsys=capsys)
        assert first == second

    def test_affine_coefficients_accepted(self, capsys):
        code, out, _ = run_cli("solve", "--domain", "square", "--level", "4",
                               "--element", "p1", "--k", "1",
                               "--alpha", "1,0.5,0.5",
                               "--beta", "2,-0.5,0", capsys=capsys)
        assert code == 0
        assert out.startswith("lambda_1 = ")

    def test_unreachable_tolerance_is_numerical_failure(self, capsys):
        code, _, err = run_cli("solve", "--domain", "square", "--level", "2",
                               "--element", "p1", "--k", "2", "--tol", "1e-300",
                               capsys=capsys)
        assert code == 2
        assert "numerical failure" in err

    def test_lanczos_no_convergence_is_numerical_failure(self, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((32, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        code, out, err = run_cli("solve", "--domain", "lshape", "--level", "8",
                                 "--element", "p1", "--k", "2", capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("steklovfem: numerical failure: ") and "Lanczos" in err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "solve.txt"
        code, out, err = run_cli("solve", "--domain", "square", "--level", "2",
                                 "--element", "p1", "--k", "2", "--out", str(target),
                                 capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("steklovfem: error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.parametrize("excess", (None, 1))
    def test_bad_k_fails_before_any_assembly(self, get_dofmap, monkeypatch, capsys, excess):
        from steklovfem import analysis

        def no_assembly(*args, **kwargs):
            raise AssertionError("no matrix may be assembled for a bad k")

        n = get_dofmap("slit", 16, CR).n_dofs
        k = 0 if excess is None else n + excess
        monkeypatch.setattr(analysis, "assemble_stiffness", no_assembly)
        code, out, err = run_cli("solve", "--domain", "slit", "--level", "16", "--element", "cr",
                                 "--k", str(k), capsys=capsys)
        assert code == 1 and out == ""
        assert f"k must be between 1 and {n}, got {k}" in err

    def test_lshape_cr_level_512_converges(self, capsys):
        # Exited 2 after 500 sweeps while the sweeps' solves were unrefined.
        code, out, _ = run_cli("solve", "--domain", "lshape", "--level", "512",
                               "--element", "cr", "--k", "3", capsys=capsys)
        assert code == 0
        assert len(out.splitlines()) == 3


class TestStudyCommand:
    def test_square_csv_and_report(self, tmp_path, capsys):
        target = tmp_path / "study.csv"
        code, out, _ = run_cli(
            "study", "--domain", "square", "--element", "p1",
            "--min-level", "8", "--max-level", "32", "--ref-level", "128",
            "--eig-index", "1", "--out", str(target), capsys=capsys)
        assert code == 0
        content = target.read_text()
        lines = content.splitlines()
        assert lines[0] == "h,lambda,ratio_lambda,err_boundary,ratio_u"
        assert len(lines) == 4
        assert lines[1].startswith("sqrt2/8,")
        assert "reference lambda_1" in out and "richardson" in out
        assert "target 2r = 2.00000000" in out
        assert "target r + 1/2 = 1.50000000" in out
        assert "1.50000000 (lower bound)" in out

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            "study", "--domain", "square", "--element", "p1",
            "--min-level", "8", "--max-level", "32", "--ref-level", "128",
            "--eig-index", "1", "--format", "markdown", capsys=capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("| h | lambda_1 |")

    def test_idempotent_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("study", "--domain", "square", "--element", "cr",
                "--min-level", "8", "--max-level", "32", "--ref-level", "128",
                "--eig-index", "1")
        assert run_cli(*args, "--out", str(a), capsys=capsys)[0] == 0
        assert run_cli(*args, "--out", str(b), capsys=capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_tol_fails_before_any_assembly(self, monkeypatch, capsys):
        from steklovfem import analysis

        def no_assembly(*args, **kwargs):
            raise AssertionError("no matrix may be assembled for a bad tol")

        monkeypatch.setattr(analysis, "assemble_stiffness", no_assembly)
        code, _, err = run_study("--tol", "1", capsys=capsys)
        assert code == 1
        assert "tol must lie in (0, 1e-6], got 1.0" in err

    def test_prints_cluster_warnings(self, monkeypatch, capsys):
        from steklovfem import analysis

        # Every level warns, once for each neighbour of lambda_2.
        monkeypatch.setattr(analysis, "CLUSTER_GAP_TOL", 1e9)
        code, out, _ = run_cli("study", "--domain", "lshape", "--element", "p1",
                               "--min-level", "8", "--max-level", "16", "--ref-level", "32",
                               capsys=capsys)
        assert code == 0
        warnings = [line for line in out.splitlines() if line.startswith("warning: ")]
        assert [w.split(":")[1] for w in warnings] == [" level 8"] * 2 + [" level 16"] * 2
        assert all("sits in a cluster" in w for w in warnings)

    def test_level_flag_validation(self, capsys):
        code, _, err = run_cli("study", "--domain", "square", "--element", "p1",
                               "--min-level", "12", "--max-level", "24",
                               capsys=capsys)
        assert code == 1
        assert "times a power of two" in err

    def test_ref_level_must_exceed_max(self, capsys):
        code, _, err = run_cli("study", "--domain", "square", "--element", "p1",
                               "--min-level", "8", "--max-level", "512",
                               "--ref-level", "512", capsys=capsys)
        assert code == 1
        assert "ref-level" in err


def test_module_entry_point_smoke(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "steklovfem", "solve", "--domain", "square",
         "--level", "2", "--element", "p1", "--k", "1"],
        capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("lambda_1 = 0.24207171")
