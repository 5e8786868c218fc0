"""Golden SHA-256 hashes of the mesh, matrix and convergence-study dumps.

The dump formats and their contents are a stable contract: any change to
the mesh numbering, the assembly, the solver's printed digits or the number
formatting shows here as a changed hash.
"""

import hashlib
import io

import pytest

from steklovfem import (CR, CoefficientField, DomainSpec, P1, affine, assemble_boundary_mass,
                        assemble_stiffness, build_dof_map, write_matrix, write_mesh)
from steklovfem.cli import main

MESH_SHA256 = {
    ("square", 2): "3dd8c25e6d519482f1f8647a235248b5b760667528df4e2122d090401368d4f4",
    ("square", 8): "36b458cc29f02ed058ab6068b02f242dc67a024c01dfcfffee3ffc451baf28c7",
    ("square", 10): "f11b3751dd0fb8bd732316e678e79e5522c9280a169d381f39917aca3932270a",
    ("square", 64): "35093e752f9a6447b87b17d192c57c4f28d7b30cd62d6286d91b3a0c950990eb",
    ("lshape", 2): "4664fa42005cff8e1ac21f5cdf23b49d8d6858a96a5a3aa65f79be3a6d6dcfbf",
    ("lshape", 8): "34bdcb1d1f864bf032e0c4c4e528b58c9d2a9d107c98d7d8f0ca5fb44650ce9b",
    ("lshape", 10): "40771e66164d748d479361b30873f3e1f30cc884da4589f7a31856dfa964a88f",
    ("lshape", 64): "a9a28ea7ff3fc0673652770a063b91dfe8c00de6ad79fdaaeefbf4497c48c7a7",
    ("slit", 2): "251692c82d35ee68b8b414680ad280fe283a65aa4249c0ec3c38d9315441258f",
    ("slit", 8): "70e5f1cc8e483442d788f26af62665330796d75c62c5ade4b40fc0cf69e714ca",
    ("slit", 10): "844ff649a1f5f758240036c210e9e2957d1eb9db0cace2c9f4ead1fb63d2d2f9",
    ("slit", 64): "66f45ac23f061caa92e48f230939528d3e45924315666d1a01f4c1ad70460046",
}

# Level 8; the stiffness matrices use AFFINE_COEFFICIENTS.
MATRIX_SHA256 = {
    ("square", P1, "stiffness"): "9decc1e30e329ab0925d1311d67152bfdded48438359b289ee1fef01079b9f68",
    ("square", P1, "mass"): "d63899bb108dc035d6d6e1a0436da3c94e1b9f9273dafab7a437a7977310a967",
    ("square", CR, "stiffness"): "b01ad594a35123e1a0468a27068e3cfc4001e1cb849d20237deab77b6b9afcaf",
    ("square", CR, "mass"): "747ba1c5cbe256d593a89a25098e90e1e0c820f40c2e5b92fc83104ae887da9b",
    ("lshape", P1, "stiffness"): "28797a9a58bfdd6b89838f8eb6da56d25d8ca81e93aa2cbd51fb357d104f2f89",
    ("lshape", P1, "mass"): "fef5281bd3d6ce7247ee583543ef83696f7405cd3713fd59aa37aea6154ddb6b",
    ("lshape", CR, "stiffness"): "788d9ab0f886ea7b44bb54abfe125888252237c0bb66e3e6e683a204875a3d6e",
    ("lshape", CR, "mass"): "90b158261be57fbfeb9304b3caf45803f4c81f347a752910e407e238560d089d",
    ("slit", P1, "stiffness"): "db36194a610557f1d2e99e64e3118b18486e4f54783fb824c74490a6f48fa599",
    ("slit", P1, "mass"): "df0c9293a2d6b68127376d99570bdadbe8600efa42bb86b987ff7623d863a787",
    ("slit", CR, "stiffness"): "39f89b249dbc9c81706de6cacc93655c37cbead440497cd923840bea65be1ae1",
    ("slit", CR, "mass"): "2f6fd6a7c9d59d8144164eaa3d585bdfe42007f71c9cf736d11af5e3e6adbe46",
}

# `steklovfem study --min-level 8 --max-level 64 --ref-level 128`, CSV format.
STUDY_SHA256 = {
    ("lshape", "p1"): "01c5c33c02faa241b0a809281c3187046eedef47364a91a01e51ac2adcd308b1",
    ("lshape", "cr"): "e81cc73fbd9919a283a2491b3fa048e9bdbfe2416274c787d9a4820fdd5b5fed",
    ("slit", "p1"): "edd606de5e266f29f2dac0b3d290d7b4dcc2020bc310ee433a90edbcc5605746",
    ("slit", "cr"): "386c838153c54aaa04723197d9ca4d2ad996daaa52a4fb5cca61d491323c60f6",
}

# `steklovfem study --min-level 8 --max-level 32 --ref-level 64` plus the given flags: the
# table (CSV, or markdown with --format) and the stdout report.  None of these cases has a
# tabulated enclosure, so each fits a Richardson reference; for CR that fit reads
# conforming P1 eigenvalues of the study levels.
STUDY_RICHARDSON_SHA256 = {
    ("square", "cr", ()): (
        "aa0d67b421e449adda597c44b00ab44cca7434a0e79b7c479dd79868328275af",
        "d934ae9fb71734e3351393dc55c6d28ad774cadfbb5d7403133b9887ee047f9e"),
    ("square", "cr", ("--format", "markdown")): (
        "97350897e8b4e12c6a34c3b42b733cf41d1da2b62d02dc52e58c14e041125eb2",
        "d934ae9fb71734e3351393dc55c6d28ad774cadfbb5d7403133b9887ee047f9e"),
    ("lshape", "cr", ("--eig-index", "3")): (
        "a5c595ca346ff62f1cbbe903f6744606f366c5dd632b302a4400b6512bcc19ec",
        "b0b8c57a50a923f426cd3f3db6277bddeddc94e91196e09b5aced5e9f806491b"),
}

AFFINE_COEFFICIENTS = CoefficientField(alpha=affine(1, 0.5, 0.25), beta=affine(2, -0.5, 0.5))


def sha256_of(writer, obj):
    buffer = io.StringIO()
    writer(obj, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("kind, level", sorted(MESH_SHA256))
def test_mesh_dump(get_mesh, kind, level):
    assert sha256_of(write_mesh, get_mesh(kind, level)) == MESH_SHA256[kind, level]


@pytest.mark.parametrize("kind, family, which", sorted(MATRIX_SHA256))
def test_matrix_dump(get_mesh, get_dofmap, kind, family, which):
    mesh, dofmap = get_mesh(kind, 8), get_dofmap(kind, 8, family)
    matrix = (assemble_stiffness(mesh, dofmap, AFFINE_COEFFICIENTS) if which == "stiffness"
              else assemble_boundary_mass(mesh, dofmap))
    assert sha256_of(write_matrix, matrix) == MATRIX_SHA256[kind, family, which]


@pytest.mark.parametrize("kind, element", sorted(STUDY_SHA256))
def test_study_csv(tmp_path, capsys, kind, element):
    target = tmp_path / "study.csv"
    assert main(["study", "--domain", kind, "--element", element, "--min-level", "8",
                 "--max-level", "64", "--ref-level", "128", "--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == STUDY_SHA256[kind, element]


@pytest.mark.parametrize("kind, element, flags", sorted(STUDY_RICHARDSON_SHA256),
                         ids=lambda v: ("-".join(f.lstrip("-") for f in v) or "csv")
                         if isinstance(v, tuple) else v)
def test_study_richardson_table_and_report(tmp_path, capsys, kind, element, flags):
    target = tmp_path / "study.out"
    assert main(["study", "--domain", kind, "--element", element, "--min-level", "8",
                 "--max-level", "32", "--ref-level", "64", *flags, "--out", str(target)]) == 0
    table_sha, report_sha = STUDY_RICHARDSON_SHA256[kind, element, flags]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == table_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == report_sha
