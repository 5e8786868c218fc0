"""Each script in ``demos/`` runs to completion in a child process."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == ["interpolation_rates.py", "mesh_tour.py",
                                       "spectrum_basics.py", "table_reproduction.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, package_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=package_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
