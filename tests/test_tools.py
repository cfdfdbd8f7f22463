import shutil
import textwrap
from pathlib import Path

from util import SRC, run_python

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_uncovered_lists_the_statements_no_test_ran(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent('''\
        """A module whose docstring and top-level lines are not listed."""
        LIMIT = 3


        def clamp(x):
            """Clip x to LIMIT."""
            if x > LIMIT:
                return LIMIT
            return x


        def unused():
            return 0
        '''))
    (tmp_path / "test_mod.py").write_text(textwrap.dedent('''\
        from pkg.mod import clamp


        def test_small():
            assert clamp(1) == 1


        def test_negative():
            assert clamp(-2) == -2
        '''))
    proc = run_python(str(TOOLS / "uncovered.py"), "--source", str(tmp_path / "pkg"),
                      "test_mod.py", "-q", "-p", "no:cacheprovider", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "2 passed" in proc.stdout
    assert proc.stdout.splitlines()[-2:] == [
        "pkg/__init__.py: 0 of 0 never ran",
        "pkg/mod.py: 2 of 4 never ran: 8, 13",
    ]


def _nudge(tmp_path, name: str, line: str, nudged: str) -> None:
    """Replace the one occurrence of line in the copied module name."""
    module = tmp_path / "src" / "twophase_ate" / name
    text = module.read_text(encoding="utf-8")
    assert text.count(line) == 1
    module.write_text(text.replace(line, nudged), encoding="utf-8")


def test_identity_names_the_one_estimator_a_last_bit_change_moves(tmp_path):
    # and the census values alone when census_psi moves by one bit
    shutil.copytree(SRC / "twophase_ate", tmp_path / "src" / "twophase_ate",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _nudge(tmp_path, "estimators.py", "    psi = float(np.mean(mbar_star))\n",
           "    psi = float(np.nextafter(np.mean(mbar_star), 1.0))\n")
    _nudge(tmp_path, "sim.py", "    return float(np.mean(contrast))\n",
           "    return float(np.nextafter(np.mean(contrast), 1.0))\n")
    proc = run_python(str(TOOLS / "identity.py"), "--baseline", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "differ: census_psi, eee"
    census = [line for line in lines[:-1] if " census_psi: value " in line]
    assert len(census) == 18  # 6 dataset specs x 3 draw sizes
    runs = [line for line in lines[:-1] if line not in census]
    assert runs and all(" eee mode=" in line for line in runs)
    # the grid ends with the bundled cohort under its estimate-mode schema
    assert runs[-1].startswith("bundled cohort pi=estimated eee ")


def test_identity_names_raking_on_the_wide_edge_cohorts_only(tmp_path):
    # beyond the quadrature limit raking imputes at the mean alone; only the
    # synthetic cohorts with 6 or 7 w2 columns reach that branch
    shutil.copytree(SRC / "twophase_ate", tmp_path / "src" / "twophase_ate",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _nudge(tmp_path, "estimators.py",
           "        return designs, np.ones(1), np.zeros((1, ds.d_w2))\n",
           "        return designs, np.nextafter(np.ones(1), 2.0), np.zeros((1, ds.d_w2))\n")
    proc = run_python(str(TOOLS / "identity.py"), "--baseline", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "differ: raking"
    assert lines[:-1] and all(" raking mode=" in line for line in lines[:-1])
    assert all(line.startswith(("synthetic d2=6 ", "synthetic d2=7 ")) for line in lines[:-1])
