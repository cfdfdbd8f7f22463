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


def test_identity_names_the_one_estimator_a_last_bit_change_moves(tmp_path):
    shutil.copytree(SRC / "twophase_ate", tmp_path / "src" / "twophase_ate",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "twophase_ate" / "estimators.py"
    text = module.read_text(encoding="utf-8")
    line = "    psi = float(np.mean(mbar_star))\n"
    assert text.count(line) == 1
    module.write_text(text.replace(line, "    psi = float(np.nextafter(np.mean(mbar_star), 1.0))\n"),
                      encoding="utf-8")
    proc = run_python(str(TOOLS / "identity.py"), "--baseline", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "differ: eee"
    assert lines[:-1] and all(" eee mode=" in line for line in lines[:-1])
