import textwrap
from pathlib import Path

from util import run_python

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
