"""tools/code_lines.py counts what the size figures in the docs count:
source lines with code, without blanks, comments or docstrings."""
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SAMPLE = '''"""Module docstring,
over two lines."""
import os  # a comment after code counts

# a comment line does not


def f(a,
      b):
    """One-line docstring."""
    s = """a string that is
    an operand, not a docstring"""
    "a bare string statement"
    return (a, b, s)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE)
    # import, def (2 lines), the assignment (2 lines), return.
    assert code_lines.code_lines(path) == 6


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a", "2"], ["b", "1"], ["total", "3"]]
