"""scripts/code_lines.py counts code lines without blank, comment and docstring lines."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line


# A comment line.
class Box:
    """Class docstring."""

    size = 1


def area(r):
    """Function
    docstring."""
    text = """not a docstring,
    two lines"""
    return math.pi * r * r
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, class, size, def, the two lines of text, return.
    assert code_lines.code_lines(SOURCE) == 7


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "box.py"
    path.write_text(SOURCE)
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"      7 {path}",
        f"      7 {path}",
        "     14 total",
    ]
