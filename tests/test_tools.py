import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Seven code lines: the import, both headers, the two lines of the string
# that is not a docstring, the return and the class attribute.
_MODULE = '''"""A module docstring
over two lines."""

# a comment line

import os  # a trailing comment


def f():
    """A function docstring."""
    text = """not a
docstring"""
    return text


class C:
    \'\'\'A class docstring.\'\'\'

    x = 1
'''


def test_blank_comment_and_docstring_lines_are_left_out(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_MODULE, encoding="utf-8")
    assert code_lines.code_lines(path) == 7


def test_main_prints_the_total_then_each_module_in_name_order(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "total 8\na 1\nb 7\n"
