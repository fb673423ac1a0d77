"""``tools/code_lines.py``, the code-line count that CHANGES.md and
ROADMAP.md report, on a snippet whose counts are known."""

import importlib.util
import sys
from pathlib import Path

import pytest

CODE_LINES_PY = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
# 10 code lines: none from the docstrings, comments or blank lines; two each
# from the assigned triple-quoted string and the bracketed return; one from
# the string statement that is not a body's first
SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


class A:
    """Class docstring."""

    x = """not a docstring:
    an assignment"""

    def f(self):
        """Function docstring."""
        return (1,
                2)


async def g():
    "one-line docstring"
    s = "code"
    "a later string statement is code"
'''


@pytest.fixture(scope="module")
def code_lines():
    """tools/code_lines.py as a module, loaded without writing bytecode next
    to it."""
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES_PY)
    module = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(code_lines):
    assert code_lines.code_lines(SNIPPET) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_code_lines_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["10", "pkg/a.py"], ["2", "pkg/b.py"], ["12", "total"]]
