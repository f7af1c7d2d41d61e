"""The repository's own tools."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    source = textwrap.dedent('''\
        """Module docstring,
        over two lines."""

        # A comment.
        import math  # counted


        class Shape:
            """Class docstring."""

            sides = (
                3,  # a continued statement counts on every line
            )

            def area(self):
                """Function docstring."""
                text = """a string that is not a docstring
                spans two lines"""
                return math.pi, text
        ''')
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, sides (3 lines), def, text (2 lines), return.
    assert load_tool("code_lines").code_lines(path) == 9
