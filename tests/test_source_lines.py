"""tools/source_lines.py, whose counts every source-size claim quotes."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "source_lines.py"
_SPEC = importlib.util.spec_from_file_location("source_lines", _PATH)
source_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(source_lines)


def test_count_keeps_only_lines_of_code():
    text = ('"""A module docstring\n'
            'over two lines."""\n'
            "# a comment\n"
            "\n"
            "total = (1 +\n"
            "         2)  # a trailing comment\n"
            '"a string that is a whole statement"\n'
            'label = "a string in a statement"\n')
    # of the eight lines, only the two statements' three are code
    assert source_lines.count(text) == (8, 3)
