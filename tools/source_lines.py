"""Print the physical and code lines of each module under ``src/``, and
their totals.

Code lines leave out blank lines, comments and strings that are whole
statements (docstrings and the like); a line with any other token counts.
Run from anywhere: ``python tools/source_lines.py [ROOT]``, where ROOT
defaults to the repository's ``src/``.
"""

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _SKIP:
            statement.append(tok)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = [0, 0]
    for path in sorted(root.rglob("*.py")):
        lines = count(path.read_text())
        total = [t + n for t, n in zip(total, lines)]
        print(f"{lines[0]:6d} {lines[1]:6d}  {path.relative_to(root)}")
    print(f"{total[0]:6d} {total[1]:6d}  total (physical, code)")


if __name__ == "__main__":
    main(sys.argv)
