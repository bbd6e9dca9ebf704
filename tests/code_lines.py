"""Count the code lines of Python modules: the lines that hold a token other
than a comment, a docstring or layout, so blank lines, comments and
docstrings are left out.  A docstring is a string literal that stands
alone as a statement.

    python tests/code_lines.py src/chowpoly

prints one line per module, its code lines and its name, then the sum.
Arguments may be files or directories (their *.py files, not recursing).
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path):
    """The number of code lines of one Python file."""
    lines = set()
    statement = []  # the tokens of the logical line read so far
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv):
    paths = []
    for arg in argv:
        p = Path(arg)
        paths += sorted(p.glob("*.py")) if p.is_dir() else [p]
    total = 0
    for p in paths:
        n = code_lines(p)
        total += n
        print(f"{n:6d}  {p}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
