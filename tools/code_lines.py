"""Count the code lines of src/transposynth, per module and in total.

A code line is a source line that holds at least one token other than a
comment, a line break, an indent or a dedent, and that is not part of a
docstring.  A docstring here is any string literal that makes up a whole
statement on its own (module, class and function docstrings, and bare
string statements elsewhere).  Blank lines, comment-only lines and
docstring lines therefore do not count.

Usage:
    python tools/code_lines.py [DIR]

DIR defaults to src/transposynth next to this script's parent directory.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens after which a new statement starts.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    with path.open("rb") as f:
        tokens = [
            tok
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in (tokenize.NL, tokenize.COMMENT)
        ]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        docstring = (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in _STATEMENT_START
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "transposynth"
    root = Path(argv[1]) if len(argv) > 1 else default
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    if not counts:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
