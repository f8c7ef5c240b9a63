"""Print each ``src/`` module's count of lines that are neither docstring,
comment nor blank, and the total: ``python tools/loc.py [CHECKOUT]``
(default: the current directory). A line counts when a token other than a
comment or line break covers it and no docstring does. Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
counts = {path.relative_to(root): count(path.read_text())
          for path in sorted(root.glob("src/**/*.py"))}
for path, lines in [*counts.items(), ("total", sum(counts.values()))]:
    print(f"{lines:6d}  {path}")
