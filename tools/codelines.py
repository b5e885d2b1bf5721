"""Count the lines of each ``src/doxa`` module.

    python3 tools/codelines.py

prints, for each module, its total lines (as ``wc -l`` counts them) and
its code lines, then the sums.  A code line holds a token of Python code:
blank lines, comment lines and the lines of module, class and function
docstrings are not code lines.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "doxa"

#: Tokens that carry no code on their own.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    total_sum = code_sum = 0
    for path in sorted(SOURCE.glob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        total_sum += total
        code_sum += code
        print(f"{path.name:<14} {total:>6} {code:>6}")
    print(f"{'total':<14} {total_sum:>6} {code_sum:>6}")


if __name__ == "__main__":
    main()
