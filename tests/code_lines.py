"""Print the code lines of each module of the package, and their total.

A code line is a physical line that holds a token outside comments and
docstrings: blank lines, comment-only lines and the lines of a module,
class or function docstring are not counted.  Standard library only;
not a test module, so pytest does not collect it.

    python tests/code_lines.py [directory]    # default: src/planarsig
"""

import ast
import pathlib
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parents[1] / "src" / "planarsig"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name.ljust(width)}  {count:5d}")
    print(f"{'total'.ljust(width)}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
