"""Split the lines of each module of ``src/stochmap`` by kind.

    python3 tools/linecount.py [DIR]

Prints one JSON object: per module file (sorted by name) and in ``total``,
the number of ``code``, ``docstring``, ``comment`` and ``blank`` lines, their
sum ``lines`` (the file's line count, as ``wc -l`` gives it), and
``module_docstring``, the part of ``docstring`` that is the module's own.

A docstring line is any line of a string literal that stands first in a
module, class or function body, blank lines inside it included.  Outside
docstrings, a line is blank if it holds only white space, a comment if it
holds only a ``#`` comment, and code otherwise (a line of code with a
trailing comment is code).
"""
import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank", "lines", "module_docstring")


def _docstring_lines(tree: ast.Module) -> tuple[set[int], set[int]]:
    """The line numbers of every docstring, and of the module's own."""
    every, module = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            span = set(range(body[0].lineno, body[0].end_lineno + 1))
            every |= span
            if node is tree:
                module = span
    return every, module


def split_source(source: str) -> dict[str, int]:
    """The line counts of one module's source, by kind (see the module docstring)."""
    docstrings, module = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docstrings:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["lines"] += 1
    counts["module_docstring"] = len(module)
    return counts


def count_package(directory: Path) -> dict:
    files = {path.name: split_source(path.read_text()) for path in sorted(directory.glob("*.py"))}
    total = {kind: sum(counts[kind] for counts in files.values()) for kind in KINDS}
    return {"files": files, "total": total}


if __name__ == "__main__":
    directory = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "stochmap"
    print(json.dumps(count_package(directory)))
