"""A ratchet on the package's settable values: every one is a knob that a
caller may set, so the count may fall but must not rise.  Lower the pin
when a change removes some."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "duolog"

PINNED = 118


def count_settable_values(root: Path) -> int:
    """The defaulted parameters of every function and method, plus the
    annotated assignments with a value in every class body (dataclass and
    NamedTuple fields and plain class attributes alike)."""
    n = 0
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                n += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                n += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    return n


def test_settable_values_do_not_grow():
    assert count_settable_values(SRC) <= PINNED


def test_the_count_reads_defaults_and_class_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *, c=2, d): ...\n"
        "g = lambda x=0: x\n"
        "class C:\n"
        "    e: int = 3\n"
        "    f: int\n"
        "    g = 4\n"
    )
    assert count_settable_values(tmp_path) == 4
