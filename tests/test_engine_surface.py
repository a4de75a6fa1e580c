"""A ratchet on the package's public surface: every public function and
method of every `duolog` module must be named somewhere in the package,
the benchmark or the demos outside its own `def`.  A name only
tests use is a code path that exists for tests, so it goes or gains a
caller.  The scan matches names, not call targets: a same-named method
elsewhere counts as a caller."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.name for p in (ROOT / "src" / "duolog").glob("*.py"))
CALLER_DIRS = ("src", "perfbench", "demos")

# public names kept without a caller
KEEP = {
    # read the `.seg` files a restart will recover from (ROADMAP item 9)
    "segment_paths",
    "iter_records",
    # references that tests compare against: a journal read back from its
    # JSON lines, and the advisor's table with each `*` cell expanded
    "from_jsonl",
    "expand_wildcards",
}


def public_functions(tree: ast.Module) -> set[str]:
    """Module-level functions and the methods of every class."""
    names = set()
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        names.update(
            f.name for f in body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("_")
        )
    return names


def named_outside_own_def(tree: ast.AST) -> set[str]:
    """Every name and attribute `tree` reads or imports, except a function's
    mentions of itself inside its own body."""
    found = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def callers() -> set[str]:
    names = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            names |= named_outside_own_def(ast.parse(path.read_text()))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_public_function_has_a_caller(module):
    tree = ast.parse((ROOT / "src" / "duolog" / module).read_text())
    uncalled = public_functions(tree) - callers() - KEEP
    assert not uncalled, f"{module}: no caller outside the tests for {sorted(uncalled)}"


def test_the_scan_skips_a_function_naming_itself():
    tree = ast.parse(
        "class C:\n"
        "    def used(self): return self.loop()\n"
        "    def loop(self): return self.loop()\n"
        "    def _private(self): ...\n"
        "def solo(): return solo\n"
    )
    assert public_functions(tree) == {"used", "loop", "solo"}
    assert public_functions(tree) - named_outside_own_def(tree) == {"used", "solo"}


def test_the_keep_list_names_real_functions():
    defined = set()
    for module in MODULES:
        defined |= public_functions(ast.parse((ROOT / "src" / "duolog" / module).read_text()))
    assert KEEP <= defined
