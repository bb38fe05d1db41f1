"""The package's export list against the names its __init__ imports, no
definition in src/ that only tests reach, and no file written outside cli.py.

Removing a public name means editing both the import and __all__; these tests
fail when only one of them changes.
"""

import ast
from pathlib import Path

import entgames

PACKAGE = Path(entgames.__file__).resolve().parent
# paper claims that only acceptance criteria run: criterion 7's exact
# collision probability and criterion 5's bound grid check
PAPER_CLAIMS = {"protocol.exact_collision_probability", "sic.check_supercos"}


def imported_names() -> list[str]:
    """Names bound by entgames/__init__.py's relative `from .x import ...` lines."""
    tree = ast.parse(Path(entgames.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_exported_name_resolves():
    missing = [name for name in entgames.__all__ if not hasattr(entgames, name)]
    assert missing == []


def test_all_matches_imports():
    assert len(set(entgames.__all__)) == len(entgames.__all__)
    assert sorted(entgames.__all__) == sorted(imported_names())


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def _names_read(node: ast.AST) -> set[str]:
    """The names and attribute names that node's code reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_definition_has_a_reader(tracing):
    # a module-level def or class is read by other src/ code, exported, wrapped
    # by the benchmark tracer, or a paper claim on PAPER_CLAIMS; a name read
    # only inside its own definition (recursion) does not count
    defs, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node))
            reads.append((node, _names_read(node)))
    traced = {f"{t.module.removeprefix('entgames.')}.{t.attr.split('.')[0]}"
              for t in tracing.TARGETS}
    unread = [name for name, node in defs
              if node.name not in entgames.__all__ and name not in traced | PAPER_CLAIMS
              and not any(node.name in names for other, names in reads if other is not node)]
    assert unread == []


# calls that create, change or remove files; cli._finish is their one caller
WRITE_CALLS = {"write_text", "write_bytes", "mkdir", "touch", "unlink", "rename", "rmdir"}


def _writes(call: ast.Call) -> bool:
    """Whether call names a file-writing method or opens a file to write: the
    builtin open's mode is its second argument, a Path.open's its first."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in WRITE_CALLS:
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    position = 1 if isinstance(func, ast.Name) else 0
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False
    # a mode that is not a literal is counted as a write
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def test_only_cli_writes_files():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _writes(node)]
    assert found == []
