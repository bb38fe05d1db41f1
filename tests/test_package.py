"""The package's export list against the names its __init__ imports, no
definition in src/ that only tests reach, no public name that no command
enters unless it is listed with its reason, and no file written outside cli.py.

Removing a public name means editing both the import and __all__; these tests
fail when only one of them changes.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import entgames
from entgames.cli import main
from entgames.games import chsh

from conftest import write_game

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


# the public names that no command enters, each with why it is public
LIBRARY_ONLY = {
    "chsh": "the README's game; the CLI reads games from files",
    "check_bound_at_delta_zero": "paper claim: criterion 5's eps/162 grid (ROADMAP item 7)",
    "fidelity": "tracer target qinfo.fidelity; the README's and the tests' reference",
    "haar_state": "the tests' draws",
    "haar_unitary": "the tests' draws",
    "mutual_information": "tracer target qinfo.mutual_information",
    "partial_trace": "tracer target linalg.partial_trace",
    "random_mixed": "tracer target random_states.random_mixed",
    "rel_ent_game_shift_check": "paper claim: the relative-entropy game shift (ROADMAP item 7)",
    "sic_lower_bound": "paper claim: the scalar bound criterion 5's grids read (ROADMAP item 7)",
    "special_case_report": "paper claim: criterion 5's eps/324 special case (ROADMAP item 7)",
    "trace_norm": "tracer target linalg.trace_norm",
}


def _command_lines(tmp: Path) -> list[list[str]]:
    """Every command on tiny inputs: value in both modes, repeat with --n and
    with --alpha, verify, simulate with each model kind, sic with and without
    --decouple."""
    game = tmp / "chsh.json"
    write_game(chsh(), game)
    bell = [[0.5 ** 0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5 ** 0.5, 0.0]]
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({"p": [[0.25, 0.25], [0.25, 0.25]], "dims": [2, 2],
                                "advice": [[bell, bell], [bell, bell]]}))
    models = [{"kind": "iid_bernoulli", "w": 0.9},
              {"kind": "win_all_or_partial", "q": 0.9, "f": 0.75},
              {"kind": "strategy_backed", "game": "chsh.json", "restarts": 2, "iters": 20}]
    configs = []
    for i, model in enumerate(models):
        configs.append(tmp / f"config{i}.json")
        configs[-1].write_text(json.dumps({"n": 8, "epsilon": 1.0, "t": 1.0, "trials": 200,
                                           "v_override": 4, "model": model}))
    lines = [["value", str(game), "--mode", "classical"],
             ["value", str(game), "--mode", "entangled", "--restarts", "2", "--iters", "20",
              "--seed", "0"],
             ["repeat", str(game), "--n", "2"],
             ["repeat", str(game), "--n", "3", "--alpha", "0.5"],
             ["verify", "--trials", "20", "--seed", "0"],
             *(["simulate", str(c), "--seed", "0"] for c in configs),
             ["sic", str(spec)],
             ["sic", str(spec), "--decouple"]]
    return [line + ["--out", str(tmp / f"out{i}")] for i, line in enumerate(lines)]


def _own_codes(obj) -> set:
    """The code of a function, or of every function defined in a class's body."""
    if not inspect.isclass(obj):
        return {obj.__code__}
    path = inspect.getfile(obj)
    funcs = (getattr(v, "__func__", v) for v in vars(obj).values())
    return {f.__code__ for f in funcs
            if inspect.isfunction(f) and f.__code__.co_filename == path}


def test_public_names_reached_by_a_command(tmp_path):
    # a class counts as entered when a function defined in its body runs;
    # names with nothing to enter (a value, an exception or a record class
    # with no function of its own) are left out
    lines = _command_lines(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(line) for line in lines]
    finally:
        sys.setprofile(previous)
    assert set(codes) <= {0, 1}     # each command ran through; 1 is a found violation
    public = {name: _own_codes(getattr(entgames, name)) for name in entgames.__all__
              if callable(getattr(entgames, name))}
    unreached = {name for name, own in public.items() if own and not own & entered}
    assert unreached == set(LIBRARY_ONLY)


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
