"""Static checks on the package source, stdlib only: no module imports
a name it never uses, every name exported through __all__ exists, every
private top-level name is read somewhere in the package, every public
function is read outside its own module, every memo is bounded, nothing
reads the environment, cli charges no table, one test decides which
primes touch a window, and every code name and test the README cites
exists."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import cohenram

SRC = Path(cohenram.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exports(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    exports = _exports(ast.parse((SRC / f"{module}.py").read_text()))
    if not exports:  # nothing to resolve; __main__ would run the CLI on import
        return
    mod = importlib.import_module("cohenram" if module == "__init__" else f"cohenram.{module}")
    assert sorted(n for n in exports if not hasattr(mod, n)) == []


def _private_definitions(tree):
    """(name, node) of every top-level function, class or constant whose
    name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((n, node) for n in names if n.startswith("_") and not n.startswith("__"))


def _reads(node):
    """How often each name is read under node, as a loaded name or an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def _orphans(trees):
    """Private top-level names that no tree reads outside their own
    definition."""
    reads = sum((_reads(tree) for tree in trees), Counter())
    return [n for tree in trees for n, node in _private_definitions(tree)
            if reads[n] <= _reads(node)[n]]


@pytest.mark.parametrize("source, orphans", [
    ("_A = 1\ndef _f(): return _A", ["_f"]),
    ("def _f(n): return _f(n - 1)", ["_f"]),  # only its own body reads it
    ("class _C: pass\nx = obj._C", []),
    ("_x: int = 0\n__all__ = []\ndef f(): return 1", ["_x"]),
])
def test_orphan_check(source, orphans):
    assert _orphans([ast.parse(source)]) == orphans


def test_every_private_name_has_a_reader():
    # a private helper, class or constant that nothing in the package reads
    # is left over from a refactor; tests alone do not keep it alive
    assert _orphans([ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES]) == []


DEMOS = SRC.parent.parent / "demos"
# public functions that only tests read, each kept for the reason given
PUBLIC_UNREAD_ALLOWED = {
    "tau_s": "acceptance criterion 8 checks tau_s(s, n^s) = tau_s(1, n)",
    "zeta_upper_bound": "acceptance criterion 8 bounds 1/J_s(r) through it",
    "crs_direct_spectrum": "the FFT oracle the evaluators are checked against",
    "lhs_sum": "criterion 7 and the L(N) bit pins read its checkpoints",
}


def _unread_public(trees, exports):
    """Top-level functions named in exports that no tree other than their
    defining one reads; trees maps a module name to its syntax tree."""
    reads = {name: _reads(tree) for name, tree in trees.items()}
    return sorted(node.name for name, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in exports
                  and not any(r[node.name] for other, r in reads.items() if other != name))


ARITH = (SRC / "arith.py").read_text()


@pytest.mark.parametrize("sources, unread", [
    ({"a": "def f(): pass\ndef g(): pass", "b": "from .a import f\nf()"}, ["g"]),
    ({"a": "def f(): return f()", "b": "from .a import f"}, ["f"]),  # own reads, imports
    ({"a": "def f(): pass", "b": "import a\nx = a.f"}, []),
    ({"a": "class C: pass\n_x = 1", "b": ""}, []),  # classes and constants
    ({"arith": ARITH + "\ndef tau(n):\n    return tau_s(1, n)\n", "b": "tau_s(1, 4)"},
     ["tau", "zeta_upper_bound"]),
], ids=["unread", "own-reads", "attribute", "not-functions", "planted"])
def test_unread_public_check(sources, unread):
    exports = {"f", "g", "C", "_x", "tau", "tau_s", "zeta_upper_bound"}
    assert _unread_public({m: ast.parse(text) for m, text in sources.items()},
                          exports) == unread


def test_every_public_function_has_a_reader():
    # a public function that only tests read is surface no caller asked
    # for; the package's __init__ re-exports every name, so it is no reader
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES if m != "__init__"}
    trees |= {f"demos/{p.stem}": ast.parse(p.read_text()) for p in DEMOS.glob("*.py")}
    assert len(trees) > len(MODULES)  # the demos are there
    assert _unread_public(trees, set(cohenram.__all__)) == sorted(PUBLIC_UNREAD_ALLOWED)


def _is_sys(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_one_writer_of_stdout():
    # cli.dispatch renders every report; a command that printed on its
    # own would bring back a per-format branch
    trees = [ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    assert sum(_is_sys(n, "stdout") for n in nodes) == 1
    prints = [n for n in nodes if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Name) and n.func.id == "print"]
    assert all(any(k.arg == "file" and _is_sys(k.value, "stderr") for k in n.keywords)
               for n in prints)


def test_only_cli_renders():
    # a report's JSON comes from its dataclass fields in cli, which stamps
    # the schema once; a layout written out elsewhere would drift from them
    for module in MODULES:
        if module == "cli":
            continue
        nodes = list(ast.walk(ast.parse((SRC / f"{module}.py").read_text())))
        assert not [n for n in nodes if isinstance(n, ast.Constant) and n.value == "schema"]
        assert not [n.name for n in nodes if isinstance(n, ast.FunctionDef)
                    and n.name in ("to_json_dict", "plot_data")]


def _is_functools(node, attr):
    return ((isinstance(node, ast.Name) and node.id == attr)
            or (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "functools"))


def _constant_maxsize(call):
    given = [k.value for k in call.keywords if k.arg == "maxsize"] or call.args[:1]
    if not given:
        return None
    try:
        value = eval(compile(ast.Expression(given[0]), "<maxsize>", "eval"),
                     {"__builtins__": {}})
    except NameError:
        return None
    return value if type(value) is int and value >= 1 else None


def _unbounded_memos(tree):
    """Line numbers of every functools.cache, and of every lru_cache
    without an explicit maxsize that is a constant int >= 1."""
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and _is_functools(node, "cache"):
            lines.append(node.lineno)
        elif _is_functools(node, "lru_cache"):
            call = calls.get(id(node))
            if call is None or _constant_maxsize(call) is None:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source, bounded", [
    ("@lru_cache(maxsize=1 << 12, typed=True)\ndef f(x): pass", True),
    ("@functools.lru_cache(64)\ndef f(x): pass", True),
    ("@lru_cache\ndef f(x): pass", False),
    ("@lru_cache()\ndef f(x): pass", False),
    ("@lru_cache(maxsize=None)\ndef f(x): pass", False),
    ("@lru_cache(None, typed=True)\ndef f(x): pass", False),
    ("@lru_cache(maxsize=LIMIT)\ndef f(x): pass", False),
    ("f = functools.lru_cache(maxsize=0)(g)", False),
    ("from functools import cache", False),
    ("@functools.cache\ndef f(x): pass", False),
])
def test_unbounded_memo_check(source, bounded):
    assert (_unbounded_memos(ast.parse(source)) == []) == bounded


@pytest.mark.parametrize("module", MODULES)
def test_every_memo_is_bounded(module):
    # the lru_caches live for the whole process beside the charged tables,
    # so each one must state how many entries it may keep
    assert _unbounded_memos(ast.parse((SRC / f"{module}.py").read_text())) == []


def _environment_reads(tree):
    """Line numbers of every os.environ or os.getenv, and of every import
    of either from os."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted(
        {n.lineno for n in ast.walk(tree)
         if isinstance(n, ast.Attribute) and n.attr in names
         and isinstance(n.value, ast.Name) and n.value.id == "os"
         or isinstance(n, ast.ImportFrom) and n.module == "os"
         and any(alias.name in names for alias in n.names)})


@pytest.mark.parametrize("source, reads", [
    ("import os\nx = os.environ.get('X', '')", True),
    ("import os\nx = os.getenv('X')", True),
    ("from os import environ", True),
    ("import os\nx = os.path.join('a', 'b')", False),
])
def test_environment_read_check(source, reads):
    assert bool(_environment_reads(ast.parse(source))) == reads


@pytest.mark.parametrize("module", MODULES)
def test_nothing_reads_the_environment(module):
    # every limit is a constant and every parameter a flag, so the same
    # argv gives the same bytes whatever the environment holds
    assert _environment_reads(ast.parse((SRC / f"{module}.py").read_text())) == []


def _charges(tree):
    """Each name that tree reads, imports or defines and that is
    _check_budget or a *_bytes helper."""
    names = set(_reads(tree))
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    return sorted(n for n in names if n == "_check_budget" or n.endswith("_bytes"))


@pytest.mark.parametrize("source, charges", [
    ("from .arith import _check_budget as check", ["_check_budget"]),
    ("from . import arith\narith._check_budget('x', 1)", ["_check_budget"]),
    ("from . import asymptotics\nn = asymptotics._main_term_bytes(2, 3, 3, 10)",
     ["_main_term_bytes"]),
    ("def _table_bytes(n):\n    return 8 * n", ["_table_bytes"]),
    ("from .asymptotics import main_term\nx = main_term(2, 3, 3, 12, 10)\ny = x.nbytes", []),
])
def test_charge_check(source, charges):
    assert _charges(ast.parse(source)) == charges


def test_cli_charges_nothing():
    # every table is charged by one formula next to its builder in the
    # library; a charge computed in cli would drift from the build it covers
    assert _charges(ast.parse((SRC / "cli.py").read_text())) == []


def _is_window_span(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and [getattr(node.left, "id", None), getattr(node.right, "id", None)]
            == ["limit", "lo"])


def _window_tests(tree):
    """The top-level definitions of tree (<module> for a bare statement)
    that compare a value with limit - lo: a first multiple tested
    against the window."""
    return sorted({getattr(node, "name", "<module>") for node in tree.body
                   for n in ast.walk(node) if isinstance(n, ast.Compare)
                   and any(map(_is_window_span, [n.left, *n.comparators]))})


def _callers(tree, name):
    """The top-level functions of tree that call name."""
    return sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                  and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                          and n.func.id == name for n in ast.walk(node)))


@pytest.mark.parametrize("source, tests", [
    ("def f(p, lo, limit):\n    return -lo % p <= limit - lo", ["f"]),
    ("def f(p, lo, limit):\n    return limit - lo >= p", ["f"]),
    ("x = first < limit - lo", ["<module>"]),
    ("def f(lo, limit):\n    return max(limit - lo, 1) >= 2", []),  # not the span itself
    ("def f(start, stop):\n    return first < stop - start", []),  # a block, not the window
    (ARITH + "\ndef g(p, lo, limit):\n    return (p - lo % p) % p <= limit - lo\n",
     ["_touched", "g"]),
], ids=["touched", "reversed", "module", "inside-a-call", "block", "planted"])
def test_window_test_check(source, tests):
    assert _window_tests(ast.parse(source)) == tests


def test_one_window_test():
    # the build and its charge decide which primes have a multiple in the
    # window by one test, so the charge counts exactly the primes the
    # build visits
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES}
    assert {m: _window_tests(t) for m, t in trees.items() if _window_tests(t)} == {
        "arith": ["_touched"]}
    assert _callers(trees["arith"], "_touched") == ["_table_bytes", "multiplicative_table"]


TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"
# README names that are no attribute of a module: the product of a prime
# set and a field of ExpansionReport
README_NAMES_ALLOWED = {"Q_P", "final_abs_error"}


def _test_names():
    """The test functions of each tests/ file, keyed by file stem."""
    return {path.stem: {n.name for n in ast.walk(ast.parse(path.read_text()))
                        if isinstance(n, ast.FunctionDef) and n.name.startswith("test_")}
            for path in TESTS.glob("test_*.py")}


def _stale_readme_names(text, tests):
    """Each tests/X.py::name in text that names no test of tests/X.py, and
    each backticked snake_case identifier outside a code block that is no
    attribute of a cohenram module (of the named one, when dotted) and no
    test."""
    stale = [f"tests/{stem}.py::{name}"
             for stem, name in re.findall(r"tests/(\w+)\.py::(\w+)", text)
             if name not in tests.get(stem, ())]
    modules = [importlib.import_module(f"cohenram.{m}") for m in MODULES
               if m not in ("__init__", "__main__")]
    every_test = set().union(*tests.values())
    for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        if ("_" not in span or not re.fullmatch(r"\w+(\.\w+)*", span)
                or span in README_NAMES_ALLOWED):
            continue
        *path, name = span.split(".")
        owners = [cohenram, *modules]
        if path:
            try:
                owners = [importlib.import_module(".".join(["cohenram", *path]))]
            except ImportError:
                owners = []
        if not any(hasattr(owner, name) for owner in owners) and name not in every_test:
            stale.append(span)
    return stale


@pytest.mark.parametrize("text, stale", [
    ("`crs_fast` and `cli._COMMANDS`, `zeta` and `x_1`", ["x_1"]),
    ("`asymptotics.shift_decompose` and `arith.shift_decompose`", ["arith.shift_decompose"]),
    ("`nowhere.crs_fast`, ```\n`x_1`\n``` and `Q_P`", ["nowhere.crs_fast"]),
    ("tests/test_lint.py::test_orphan_check and tests/test_lint.py::test_gone",
     ["tests/test_lint.py::test_gone"]),
    ("`test_orphan_check` or `tests/test_nowhere.py::test_orphan_check`",
     ["tests/test_nowhere.py::test_orphan_check"]),
], ids=["names", "dotted", "code-block-and-allowed", "test-paths", "test-files"])
def test_readme_name_check(text, stale):
    assert _stale_readme_names(text, _test_names()) == stale


def test_readme_names_exist():
    # a name the README cites that nothing defines is left over from a
    # rename or a deletion
    assert _stale_readme_names(README.read_text(), _test_names()) == []
