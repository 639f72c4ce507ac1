"""The argv layer of the CLI: the option table's parser against an
argparse parser built from the same table, a refusal matrix that
every command must pass before any work starts, and a matrix of extreme
option values that must finish or refuse in bounded memory and time."""

import argparse
import ast
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cohenram import cli
from cohenram.arith import is_prime

ROOT = Path(__file__).resolve().parent.parent


class _Refusing(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _reference_config(argv) -> cli.RunConfig:
    """What an argparse parser built from the option table makes of argv."""
    top = _Refusing(prog="cohenram")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, options, _) in cli._COMMANDS.items():
        q = sub.add_parser(command)
        for name, (kind, default, _) in options.items():
            how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            if default is ...:
                q.add_argument(f"--{name}", required=True, **how)
            else:
                q.add_argument(f"--{name}", default=default, **how)
    ns = vars(top.parse_args(argv))
    command, output = ns.pop("command"), ns.pop("output")
    return cli.RunConfig(command, ns, output)


def _item(node) -> str:
    """An argv item of a test file: a string, an arithmetic expression
    such as str(10**12), or, where it names a variable, a stand-in."""
    try:
        value = eval(compile(ast.Expression(node), "<argv>", "eval"),
                     {"__builtins__": {}, "str": str})
    except NameError:
        return "7"
    return value if isinstance(value, str) else str(value)


def _test_argvs():
    """Every tuple, list or run of call arguments in tests/ that starts at
    a command name, as in run_cli(capsys, "sum", "--r", "2", ...); a run
    with a starred item is left out, its parts appear elsewhere."""
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            items = (node.elts if isinstance(node, (ast.Tuple, ast.List))
                     else node.args if isinstance(node, ast.Call) else [])
            start = next((i for i, e in enumerate(items) if isinstance(e, ast.Constant)
                          and e.value in cli._COMMANDS), None)
            if start is not None and not any(isinstance(e, ast.Starred) for e in items):
                yield tuple(_item(e) for e in items[start:])


def _readme_argvs():
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    for line in text.splitlines():
        if line.startswith("cohenram "):
            yield tuple(shlex.split(line, comments=True)[1:])


def _bench_argvs():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in range(3):
            for step in workloads.steps(workload, workloads.draw_inputs(workload, seed)):
                if step["kind"] == "cli":
                    yield tuple(step["argv"])


def _joined(argv) -> tuple:
    """argv with every ``--opt value`` pair written as ``--opt=value``."""
    out, tokens = list(argv[:1]), iter(argv[1:])
    for token in tokens:
        out.append(f"{token}={next(tokens, '')}" if token.startswith("--") else token)
    return tuple(out)


ASYMPTOTIC = ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--N", "10")
EXTRA = [
    ("sum", "--r", "2", "--s", "2", "--n", "-4"),                  # negative values
    ("gcd-s", "--m", "-4", "--n", "-8", "--s", "2"),
    (*ASYMPTOTIC, "--tolerance", "-.5"),
    (*ASYMPTOTIC, "--tolerance", "-0.5", "--prime-cutoff", "-3"),
    (*ASYMPTOTIC, "--tolerance", "-1e-3"),                         # not a number to argparse
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes", "-2,3"),
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes", ""),
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes="),
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes", "2", "--primes", "3,5"),
    ("jordan", "--k", "1", "--n", "6", "--n", "8", "--k", "2"),    # the last one wins
    (*ASYMPTOTIC, "--output", "json", "--output", "csv", "--tolerance", "9",
     "--tolerance=0.1"),
    (*ASYMPTOTIC, "--emit-plot-data", "ratio.dat", "--N", "20"),  # a removed option
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes", "-x"),
    ("repro-all",),
    ("repro-all", "--N", "1_000"),                                 # int() takes underscores
    ("sum", "--r", " 2 ", "--s", "2", "--n", "4"),
    ("sum", "--r", "2", "--s", "2", "--n", "4", "--evaluator", "direct"),
    ("sum", "--r", "2", "--s", "2", "--n", "4", "--evaluator", "fast"),
    ("sum", "--r", "2", "--s", "2", "--n"),
    ("sum", "--r", "2", "--s", "2", "--n", "--output", "json"),
    ("sum", "--r", "2", "--s", "2", "--n", "4", "7"),
    ("sum", "--r", "2", "--s", "2", "--n", "4", "--bogus", "1"),
    ("jordan", "--k", "1", "--n", "6", "--memory-budget", "5"),
    ("asymptotic", "--s", "2", "--a", "3"),
    (),
    ("sieve",),
]
# argparse answers --help with SystemExit, so the help argvs are tested apart
CORPUS = sorted({argv for source in (_test_argvs(), _readme_argvs(), _bench_argvs(), EXTRA)
                 for argv in source if not {"-h", "--help"} & set(argv)})


def test_corpus_reaches_every_source():
    assert {argv[0] for argv in CORPUS if argv} == {*cli._COMMANDS, "sieve"}
    assert set(_readme_argvs()) <= set(CORPUS) and len(set(_readme_argvs())) >= 10
    assert set(_bench_argvs()) <= set(CORPUS)
    assert ("jordan", "--k", "2", "--n", "4") in CORPUS  # from run_cli in test_cli.py
    assert ("asymptotic", "--s", "2", "--a", "3", "--b", "4", "--h", "1014185",
            "--N", "2000") in CORPUS  # from test_golden.py


@pytest.mark.parametrize("form", [tuple, _joined])
def test_parser_matches_argparse(capsys, form):
    valid = 0
    for argv in map(form, CORPUS):
        try:
            want = _reference_config(list(argv))
        except ValueError:
            with pytest.raises(ValueError):  # refused by the parser, before any work
                cli.parse_config(argv)
            assert cli.main(list(argv)) == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
        else:
            assert cli.parse_config(argv) == want, argv
            valid += 1
    assert valid >= 40


def test_abbreviations_are_refused(capsys):
    argv = [*ASYMPTOTIC, "--tol", "0.5", "--prime", "1000"]
    want = _reference_config(argv)  # argparse expands unique prefixes
    assert (want.params["tolerance"], want.params["prime_cutoff"]) == (0.5, 1000)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: unrecognized argument for asymptotic: '--tol'\n")


# one valid argv per command; every refusal below is made from these
VALID = {
    "sum": ("--r", "2", "--s", "2", "--n", "4"),
    "jordan": ("--k", "2", "--n", "4"),
    "gcd-s": ("--m", "4", "--n", "8", "--s", "2"),
    "expansion": ("--s", "1", "--k", "1", "--n", "1", "--Q", "10"),
    "local-check": ("--s", "1", "--k", "1", "--n", "1", "--primes", "2"),
    "sivaramakrishnan": ("--s", "1", "--k", "1", "--n", "1", "--R", "20"),
    "asymptotic": ASYMPTOTIC[1:],
    "main-term": ("--s", "2", "--a", "3", "--b", "3", "--h", "12", "--R", "10"),
    "repro-all": ("--N", "10"),
}


def _refusals(command):
    base = [command, *VALID[command]]
    if command != "repro-all":  # the one command with no required option
        yield "missing", [command, *VALID[command][2:]]
    yield "not-an-int", [*base[:2], "x", *base[3:]]
    yield "no-value", base[:-1]
    yield "unknown", [*base, "--bogus", "1"]
    yield "stray", [*base, "extra"]
    yield "bad-output", [*base, "--output", "xml"]
    yield "output-no-value", [*base, "--output"]
    if command == "sum":
        yield "bad-evaluator", [*base, "--evaluator", "fast"]
    yield "budget", [*base, "--memory-budget", "5"]  # no command takes a budget
    yield "abbreviated", [*base, "--out", "json"]


MATRIX = [(f"{command}-{case}", argv) for command in VALID
          for case, argv in _refusals(command)]
MATRIX += [("no-command", []), ("unknown-command", ["sieve", "--n", "4"]),
           ("option-first", ["--output", "json", "sum", *VALID["sum"]])]


@pytest.mark.parametrize("argv", [argv for _, argv in MATRIX], ids=[i for i, _ in MATRIX])
def test_usage_errors_refuse_in_one_line(capsys, argv):
    with pytest.raises(ValueError):  # refused by the parser, before any work
        cli.parse_config(argv)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    if "--memory-budget" in argv:  # the budget case names the option it refuses
        assert "--memory-budget" in err


def test_refusal_matrix_starts_from_valid_argvs(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_REPRO_PRIMES", (2, 3))  # the reduced grid test_golden.py uses
    assert VALID.keys() == cli._COMMANDS.keys()
    for command, argv in VALID.items():
        assert cli.parse_config([command, *argv]).command == command
        # every one runs; repro-all exits 1 by design, its checks against P fail
        assert cli.main([command, *argv]) == (1 if command == "repro-all" else 0), command
        assert capsys.readouterr().out
    assert sum(i.endswith("-budget") for i, _ in MATRIX) == 9


# every integer option of every command set to each of these in turn
EXTREMES = (0, -1, 2**63 - 1, 2**63 + 1, 10**12, 10**100)
PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
BIG_PRIMES = (2**32 - 5, 2**32 - 17)  # two primes whose product passes 2^63


def _extreme_argvs():
    """One valid argv per command with one option appended, so the last
    occurrence sets it: every integer option at every value of EXTREMES,
    and local-check's --primes at the 25 primes below 100 and at a pair
    whose product is at least 2^63."""
    for command, argv in VALID.items():
        for name, (kind, _, _) in cli._COMMANDS[command][1].items():
            if kind is int:
                yield from ([command, *argv, f"--{name}", str(v)] for v in EXTREMES)
    local = ["local-check", *VALID["local-check"]]
    yield [*local, "--primes", ",".join(map(str, PRIMES_BELOW_100))]
    yield [*local, "--primes", ",".join(map(str, BIG_PRIMES))]


# runs every argv through cli.main in one interpreter under a 2 GiB
# address-space limit; prints [exit code, stderr] per argv as JSON
_EXTREMES_SCRIPT = """
import contextlib, io, json, resource, sys
from cohenram import cli
cli._REPRO_PRIMES = (2, 3)  # the reduced grid test_golden.py uses
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
out = []
for argv in json.loads(sys.stdin.read()):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.append([code, err.getvalue()])
print(json.dumps(out))
"""


def test_extreme_values_finish_or_refuse_in_one_line():
    argvs = list(_extreme_argvs())
    # 32 integer options across the nine commands, six values each, and two prime sets
    assert len(argvs) == 32 * len(EXTREMES) + 2 and len(PRIMES_BELOW_100) == 25
    assert all(map(is_prime, BIG_PRIMES)) and BIG_PRIMES[0] * BIG_PRIMES[1] >= 2**63
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _EXTREMES_SCRIPT], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs)
    for argv, (code, err) in zip(argvs, results):
        assert code in (0, 1) and err.count("\n") <= 1, (argv, code, err)
        assert (code == 0) == (err == ""), (argv, code, err)
