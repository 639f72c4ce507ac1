import json
import math
import os
import subprocess
import sys
import time

import pytest

from cohenram import cli
from cohenram.arith import jordan
from cohenram.asymptotics import AsymptoticQuery, asymptotic_verify
from cohenram.cohen import RoundingAssertionError
from cohenram.expansions import ExpansionQuery, expansion_partial_sum


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sum_plain(capsys):
    code, out, err = run_cli(capsys, "sum", "--r", "2", "--s", "2", "--n", "4")
    assert (code, out, err) == (0, "3\n", "")


def test_sum_evaluators_agree(capsys):
    values = set()
    for ev in ("multiplicative", "divisor-sum", "direct"):
        code, out, _ = run_cli(capsys, "sum", "--r", "9", "--s", "1", "--n", "3",
                               "--evaluator", ev)
        assert code == 0
        values.add(out)
    assert values == {"-3\n"}


def test_sum_json_is_deterministic(capsys):
    args = ("sum", "--r", "6", "--s", "1", "--n", "3", "--output", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["value"] == -2


def test_jordan_and_gcd_s(capsys):
    assert run_cli(capsys, "jordan", "--k", "2", "--n", "4")[1] == "12\n"
    assert run_cli(capsys, "gcd-s", "--m", "4", "--n", "8", "--s", "2")[1] == "4\n"
    code, _, err = run_cli(capsys, "jordan", "--k", "2", "--n", "0")
    assert code == 1 and err.startswith("error:")


def test_expansion_reference_case(capsys):
    code, out, _ = run_cli(capsys, "expansion", "--s", "1", "--k", "1", "--n", "1",
                           "--Q", "10000", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["final_abs_error"] < 1e-3
    assert payload["converged"] is True


def test_expansion_csv(capsys):
    rep = expansion_partial_sum(ExpansionQuery(2, 2, 3, 500))
    code, out, _ = run_cli(capsys, "expansion", "--s", "2", "--k", "2", "--n", "3",
                           "--Q", "500", "--output", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "Q,partial_sum,abs_error"
    assert len(lines) == 4  # checkpoints 10, 100, 500
    assert len(lines) == 1 + len(rep.partial_sums)
    q0, s0, e0 = lines[1].split(",")
    assert int(q0) == rep.partial_sums[0][0]
    assert float(s0) == rep.partial_sums[0][1]
    assert float(e0) == abs(rep.partial_sums[0][1] - rep.target)


def test_local_check(capsys):
    code, out, _ = run_cli(capsys, "local-check", "--s", "1", "--k", "1", "--n", "1",
                           "--primes", "2")
    assert code == 0
    assert "lhs         4/3" in out
    assert "factor p=2    4/3" in out
    assert "equal       True" in out and "cases_match True" in out
    code, out, _ = run_cli(capsys, "local-check", "--s", "2", "--k", "1", "--n", "6",
                           "--primes", "2,3,5", "--output", "json")
    payload = json.loads(out)
    assert payload["equal"] is True and payload["cases_match"] is True
    code, out, _ = run_cli(capsys, "local-check", "--s", "2", "--k", "1", "--n", "6",
                           "--primes", "", "--output", "json")
    assert json.loads(out)["equal"] is True
    code, _, err = run_cli(capsys, "local-check", "--s", "1", "--k", "1", "--n", "1",
                           "--primes", "2,9")
    assert code == 1 and "prime" in err


def test_sivaramakrishnan(capsys):
    code, out, _ = run_cli(capsys, "sivaramakrishnan", "--s", "1", "--k", "1",
                           "--n", "1", "--R", "200", "--output", "json")
    assert code == 0
    assert json.loads(out)["query"] == {"s": 1, "k": 1, "n": 1, "Q": 200}


def test_asymptotic_with_plot_data(capsys, tmp_path):
    plot = tmp_path / "ratios.dat"
    code, out, _ = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "3",
                           "--h", "12", "--N", "20000", "--prime-cutoff", "1000",
                           "--emit-plot-data", str(plot), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["k"] == 3
    rows = plot.read_text().strip().split("\n")
    assert len(rows) == len(payload["ratios"]) == 2
    n0, rho0 = rows[0].split()
    assert int(n0) == 10**4
    assert float(rho0) == payload["ratios"][0][1]


def test_asymptotic_csv(capsys):
    rep = asymptotic_verify(AsymptoticQuery(2, 3, 3, 1, 5000, prime_cutoff=100))
    code, out, _ = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "3",
                           "--h", "1", "--N", "5000", "--prime-cutoff", "100",
                           "--output", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,lhs,N_times_rhs,ratio"
    n0, lhs0, nr0, rho0 = lines[1].split(",")
    assert int(n0) == rep.lhs_checkpoints[0][0]
    assert float(nr0) == pytest.approx(int(n0) * rep.rhs.value, rel=1e-15)
    assert float(rho0) == rep.ratios[0][1]


def test_asymptotic_rejects_bad_hypotheses(capsys):
    code, _, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "2", "--b", "3",
                           "--h", "1", "--N", "100")
    assert code == 1 and "1 + s/2" in err


def test_asymptotic_huge_shift_within_budget(capsys):
    # the tables cover [1, 10] and a window at 10^12, so 100 MB is plenty
    code, out, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "4",
                             "--h", str(10**12), "--N", "10",
                             "--memory-budget", str(10**8), "--output", "json")
    assert (code, err) == (0, "")
    n, got = json.loads(out)["lhs_checkpoints"][-1]
    want = math.fsum(jordan(3, n) / n**3 * jordan(4, n + 10**12) / (n + 10**12) ** 4
                     for n in range(1, 11))
    assert n == 10 and got == pytest.approx(want, rel=1e-12)


def test_asymptotic_refuses_a_shift_too_large_to_sieve(capsys):
    # the sieving steps grow with N, not with h: N = 10^9 is refused at once
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "4",
                             "--h", "12", "--N", str(10**9))
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "sieving steps" in err and err.count("\n") == 1
    # while a short sum runs at any shift factorize accepts
    for h in (10**17, 2**62 + 7):
        code, out, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "4",
                                 "--h", str(h), "--N", "10", "--output", "json")
        assert (code, err) == (0, "")
        n, got = json.loads(out)["lhs_checkpoints"][-1]
        want = math.fsum(jordan(3, n) / n**3 * jordan(4, n + h) / (n + h) ** 4
                         for n in range(1, 11))
        assert n == 10 and got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("expansion", "--s", "1", "--k", "1", "--n", "1", "--Q", "2000000"),
    ("main-term", "--s", "2", "--a", "3", "--b", "4", "--h", "12", "--R", "2000000"),
])
def test_table_commands_respect_memory_budget(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--memory-budget", "1000")
    assert code == 1 and out == "" and "budget" in err
    # a budget that fits leaves the output as it is without one
    small = (*argv[:-1], "500", "--output", "json")
    assert run_cli(capsys, *small, "--memory-budget", str(10**8)) == run_cli(capsys, *small)


_CHARGE_SCRIPT = """
import dataclasses, sys, tracemalloc
from cohenram import arith, cli
config = cli.parse_config(sys.argv[1:])
run = cli._HANDLERS[config.command]
arith._trial_primes()  # lives for the whole process, outside the charge
tracemalloc.start()
run(config)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
try:  # a charge of at least the peak refuses a budget one byte below it
    run(dataclasses.replace(config, memory_budget=peak - 1))
except arith.MemoryBudgetError:
    print("refused", peak)
else:
    print("admitted", peak)
"""


# the expansion table's large-prime factors are built from Python lists
# that the charge must count at Q = 10^6; main-term builds two
# coefficient tables when a != b; at Q = 10 the call's small objects
# outweigh the table
@pytest.mark.parametrize("argv", [
    ("expansion", "--s", "2", "--k", "1", "--n", "30", "--Q", str(10**5)),
    ("expansion", "--s", "2", "--k", "1", "--n", "30", "--Q", str(10**6)),
    ("main-term", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--R", str(10**4)),
    ("main-term", "--s", "2", "--a", "3", "--b", "4", "--h", "12", "--R", str(2 * 10**5)),
    ("expansion", "--s", "2", "--k", "1", "--n", "30", "--Q", "10"),
])
def test_table_charge_covers_the_traced_peak(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHARGE_SCRIPT, *argv],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split()[0] == "refused", proc.stdout


_IMPORTS_SCRIPT = """
import contextlib, io, sys
from cohenram import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in sys.argv[1:]:
        assert cli.main(argv.split()) == 0, argv
print(*sorted(m for m in set(sys.modules) - before if m.partition(".")[0] == "numpy"))
"""


def test_cold_commands_import_no_numpy_submodule():
    # a numpy function that imports a submodule on its first call (np.unique
    # imports numpy.ma) puts that import inside every cold command-line run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argvs = ["asymptotic --s 2 --a 3 --b 4 --h 1010000 --N 100000",
             "expansion --s 2 --k 1 --n 30 --Q 100000",
             "main-term --s 2 --a 3 --b 4 --h 12 --R 10000"]
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_SCRIPT, *argvs],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == []


def test_asymptotic_budget_covers_the_euler_product(capsys):
    # at N = 10 the tables fit a 10^6 budget, and so does the product to
    # P = 10^8, which visits only the primes to 1783
    argv = ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--N", "10",
            "--output", "json")
    far = (*argv, "--prime-cutoff", str(10**8))
    t0 = time.perf_counter()
    got = run_cli(capsys, *far, "--memory-budget", str(10**6))
    assert time.perf_counter() - t0 < 1.0
    assert got == run_cli(capsys, *far) and got[0] == 0
    fits = (*argv, "--memory-budget", str(10**6))
    assert run_cli(capsys, *fits) == run_cli(capsys, *argv)


def test_asymptotic_huge_shift_skips_primes_past_the_cap(capsys):
    # sqrt(N + h) = 10^8, but no sieving prime past 2^18 changes an entry
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "4",
                             "--h", str(10**16), "--N", "10", "--output", "json")
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    assert json.loads(out)["lhs_checkpoints"] == [[10, float.fromhex("0x1.1e309c4886dbfp+3")]]


def test_parser_is_built_once_and_keeps_no_state():
    argv = ["asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--N", "10"]
    first = cli.parse_config([*argv, "--prime-cutoff", "1000", "--output", "json"])
    assert (first.params["prime_cutoff"], first.output) == (1000, "json")
    again = cli.parse_config(argv)
    assert (again.params["prime_cutoff"], again.output) == (10**5, "plain")
    assert cli._build_parser() is cli._build_parser()


def test_main_term(capsys):
    code, out, _ = run_cli(capsys, "main-term", "--s", "2", "--a", "3", "--b", "3",
                           "--h", "12", "--R", "500", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_diff"] < 1e-6
    assert payload["series"] == pytest.approx(payload["product"], abs=1e-6)


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "sum", "--r", "2")  # missing --s/--n
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(capsys, "sum", "--r", "0", "--s", "1", "--n", "1")
    assert code == 1 and err.startswith("error:")


def test_internal_assertion_exits_two(capsys, monkeypatch):
    def boom(*a, **k):
        raise RoundingAssertionError("synthetic drift")
    monkeypatch.setattr(cli, "evaluate", boom)
    code, _, err = run_cli(capsys, "sum", "--r", "2", "--s", "1", "--n", "1")
    assert code == 2
    assert "internal assertion failure" in err


def test_env_overrides(capsys, monkeypatch):
    argv = ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "1", "--N", "100000")
    unbudgeted = run_cli(capsys, *argv)
    monkeypatch.setenv("COHENRAM_MEMORY_BUDGET", "1000")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "budget" in err
    # flags beat the environment
    got = run_cli(capsys, *argv, "--memory-budget", str(10**8))
    assert got == unbudgeted and got[0] == 0


def test_env_budget_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("COHENRAM_MEMORY_BUDGET", "zero")
    code, _, err = run_cli(capsys, "expansion", "--s", "1", "--k", "1", "--n", "1",
                           "--Q", "10")
    assert code == 1 and "COHENRAM_MEMORY_BUDGET" in err
    # commands that build no table neither read the environment nor take the flag
    assert run_cli(capsys, "jordan", "--k", "1", "--n", "6") == (0, "2\n", "")


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_env_budget_below_one_names_the_variable(capsys, monkeypatch, raw):
    argv = ("expansion", "--s", "1", "--k", "1", "--n", "1", "--Q", "10")
    monkeypatch.setenv("COHENRAM_MEMORY_BUDGET", raw)
    assert run_cli(capsys, *argv) == (
        1, "", f"error: COHENRAM_MEMORY_BUDGET must be >= 1, got {raw}\n")
    # a bad flag is still named as the flag, which beats the environment
    assert run_cli(capsys, *argv, "--memory-budget", "0") == (
        1, "", "error: --memory-budget must be >= 1, got 0\n")


@pytest.mark.parametrize("argv", [
    ("sum", "--r", "2", "--s", "2", "--n", "4"),
    ("jordan", "--k", "2", "--n", "4"),
    ("gcd-s", "--m", "4", "--n", "8", "--s", "2"),
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes", "2"),
    ("sivaramakrishnan", "--s", "1", "--k", "1", "--n", "1", "--R", "20"),
])
def test_budget_flag_only_on_table_commands(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--memory-budget", "5")
    assert code == 1 and out == "" and err.startswith("error:")
    assert "--memory-budget" in err and err.count("\n") == 1


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("sum", "jordan", "gcd-s", "expansion", "local-check",
                "sivaramakrishnan", "asymptotic", "main-term", "repro-all"):
        assert cmd in out
    assert "sieve" not in out  # the cache subcommand is gone


def test_module_entry_point():
    # the child imports the same cohenram as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cohenram", "sum", "--r", "2", "--s", "2", "--n", "4"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_repro_all_small(capsys, monkeypatch):
    # shrink the exact grid so the end-to-end path stays quick here;
    # the full grid runs in the acceptance suite
    monkeypatch.setattr(cli, "_REPRO_PRIMES", (2, 3))
    code, out, err = run_cli(capsys, "repro-all", "--N", "20000",
                             "--prime-cutoff", "1000")
    assert "local-factors-exact: PASS" in out
    assert "asymptotic s=2 a=3 b=3 h=12: FAIL" in out
    assert "overall: FAIL" in out
    assert code == 1 and "checks failed" in err
