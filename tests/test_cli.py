import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cohenram import arith, cli, cohen, expansions
from cohenram.arith import jordan, primes_upto
from cohenram.asymptotics import AsymptoticQuery, asymptotic_verify
from cohenram.cohen import RoundingAssertionError
from cohenram.expansions import (
    ExpansionQuery, expansion_partial_sum, local_factor_cases, local_factor_exact)


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


def _unequal_sides(s, k, n, primes):
    return Fraction(1), Fraction(2)


def test_local_check_reports_unequal_sides(capsys, monkeypatch):
    # equal is compared, not assumed, and unequal sides fail the run
    monkeypatch.setattr(cli, "local_factor_exact", _unequal_sides)
    code, out, err = run_cli(capsys, "local-check", "--s", "1", "--k", "1", "--n", "1",
                             "--primes", "2", "--output", "json")
    assert code == 1 and json.loads(out)["equal"] is False
    assert err == "local-check: lhs 1 != rhs 2\n"


def test_local_check_refuses_a_wrong_case_factor(capsys, monkeypatch):
    # equal sides whose closed-form factors disagree fail the run as
    # unequal sides do: the report prints, and one line goes to stderr
    def wrong_at_3(s, k, p, n):
        return local_factor_cases(s, k, p, n) + (p == 3)

    monkeypatch.setattr(cli, "local_factor_cases", wrong_at_3)
    code, out, err = run_cli(capsys, "local-check", "--s", "2", "--k", "1", "--n", "6",
                             "--primes", "2,3,5", "--output", "json")
    payload = json.loads(out)
    assert code == 1 and payload["equal"] is True and payload["cases_match"] is False
    assert err.startswith("local-check: closed-form factors give ") and err.count("\n") == 1


def test_repro_all_fails_on_unequal_sides(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_REPRO_PRIMES", (2, 3))
    monkeypatch.setattr(cli, "local_factor_exact", _unequal_sides)
    code, out, _ = run_cli(capsys, "repro-all", "--N", "10")
    assert "local-factors-exact: FAIL (1080 cases)" in out and code == 1


def _clear_crs_caches():
    cohen.crs_fast.cache_clear()
    expansions._crs_row.cache_clear()
    expansions._local_factor.cache_clear()


def test_repro_all_fails_on_a_wrong_cohen_rule(capsys, monkeypatch):
    # both sides of local_factor_exact read the same c_q^s values, so they
    # stay equal under any prime-power rule; the closed form catches c_5^2
    # off by one wherever 25 | m
    rule = cohen._crs_prime_power

    def off_at_5_squared(s, n, p, e):
        return rule(s, n, p, e) + (p == 5 and s == 2 and e == 1 and n % 25 == 0)

    monkeypatch.setattr(cli, "_REPRO_PRIMES", (2, 5))
    _clear_crs_caches()
    try:
        code, out, _ = run_cli(capsys, "repro-all", "--N", "10")
        assert "local-factors-exact: PASS (1080 cases)" in out and code == 1
        monkeypatch.setattr(cohen, "_crs_prime_power", off_at_5_squared)
        _clear_crs_caches()
        assert local_factor_exact(2, 1, 5, (5,)) == (Fraction(99, 124),) * 2  # not 25/31
        code, out, _ = run_cli(capsys, "repro-all", "--N", "10")
        assert "local-factors-exact: FAIL (1080 cases)" in out and code == 1
    finally:
        monkeypatch.undo()
        _clear_crs_caches()


def test_sivaramakrishnan(capsys):
    code, out, _ = run_cli(capsys, "sivaramakrishnan", "--s", "1", "--k", "1",
                           "--n", "1", "--R", "200", "--output", "json")
    assert code == 0
    assert json.loads(out)["query"] == {"s": 1, "k": 1, "n": 1, "Q": 200}


def test_asymptotic_with_plot_data(capsys):
    # the CSV's N and ratio columns are the plot data: the JSON ratios, as written
    argv = ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--N", "20000",
            "--prime-cutoff", "1000")
    code, out, _ = run_cli(capsys, *argv, "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rhs"]["m"] == 2 and payload["rhs"]["k"] == 3
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    header, *rows = [line.split(",") for line in out.strip().split("\n")]
    assert header[0] == "N" and header[-1] == "ratio"
    assert len(rows) == len(payload["ratios"]) == 2 and int(rows[0][0]) == 10**4
    assert [[int(n), float(rho)] for n, *_, rho in rows] == payload["ratios"]
    rep = asymptotic_verify(AsymptoticQuery(2, 3, 3, 12, 20000, prime_cutoff=1000))
    assert [[n, rho] for n, *_, rho in rows] == [[str(n), repr(rho)] for n, rho in rep.ratios]


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


def test_asymptotic_huge_shift_within_budget(capsys, monkeypatch):
    # the tables cover [1, 10] and a window at 10^12, so 100 MB is plenty
    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 10**8)
    code, out, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "4",
                             "--h", str(10**12), "--N", "10", "--output", "json")
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
def test_table_commands_respect_memory_budget(capsys, monkeypatch, argv):
    small = (*argv[:-1], "500", "--output", "json")
    unlowered = run_cli(capsys, *small)
    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 1000)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "ceiling" in err
    # a ceiling that fits leaves the output as it is at the default one
    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 10**8)
    assert run_cli(capsys, *small) == unlowered


_CHARGE_SCRIPT = """
import sys, tracemalloc
from cohenram import arith, cli
config = cli.parse_config(sys.argv[1:])
run = cli._COMMANDS[config.command][2]
arith._trial_primes()  # lives for the whole process, outside the charge
tracemalloc.start()
run(config)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
arith._MEMORY_LIMIT = peak - 1
try:  # a charge of at least the peak refuses a ceiling one byte below it
    run(config)
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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# refused by the query's hypotheses before any table is built
_HUGE_S = ("main-term", "--s", str(10**8), "--a", "3", "--b", "3", "--h", "12", "--R", "1000")
# a table of 10^8 entries, charged 1.10 GiB, under the 4 GiB memory
# ceiling, that the 1 GiB cannot hold
_OUT_OF_MEMORY = (
    ("expansion", "--s", "2", "--k", "1", "--n", "6", "--Q", str(10**8)),
)
# charged over the 4 GiB memory ceiling: main-term at R = 10^8 (6.7 GiB)
# and tables of 10^12 entries
_OVER_CEILING = (
    ("expansion", "--s", "2", "--k", "1", "--n", "2", "--Q", str(10**12)),
    ("main-term", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--R", str(10**12)),
    ("main-term", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--R", str(10**8)),
)


# a divisor lattice over 17 and over 25 primes, tables charged over the
# memory ceiling, direct sums over 12^(10^8) terms or 2^(10^8) tuples,
# exact ints of 12^(10^8) or 2^(10^8), an n^s of 2^100000, 10^4300 or
# 6^(10^8) and floats past 2^1024, each refused in one line before the
# work; run under a 1 GiB address-space limit, where the work would
# fail, as the 10^8-entry expansion table does, also in one line
@pytest.mark.parametrize("argv", [
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes",
     ",".join(map(str, primes_upto(59).tolist()))),
    ("local-check", "--s", "1", "--k", "1", "--n", "1", "--primes",
     ",".join(map(str, primes_upto(100).tolist()))),
    ("sum", "--r", "12", "--s", str(10**8), "--n", "7", "--evaluator", "direct"),
    ("sivaramakrishnan", "--s", str(10**8), "--k", "1", "--n", "2", "--R", "2"),
    ("sum", "--r", "12", "--s", str(10**8), "--n", "7"),
    ("sum", "--r", "12", "--s", str(10**8), "--n", "7", "--evaluator", "divisor-sum"),
    ("jordan", "--k", str(10**8), "--n", "2"),
    ("expansion", "--s", "100000", "--k", "1", "--n", "2", "--Q", "10"),
    ("local-check", "--s", "4300", "--k", "1", "--n", "10", "--primes", "2"),
    ("expansion", "--s", str(10**8), "--k", "1", "--n", "6", "--Q", "1000"),
    ("asymptotic", "--s", "600", "--a", "500", "--b", "500", "--h", "1", "--N", "10"),
    ("asymptotic", "--s", "2", "--a", str(10**8), "--b", "3", "--h", "12", "--N", "1000"),
    ("asymptotic", "--s", "2", "--a", "3", "--b", "700", "--h", "1", "--N", "10"),
    ("expansion", "--s", "2", "--k", "1000", "--n", "6", "--Q", "10"),
    ("sivaramakrishnan", "--s", "1", "--k", "1000", "--n", "6", "--R", "3"),
    ("main-term", "--s", "2", "--a", str(10**8), "--b", "3", "--h", "12", "--R", "1000"),
    _HUGE_S,
    *_OVER_CEILING,
    *_OUT_OF_MEMORY,
])
def test_oversized_inputs_are_refused_in_one_line(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cohenram", *argv], capture_output=True,
                          text=True, env=env, timeout=5, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    word = {**dict.fromkeys(_OUT_OF_MEMORY, "out of memory"),
            **dict.fromkeys(_OVER_CEILING, "ceiling"), _HUGE_S: "1 + s/2"}.get(argv, "guard")
    assert word in proc.stderr


_IMPORTS_SCRIPT = """
import contextlib, io, sys
from cohenram import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in sys.argv[1:]:
        assert cli.main(argv.split()) == 0, argv
print(*sorted(m for m in set(sys.modules) - before if m.partition(".")[0] == "numpy"))
print(*sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def test_cold_commands_import_no_numpy_submodule():
    # a numpy function that imports a submodule on its first call (np.unique
    # imports numpy.ma) puts that import inside every cold command-line run;
    # so would argparse, which loads gettext and, on first use, locale
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argvs = ["asymptotic --s 2 --a 3 --b 4 --h 1010000 --N 100000",
             "expansion --s 2 --k 1 --n 30 --Q 100000",
             "main-term --s 2 --a 3 --b 4 --h 12 --R 10000"]
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_SCRIPT, *argvs],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["", ""]


# the level-s factor needs p^(s+a+b) only at a prime of m and
# p^(s + max(a, b)) elsewhere: 2^1000 for the first argv, inside the
# float range; a prime of m above the cutoff (7 of m = 7 at P = 5) is
# covered by the tail bound
@pytest.mark.parametrize("argv", [
    ("asymptotic", "--s", "600", "--a", "400", "--b", "400", "--h", "1", "--N", "10"),
    ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "49", "--N", "10",
     "--prime-cutoff", "5"),
])
def test_asymptotic_runs_at_the_edges_of_the_product(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_asymptotic_budget_covers_the_euler_product(capsys, monkeypatch):
    # at N = 10 the tables fit under a 10^6-byte ceiling, and so does the
    # product to P = 10^8, which visits only the primes to 1783
    argv = ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12", "--N", "10",
            "--output", "json")
    far = (*argv, "--prime-cutoff", str(10**8))
    want_far, want = run_cli(capsys, *far), run_cli(capsys, *argv)
    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 10**6)
    t0 = time.perf_counter()
    got = run_cli(capsys, *far)
    assert time.perf_counter() - t0 < 1.0
    assert got == want_far and got[0] == 0
    assert run_cli(capsys, *argv) == want


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


def test_environment_is_not_read(capsys, monkeypatch):
    # the memory ceiling is a constant: a budget variable left in the
    # environment changes nothing
    argv = ("asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "1", "--N", "100000")
    monkeypatch.delenv("COHENRAM_MEMORY_BUDGET", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("COHENRAM_MEMORY_BUDGET", "1000")
    assert run_cli(capsys, *argv) == unset and unset[0] == 0


# a NaN tolerance would print as NaN, which is not JSON, and at infinity
# converged would not depend on the ratio
@pytest.mark.parametrize("option", [("--tolerance", "nan"), ("--tolerance", "inf"),
                                    ("--tolerance=-inf",)])
def test_asymptotic_refuses_a_tolerance_that_is_not_finite(capsys, option):
    code, out, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "3",
                             "--h", "1", "--N", "100", "--output", "json", *option)
    assert (code, out) == (1, "") and err.startswith("error:") and err.count("\n") == 1
    assert "tolerance" in err


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
    # after a command, also past its options, the help is the command's
    for argv in (["sum", "-h"], ["asymptotic", "--s", "2", "--help", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: cohenram {argv[0]} ")


@pytest.mark.parametrize("command, options", [
    ("sum", "r s n evaluator output"),
    ("jordan", "k n output"),
    ("gcd-s", "m n s output"),
    ("expansion", "s k n Q output"),
    ("local-check", "s k n primes output"),
    ("sivaramakrishnan", "s k n R output"),
    ("asymptotic", "s a b h N prime-cutoff tolerance output"),
    ("main-term", "s a b h R output"),
    ("repro-all", "N prime-cutoff output"),
])
def test_command_help_names_every_option(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
    assert err == "" and listed == [f"--{name}" for name in options.split()]


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


def test_repro_all_refuses_a_bad_n_before_the_grid(capsys, monkeypatch):
    def grid(*args):
        raise AssertionError("the exact grid ran before N was checked")
    monkeypatch.setattr(cli, "local_factor_exact", grid)
    code, out, err = run_cli(capsys, "repro-all", "--N", "0")
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error:") and "N must be >= 1" in err


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
