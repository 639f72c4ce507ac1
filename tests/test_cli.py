import json
import os
import subprocess
import sys

import pytest

from cohenram import cli
from cohenram.cohen import RoundingAssertionError


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
    code, out, _ = run_cli(capsys, "expansion", "--s", "2", "--k", "2", "--n", "3",
                           "--Q", "500", "--output", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "Q,partial_sum,abs_error"
    assert len(lines) == 4  # checkpoints 10, 100, 500


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
    code, out, _ = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "3",
                           "--h", "1", "--N", "5000", "--prime-cutoff", "100",
                           "--output", "csv")
    assert code == 0
    assert out.split("\n")[0] == "N,lhs,N_times_rhs,ratio"


def test_asymptotic_rejects_bad_hypotheses(capsys):
    code, _, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "2", "--b", "3",
                           "--h", "1", "--N", "100")
    assert code == 1 and "1 + s/2" in err


def test_main_term(capsys):
    code, out, _ = run_cli(capsys, "main-term", "--s", "2", "--a", "3", "--b", "3",
                           "--h", "12", "--R", "500", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_diff"] < 1e-6
    assert payload["series"] == pytest.approx(payload["product"], abs=1e-6)


def test_sieve_cache_round_trip(capsys, tmp_path):
    path = tmp_path / "jordan2.sieve"
    code, out, _ = run_cli(capsys, "sieve-cache", "--kind", "jordan", "--k", "2",
                           "--limit", "500", "--path", str(path), "--verify")
    assert code == 0
    assert "verified=True" in out
    assert path.stat().st_size == 8 + 17 + 8 * 500


def test_sieve_cache_overflow(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sieve-cache", "--kind", "jordan", "--k", "40",
                           "--limit", "12", "--path", str(tmp_path / "x.bin"))
    assert code == 1 and "bits" in err


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
    monkeypatch.setenv("COHENRAM_MEMORY_BUDGET", "1000")
    code, _, err = run_cli(capsys, "asymptotic", "--s", "2", "--a", "3", "--b", "3",
                           "--h", "1", "--N", "100000")
    assert code == 1 and "budget" in err
    # flags beat the environment
    code, out, _ = run_cli(capsys, "jordan", "--k", "1", "--n", "6",
                           "--memory-budget", str(10**9))
    assert code == 0 and out == "2\n"


def test_env_budget_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("COHENRAM_MEMORY_BUDGET", "zero")
    code, _, err = run_cli(capsys, "jordan", "--k", "1", "--n", "6")
    assert code == 1 and "COHENRAM_MEMORY_BUDGET" in err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("sum", "jordan", "gcd-s", "expansion", "local-check",
                "sivaramakrishnan", "asymptotic", "main-term", "sieve-cache",
                "repro-all"):
        assert cmd in out


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
