"""Command-line front end.

Every library operation is reachable from exactly one subcommand; run
``cohenram --help`` for the list.  Exit status: 0 success, 1 invalid
input (one-line diagnostic on stderr), 2 internal assertion failure.
Output is deterministic: the same invocation produces byte-identical
bytes, JSON included; dispatch renders each command's Report.

Only one setting may come from the environment (COHENRAM_MEMORY_BUDGET);
all scientific parameters must be spelled out as flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import ne

from .arith import (
    InternalAssertionError,
    _CALL_BYTES,
    _CHUNK,
    _check_budget,
    _table_bytes,
    generalized_gcd,
    jordan,
)
from .cohen import CohenSumQuery, evaluate
from .expansions import (
    ExpansionQuery,
    expansion_partial_sum,
    local_factor_cases,
    local_factor_exact,
    sivaramakrishnan_check,
)
from .asymptotics import (
    AsymptoticQuery,
    _product_bytes,
    asymptotic_verify,
    expansion_coefficients,
    general_main_term,
    rhs_product,
)

__all__ = ["RunConfig", "dispatch", "main"]

EXIT_OK, EXIT_INVALID, EXIT_INTERNAL = 0, 1, 2
_REPRO_PRIMES = (2, 3, 5, 7, 11, 13)
_REPRO_ASYMPTOTIC = ((2, 3, 3, 12), (2, 4, 3, 4))


@dataclass(frozen=True)
class RunConfig:
    """A fully validated invocation: one command plus its parameters."""

    command: str
    params: dict = field(default_factory=dict)
    output: str = "plain"
    memory_budget: int | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for
    # internal assertion failures here, so route through ValueError
    def error(self, message):
        raise ValueError(message)


def _required_ints(q: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        q.add_argument(f"--{name}", type=int, required=True)


@lru_cache(maxsize=1)  # built once per process: parse_args leaves the tree unchanged
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("plain", "json", "csv"),
                        default="plain", help="report format (default plain)")
    # only the commands that build tables take a budget
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                          help="cap on table memory "
                               "(default COHENRAM_MEMORY_BUDGET or unlimited)")

    p = _Parser(prog="cohenram",
                description="Cohen-Ramanujan sums, Jordan totients, and "
                            "verification of their expansion and shifted-"
                            "convolution identities.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("sum", parents=[common], help="evaluate c_r^s(n)")
    q.add_argument("--r", type=int, required=True, help="modulus index, >= 1")
    q.add_argument("--s", type=int, required=True, help="power parameter, >= 1")
    q.add_argument("--n", type=int, required=True, help="argument, >= 0")
    q.add_argument("--evaluator", choices=("multiplicative", "divisor-sum", "direct"),
                   default="multiplicative",
                   help="route: multiplicative (default), divisor-sum oracle, "
                        "or literal direct sum (r^s <= 10^7)")

    q = sub.add_parser("jordan", parents=[common], help="evaluate J_k(n)")
    q.add_argument("--k", type=int, required=True, help="totient order, >= 1")
    q.add_argument("--n", type=int, required=True, help="argument, >= 1")

    q = sub.add_parser("gcd-s", parents=[common],
                       help="generalized gcd (m, n)_s, the largest l^s dividing both")
    _required_ints(q, "m", "n", "s")

    q = sub.add_parser("expansion", parents=[budgeted],
                       help="partial sums of sum_q mu(q) c_q^s(n^s)/J_{s+k}(q) "
                            "vs zeta(s+k) J_k(n)/n^k")
    _required_ints(q, "s", "k", "n")
    q.add_argument("--Q", type=int, required=True, help="series cutoff, >= 1")

    q = sub.add_parser("local-check", parents=[common],
                       help="exact rational Euler-factor identity over a prime set")
    _required_ints(q, "s", "k", "n")
    q.add_argument("--primes", required=True,
                   help="comma-separated primes, e.g. 2,3,5 (empty string for none)")

    q = sub.add_parser("sivaramakrishnan", parents=[common],
                       help="k-vector variant partial sums (evidence grade, small R)")
    _required_ints(q, "s", "k", "n")
    q.add_argument("--R", type=int, required=True,
                   help="cutoff; needs the sum of r^s over squarefree r <= R "
                        "to be <= 10^7 (R <= 5737, 370, 88 at s = 1, 2, 3)")

    q = sub.add_parser("asymptotic", parents=[budgeted],
                       help="shifted-convolution sum vs truncated Euler product")
    _required_ints(q, "s", "a", "b")
    q.add_argument("--h", type=int, required=True, help="shift, >= 1")
    q.add_argument("--N", type=int, required=True, help="summation limit")
    q.add_argument("--prime-cutoff", type=int, default=10**5)
    q.add_argument("--tolerance", type=float, default=0.02)
    q.add_argument("--emit-plot-data", metavar="PATH",
                   help="also write ratio-vs-N as two whitespace-separated columns")

    q = sub.add_parser("main-term", parents=[budgeted],
                       help="generic main-term series with the Jordan-ratio "
                            "coefficients, compared to the Euler product")
    _required_ints(q, "s", "a", "b", "h")
    q.add_argument("--R", type=int, required=True,
                   help="series cutoff, and also the prime cutoff of the "
                        "Euler product it is compared to")

    q = sub.add_parser("repro-all", parents=[budgeted],
                       help="one-command reproduction: the full exact local-factor "
                            "grid plus the default shifted-convolution verification; "
                            "exits 1 if any check fails")
    q.add_argument("--N", type=int, default=10**6, help="summation limit (default 10^6)")
    q.add_argument("--prime-cutoff", type=int, default=10**5)
    return p


def parse_config(argv=None) -> RunConfig:
    ns = vars(_build_parser().parse_args(argv))
    command, output = ns.pop("command"), ns.pop("output")
    takes_budget = "memory_budget" in ns  # only the commands that build tables
    budget = ns.pop("memory_budget", None)
    source = "--memory-budget"
    if budget is None and takes_budget:
        source = "COHENRAM_MEMORY_BUDGET"
        raw = os.environ.get(source, "")
        try:
            budget = int(raw) if raw else None
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if budget is not None and budget < 1:
        raise ValueError(f"{source} must be >= 1, got {budget}")
    return RunConfig(command, ns, output, budget)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Report:
    """What one command prints, in every format: the JSON payload, the
    CSV rows (header first) and the plain lines.  A failure line goes to
    stderr after the report and makes the exit status 1."""

    payload: dict
    rows: list
    lines: list
    failure: str | None = None


def _scalar_report(config: RunConfig, fields: dict, value) -> Report:
    return Report({"schema": 1, "command": config.command, **fields, "value": value},
                  [[*fields, "value"], [*fields.values(), value]], [value])


def _expansion_report(report) -> Report:
    t = report.target
    return Report(
        report.to_json_dict(),
        [["Q", "partial_sum", "abs_error"],
         *([q, s, abs(s - t)] for q, s in report.partial_sums)],
        [f"target           {t!r}",
         *(f"Q={q:<8} S={s!r}  |err|={abs(s - t)!r}" for q, s in report.partial_sums),
         f"converged        {report.converged} (final error {report.final_abs_error!r}, "
         f"tolerance {report.tolerance!r})"])


def _asymptotic_report(report) -> Report:
    points = [(n, v, rho) for (n, v), (_, rho) in zip(report.lhs_checkpoints, report.ratios)]
    return Report(
        report.to_json_dict(),
        [["N", "lhs", "N_times_rhs", "ratio"],
         *([n, v, n * report.rhs.value, rho] for n, v, rho in points)],
        [f"h = {report.query.h} = m^s * k with m={report.m}, k={report.k} "
         f"(s={report.query.s})",
         f"rhs product      {report.rhs.value!r} (P={report.rhs.spec.prime_cutoff}, "
         f"tail bound {report.rhs.tail_bound!r})",
         *(f"N={n:<9} lhs={v!r}  ratio={rho!r}" for n, v, rho in points),
         f"converged        {report.converged} (tolerance {report.tolerance!r})",
         *(f"note: {note}" for note in report.notes)])


# ---------------------------------------------------------------------------
# command handlers

def _run_sum(config: RunConfig) -> Report:
    p = config.params
    result = evaluate(CohenSumQuery(p["r"], p["s"], p["n"]), p["evaluator"])
    return _scalar_report(config, {"r": p["r"], "s": p["s"], "n": p["n"],
                                   "evaluator": result.evaluator}, result.value)


def _run_jordan(config: RunConfig) -> Report:
    p = config.params
    if p["n"] < 1:
        raise ValueError(f"jordan argument must be >= 1, got {p['n']}")
    return _scalar_report(config, {"k": p["k"], "n": p["n"]}, jordan(p["k"], p["n"]))


def _run_gcd_s(config: RunConfig) -> Report:
    p = config.params
    return _scalar_report(config, {"m": p["m"], "n": p["n"], "s": p["s"]},
                          generalized_gcd(p["m"], p["n"], p["s"]))


def _run_expansion(config: RunConfig) -> Report:
    p = config.params
    return _expansion_report(expansion_partial_sum(
        ExpansionQuery(p["s"], p["k"], p["n"], p["Q"]), memory_budget=config.memory_budget))


def _parse_primes(raw: str) -> list[int]:
    try:
        return sorted({int(tok) for tok in raw.split(",")}) if raw.strip() else []
    except ValueError:
        raise ValueError(f"--primes must be comma-separated integers, got {raw!r}") from None


def _run_local_check(config: RunConfig) -> Report:
    p = config.params
    primes = _parse_primes(p["primes"])
    s, k, n = p["s"], p["k"], p["n"]
    lhs, rhs = local_factor_exact(s, k, n, primes)
    equal = lhs == rhs
    # closed-form case split per prime must reproduce the generic factor
    factors = {q: local_factor_cases(s, k, q, n) for q in primes}
    cases_match = math.prod(factors.values(), start=Fraction(1)) == rhs
    if equal and not cases_match:
        raise InternalAssertionError("closed-form local factors disagree with the product")
    return Report(
        {"schema": 1, "command": "local-check", "s": s, "k": k, "n": n, "primes": primes,
         "lhs": str(lhs), "rhs": str(rhs), "equal": equal,
         "case_factors": {str(q): str(v) for q, v in factors.items()},
         "cases_match": cases_match},
        [["lhs", "rhs", "equal", "cases_match"], [lhs, rhs, equal, cases_match]],
        [f"lhs         {lhs}", f"rhs         {rhs}", f"equal       {equal}",
         *(f"factor p={q:<4} {v}" for q, v in factors.items()),
         f"cases_match {cases_match}"])


def _run_sivaramakrishnan(config: RunConfig) -> Report:
    p = config.params
    return _expansion_report(sivaramakrishnan_check(p["s"], p["k"], p["n"], p["R"]))


def _run_asymptotic(config: RunConfig) -> Report:
    p = config.params
    query = AsymptoticQuery(p["s"], p["a"], p["b"], p["h"], p["N"], p["prime_cutoff"])
    report = asymptotic_verify(query, p["tolerance"], memory_budget=config.memory_budget)
    if p.get("emit_plot_data"):
        with open(p["emit_plot_data"], "w") as fh:
            fh.write(report.plot_data())
    return _asymptotic_report(report)


def _run_main_term(config: RunConfig) -> Report:
    p = config.params
    s, a, b, h, R = p["s"], p["a"], p["b"], p["h"], p["R"]
    # alive at once: the coefficient tables, the exact-int c_r^s(h) table,
    # 48 bytes per r for its ~32-byte ints, the weights and their support,
    # 80 bytes per term of the one chunk fsum reads, the product's primes
    # and the call's small objects
    need = ((2 if b == a else 3) * _table_bytes(R) + 48 * R + 80 * min(R, _CHUNK)
            + _product_bytes(s + min(a, b), R) + _CALL_BYTES)
    _check_budget(f"main-term tables to R = {R}", need, config.memory_budget)
    fa = expansion_coefficients(s, a, R)
    fb = fa if b == a else expansion_coefficients(s, b, R)
    series = general_main_term(fa, fb, s, h)
    product = rhs_product(AsymptoticQuery(s, a, b, h, 1, R)).value
    diff = abs(series - product)
    return Report(
        {"schema": 1, "command": "main-term", "s": s, "a": a, "b": b, "h": h, "R": R,
         "series": series, "product": product, "abs_diff": diff},
        [["series", "product", "abs_diff"], [series, product, diff]],
        [f"series  {series!r}", f"product {product!r}", f"|diff|  {diff!r}"])


def _run_repro_all(config: RunConfig) -> Report:
    p = config.params
    grid = [(s, k, n, subset) for s, k, n in product((1, 2, 3), (1, 2, 3), range(1, 31))
            for size in range(len(_REPRO_PRIMES) + 1)
            for subset in combinations(_REPRO_PRIMES, size)]
    failures = [{"s": s, "k": k, "n": n, "primes": list(subset)}
                for s, k, n, subset in grid if ne(*local_factor_exact(s, k, n, subset))]
    checks = [{"name": "local-factors-exact", "pass": not failures, "cases": len(grid),
               "first_failure": failures[0] if failures else None}]
    for s, a, b, h in _REPRO_ASYMPTOTIC:
        report = asymptotic_verify(AsymptoticQuery(s, a, b, h, p["N"], p["prime_cutoff"]),
                                   memory_budget=config.memory_budget)
        rho = report.ratios[-1][1]
        checks.append({"name": f"asymptotic s={s} a={a} b={b} h={h}",
                       "pass": report.converged, "final_ratio": rho,
                       "final_abs_error": abs(rho - 1.0), "tolerance": report.tolerance,
                       "N": p["N"], "prime_cutoff": p["prime_cutoff"]})

    failed = sum(not c["pass"] for c in checks)
    lines = [f"{c['name']}: {'PASS' if c['pass'] else 'FAIL'} "
             + (f"({c['cases']} cases)" if "cases" in c else
                f"(|ratio-1|={c['final_abs_error']!r}, tolerance={c['tolerance']!r})")
             for c in checks]
    return Report(
        {"schema": 1, "command": "repro-all", "checks": checks, "overall_pass": not failed},
        [["name", "pass"], *([c["name"], c["pass"]] for c in checks), ["overall", not failed]],
        [*lines, f"overall: {'FAIL' if failed else 'PASS'}"],
        failure=f"repro-all: {failed} of {len(checks)} checks failed" if failed else None)


_HANDLERS = {
    "sum": _run_sum,
    "jordan": _run_jordan,
    "gcd-s": _run_gcd_s,
    "expansion": _run_expansion,
    "local-check": _run_local_check,
    "sivaramakrishnan": _run_sivaramakrishnan,
    "asymptotic": _run_asymptotic,
    "main-term": _run_main_term,
    "repro-all": _run_repro_all,
}


def dispatch(config: RunConfig) -> int:
    """Run one validated config and write its report in the chosen
    format, the only write to stdout; returns the process exit status."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    report = handler(config)
    if config.output == "json":
        text = json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
    elif config.output == "csv":
        text = "".join(",".join(map(str, row)) + "\n" for row in report.rows)
    else:
        text = "".join(f"{line}\n" for line in report.lines)
    sys.stdout.write(text)
    if report.failure:
        print(report.failure, file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return dispatch(parse_config(argv))
    except InternalAssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
