"""Command-line front end.

Every library operation is reachable from exactly one subcommand; run
``cohenram --help`` for the list.  Exit status: 0 success, 1 invalid
input (one-line diagnostic on stderr), 2 internal assertion failure.
Output is deterministic: the same invocation produces byte-identical
bytes, JSON included.

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
from itertools import combinations

from .arith import (
    InternalAssertionError,
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


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for
    # internal assertion failures here, so route through ValueError
    def error(self, message):
        raise _UsageError(message)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{name} must be an integer, got {raw!r}") from None


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("plain", "json", "csv"),
                        default="plain", help="report format (default plain)")
    common.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
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
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=int, required=True)

    q = sub.add_parser("expansion", parents=[common],
                       help="partial sums of sum_q mu(q) c_q^s(n^s)/J_{s+k}(q) "
                            "vs zeta(s+k) J_k(n)/n^k")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--Q", type=int, required=True, help="series cutoff, >= 1")

    q = sub.add_parser("local-check", parents=[common],
                       help="exact rational Euler-factor identity over a prime set")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--primes", required=True,
                   help="comma-separated primes, e.g. 2,3,5 (empty string for none)")

    q = sub.add_parser("sivaramakrishnan", parents=[common],
                       help="k-vector variant partial sums (evidence grade, small R)")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--R", type=int, required=True,
                   help="cutoff; needs the sum of r^s over squarefree r <= R "
                        "to be <= 10^7 (R <= 5737, 370, 88 at s = 1, 2, 3)")

    q = sub.add_parser("asymptotic", parents=[common],
                       help="shifted-convolution sum vs truncated Euler product")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--h", type=int, required=True, help="shift, >= 1")
    q.add_argument("--N", type=int, required=True, help="summation limit")
    q.add_argument("--prime-cutoff", type=int, default=10**5)
    q.add_argument("--tolerance", type=float, default=0.02)
    q.add_argument("--emit-plot-data", metavar="PATH",
                   help="also write ratio-vs-N as two whitespace-separated columns")

    q = sub.add_parser("main-term", parents=[common],
                       help="generic main-term series with the Jordan-ratio "
                            "coefficients, compared to the Euler product")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--R", type=int, required=True,
                   help="series cutoff, and also the prime cutoff of the "
                        "Euler product it is compared to")

    q = sub.add_parser("repro-all", parents=[common],
                       help="one-command reproduction: the full exact local-factor "
                            "grid plus the default shifted-convolution verification; "
                            "exits 1 if any check fails")
    q.add_argument("--N", type=int, default=10**6, help="summation limit (default 10^6)")
    q.add_argument("--prime-cutoff", type=int, default=10**5)
    return p


def parse_config(argv=None) -> RunConfig:
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    output = ns.pop("output")
    budget = ns.pop("memory_budget")
    if budget is None:
        budget = _env_int("COHENRAM_MEMORY_BUDGET")
    if budget is not None and budget < 1:
        raise _UsageError(f"--memory-budget must be >= 1, got {budget}")
    return RunConfig(command, ns, output, budget)


# ---------------------------------------------------------------------------
# rendering helpers

def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_scalar(config: RunConfig, fields: dict, value) -> None:
    if config.output == "json":
        _emit_json({"schema": 1, "command": config.command, **fields, "value": value})
    elif config.output == "csv":
        keys = [*fields, "value"]
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(str(v) for v in [*fields.values(), value]) + "\n")
    else:
        sys.stdout.write(f"{value}\n")


def _emit_expansion_report(config: RunConfig, report) -> None:
    if config.output == "json":
        _emit_json(report.to_json_dict())
    elif config.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(f"target           {report.target!r}\n")
        for q, s in report.partial_sums:
            sys.stdout.write(f"Q={q:<8} S={s!r}  |err|={abs(s - report.target)!r}\n")
        sys.stdout.write(f"converged        {report.converged} "
                         f"(final error {report.final_abs_error!r}, "
                         f"tolerance {report.tolerance!r})\n")


def _emit_asymptotic_report(config: RunConfig, report) -> None:
    if config.output == "json":
        _emit_json(report.to_json_dict())
    elif config.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(f"h = {report.query.h} = m^s * k with m={report.m}, "
                         f"k={report.k} (s={report.query.s})\n")
        sys.stdout.write(f"rhs product      {report.rhs.value!r} "
                         f"(P={report.rhs.spec.prime_cutoff}, "
                         f"tail bound {report.rhs.tail_bound!r})\n")
        for (n, v), (_, rho) in zip(report.lhs_checkpoints, report.ratios):
            sys.stdout.write(f"N={n:<9} lhs={v!r}  ratio={rho!r}\n")
        sys.stdout.write(f"converged        {report.converged} "
                         f"(tolerance {report.tolerance!r})\n")
        for note in report.notes:
            sys.stdout.write(f"note: {note}\n")


# ---------------------------------------------------------------------------
# command handlers

def _run_sum(config: RunConfig) -> int:
    p = config.params
    result = evaluate(CohenSumQuery(p["r"], p["s"], p["n"]), p["evaluator"])
    _emit_scalar(config, {"r": p["r"], "s": p["s"], "n": p["n"],
                          "evaluator": result.evaluator}, result.value)
    return EXIT_OK


def _run_jordan(config: RunConfig) -> int:
    p = config.params
    if p["n"] < 1:
        raise ValueError(f"jordan argument must be >= 1, got {p['n']}")
    _emit_scalar(config, {"k": p["k"], "n": p["n"]}, jordan(p["k"], p["n"]))
    return EXIT_OK


def _run_gcd_s(config: RunConfig) -> int:
    p = config.params
    _emit_scalar(config, {"m": p["m"], "n": p["n"], "s": p["s"]},
                 generalized_gcd(p["m"], p["n"], p["s"]))
    return EXIT_OK


def _run_expansion(config: RunConfig) -> int:
    p = config.params
    report = expansion_partial_sum(ExpansionQuery(p["s"], p["k"], p["n"], p["Q"]),
                                   memory_budget=config.memory_budget)
    _emit_expansion_report(config, report)
    return EXIT_OK


def _parse_primes(raw: str) -> list[int]:
    if not raw.strip():
        return []
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise ValueError(f"--primes must be comma-separated integers, got {raw!r}") from None


def _run_local_check(config: RunConfig) -> int:
    p = config.params
    primes = _parse_primes(p["primes"])
    s, k, n = p["s"], p["k"], p["n"]
    lhs, rhs = local_factor_exact(s, k, n, primes)
    equal = lhs == rhs
    # closed-form case split per prime must reproduce the generic factor
    factors = {q: local_factor_cases(s, k, q, n) for q in sorted(set(primes))}
    cases_match = math.prod(factors.values(), start=Fraction(1)) == rhs
    if config.output == "json":
        _emit_json({"schema": 1, "command": "local-check",
                    "s": s, "k": k, "n": n, "primes": sorted(set(primes)),
                    "lhs": str(lhs), "rhs": str(rhs), "equal": equal,
                    "case_factors": {str(q): str(v) for q, v in factors.items()},
                    "cases_match": cases_match})
    elif config.output == "csv":
        sys.stdout.write("lhs,rhs,equal,cases_match\n")
        sys.stdout.write(f"{lhs},{rhs},{equal},{cases_match}\n")
    else:
        sys.stdout.write(f"lhs         {lhs}\nrhs         {rhs}\nequal       {equal}\n")
        for q, v in factors.items():
            sys.stdout.write(f"factor p={q:<4} {v}\n")
        sys.stdout.write(f"cases_match {cases_match}\n")
    if equal and not cases_match:
        raise InternalAssertionError("closed-form local factors disagree with the product")
    return EXIT_OK


def _run_sivaramakrishnan(config: RunConfig) -> int:
    p = config.params
    report = sivaramakrishnan_check(p["s"], p["k"], p["n"], p["R"])
    _emit_expansion_report(config, report)
    return EXIT_OK


def _run_asymptotic(config: RunConfig) -> int:
    p = config.params
    query = AsymptoticQuery(p["s"], p["a"], p["b"], p["h"], p["N"], p["prime_cutoff"])
    report = asymptotic_verify(query, p["tolerance"],
                               memory_budget=config.memory_budget)
    if p.get("emit_plot_data"):
        with open(p["emit_plot_data"], "w") as fh:
            fh.write(report.plot_data())
    _emit_asymptotic_report(config, report)
    return EXIT_OK


def _run_main_term(config: RunConfig) -> int:
    p = config.params
    s, a, b, h, R = p["s"], p["a"], p["b"], p["h"], p["R"]
    # alive at once: the coefficient tables, the exact-int c_r^s(h) table,
    # 120 bytes per r for its ~32-byte ints, the weights, their support
    # and the lists fsum reads, and the product's primes
    tables = 1 if b == a else 2
    need = (tables + 1) * _table_bytes(R, 8) + 120 * R + _product_bytes(R)
    _check_budget(f"main-term tables to R = {R}", need, config.memory_budget)
    fa = expansion_coefficients(s, a, R)
    fb = fa if b == a else expansion_coefficients(s, b, R)
    series = general_main_term(fa, fb, s, h)
    product = rhs_product(AsymptoticQuery(s, a, b, h, 1, R)).value
    diff = abs(series - product)
    if config.output == "json":
        _emit_json({"schema": 1, "command": "main-term",
                    "s": s, "a": a, "b": b, "h": h, "R": R,
                    "series": series, "product": product, "abs_diff": diff})
    elif config.output == "csv":
        sys.stdout.write("series,product,abs_diff\n")
        sys.stdout.write(f"{series!r},{product!r},{diff!r}\n")
    else:
        sys.stdout.write(f"series  {series!r}\nproduct {product!r}\n|diff|  {diff!r}\n")
    return EXIT_OK


def _run_repro_all(config: RunConfig) -> int:
    p = config.params
    checks = []

    worst_case = None
    cases = 0
    exact_ok = True
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(1, 31):
                for size in range(len(_REPRO_PRIMES) + 1):
                    for subset in combinations(_REPRO_PRIMES, size):
                        lhs, rhs = local_factor_exact(s, k, n, subset)
                        cases += 1
                        if lhs != rhs:
                            exact_ok = False
                            worst_case = {"s": s, "k": k, "n": n, "primes": list(subset)}
    checks.append({"name": "local-factors-exact", "pass": exact_ok,
                   "cases": cases, "first_failure": worst_case})

    for s, a, b, h in _REPRO_ASYMPTOTIC:
        query = AsymptoticQuery(s, a, b, h, p["N"], p["prime_cutoff"])
        report = asymptotic_verify(query, memory_budget=config.memory_budget)
        final_err = abs(report.ratios[-1][1] - 1.0)
        checks.append({"name": f"asymptotic s={s} a={a} b={b} h={h}",
                       "pass": report.converged,
                       "final_ratio": report.ratios[-1][1],
                       "final_abs_error": final_err,
                       "tolerance": report.tolerance,
                       "N": p["N"], "prime_cutoff": p["prime_cutoff"]})

    overall = all(c["pass"] for c in checks)
    if config.output == "json":
        _emit_json({"schema": 1, "command": "repro-all",
                    "checks": checks, "overall_pass": overall})
    elif config.output == "csv":
        sys.stdout.write("name,pass\n")
        for c in checks:
            sys.stdout.write(f"{c['name']},{c['pass']}\n")
        sys.stdout.write(f"overall,{overall}\n")
    else:
        for c in checks:
            verdict = "PASS" if c["pass"] else "FAIL"
            detail = f" ({c['cases']} cases)" if "cases" in c else \
                     f" (|ratio-1|={c['final_abs_error']!r}, tolerance={c['tolerance']!r})"
            sys.stdout.write(f"{c['name']}: {verdict}{detail}\n")
        sys.stdout.write(f"overall: {'PASS' if overall else 'FAIL'}\n")
    if not overall:
        failed = sum(1 for c in checks if not c["pass"])
        print(f"repro-all: {failed} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


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
    """Run one validated config; returns the process exit status."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    return handler(config)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return dispatch(config)
    except InternalAssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
