"""Command-line front end.

Every library operation is reachable from exactly one subcommand; run
``cohenram --help`` for the list.  Exit status: 0 success, 1 invalid
input or a failed check (one-line diagnostic on stderr), 2 internal
assertion failure.
Output is deterministic: the same invocation produces byte-identical
bytes, JSON included.  Only this module knows the format: dispatch renders
each command's Report, whose JSON comes from result fields, and adds "schema".

Nothing is read from the environment: every parameter is a flag.  The library
function that builds a table charges it against the fixed 4 GiB
arith._MEMORY_LIMIT first; this module charges nothing.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .arith import InternalAssertionError, generalized_gcd, jordan
from .cohen import _EVALUATORS, CohenSumQuery, evaluate
from .expansions import (
    ExpansionQuery,
    expansion_partial_sum,
    local_factor_cases,
    local_factor_exact,
    sivaramakrishnan_check,
)
from .asymptotics import AsymptoticQuery, asymptotic_verify, main_term

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


def parse_config(argv=None) -> RunConfig:
    """Read one command and its options, ``--opt value`` or ``--opt=value``
    spelled in full, from argv (default sys.argv[1:]).  The last occurrence
    wins; a value may be negative or empty.  ``-h``/``--help`` prints the
    help and raises SystemExit(0); a usage error raises ValueError."""
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] in (["-h"], ["--help"]):
        raise SystemExit(dispatch(RunConfig("help")))
    if not args or args[0] not in _COMMANDS:
        raise ValueError(f"expected one of the commands {', '.join(_COMMANDS)}")
    command, options, given = args[0], _COMMANDS[args[0]][1], {}
    tokens = iter(args[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise SystemExit(dispatch(RunConfig("help", {"command": command})))
        option, eq, raw = token.partition("=")
        if not option.startswith("--") or option[2:] not in options:
            raise ValueError(f"unrecognized argument for {command}: {token!r}")
        if not eq:
            raw = next(tokens, None)
            # a negative number is a value; any other token starting with '-' is not
            if raw is None or raw.startswith("-") and not re.fullmatch(r"-\d+|-\d*\.\d+", raw):
                raise ValueError(f"argument {option}: expected one value")
        kind = options[option[2:]][0]
        try:  # tuple.index refuses a value that is not one of the choices
            given[option[2:]] = kind[kind.index(raw)] if isinstance(kind, tuple) else kind(raw)
        except ValueError:
            want = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else kind.__name__
            raise ValueError(f"argument {option}: expected {want}, got {raw!r}") from None
    missing = ", ".join(f"--{n}" for n, o in options.items() if o[1] is ... and n not in given)
    if missing:
        raise ValueError(f"the following arguments are required: {missing}")
    params = {name.replace("-", "_"): given.get(name, spec[1])
              for name, spec in options.items()}
    output = params.pop("output")
    return RunConfig(command, params, output)


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


def _scalar_report(config: RunConfig, value) -> Report:
    fields = config.params  # in option order
    return Report({"command": config.command, **fields, "value": value},
                  [[*fields, "value"], [*fields.values(), value]], [value])


def _expansion_report(report) -> Report:
    t = report.target
    return Report(
        vars(report),
        [["Q", "partial_sum", "abs_error"],
         *([q, s, abs(s - t)] for q, s in report.partial_sums)],
        [f"target           {t!r}",
         *(f"Q={q:<8} S={s!r}  |err|={abs(s - t)!r}" for q, s in report.partial_sums),
         f"converged        {report.converged} (final error {report.final_abs_error!r}, "
         f"tolerance {report.tolerance!r})"])


def _asymptotic_report(report) -> Report:
    points = [(n, v, rho) for (n, v), (_, rho) in zip(report.lhs_checkpoints, report.ratios)]
    return Report(
        vars(report),
        [["N", "lhs", "N_times_rhs", "ratio"],
         *([n, v, n * report.rhs.value, rho] for n, v, rho in points)],
        [f"h = {report.query.h} = m^s * k with m={report.rhs.m}, k={report.rhs.k} "
         f"(s={report.query.s})",
         f"rhs product      {report.rhs.value!r} (P={report.rhs.prime_cutoff}, "
         f"tail bound {report.rhs.tail_bound!r})",
         *(f"N={n:<9} lhs={v!r}  ratio={rho!r}" for n, v, rho in points),
         f"converged        {report.converged} (tolerance {report.tolerance!r})"])


# ---------------------------------------------------------------------------
# command handlers

def _run_help(config: RunConfig) -> Report:
    """The help the option table renders, for one command or for all."""
    command = config.params.get("command")
    lines = [f"usage: cohenram {command or 'COMMAND'} [--OPTION VALUE | --OPTION=VALUE ...]", ""]
    if command is None:
        lines += ["Cohen-Ramanujan sums, Jordan totients, and verification of their "
                  "expansion and shifted-convolution identities.", "", "commands:",
                  *(f"  {name:<17} {text}" for name, (text, _, _) in _COMMANDS.items()),
                  "", "run 'cohenram COMMAND --help' for its options"]
    else:
        text, options, _ = _COMMANDS[command]
        lines += [text, "", "options (spelled in full):"]
        for name, (kind, default, about) in options.items():
            meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
            note = {None: "", ...: "(required)"}.get(default, f"(default {default})")
            lines.append(" ".join(filter(None, (f"  --{name} {meta}", about, note))))
    return Report({}, [], lines)


def _run_sum(config: RunConfig) -> Report:
    p = config.params
    return _scalar_report(config, evaluate(CohenSumQuery(p["r"], p["s"], p["n"]), p["evaluator"]))


def _run_jordan(config: RunConfig) -> Report:
    p = config.params
    if p["n"] < 1:
        raise ValueError(f"jordan argument must be >= 1, got {p['n']}")
    return _scalar_report(config, jordan(p["k"], p["n"]))


def _run_gcd_s(config: RunConfig) -> Report:
    p = config.params
    return _scalar_report(config, generalized_gcd(p["m"], p["n"], p["s"]))


def _run_expansion(config: RunConfig) -> Report:
    p = config.params
    return _expansion_report(expansion_partial_sum(ExpansionQuery(p["s"], p["k"], p["n"], p["Q"])))


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
    cases = math.prod(factors.values(), start=Fraction(1))
    cases_match = cases == rhs
    return Report(
        {"command": "local-check", "s": s, "k": k, "n": n, "primes": primes,
         "lhs": str(lhs), "rhs": str(rhs), "equal": equal,
         "case_factors": {str(q): str(v) for q, v in factors.items()},
         "cases_match": cases_match},
        [["lhs", "rhs", "equal", "cases_match"], [lhs, rhs, equal, cases_match]],
        [f"lhs         {lhs}", f"rhs         {rhs}", f"equal       {equal}",
         *(f"factor p={q:<4} {v}" for q, v in factors.items()),
         f"cases_match {cases_match}"],
        failure=f"local-check: lhs {lhs} != rhs {rhs}" if not equal else None if cases_match
        else f"local-check: closed-form factors give {cases} != rhs {rhs}")


def _run_sivaramakrishnan(config: RunConfig) -> Report:
    p = config.params
    return _expansion_report(sivaramakrishnan_check(p["s"], p["k"], p["n"], p["R"]))


def _run_asymptotic(config: RunConfig) -> Report:
    p = config.params
    query = AsymptoticQuery(p["s"], p["a"], p["b"], p["h"], p["N"], p["prime_cutoff"])
    return _asymptotic_report(asymptotic_verify(query, p["tolerance"]))


def _run_main_term(config: RunConfig) -> Report:
    p = config.params
    series, product = main_term(p["s"], p["a"], p["b"], p["h"], p["R"])
    diff = abs(series - product)
    return Report(
        {"command": "main-term", **p, "series": series, "product": product, "abs_diff": diff},
        [["series", "product", "abs_diff"], [series, product, diff]],
        [f"series  {series!r}", f"product {product!r}", f"|diff|  {diff!r}"])


def _grid_case_holds(s: int, k: int, n: int, subset: tuple[int, ...]) -> bool:
    """lhs = rhs, true whatever Cohen's rule returns, and in integers statement 1's closed
    form rhs * prod_S (p^(s+k) - 1) = prod_{p|n} p^s (p^k - 1) * prod_{other p} p^(s+k)."""
    lhs, rhs = local_factor_exact(s, k, n, subset)
    num = math.prod(p**s * (p**k - 1) if n % p == 0 else p ** (s + k) for p in subset)
    den = math.prod(p ** (s + k) - 1 for p in subset)
    return lhs == rhs and rhs.numerator * den == num * rhs.denominator


def _run_repro_all(config: RunConfig) -> Report:
    p = config.params
    # the asymptotic checks run first: a bad N, cutoff or charge is refused before the grid
    reports = [asymptotic_verify(AsymptoticQuery(s, a, b, h, p["N"], p["prime_cutoff"]))
               for s, a, b, h in _REPRO_ASYMPTOTIC]
    grid = [(s, k, n, subset) for s, k, n in product((1, 2, 3), (1, 2, 3), range(1, 31))
            for size in range(len(_REPRO_PRIMES) + 1)
            for subset in combinations(_REPRO_PRIMES, size)]
    failures = [{"s": s, "k": k, "n": n, "primes": list(subset)}
                for s, k, n, subset in grid if not _grid_case_holds(s, k, n, subset)]
    checks = [{"name": "local-factors-exact", "pass": not failures, "cases": len(grid),
               "first_failure": failures[0] if failures else None}]
    for report in reports:
        q, rho = report.query, report.ratios[-1][1]
        checks.append({"name": f"asymptotic s={q.s} a={q.a} b={q.b} h={q.h}",
                       "pass": report.converged, "final_ratio": rho,
                       "final_abs_error": abs(rho - 1.0), "tolerance": report.tolerance,
                       "N": p["N"], "prime_cutoff": p["prime_cutoff"]})

    failed = sum(not c["pass"] for c in checks)
    lines = [f"{c['name']}: {'PASS' if c['pass'] else 'FAIL'} "
             + (f"({c['cases']} cases)" if "cases" in c else
                f"(|ratio-1|={c['final_abs_error']!r}, tolerance={c['tolerance']!r})")
             for c in checks]
    return Report(
        {"command": "repro-all", "checks": checks, "overall_pass": not failed},
        [["name", "pass"], *([c["name"], c["pass"]] for c in checks), ["overall", not failed]],
        [*lines, f"overall: {'FAIL' if failed else 'PASS'}"],
        failure=f"repro-all: {failed} of {len(checks)} checks failed" if failed else None)


# command -> (help, {option: (int | float | str | choices, default, help)}, handler);
# a default of ... marks a required option.  dispatch runs _run_help for "help".
_INT = (int, ..., "")
_OUTPUT = {"output": (("plain", "json", "csv"), "plain", "report format")}
_COMMANDS = {
    "sum": ("evaluate c_r^s(n) at r >= 1, s >= 1, n >= 0", {
        **dict.fromkeys("rsn", _INT), "evaluator": (
            tuple(_EVALUATORS), "multiplicative",
            "multiplicative, divisor-sum oracle, or literal direct sum (r^s <= 10^7)"),
        **_OUTPUT}, _run_sum),
    "jordan": ("evaluate J_k(n) at k >= 1, n >= 1", {**dict.fromkeys("kn", _INT), **_OUTPUT},
               _run_jordan),
    "gcd-s": ("generalized gcd (m, n)_s, the largest l^s dividing both",
              {**dict.fromkeys("mns", _INT), **_OUTPUT}, _run_gcd_s),
    "expansion": ("partial sums to Q of sum_q mu(q) c_q^s(n^s)/J_{s+k}(q) "
                  "vs zeta(s+k) J_k(n)/n^k", {**dict.fromkeys("sknQ", _INT), **_OUTPUT},
                  _run_expansion),
    "local-check": ("exact rational Euler-factor identity over a prime set", {
        **dict.fromkeys("skn", _INT), "primes": (
            str, ..., "comma-separated primes, e.g. 2,3,5 (empty string for none)"),
        **_OUTPUT}, _run_local_check),
    "sivaramakrishnan": ("k-vector variant partial sums (evidence grade, small R)", {
        **dict.fromkeys("skn", _INT), "R": (int, ..., "cutoff; needs the sum of r^s over "
                                            "squarefree r <= R to be <= 10^7 "
                                            "(R <= 5737, 370, 88 at s = 1, 2, 3)"),
        **_OUTPUT}, _run_sivaramakrishnan),
    "asymptotic": ("shifted-convolution sum to N at shift h >= 1 vs truncated Euler product", {
        **dict.fromkeys("sabhN", _INT), "prime-cutoff": (int, 10**5, ""),
        "tolerance": (float, 0.02, "largest accepted |ratio - 1|"), **_OUTPUT},
        _run_asymptotic),
    "main-term": ("generic main-term series with the Jordan-ratio coefficients, compared "
                  "to the Euler product", {**dict.fromkeys("sabh", _INT), "R": (
                      int, ..., "series cutoff, and also the prime cutoff of the Euler "
                      "product it is compared to"), **_OUTPUT}, _run_main_term),
    "repro-all": ("one-command reproduction: the full exact local-factor grid plus the "
                  "default shifted-convolution verification; exits 1 if any check fails",
                  {"N": (int, 10**6, "summation limit"), "prime-cutoff": (int, 10**5, ""),
                   **_OUTPUT}, _run_repro_all),
}


def dispatch(config: RunConfig) -> int:
    """Run one validated config and write its report in the chosen
    format, the only write to stdout; returns the process exit status."""
    if config.command != "help" and config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    report = (_COMMANDS[config.command][2] if config.command in _COMMANDS else _run_help)(config)
    if config.output == "json":
        text = json.dumps({"schema": 1, **report.payload}, indent=2, sort_keys=True,
                          default=vars) + "\n"
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
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
