"""Workload definitions: seeded inputs, the steps each pass runs, and the
output checks the driver applies to what the steps print.

Standard library only, so the driver can import it without importing
cohenram.  A step is a JSON-able dict:

* ``{"name": ..., "kind": "cli", "argv": [...], "exit": 0}`` runs
  ``cohenram.cli.main(argv)`` with stdout captured;
* ``{"name": "exact-grid", "kind": "grid"}`` calls
  ``cohenram.local_factor_exact`` over the grid ``repro-all`` checks and
  prints one canonical line per case.

Why these workloads:

* ``shifted``  -- statement 2 at the README's reference configurations,
  N = 10^6.  Dominated by the dense Jordan sieve and the ratio table; the
  sieve range equals the summed window.
* ``shifted-far`` -- one shifted sum with h >= 10 N, so the sieve covers
  about (N + h) / N entries per summed term; the working set is far
  larger than the useful data.
* ``identity`` -- statement 1: three truncated expansions at Q = 10^5,
  the exact local-factor grid, and the k-vector check.  Exact Fraction
  arithmetic and cold factorize; sieves stop at 10^5.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("shifted", "shifted-far", "identity")

# measured L(N)/(N*P) at N = 10^6, as published in the README table
REFERENCE_RATIOS = {(2, 3, 3, 12): 0.919385, (2, 4, 3, 4): 0.940495}
GRID_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_CASES = 3 * 3 * 30 * 2 ** len(GRID_PRIMES)
FAR_N = 10**5
FAR_SHIFTS = (10**6, 10**6 + 20_000)  # h >= 10 N, narrow so cost stays in class
FAR_REL_TOL = 1e-9
MAIN_TERM_TOL = 1e-9
EXPANSION_Q = 10**5


def draw_inputs(workload: str, seed: int) -> dict:
    """The seeded part of a workload's inputs; the same seed gives the
    same inputs.  Reference configurations and the exact grid are fixed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "shifted-far":
        return {"h": rng.randrange(*FAR_SHIFTS)}
    if workload == "identity":
        # every s once; s + k pairwise distinct so each expansion builds
        # its own Jordan table and the sieve count does not depend on the seed
        ss = rng.sample((1, 2, 3), 3)
        while True:
            ks = [rng.choice((1, 2, 3)) for _ in ss]
            if len({s + k for s, k in zip(ss, ks)}) == 3:
                break
        return {"triples": [[s, k, rng.randint(1, 30)] for s, k in zip(ss, ks)]}
    return {}


def _cli(name: str, *argv) -> dict:
    return {"name": name, "kind": "cli",
            "argv": [str(a) for a in argv] + ["--output", "json"], "exit": 0}


def steps(workload: str, inputs: dict) -> list[dict]:
    """The public calls one pass makes, in order."""
    if workload == "shifted":
        out = [_cli(f"asymptotic-s{s}-a{a}-b{b}-h{h}", "asymptotic", "--s", s, "--a", a,
                    "--b", b, "--h", h, "--N", 10**6)
               for s, a, b, h in REFERENCE_RATIOS]
        out.append(_cli("main-term-s2-a3-b3-h12", "main-term", "--s", 2, "--a", 3,
                        "--b", 3, "--h", 12, "--R", 10**4))
        return out
    if workload == "shifted-far":
        return [_cli("asymptotic-far", "asymptotic", "--s", 2, "--a", 3, "--b", 4,
                     "--h", inputs["h"], "--N", FAR_N)]
    out = [_cli(f"expansion-s{s}-k{k}-n{n}", "expansion", "--s", s, "--k", k,
                "--n", n, "--Q", EXPANSION_Q)
           for s, k, n in inputs["triples"]]
    out.append({"name": "exact-grid", "kind": "grid"})
    out.append(_cli("sivaramakrishnan", "sivaramakrishnan", "--s", 2, "--k", 1,
                    "--n", 2, "--R", 40))
    return out


def grid_cases():
    """(s, k, n, primes) for every case of the exact local-factor grid."""
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(1, 31):
                for size in range(len(GRID_PRIMES) + 1):
                    for subset in combinations(GRID_PRIMES, size):
                        yield s, k, n, subset


def grid_text(results) -> str:
    """Canonical rendering of the grid results, one case per line."""
    return "".join(f"{s} {k} {n} {','.join(map(str, ps))} {lhs} {rhs}\n"
                   for (s, k, n, ps), (lhs, rhs) in zip(grid_cases(), results))


# ---------------------------------------------------------------------------
# independent references (no cohenram code involved)

def _jordan_ratio(k: int, n: int) -> Fraction:
    """J_k(n)/n^k = prod_{p | n} (1 - p^-k), by trial division."""
    out, m, p = Fraction(1), n, 2
    while p * p <= m:
        if m % p == 0:
            out *= 1 - Fraction(1, p**k)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out *= 1 - Fraction(1, m**k)
    return out


def _zeta(z: int, cutoff: int = 1000) -> float:
    """zeta(z), z >= 2: direct sum plus Euler-Maclaurin tail; the omitted
    term is below z * cutoff^-(z+1) / 12 < 2e-10."""
    head = math.fsum(m ** float(-z) for m in range(1, cutoff + 1))
    return head + cutoff ** (1.0 - z) / (z - 1) - cutoff ** float(-z) / 2.0


def _closed_form_product(s: int, k: int, n: int, primes) -> Fraction:
    """prod over p of the closed-form local factor of the expansion."""
    out = Fraction(1)
    for p in primes:
        if n % p == 0:
            out *= 1 - Fraction(p**s - 1, p ** (s + k) - 1)
        else:
            out *= 1 + Fraction(1, p ** (s + k) - 1)
    return out


# ---------------------------------------------------------------------------
# output checks

def check(step: dict, exit_code: int, stdout: str, reference: dict) -> str | None:
    """None when the step's output is right, else a one-line reason.

    ``reference`` carries values the driver computed off the timed path
    (the shifted-far pointwise sum).
    """
    try:
        return _check(step, exit_code, stdout, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unexpected output ({type(exc).__name__}: {exc})"


def _check(step: dict, exit_code: int, stdout: str, reference: dict) -> str | None:
    if step["kind"] == "grid":
        return _check_grid(exit_code, stdout)
    if exit_code != step["exit"]:
        return f"exit code {exit_code}, expected {step['exit']}"
    out = json.loads(stdout)
    command = step["argv"][0]
    if command == "asymptotic":
        return _check_asymptotic(out, reference)
    if command == "main-term":
        diff = abs(out["series"] - out["product"])
        if not diff <= MAIN_TERM_TOL:
            return f"|series - product| = {diff!r} > {MAIN_TERM_TOL}"
        return None
    if not out["converged"]:
        return f"{command} did not converge (error {out['final_abs_error']!r})"
    if command == "expansion":
        q = out["query"]
        target = _zeta(q["s"] + q["k"]) * float(_jordan_ratio(q["k"], q["n"]))
        err = abs(out["partial_sums"][-1][1] - target)
        if not err < out["tolerance"]:
            return f"partial sum is {err!r} from the independent target"
    return None


def _check_asymptotic(out: dict, reference: dict) -> str | None:
    q = out["query"]
    key = (q["s"], q["a"], q["b"], q["h"])
    if key in REFERENCE_RATIOS:
        if out["converged"] is not False:
            return "reference configuration reported converged"
        n, rho = out["ratios"][-1]
        if n != 10**6 or abs(rho - REFERENCE_RATIOS[key]) >= 5e-7:
            return f"ratio {rho!r} at N={n} does not match {REFERENCE_RATIOS[key]}"
        return None
    n, value = out["lhs_checkpoints"][-1]
    want = reference.get("far_lhs")
    if n != q["N"] or want is None:
        return f"no reference for L({n})"
    rel = abs(value - want) / abs(want)
    if not rel <= FAR_REL_TOL:
        return f"L(N) = {value!r} is {rel:.3g} relative from the pointwise sum {want!r}"
    return None


def _check_grid(exit_code: int, stdout: str) -> str | None:
    if exit_code != 0:
        return f"grid raised (exit {exit_code})"
    lines = stdout.splitlines()
    if len(lines) != GRID_CASES:
        return f"{len(lines)} grid cases, expected {GRID_CASES}"
    for line, (s, k, n, ps) in zip(lines, grid_cases()):
        *_, lhs, rhs = line.split(" ")
        if lhs != rhs:
            return f"lhs {lhs} != rhs {rhs} at s={s} k={k} n={n} primes={ps}"
        if Fraction(rhs) != _closed_form_product(s, k, n, ps):
            return f"rhs {rhs} differs from the closed form at s={s} k={k} n={n} primes={ps}"
    return None
