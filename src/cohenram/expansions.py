"""Numeric and exact verification of the Cohen-Ramanujan expansion of
the Jordan totient ratio:

    J_k(n)/n^k * zeta(s+k) = sum_{q>=1} mu(q)/J_{s+k}(q) * c_q^s(n^s)

for positive integers s, k, n.  Three routes are exercised:

* truncated partial sums of the series against the closed-form target;
* the exact rational Euler-factor skeleton over a finite prime set,
  where the restricted sum equals the finite product identically;
* the k-vector variant sum_{r} mu(r)/J_{s+k}(r) * c^s(n, r), a slowly
  converging classical identity checked as numeric evidence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import (
    divisor_sigma,
    is_prime,
    jordan,
    mobius,
    shared_sieve,
    zeta,
)
from .cohen import DIRECT_TERM_GUARD, crs_fast, kvector_sum

__all__ = [
    "ExpansionQuery",
    "ExpansionReport",
    "expansion_partial_sum",
    "local_factor_exact",
    "local_factor_cases",
    "sivaramakrishnan_check",
]

_NS_LIMIT = 2**63
_ZETA_PRECISION = 1e-12  # series truncation must dominate the error budget


@dataclass(frozen=True)
class ExpansionQuery:
    """Series parameters: power s, totient order k, argument n, cutoff Q."""

    s: int
    k: int
    n: int
    Q: int

    def __post_init__(self) -> None:
        if min(self.s, self.k, self.n, self.Q) < 1:
            raise ValueError(f"all of s, k, n, Q must be >= 1, got {self}")


@dataclass(frozen=True)
class ExpansionReport:
    """Partial sums at increasing cutoffs against the closed-form target."""

    query: ExpansionQuery
    target: float
    partial_sums: tuple[tuple[int, float], ...]
    final_abs_error: float
    tolerance: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "query": {"s": self.query.s, "k": self.query.k,
                      "n": self.query.n, "Q": self.query.Q},
            "target": self.target,
            "partial_sums": [[q, s] for q, s in self.partial_sums],
            "final_abs_error": self.final_abs_error,
            "tolerance": self.tolerance,
            "converged": self.converged,
        }

    def to_csv(self) -> str:
        lines = ["Q,partial_sum,abs_error"]
        for q, s in self.partial_sums:
            lines.append(f"{q},{s!r},{abs(s - self.target)!r}")
        return "\n".join(lines) + "\n"


def _checkpoints(final: int) -> list[int]:
    return sorted({c for c in (10, 100, 1000) if c < final} | {final})


def expansion_partial_sum(query: ExpansionQuery) -> ExpansionReport:
    """Partial sums S_Q = sum_{q <= Q squarefree} mu(q) c_q^s(n^s) / J_{s+k}(q)
    against the target zeta(s+k) * J_k(n)/n^k.

    Non-squarefree q contribute nothing (mu = 0) and are skipped.  The
    convergence envelope is max(1e-3, 2*sigma(n)^s * Q^(1-s-k)): terms
    decay like q^-(s+k) with an n-dependent constant.
    """
    s, k, n, Q = query.s, query.k, query.n, query.Q
    ns = n**s
    if ns >= _NS_LIMIT:
        raise ValueError(f"n^s = {ns} exceeds the 2^63 evaluation guard")
    mu = shared_sieve("mobius", Q)
    jt = shared_sieve("jordan", Q, k=s + k)
    target = zeta(s + k, _ZETA_PRECISION) * jordan(k, n) / n**k

    terms = [0.0] * (Q + 1)
    for q in range(1, Q + 1):
        m = mu[q]
        if m:
            terms[q] = m * crs_fast(q, s, ns) / jt[q]

    partials = tuple((c, math.fsum(terms[1 : c + 1])) for c in _checkpoints(Q))
    final_err = abs(partials[-1][1] - target)
    tol = max(1e-3, 2.0 * divisor_sigma(n) ** s * Q ** (1 - s - k))
    return ExpansionReport(query, target, partials, final_err, tol, final_err < tol)


def local_factor_exact(s: int, k: int, n: int,
                       primes) -> tuple[Fraction, Fraction]:
    """Exact rational check of the Euler factorization over a finite
    prime set P.

    Returns (lhs, rhs) where lhs sums mu(q) c_q^s(n^s) / J_{s+k}(q) over
    the squarefree q built from P, and rhs is the product of
    1 + mu(p) c_p^s(n^s) / J_{s+k}(p) over p in P.  The two are equal as
    exact rationals; this is the finite skeleton of the series-to-product
    step, with no floating point involved.
    """
    if min(s, k, n) < 1:
        raise ValueError(f"s, k, n must be >= 1, got {(s, k, n)}")
    pset = sorted(set(primes))
    for p in pset:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    ns = n**s
    if ns >= _NS_LIMIT:
        raise ValueError(f"n^s = {ns} exceeds the 2^63 evaluation guard")

    lhs = Fraction(0)
    for size in range(len(pset) + 1):
        for subset in combinations(pset, size):
            q = math.prod(subset)
            lhs += Fraction((-1) ** size * crs_fast(q, s, ns), jordan(s + k, q))

    rhs = Fraction(1)
    for p in pset:
        rhs *= 1 + Fraction(-crs_fast(p, s, ns), jordan(s + k, p))
    return lhs, rhs


def local_factor_cases(s: int, k: int, p: int, n: int) -> Fraction:
    """The local factor 1 + mu(p) c_p^s(n^s) / J_{s+k}(p) in closed form:

        1 - (p^s - 1)/(p^(s+k) - 1)   if p | n,
        1 + 1/(p^(s+k) - 1)           if p does not divide n.

    (The p | n case equals p^s (p^k - 1) / (p^(s+k) - 1).)
    """
    if min(s, k, n) < 1:
        raise ValueError(f"s, k, n must be >= 1, got {(s, k, n)}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n % p == 0:
        return 1 - Fraction(p**s - 1, p ** (s + k) - 1)
    return 1 + Fraction(1, p ** (s + k) - 1)


def sivaramakrishnan_check(s: int, k: int, n: int, R: int) -> ExpansionReport:
    """Evidence-grade check of the k-vector variant

        J_k(n)/n^k * zeta(s+k) = sum_{r} mu(r)/J_{s+k}(r) * c^s(n, r)

    via brute-force c^s(n, r) for r <= R.  The vector enumeration is
    exponential in s, so R stays small and the acceptance envelope is a
    loose 10% relative error at the final cutoff.  The enumeration visits
    sum_{r <= R, mu(r) != 0} r^s tuples; that total is bounded by
    DIRECT_TERM_GUARD before any of them is visited.
    """
    query = ExpansionQuery(s, k, n, R)
    signed, tuples = [], 0  # (r, mu(r)) for squarefree r <= R
    for r in range(1, R + 1):
        mu = mobius(r)
        if mu:
            tuples += r**s
            if tuples > DIRECT_TERM_GUARD:
                raise ValueError(
                    f"k-vector enumeration to R = {R} exceeds the "
                    f"{DIRECT_TERM_GUARD}-tuple guard at r = {r}")
            signed.append((r, mu))
    jt = shared_sieve("jordan", R, k=s + k)
    target = zeta(s + k, _ZETA_PRECISION) * jordan(k, n) / n**k

    terms = [0.0] * (R + 1)
    for r, mu in signed:
        terms[r] = mu * kvector_sum(s, n, r) / jt[r]

    partials = tuple((c, math.fsum(terms[1 : c + 1])) for c in _checkpoints(R))
    final_err = abs(partials[-1][1] - target)
    tol = 0.1 * abs(target)
    return ExpansionReport(query, target, partials, final_err, tol, final_err < tol)
