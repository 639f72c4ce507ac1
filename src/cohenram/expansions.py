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
from functools import lru_cache
from itertools import chain, repeat
from operator import mul, sub

import numpy as np

from .arith import (
    _CALL_BYTES,
    _CHUNK,
    _ZETA_PRECISION,
    _check_budget,
    _table_bytes,
    divisor_sigma,
    is_prime,
    jordan,
    mobius,
    multiplicative_table,
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


def _checkpoints(final: int) -> list[int]:
    return sorted({c for c in (10, 100, 1000) if c < final} | {final})


def _expansion_terms(s: int, k: int, n: int, Q: int) -> np.ndarray:
    """mu(q) c_q^s(n^s) / J_{s+k}(q) for q = 0..Q as float64 (entry 0 is
    0), built by multiplicative_table from its value
    -c_p^s(n^s) / J_{s+k}(p) at each prime; non-squarefree q give 0.
    At a prime both are closed forms, c_p^s(n^s) = p^s - 1 if p | n and
    -1 otherwise, and J_{s+k}(p) = p^(s+k) - 1: the same ints crs_fast
    and jordan return, without factorizing p.
    Each entry is a product of omega(q) rounded factors, within
    2 omega(q) 2^-53 relative of the exact value."""

    def local(p: int, e: int) -> float:
        if e > 1:
            return 0.0
        crs = p**s - 1 if n % p == 0 else -1
        return -crs / (p ** (s + k) - 1)

    return multiplicative_table(Q, local)


def expansion_partial_sum(query: ExpansionQuery, *,
                          memory_budget: int | None = None) -> ExpansionReport:
    """Partial sums S_Q = sum_{q <= Q squarefree} mu(q) c_q^s(n^s) / J_{s+k}(q)
    against the target zeta(s+k) * J_k(n)/n^k.

    The terms are multiplicative in q and come from one
    multiplicative_table (see _expansion_terms for their error bound);
    each partial sum is one fsum over the table read in chunks of _CHUNK
    Python floats, correctly rounded whatever the chunking.  The table
    and one chunk are checked against the budget first.
    The convergence envelope is max(1e-3, 2*sigma(n)^s * Q^(1-s-k)):
    terms decay like q^-(s+k) with an n-dependent constant.
    """
    s, k, n, Q = query.s, query.k, query.n, query.Q
    ns = n**s
    if ns >= _NS_LIMIT:
        raise ValueError(f"n^s = {ns} exceeds the 2^63 evaluation guard")
    # the table, one chunk of the Python floats fsum reads and the call's small objects
    _check_budget(f"expansion table to Q = {Q}",
                  _table_bytes(Q) + 32 * min(Q, _CHUNK) + _CALL_BYTES, memory_budget)
    target = zeta(s + k, _ZETA_PRECISION) * jordan(k, n) / n**k
    terms = _expansion_terms(s, k, n, Q)

    partials = tuple(
        (c, math.fsum(chain.from_iterable(
            terms[lo : min(lo + _CHUNK, c + 1)].tolist()
            for lo in range(1, c + 1, _CHUNK))))
        for c in _checkpoints(Q))
    final_err = abs(partials[-1][1] - target)
    tol = max(1e-3, 2.0 * divisor_sigma(n) ** s * Q ** (1 - s - k))
    return ExpansionReport(query, target, partials, final_err, tol, final_err < tol)


@lru_cache(maxsize=64)
def _divisor_lattice(pset: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(q, mu(q), Q_P // q) for every q | Q_P, as three parallel tuples,
    where Q_P is the product of pset (sorted distinct ints).  Every p is
    checked by is_prime first; a refusal raises, so it is never cached."""
    for p in pset:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    signed = [(1, 1)]
    for p in pset:
        signed += [(q * p, -mu) for q, mu in signed]
    qs, mus = zip(*signed)
    qp = math.prod(pset)
    return qs, mus, tuple(qp // q for q in qs)


# 5 values of s + k times the 64 prime sets of the repro-all grid; typed,
# so a float s + k never reads an int row
@lru_cache(maxsize=5 * 64, typed=True)
def _jordan_row(sk: int, pset: tuple[int, ...]) -> tuple:
    """(qs, mu(q) J_sk(Q_P/q) for each q in qs, J_sk(Q_P), J_sk(p) for
    each p in pset): everything in local_factor_exact that does not
    depend on n.  J_sk is read at every complement, composite ones
    included."""
    qs, mus, complements = _divisor_lattice(pset)
    weights = tuple(mu * jordan(sk, c) for mu, c in zip(mus, complements))
    return qs, weights, jordan(sk, complements[0]), tuple(jordan(sk, p) for p in pset)


def local_factor_exact(s: int, k: int, n: int,
                       primes) -> tuple[Fraction, Fraction]:
    """Exact rational check of the Euler factorization over a finite
    prime set P.

    Returns (lhs, rhs) where lhs sums mu(q) c_q^s(n^s) / J_{s+k}(q) over
    the squarefree q built from P, and rhs is the product of
    1 + mu(p) c_p^s(n^s) / J_{s+k}(p) over p in P.  The two are equal as
    exact rationals; this is the finite skeleton of the series-to-product
    step, with no floating point involved.

    Both sides are accumulated as integers over one common denominator,
    J_{s+k}(Q_P) with Q_P the product of P: every q divides Q_P and is
    coprime to Q_P/q, so J_{s+k}(Q_P)/J_{s+k}(q) = J_{s+k}(Q_P/q).

    What depends only on P is cached: the divisors q of Q_P with mu(q)
    and Q_P/q (_divisor_lattice, 64 sets), and the weights
    mu(q) J_{s+k}(Q_P/q) with J_{s+k}(Q_P) and each J_{s+k}(p)
    (_jordan_row, 320 pairs of s + k and P).  Both caches are keyed by
    the sorted distinct primes, and every p is checked to be an int
    before either is read: (2.0,) == (2,), so a float or bool "prime"
    would otherwise be answered from its int twin's entry.
    Each call still evaluates crs_fast at every q | Q_P, composite q
    included, so the lhs is never derived from the per-prime factors of
    the rhs.
    """
    if min(s, k, n) < 1:
        raise ValueError(f"s, k, n must be >= 1, got {(s, k, n)}")
    pset = tuple(sorted(set(primes)))
    for p in pset:
        if type(p) is not int:
            raise ValueError(f"primes must be ints, got {type(p).__name__} {p!r}")
    qs, weights, jqp, jp = _jordan_row(s + k, pset)
    ns = n**s
    if ns >= _NS_LIMIT:
        raise ValueError(f"n^s = {ns} exceeds the 2^63 evaluation guard")
    lhs = Fraction(sum(map(mul, weights, map(crs_fast, qs, repeat(s), repeat(ns)))), jqp)
    rhs = Fraction(math.prod(map(sub, jp, map(crs_fast, pset, repeat(s), repeat(ns)))),
                   math.prod(jp))
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
    target = zeta(s + k, _ZETA_PRECISION) * jordan(k, n) / n**k

    terms = [0.0] * (R + 1)
    for r, mu in signed:
        terms[r] = mu * kvector_sum(s, n, r) / jordan(s + k, r)

    partials = tuple((c, math.fsum(terms[1 : c + 1])) for c in _checkpoints(R))
    final_err = abs(partials[-1][1] - target)
    tol = 0.1 * abs(target)
    return ExpansionReport(query, target, partials, final_err, tol, final_err < tol)
