"""Numeric and exact verification of the Cohen-Ramanujan expansion of
the Jordan totient ratio:

    J_k(n)/n^k * zeta(s+k) = sum_{q>=1} mu(q)/J_{s+k}(q) * c_q^s(n^s)

for positive integers s, k, n.  Two routes are exercised:

* truncated partial sums of the series against the closed-form target;
* the exact rational Euler-factor skeleton over a finite prime set,
  where the restricted sum equals the finite product identically.

sivaramakrishnan_check sums the same series with each c_q^s(n^s) taken
as Cohen's s-vector sum c^s(n, q), an exponential sum equal to it.
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
    _FLOAT_LIMIT,
    _check_budget,
    _over_guard,
    _reciprocals,
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

_LATTICE_PRIMES = 10  # distinct primes in one divisor lattice: 1,024 divisors


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


def _checkpoints(final: int) -> list[int]:
    return sorted({c for c in (10, 100, 1000) if c < final} | {final})


def _target(s: int, k: int, n: int) -> float:
    """zeta(s+k) J_k(n)/n^k, refused where the quotient would overflow."""
    z, j = zeta(s + k), jordan(k, n)
    if _over_guard(n, k, _FLOAT_LIMIT):  # after jordan's own guard
        raise ValueError(f"the target needs n^k = {n}^{k}, past the 2^1024 float guard")
    return z * j / n**k


def _expansion_terms(s: int, k: int, n: int, Q: int) -> np.ndarray:
    """mu(q) c_q^s(n^s) / J_{s+k}(q) for q = 0..Q as float64 (entry 0 is
    0), built by multiplicative_table from its value
    -c_p^s(n^s) / J_{s+k}(p) at the primes; non-squarefree q give 0.
    At a prime both are closed forms, c_p^s(n^s) = p^s - 1 if p | n and
    -1 otherwise, and J_{s+k}(p) = p^(s+k) - 1: the same ints crs_fast
    and jordan return, without factorizing p.  So the value is
    1 / (p^(s+k) - 1) at every p that does not divide n, which
    _reciprocals gives for a whole array of primes at once, bit for bit
    the exact quotient; the at most omega(n) primes that divide n are then
    overwritten with the exact -(p^s - 1) / (p^(s+k) - 1).
    Each entry is a product of omega(q) rounded factors, within
    2 omega(q) 2^-53 relative of the exact value.  Past s + k = 1140 no
    p^(s+k) is built: |c_p^s(n^s)| < 2^63 under the n^s guard, so every
    prime's value is below 2^64 / 2^1141 = 2^-1077, under half the least
    subnormal 2^-1074, and rounds to zero."""

    def local(primes: np.ndarray, e: int) -> np.ndarray:
        if e > 1:
            return np.zeros(len(primes))
        values = _reciprocals(s + k, primes)
        if s + k <= 1140:
            divides = np.flatnonzero(n % primes == 0)
            values[divides] = [-(p**s - 1) / (p ** (s + k) - 1)
                               for p in primes[divides].tolist()]
        return values

    return multiplicative_table(Q, local)


def expansion_partial_sum(query: ExpansionQuery) -> ExpansionReport:
    """Partial sums S_Q = sum_{q <= Q squarefree} mu(q) c_q^s(n^s) / J_{s+k}(q)
    against the target zeta(s+k) * J_k(n)/n^k.

    The terms are multiplicative in q and come from one
    multiplicative_table (see _expansion_terms for their error bound);
    each partial sum is one fsum over the table's nonzero entries read in
    chunks of _CHUNK: every non-squarefree q gives an exact 0, which adds
    nothing to a correctly rounded sum.  The table and one chunk are
    charged against the memory ceiling first.
    The convergence envelope is max(1e-3, 2*sigma(n)^s * Q^(1-s-k)):
    terms decay like q^-(s+k) with an n-dependent constant.
    """
    s, k, n, Q = query.s, query.k, query.n, query.Q
    if _over_guard(n, s, 2**63 - 1):  # before n^s is built
        raise ValueError(f"n^s = {n}^{s} exceeds the 2^63 evaluation guard")
    # the table, one chunk of the Python floats fsum reads and the call's small objects
    _check_budget(f"expansion table to Q = {Q}",
                  _table_bytes(Q) + 32 * min(Q, _CHUNK) + _CALL_BYTES)
    target = _target(s, k, n)
    terms = _expansion_terms(s, k, n, Q)

    partials = tuple(
        (c, math.fsum(chain.from_iterable(
            seg[seg != 0].tolist()
            for seg in (terms[lo : min(lo + _CHUNK, c + 1)] for lo in range(1, c + 1, _CHUNK)))))
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
    """(mu(q) J_sk(Q_P/q) for each q | Q_P in _divisor_lattice order,
    J_sk(Q_P), J_sk(p) for each p of pset, and their product): everything
    in _local_factor that does not depend on n.  J_sk is read at
    every complement, composite ones included."""
    _, mus, complements = _divisor_lattice(pset)
    weights = tuple(mu * jordan(sk, c) for mu, c in zip(mus, complements))
    jp = tuple(jordan(sk, p) for p in pset)
    return weights, jordan(sk, complements[0]), jp, math.prod(jp)


# the repro-all grid fills 1,128 rows; typed, as _jordan_row
@lru_cache(maxsize=1 << 11, typed=True)
def _crs_row(s: int, ds: int, pset: tuple[int, ...]) -> tuple:
    """(c_q^s(ds) for each q | Q_P in _divisor_lattice order, and the
    entries at the primes of pset): everything in _local_factor that
    depends on n but not on k, read at ds = gcd(n, Q_P)^s, exact by
    Cohen's gcd property (see local_factor_exact).  crs_fast is evaluated
    at every q, composite ones included.  The i-th prime of pset sits at
    index 2^i of the divisor lattice.  A row holds at most 1,024 ints
    below 2^63, so the full cache at most about 92 MB."""
    crs = tuple(map(crs_fast, _divisor_lattice(pset)[0], repeat(s), repeat(ds)))
    return crs, tuple(crs[1 << i] for i in range(len(pset)))


# the repro-all grid fills 3,384 entries; typed, as _jordan_row
@lru_cache(maxsize=1 << 12, typed=True)
def _local_factor(s: int, k: int, d: int, pset: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """local_factor_exact's (lhs, rhs) at every n with gcd(n, Q_P) = d."""
    weights, jqp, jp, jp_prod = _jordan_row(s + k, pset)
    crs, crs_at_p = _crs_row(s, d**s, pset)
    lhs_num = sum(map(mul, weights, crs))
    rhs_num = math.prod(map(sub, jp, crs_at_p))
    lhs = Fraction(lhs_num, jqp)
    if lhs_num == rhs_num and jqp == jp_prod:
        return lhs, lhs
    return lhs, Fraction(rhs_num, jp_prod)


@lru_cache(maxsize=1 << 7)  # the repro-all grid reads 64 tuples, each of ints only
def _prime_set(primes: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The sorted distinct primes and their product, or a lattice refusal."""
    pset = tuple(sorted(set(primes)))
    if len(pset) > _LATTICE_PRIMES:
        raise ValueError(f"{len(pset)} distinct primes exceed the lattice guard of "
                         f"{_LATTICE_PRIMES} (2^{_LATTICE_PRIMES} divisors)")
    qp = math.prod(pset)
    if qp >= 2**63:
        raise ValueError(f"the product of the primes ({qp.bit_length()} bits) "
                         "exceeds the 2^63 lattice guard")
    return pset, qp


def local_factor_exact(s: int, k: int, n: int,
                       primes) -> tuple[Fraction, Fraction]:
    """Exact rational check of the Euler factorization over a finite
    prime set P.

    Returns (lhs, rhs) where lhs sums mu(q) c_q^s(n^s) / J_{s+k}(q) over
    the squarefree q built from P, and rhs is the product of
    1 + mu(p) c_p^s(n^s) / J_{s+k}(p) over p in P.  The two are equal as
    exact rationals; this is the finite skeleton of the series-to-product
    step, with no floating point involved.

    The lhs is accumulated as an integer over J_{s+k}(Q_P) with Q_P the
    product of P: every q divides Q_P and is coprime to Q_P/q, so
    J_{s+k}(Q_P)/J_{s+k}(q) = J_{s+k}(Q_P/q).  The rhs is the integer
    product of J_{s+k}(p) - c_p^s(n^s) over the product of the J_{s+k}(p).
    When the two numerators are equal and the two denominators are
    equal, one normalised Fraction is built and returned as both sides;
    otherwise each side gets its own.

    Both sides depend on n only through d = gcd(n, Q_P): by Cohen
    (Duke Math. J. 16, 1949), c_q^s(m) depends on m only through
    gcd(m, q^s), and gcd(n^s, q^s) = gcd(d, q)^s for every q | Q_P.  So
    _local_factor computes the pair once per (s, k, d, P), reading
    c_q^s(d^s) for c_q^s(n^s); the repro-all grid's 17,280 cases have
    3,384 such keys.  Below it are cached what does not depend on n
    (_divisor_lattice, 64 prime sets, and _jordan_row, 320 pairs of
    s + k and P) and what does not depend on k (_crs_row, 1,128 rows),
    each at every q | Q_P, composite q included.  The lhs is never
    derived from the per-prime factors of the rhs; the rhs reads its
    prime values from the same row.  s, k, n and every p are checked to
    be ints first, each p before it is sorted or hashed: (2.0,) == (2,),
    so a float or bool would otherwise read its int twin's entry in any
    cache, _prime_set's of the sorted primes and Q_P included.

    P may hold at most 10 distinct primes (1,024 divisors) with a
    product Q_P < 2^63; anything larger is refused before a lattice is
    built.  So a row holds at most 1,024 ints, each |c_q^s(d^s)| <= d^s
    <= n^s < 2^63, every J_{s+k} is below 2^14,284 (jordan's guard), and
    the full caches hold at most about 6 MB (_divisor_lattice), 330 MB
    (_jordan_row), 92 MB (_crs_row), 34 MB (_local_factor, two
    Fractions per entry) and 0.1 MB (_prime_set, 128 keys of at most 10
    ints), besides keys' s and k (unbounded at P = ()).
    """
    if not (int is type(s) is type(k) is type(n)):
        raise ValueError(f"s, k, n must be ints, got {(s, k, n)!r}")
    if s < 1 or k < 1 or n < 1:
        raise ValueError(f"s, k, n must be >= 1, got {(s, k, n)}")
    primes = tuple(primes)
    for p in primes:
        if type(p) is not int:
            raise ValueError(f"primes must be ints, got {type(p).__name__} {p!r}")
    # a longer input is deduplicated first, so no cached key holds more than 10 ints
    pset, qp = _prime_set(primes if len(primes) <= _LATTICE_PRIMES else tuple(set(primes)))
    if s * n.bit_length() >= 63 and _over_guard(n, s, 2**63 - 1):
        _jordan_row(s + k, pset)  # a non-prime or J_{s+k} past its guard is refused first
        raise ValueError(f"n^s = {n}^{s} exceeds the 2^63 evaluation guard")
    return _local_factor(s, k, math.gcd(n, qp), pset)


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
    """Statement 1's series with its terms from the s-vector sum

        J_k(n)/n^k * zeta(s+k) = sum_{r} mu(r)/J_{s+k}(r) * c^s(n, r)

    via brute-force c^s(n, r) for r <= R.  c^s(n, r) = c_r^s(n^s), both
    sum_{e | (n, r)} mu(r/e) e^s, so this is expansion_partial_sum's
    series term for term, not an independent identity; only the terms'
    evaluator differs, the exponential sum instead of Cohen's
    prime-power rule.  The vector enumeration is
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
            # an r^s over the guard is refused without being built
            tuples += DIRECT_TERM_GUARD + 1 if _over_guard(r, s, DIRECT_TERM_GUARD) else r**s
            if tuples > DIRECT_TERM_GUARD:
                raise ValueError(
                    f"k-vector enumeration to R = {R} exceeds the "
                    f"{DIRECT_TERM_GUARD}-tuple guard at r = {r}")
            signed.append((r, mu))
    target = _target(s, k, n)

    terms = [0.0] * (R + 1)
    for r, mu in signed:
        terms[r] = mu * kvector_sum(s, n, r) / jordan(s + k, r)

    partials = tuple((c, math.fsum(terms[1 : c + 1])) for c in _checkpoints(R))
    final_err = abs(partials[-1][1] - target)
    tol = 0.1 * abs(target)
    return ExpansionReport(query, target, partials, final_err, tol, final_err < tol)
