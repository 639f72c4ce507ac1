"""Shifted convolution of Jordan totient ratios against its claimed
main term.

The summation side is

    L(N) = sum_{n <= N} J_a(n)/n^a * J_b(n+h)/(n+h)^b,

computed from float64 tables of the Jordan ratios.  The target side
is one Euler product at a level t >= 1,

    prod_p (1 - p^-(t+a) - p^-(t+b) + [p^t | h] p^-(t+a+b)),

the mean value of F_a(n) F_b(n+h), where F_k(n) = prod_{p^t | n}
(1 - p^-k) is the level-t Jordan ratio.  At t = 1, F_k(n) is
J_k(n)/n^k, and the product is the constant C that L(N)/N tends to.
At t = s, with h = m^s * k and k s-power-free (so p^s | h exactly
when p | m), it is the paper's product P, its pair of local factors

    p | m:   (1 - p^-(s+a))(1 - p^-(s+b)) + (p^s - 1)/p^(a+b+2s)
    p !| m:  (1 - p^-(s+a))(1 - p^-(s+b)) - 1/p^(a+b+2s)

expanded.  The generic main-term series sum_r fhat(r) ghat(r) c_r^s(h)
takes caller-supplied coefficient tables, and ``main_term`` compares
it, with the Jordan-ratio coefficients, to P.  ``asymptotic_verify``
reports the ratio trajectory L(N)/(N * P) so agreement or disagreement
is measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

import numpy as np

from .arith import (
    InternalAssertionError,
    _BLOCK,
    _CALL_BYTES,
    _CHUNK,
    _FLOAT_LIMIT,
    _check_budget,
    _over_guard,
    _power,
    _prime_count_bound,
    _primes_bytes,
    _reciprocals,
    _table_bytes,
    multiplicative_table,
    primes_upto,
    zeta,
)
from .cohen import _crs_prime_power, shift_decompose

__all__ = [
    "AsymptoticQuery",
    "EulerProductResult",
    "AsymptoticReport",
    "lhs_sum",
    "rhs_product",
    "asymptotic_verify",
    "general_main_term",
    "expansion_coefficients",
    "main_term",
]

_BUCKET = 4096  # window ends are rounded to multiples of this
# (block, sieving prime) pairs lhs_sum's table builds may visit: admits
# N up to about 2.9*10^8 with a small h; a window sieves no prime past
# _factor_cap, so a short N runs at any h that factorize accepts
_SIEVE_WORK_LIMIT = 10**7


@dataclass(frozen=True)
class AsymptoticQuery:
    """Parameters of the shifted convolution: requires s > 1 and
    a, b > 1 + s/2, the range where the coefficient series converges
    absolutely."""

    s: int
    a: int
    b: int
    h: int
    N: int
    prime_cutoff: int = 10**5

    def __post_init__(self) -> None:
        if self.s < 2:
            raise ValueError(f"s must be an integer > 1, got {self.s}")
        for name in ("a", "b"):
            v = getattr(self, name)
            if 2 * v <= 2 + self.s:
                raise ValueError(
                    f"{name} = {v} violates {name} > 1 + s/2 = {1 + self.s / 2}")
        if not 1 <= self.h < 2**63:  # factorize's range
            raise ValueError(f"shift h must be in [1, 2^63), got {self.h}")
        if self.N < 1:
            raise ValueError(f"summation limit N must be >= 1, got {self.N}")
        if self.prime_cutoff < 1:
            raise ValueError(f"prime cutoff must be >= 1, got {self.prime_cutoff}")


@dataclass(frozen=True)
class EulerProductResult:
    """Truncated product value with a certified bound on the omitted tail,
    the cutoff it is taken to and its per-prime local factor formulas."""

    value: float
    tail_bound: float
    m: int
    k: int
    prime_cutoff: int
    dividing_factor: str
    nondividing_factor: str


@dataclass(frozen=True)
class AsymptoticReport:
    """Summation checkpoints, product value, and the ratio trajectory."""

    query: AsymptoticQuery
    lhs_checkpoints: tuple[tuple[int, float], ...]
    rhs: EulerProductResult
    ratios: tuple[tuple[int, float], ...]
    tolerance: float
    converged: bool


def _factor_cap(c: int, hi: int) -> int:
    """The last prime worth visiting, capped at hi, for a float factor
    1 +- x with 0 <= x <= p^-c: past it the factor is exactly 1.0.

    A prime p above the cap has p^c > 2^54.  Then x, whether computed
    as 1.0/p**c, as libm's faithfully rounded p ** -c or as a correctly
    rounded quotient of ints below p^-c, is at most 2^-54, since 2^-54
    is a float.  1.0 - x lies in [1 - 2^-54, 1], whose nearest float is
    1.0 (at 1 - 2^-54 the tie goes to the even 1.0), and 1.0 + x lies in
    [1, 1 + 2^-54], which also rounds to 1.0.  Multiplying by 1.0 is
    exact, so a product or a table that stops at the cap keeps every
    bit.
    """
    return min(hi, int(2 ** (54 / c)) + 1)


def _ratio_factors(k: int, primes: np.ndarray) -> np.ndarray:
    """The factors 1.0 - 1.0 / X, X = p^k by _power's fixed float64
    squaring sequence (inf past the float range), for an int64 array of
    primes.  While p^k < 2^53, X is exact and 1.0 / X is the correctly
    rounded p^-k; past it 1.0 - p^-k rounds to 1 - 2^-53 or 1.0 whatever
    the last bits of p^-k are, as long as the side of 2^-54 is kept.
    The factor is then bit for bit the 1.0 - p ** -k of libm's pow on
    the ranges tests check.  It is two roundings, not the correctly
    rounded 1 - p^-k: at (k, p) = (3, 3) both give 0x1.ed097b425ed0ap-1,
    where 1 - 1/27 rounds to 0x1.ed097b425ed09p-1."""
    return 1.0 - 1.0 / _power(primes.astype(np.float64), k)


@lru_cache(maxsize=8)
def _ratio_array(k: int, lo: int, hi: int) -> np.ndarray:
    """J_k(n)/n^k = prod_{p | n} (1 - p^-k) for n = lo..hi as a read-only
    float64 table (the entry for n = 0 is 0): multiplicative_table capped
    at _factor_cap(k, hi), past which every factor is exactly 1.0, with
    the factors of _ratio_factors, one numpy call per exponent.  An
    entry is a product of omega(n) rounded factors, within
    2 omega(n) 2^-53 relative of the exact value.  Memory is the output
    plus one block's temporaries and, past sqrt(hi), the values of the
    primes to the cap (at most 23,000 of them, at k = 3), one run bound
    per cofactor (at most sqrt(hi) < 2^18 of them) and one scatter group
    of 2^14 pairs, whatever lo is.
    """
    out = multiplicative_table(hi, lambda primes, e: _ratio_factors(k, primes), lo=lo,
                               cap=_factor_cap(k, hi))
    out.flags.writeable = False
    return out


def _bucket(limit: int) -> int:
    """Round limits up to a multiple of _BUCKET so nearby requests share
    one cached table."""
    return max(_BUCKET, -(-limit // _BUCKET) * _BUCKET)


def _lhs_windows(a: int, b: int, h: int, N: int) -> tuple[tuple[int, int, int], ...]:
    """(k, lo, hi) of the a-side and the b-side ratio table lhs_sum
    reads: [0, bucket(N)], and from h + 1 rounded down to a multiple of
    _BUCKET up to bucket(N + h).  When the b-side window starts inside
    the a-side one, both sides use [0, bucket(N + h)], so a near shift
    with a = b builds a single table."""
    a_hi, b_hi = _bucket(N), _bucket(N + h)
    b_lo = (h + 1) // _BUCKET * _BUCKET
    if b_lo <= a_hi:
        return (a, 0, b_hi), (b, 0, b_hi)
    return (a, 0, a_hi), (b, b_lo, b_hi)


def _lhs_checkpoints_of(N: int) -> list[int]:
    return sorted({c for c in (10**4, 10**5, 10**6) if c < N} | {N})


def _lhs_plan(query: AsymptoticQuery) -> tuple[tuple, tuple, int, int]:
    """lhs_sum's two windows with the bytes of their tables and of the
    larger of one build's temporaries and the summation's buffer (the
    products and _chunk_sum's bit patterns for one chunk, 16 bytes an
    entry, allocated once per call).

    Before any of that, the (block, sieving prime) steps of the builds,
    over the primes to min(sqrt(hi), _factor_cap), are bounded by
    _SIEVE_WORK_LIMIT, which refuses a long N at once.  The cofactor
    phase of a build, over the primes in (sqrt(hi), _factor_cap], needs
    no bound of its own: it scatters at most one pair per entry of the
    window, after one pass over at most sqrt(hi) cofactors.
    """
    h, N = query.h, query.N
    wa, wb = _lhs_windows(query.a, query.b, h, N)
    windows = {wa, wb}
    work = sum(-(-(hi - lo + 1) // _BLOCK)
               * _prime_count_bound(min(math.isqrt(hi), _factor_cap(k, hi)))
               for k, lo, hi in windows)
    if work > _SIEVE_WORK_LIMIT:
        raise ValueError(
            f"jordan tables for h = {h}, N = {N} need ~{work} (block, prime) "
            f"sieving steps, over the limit of {_SIEVE_WORK_LIMIT}")
    tables = sum(8 * (hi - lo + 1) for _, lo, hi in windows)
    temps = max(16 * min(_CHUNK, N), *(_table_bytes(hi, lo, _factor_cap(k, hi), patterned=False)
                                       - 8 * (hi - lo + 1) for k, lo, hi in windows))
    return wa, wb, tables, temps


def _chunk_sum(seg: np.ndarray, bits: np.ndarray) -> float:
    """The correctly rounded sum of at most _CHUNK float64 entries in
    [1/2, 1], bit for bit math.fsum's, from their IEEE bit patterns.

    Such an entry x has the pattern of 1/2 (1022 << 52) plus some y in
    [0, 2^52], and x = (2^52 + y) 2^-53 exactly, also at x = 1.0, where
    y = 2^52.  One wrapping uint64 subtraction gives every y; any other
    float64 (below 1/2, above 1, +-0, subnormal, infinite, NaN or
    negative) wraps or lands above 2^52, so one max is the whole range
    guard, and it or a longer chunk raises InternalAssertionError.  Runs
    of 2^11 y's sum to at most 2^63, so no uint64 wraps, and the exact
    total over 2^53 is one correctly rounded int division.  The y's are
    written to bits, a uint64 array of >= seg.size entries whose contents
    are overwritten.  An empty chunk sums to 0.0.
    """
    n = seg.size
    y = np.subtract(seg.view(np.uint64), 1022 << 52, out=bits[:n])
    if n > _CHUNK or y.max(initial=0) > 2**52:
        raise InternalAssertionError(
            f"an exact chunk sum needs at most {_CHUNK} summands in [1/2, 1], "
            f"got {n} in [{float(seg.min())!r}, {float(seg.max())!r}]")
    return (sum(np.add.reduceat(y, np.arange(0, n, 2**11)).tolist()) + n * 2**52) / 2**53


def lhs_sum(query: AsymptoticQuery) -> list[tuple[int, float]]:
    """Checkpointed partial sums of J_a(n)/n^a * J_b(n+h)/(n+h)^b.

    The ratios come from float64 tables over the windows that are
    summed, about [1, N] and [h+1, h+N] (see _lhs_windows), one per
    distinct window, so their memory does not depend on h; _ratio_array
    gives their error bound.  The charge counts 8 bytes per entry of
    each distinct window plus the temporaries of one block build or of
    one summation chunk, whichever is larger (see _lhs_plan, which also
    refuses a huge shift first).  Each chunk of at most _CHUNK products
    is formed in one buffer allocated per call, then summed exactly
    and rounded once by _chunk_sum, which needs every product in
    [1/2, 1]: the query has s >= 2 and a, b > 1 + s/2, so a, b >= 3 and
    every ratio is at least 1/zeta(3) > 0.83.  Each checkpoint is the
    fsum of the chunk sums so far, so results are identical run to run.
    """
    h, N = query.h, query.N
    wa, wb, tables, temps = _lhs_plan(query)
    _check_budget(f"jordan tables for [1, {N}] and [{h + 1}, {h + N}]", tables + temps)
    ra = _ratio_array(*wa)
    rb = _ratio_array(*wb)
    shift = h - wb[1]  # n + h sits at index n + shift of rb

    # one buffer per call: the products, and _chunk_sum's bit patterns
    buffer = np.empty((2, min(_CHUNK, N)), np.uint64)
    prods, bits = buffer[0].view(np.float64), buffer[1]
    out = []
    chunk_sums: list[float] = []
    prev = 1
    for mark in _lhs_checkpoints_of(N):
        for lo in range(prev, mark + 1, _CHUNK):
            hi = min(mark + 1, lo + _CHUNK)
            seg = np.multiply(ra[lo:hi], rb[lo + shift : hi + shift],
                              out=prods[: hi - lo])
            chunk_sums.append(_chunk_sum(seg, bits))
        out.append((mark, math.fsum(chunk_sums)))
        prev = mark + 1
    return out


def _product_bytes(c: int, P: int) -> int:
    """Peak bytes of _euler_product(c, P, local): the sieve's flags and
    int64 primes to _factor_cap(c, P), where its loop stops, and the
    list of Python ints that loop reads (an 8-byte slot and a 28-byte
    int per prime); local yields the factors one at a time."""
    cap = _factor_cap(c, P)
    return _primes_bytes(cap) + 36 * _prime_count_bound(cap)


def _euler_product(c: int, P: int, local) -> tuple[float, float]:
    """The product of local(primes), the factors at the primes to the
    cutoff P, which local yields from one generator (no Python call per
    prime), and a bound on the relative size of the omitted tail.  The
    caller shows that its factors are exactly 1.0 past _factor_cap(c, P),
    where the loop stops, so the value is the product to P bit for bit,
    and within 2 p^-c of 1 past P, c >= 2, so the tail is within
    exp(2 P^(1-c)/(c-1)) - 1 of 1 by integral comparison.  A factor
    outside (0, 2) raises InternalAssertionError."""
    primes = primes_upto(_factor_cap(c, P)).tolist()
    value = 1.0
    for p, factor in zip(primes, local(primes)):
        if not 0.0 < factor < 2.0:
            raise InternalAssertionError(
                f"local factor {factor!r} at p = {p} escapes (0, 2)")
        value *= factor
    return value, math.expm1(2.0 * P ** (1 - c) / (c - 1))


def rhs_product(query: AsymptoticQuery, level: int) -> EulerProductResult:
    """The level-t mean value of F_a(n) F_b(n+h), t = level, as an Euler
    product over the primes up to the cutoff: C at level 1, the paper's
    P at level s.

    The local factor at p is 1 - p^-(t+a) - p^-(t+b), plus p^-(t+a+b)
    when p^t | h, that is when p | m for h = m^t * k with k t-power-free
    (m and k are reported).  Every factor lies in [1 - 2 p^-c, 1) with
    c = t + min(a, b), the c _euler_product takes, so past
    _factor_cap(c, P) each factor is exactly 1.0, and the tail bound
    covers the primes of m above the cutoff.  A visited prime whose
    1.0 / p^x would overflow, x = t + a + b at a prime of m and
    t + max(a, b) elsewhere, is refused first; so is a level below 1.
    """
    t, a, b, P = level, query.a, query.b, query.prime_cutoff
    m, kfree = shift_decompose(query.h, t)
    e, c = t + a + b, t + min(a, b)
    cap = _factor_cap(c, P)
    if _over_guard(cap, e, _FLOAT_LIMIT):  # else no 1.0 / p**x below can overflow
        for p in primes_upto(cap).tolist():
            x = e if m % p == 0 else t + max(a, b)
            if _over_guard(p, x, _FLOAT_LIMIT):
                raise ValueError(f"the Euler factor at p = {p} needs p^{x} (level {t}, "
                                 f"a = {a}, b = {b}), past the 2^1024 float guard")
    value, tail_bound = _euler_product(c, P, lambda primes: (
        1.0 - 1.0 / p ** (t + a) - 1.0 / p ** (t + b)
        + (1.0 / p**e if m % p == 0 else 0.0) for p in primes))
    return EulerProductResult(value, tail_bound, m, kfree, P,
                              f"1 - p^-{t + a} - p^-{t + b} + p^-{e}",
                              f"1 - p^-{t + a} - p^-{t + b}")


def _verify_bytes(query: AsymptoticQuery) -> int:
    """Peak bytes asymptotic_verify charges: lhs_sum's tables, which its
    cache keeps alive while the product runs, plus the larger of their
    temporaries and the product's primes (_product_bytes), plus the
    call's own small objects.  factorize's table of trial primes, which
    grows on demand to at most 78,498 primes (0.63 MB) and lives for the
    whole process, is outside the charge."""
    _, _, tables, temps = _lhs_plan(query)
    c = query.s + min(query.a, query.b)
    return tables + max(temps, _product_bytes(c, query.prime_cutoff)) + _CALL_BYTES


def asymptotic_verify(query: AsymptoticQuery, tolerance: float = 0.02) -> AsymptoticReport:
    """Assemble the full report: summation checkpoints, product, ratios.

    converged means the final |ratio - 1| is below tolerance and
    |ratio - 1| did not increase across the last two checkpoints.
    _verify_bytes is charged before anything is built.  The tolerance
    must be finite and positive: NaN has no JSON form, and at infinity
    converged would ignore the ratio.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    _check_budget(f"jordan tables for [1, {query.N}] and [{query.h + 1}, "
                  f"{query.h + query.N}] and the Euler product to "
                  f"P = {query.prime_cutoff}", _verify_bytes(query))
    checkpoints = tuple(lhs_sum(query))
    rhs = rhs_product(query, query.s)
    ratios = []
    for n, v in checkpoints:
        rho = v / (n * rhs.value)
        if not math.isfinite(rho) or rho <= 0:
            raise InternalAssertionError(f"ratio {rho!r} at N = {n} is not usable")
        ratios.append((n, rho))
    errs = [abs(rho - 1.0) for _, rho in ratios]
    converged = errs[-1] < tolerance and (len(errs) < 2 or errs[-1] <= errs[-2])
    return AsymptoticReport(query, checkpoints, rhs, tuple(ratios), tolerance, converged)


def _crs_table(R: int, s: int, h: int) -> np.ndarray:
    """c_r^s(h) for r = 0..R (entry 0 is 0) as exact Python ints in an
    object table, so a large h or s cannot wrap a fixed-width integer.

    c_r^s(h) is multiplicative in r, and each prime power takes
    _crs_prime_power, the rule crs_fast multiplies, one Python int per
    prime.  crs_fast itself is not called, so the table's one-off prime
    powers leave its cache alone.
    """
    return multiplicative_table(
        R, lambda primes, e: [_crs_prime_power(s, h, p, e) for p in primes.tolist()], object)


def general_main_term(fhat: np.ndarray, ghat: np.ndarray, s: int, h: int) -> float:
    """sum_{r <= R} fhat[r] * ghat[r] * c_r^s(h) for coefficient tables
    fhat, ghat on r = 0..R, R = len(fhat) - 1 (entry 0 is ignored), as
    one fsum over the terms with a nonzero weight fhat[r] * ghat[r],
    read in chunks of _CHUNK terms (fsum is correctly rounded, so the
    chunking does not change the result).  The c_r^s(h) are exact ints
    from _crs_table.
    """
    if s < 1 or h < 1:
        raise ValueError(f"s and h must be >= 1, got {(s, h)}")
    if len(fhat) != len(ghat) or len(fhat) < 2:
        raise ValueError(
            f"coefficient tables must share a length >= 2, got {len(fhat)} and {len(ghat)}")
    weights = np.multiply(fhat[1:], ghat[1:])
    support = np.flatnonzero(weights)
    crs = _crs_table(len(fhat) - 1, s, h)
    chunks = (support[lo : lo + _CHUNK] for lo in range(0, len(support), _CHUNK))
    return math.fsum(chain.from_iterable(
        map(mul, weights[idx].tolist(), crs[idx + 1].tolist()) for idx in chunks))


def expansion_coefficients(s: int, power: int, R: int) -> np.ndarray:
    """The Jordan-ratio expansion coefficients
    r -> mu(r) / (J_{s+power}(r) * zeta(s+power)) for r = 0..R (entry 0
    is 0), as a read-only float64 table built by multiplicative_table.
    The value at a prime is -_reciprocals(k, primes), k = s + power: the
    correctly rounded -1 / (p^k - 1) from one numpy call, and -0.0 past
    k = 1075 with no power built, so a huge power returns at once.  Each
    entry is a product of omega(r) rounded factors, divided once by
    zeta."""
    if min(s, power, R) < 1:
        raise ValueError(f"s, power, R must be >= 1, got {(s, power, R)}")
    k = s + power
    out = multiplicative_table(
        R, lambda primes, e: -_reciprocals(k, primes) if e == 1 else np.zeros(len(primes)))
    out /= zeta(k)
    out.flags.writeable = False
    return out


def main_term(s: int, a: int, b: int, h: int, R: int) -> tuple[float, float]:
    """(series, product): the main-term series to R with the Jordan-ratio
    coefficients of a and b (one table serves both when b == a), and the
    level-s Euler product to the prime cutoff R.  After the hypotheses of
    AsymptoticQuery, the peak bytes, all alive at once, are charged: the
    coefficient tables, the c_r^s(h) table with 48 bytes per ~32-byte
    int, the weights and their support, 80 bytes per term of the chunk
    fsum reads, the product's primes to R and the call's small objects.
    The product, which refuses exponents past the float range, runs
    before any table is built."""
    query = AsymptoticQuery(s, a, b, h, 1, R)
    _check_budget(f"main-term tables to R = {R}",
                  (2 if b == a else 3) * _table_bytes(R) + 48 * R + 80 * min(R, _CHUNK)
                  + _product_bytes(s + min(a, b), R) + _CALL_BYTES)
    product = rhs_product(query, s).value
    fa = expansion_coefficients(s, a, R)
    fb = fa if b == a else expansion_coefficients(s, b, R)
    return general_main_term(fa, fb, s, h), product
