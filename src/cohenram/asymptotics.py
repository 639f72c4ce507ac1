"""Shifted convolution of Jordan totient ratios against its claimed
main term.

The summation side is

    L(N) = sum_{n <= N} J_a(n)/n^a * J_b(n+h)/(n+h)^b,

computed from float64 tables of the Jordan ratios.  The target side
is the truncated Euler product

    prod_{p | m} [(1 - p^-(s+a))(1 - p^-(s+b)) + (p^s - 1)/p^(a+b+2s)]
    * prod_{p not| m} [(1 - p^-(s+a))(1 - p^-(s+b)) - 1/p^(a+b+2s)],

where h = m^s * k with k s-power-free, plus the generic main-term
series sum_r fhat(r) ghat(r) c_r^s(h) for caller-supplied coefficient
tables.  ``asymptotic_verify`` reports the ratio trajectory
L(N)/(N * product) so agreement or disagreement is measured, not
assumed.

``joint_density_product`` is the constant L(N)/N actually tends to,

    C = prod_p (1 - p^-(a+1) - p^-(b+1) + [p | h] p^-(a+b+1)),

found by expanding J_k(n)/n^k = sum_{d | n} mu(d)/d^k in both factors
and counting joint divisibility.  It does not depend on s, and equals
the product above at s = 1.
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
    _ZETA_PRECISION,
    _check_budget,
    _prime_count_bound,
    _primes_bytes,
    _table_bytes,
    factorize,
    multiplicative_table,
    primes_upto,
    zeta,
)
from .cohen import crs_fast, shift_decompose

__all__ = [
    "AsymptoticQuery",
    "EulerProductSpec",
    "EulerProductResult",
    "AsymptoticReport",
    "lhs_sum",
    "rhs_product",
    "joint_density_product",
    "asymptotic_verify",
    "general_main_term",
    "expansion_coefficients",
]

_BUCKET = 4096  # window ends are rounded to multiples of this
# (block, sieving prime) pairs lhs_sum's table builds may visit: admits
# N up to about 2.9*10^8 with a small h; a window sieves no prime past
# _factor_cap, so a short N runs at any h that factorize accepts
_SIEVE_WORK_LIMIT = 10**7
_CHECK_R = 100  # asymptotic_verify re-checks c_r^s(h) = c_r^s(m^s) for r <= this
# bytes charged for each cache entry that check adds (about 200 measured)
_ENTRY_BYTES = 256


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
        if self.h < 1:
            raise ValueError(f"shift h must be >= 1, got {self.h}")
        if self.N < 1:
            raise ValueError(f"summation limit N must be >= 1, got {self.N}")
        if self.prime_cutoff < 1:
            raise ValueError(f"prime cutoff must be >= 1, got {self.prime_cutoff}")


@dataclass(frozen=True)
class EulerProductSpec:
    """Per-prime local factor formulas and the cutoff they are taken to."""

    prime_cutoff: int
    dividing_factor: str
    nondividing_factor: str


@dataclass(frozen=True)
class EulerProductResult:
    """Truncated product value with a certified bound on the omitted tail."""

    value: float
    tail_bound: float
    m: int
    k: int
    spec: EulerProductSpec

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "m": self.m,
            "k": self.k,
            "prime_cutoff": self.spec.prime_cutoff,
            "dividing_factor": self.spec.dividing_factor,
            "nondividing_factor": self.spec.nondividing_factor,
        }


@dataclass(frozen=True)
class AsymptoticReport:
    """Summation checkpoints, product value, and the ratio trajectory."""

    query: AsymptoticQuery
    m: int
    k: int
    lhs_checkpoints: tuple[tuple[int, float], ...]
    rhs: EulerProductResult
    ratios: tuple[tuple[int, float], ...]
    tolerance: float
    converged: bool
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "query": {"s": self.query.s, "a": self.query.a, "b": self.query.b,
                      "h": self.query.h, "N": self.query.N,
                      "prime_cutoff": self.query.prime_cutoff},
            "m": self.m,
            "k": self.k,
            "lhs_checkpoints": [[n, v] for n, v in self.lhs_checkpoints],
            "rhs": self.rhs.to_json_dict(),
            "ratios": [[n, v] for n, v in self.ratios],
            "tolerance": self.tolerance,
            "converged": self.converged,
            "notes": list(self.notes),
        }

    def plot_data(self) -> str:
        """Two whitespace-separated columns: N and ratio."""
        return "".join(f"{n} {rho!r}\n" for n, rho in self.ratios)


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


@lru_cache(maxsize=8)
def _ratio_array(k: int, lo: int, hi: int) -> np.ndarray:
    """J_k(n)/n^k = prod_{p | n} (1 - p^-k) for n = lo..hi as a read-only
    float64 table (the entry for n = 0 is 0): multiplicative_table capped
    at _factor_cap(k, hi), past which every factor is exactly 1.0.  An
    entry is a product of omega(n) rounded factors, within
    2 omega(n) 2^-53 relative of the exact value.  Memory is the output
    plus one block's temporaries and, past sqrt(hi), the values of the
    primes to the cap (at most 23,000 of them, at k = 3), one run bound
    per cofactor (at most sqrt(hi) < 2^18 of them) and one scatter group
    of 2^14 pairs, whatever lo is.
    """
    out = multiplicative_table(hi, lambda p, e: 1.0 - p ** -k, lo=lo, cap=_factor_cap(k, hi))
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
    larger of one build's temporaries and the summation's buffers (the
    products and _chunk_sum's hi and lo for one chunk, 24 bytes an
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
    temps = max(24 * min(_CHUNK, N), *(_table_bytes(hi, lo, _factor_cap(k, hi))
                                       - 8 * (hi - lo + 1) for k, lo, hi in windows))
    return wa, wb, tables, temps


def _chunk_sum(seg: np.ndarray, buffer: np.ndarray | None = None) -> float:
    """The correctly rounded sum of at most _CHUNK float64 entries in
    [1/2, 1], bit for bit math.fsum's, from two numpy sums (Dekker's
    splitting, Numer. Math. 18, 1971).

    Every such entry is a multiple of 2^-53.  Rounding it to a multiple
    of 2^-26 gives hi, and lo = entry - hi; both are exact, and
    |lo| <= 2^-27.  Over at most 2^16 entries every partial sum of the
    hi is at most 2^42 units of 2^-26, and every partial sum of the lo
    at most 2^42 units of 2^-53, so both numpy sums are exact in any
    order.  Adding the two is then a single rounding of the exact total.
    An entry outside [1/2, 1], a NaN or a longer chunk voids the
    argument and raises InternalAssertionError.  hi and lo are written to
    the two rows of buffer, a float64 array of shape (2, >= seg.size);
    without one they are allocated, 16 bytes an entry.
    """
    if seg.size > _CHUNK or not (seg.min() >= 0.5 and seg.max() <= 1.0):
        raise InternalAssertionError(
            f"an exact chunk sum needs at most {_CHUNK} summands in [1/2, 1], "
            f"got {seg.size} in [{float(seg.min())!r}, {float(seg.max())!r}]")
    if buffer is None:
        buffer = np.empty((2, seg.size))
    hi, lo = buffer[0, : seg.size], buffer[1, : seg.size]
    np.multiply(seg, 2.0**26, out=hi)
    np.rint(hi, out=hi)
    hi *= 2.0**-26
    np.subtract(seg, hi, out=lo)
    return float(hi.sum()) + float(lo.sum())


def lhs_sum(query: AsymptoticQuery, *, memory_budget: int | None = None,
            ) -> list[tuple[int, float]]:
    """Checkpointed partial sums of J_a(n)/n^a * J_b(n+h)/(n+h)^b.

    The ratios come from float64 tables over the windows that are
    summed, about [1, N] and [h+1, h+N] (see _lhs_windows), one per
    distinct window, so their memory does not depend on h; _ratio_array
    gives their error bound.  The budget counts 8 bytes per entry of
    each distinct window plus the temporaries of one block build or of
    one summation chunk, whichever is larger (see _lhs_plan, which also
    refuses a huge shift first).  Each chunk of at most _CHUNK products
    is formed in buffers allocated once per call, then summed exactly
    and rounded once by _chunk_sum, which needs every product in
    [1/2, 1]: the query has s >= 2 and a, b > 1 + s/2, so a, b >= 3 and
    every ratio is at least 1/zeta(3) > 0.83.  Each checkpoint is the
    fsum of the chunk sums so far, so results are identical run to run.
    """
    h, N = query.h, query.N
    wa, wb, tables, temps = _lhs_plan(query)
    _check_budget(f"jordan tables for [1, {N}] and [{h + 1}, {h + N}]",
                  tables + temps, memory_budget)
    ra = _ratio_array(*wa)
    rb = _ratio_array(*wb)
    shift = h - wb[1]  # n + h sits at index n + shift of rb

    # the products and _chunk_sum's hi and lo, allocated once per call
    size = min(_CHUNK, N)
    prods, hilo = np.empty(size), np.empty((2, size))
    out = []
    chunk_sums: list[float] = []
    prev = 1
    for mark in _lhs_checkpoints_of(N):
        for lo in range(prev, mark + 1, _CHUNK):
            hi = min(mark + 1, lo + _CHUNK)
            seg = np.multiply(ra[lo:hi], rb[lo + shift : hi + shift],
                              out=prods[: hi - lo])
            chunk_sums.append(_chunk_sum(seg, hilo))
        out.append((mark, math.fsum(chunk_sums)))
        prev = mark + 1
    return out


def _product_bytes(c: int, P: int) -> int:
    """Peak bytes of rhs_product with s + min(a, b) = c and the prime
    cutoff P: the sieve's flags and int64 primes to _factor_cap(c, P),
    where its loop stops, and the list of Python ints that loop reads
    (an 8-byte slot and a 28-byte int per prime)."""
    cap = _factor_cap(c, P)
    return _primes_bytes(cap) + 36 * _prime_count_bound(cap)


def rhs_product(query: AsymptoticQuery) -> EulerProductResult:
    """The truncated Euler product over primes up to the cutoff.

    The dividing-prime numerator is p^s - 1, which is the exact value
    c_p^s(m^s) of the prime-level Cohen-Ramanujan sum.  The omitted tail
    is bounded by exp(sum_{p > P} 2 p^-(s+min(a,b))) - 1 via integral
    comparison, and reported alongside the value.

    The loop stops at _factor_cap(s + min(a, b), P).  Past it both
    factors of the base and the subtracted 1/p^(a+b+2s) round away, and
    so does the added (p^s - 1)/p^(a+b+2s) < p^-(s+min(a,b)) at a
    dividing prime, so every omitted factor is exactly 1.0 and the value
    keeps every bit of the product to P.  The refusal of a prime of m
    above P, the reported cutoff and the tail bound still use P.
    """
    s, a, b, P = query.s, query.a, query.b, query.prime_cutoff
    m, kfree = shift_decompose(query.h, s)
    if m > 1:
        largest = factorize(m).factors[-1][0]
        if largest > P:
            raise ValueError(
                f"prime cutoff {P} is below {largest}, the largest prime of m = {m}")

    spec = EulerProductSpec(
        prime_cutoff=P,
        dividing_factor=(f"(1 - p^-{s + a})*(1 - p^-{s + b})"
                         f" + (p^{s} - 1)/p^{a + b + 2 * s}"),
        nondividing_factor=(f"(1 - p^-{s + a})*(1 - p^-{s + b})"
                            f" - 1/p^{a + b + 2 * s}"),
    )
    c = s + min(a, b)
    value = 1.0
    for p in primes_upto(_factor_cap(c, P)).tolist():
        base = (1.0 - 1.0 / p ** (s + a)) * (1.0 - 1.0 / p ** (s + b))
        if m % p == 0:
            factor = base + (p**s - 1) / p ** (a + b + 2 * s)
        else:
            factor = base - 1.0 / p ** (a + b + 2 * s)
        if not 0.0 < factor < 2.0:
            raise InternalAssertionError(
                f"local factor {factor!r} at p = {p} escapes (0, 2)")
        value *= factor

    tail_bound = math.expm1(2.0 * P ** (1 - c) / (c - 1))
    return EulerProductResult(value, tail_bound, m, kfree, spec)


def joint_density_product(query: AsymptoticQuery) -> EulerProductResult:
    """The mean value C of J_a(n)/n^a * J_b(n+h)/(n+h)^b as an Euler
    product over primes up to the cutoff.

    The local factor at p is the density-weighted sum over d, e in
    {1, p} of mu(d) mu(e)/(d^a e^b): d | n and e | n+h hold jointly
    with density 1/lcm(d, e) when gcd(d, e) | h, and never otherwise.
    So it is 1 - p^-(a+1) - p^-(b+1), plus p^-(a+b+1) when p | h.  The
    query's s plays no part; m = h and k = 1 are reported, the s = 1
    decomposition, because the dividing primes are those of h.

    Every omitted factor, whether or not p divides h, lies in
    [1 - 2 p^-(c+1), 1) with c = min(a, b), so the tail is bounded by
    exp(sum_{p > P} 2 p^-(c+1)) - 1 <= exp(2 P^-c / c) - 1 via integral
    comparison.  Primes of h above the cutoff are covered by this bound,
    not refused.  The loop stops at _factor_cap(c + 1, P), past which
    every factor is exactly 1.0, so the value is the product to P bit
    for bit.
    """
    a, b, h, P = query.a, query.b, query.h, query.prime_cutoff
    spec = EulerProductSpec(
        prime_cutoff=P,
        dividing_factor=f"1 - p^-{a + 1} - p^-{b + 1} + p^-{a + b + 1}",
        nondividing_factor=f"1 - p^-{a + 1} - p^-{b + 1}",
    )
    c = min(a, b)
    value = 1.0
    for p in primes_upto(_factor_cap(c + 1, P)).tolist():
        factor = 1.0 - 1.0 / p ** (a + 1) - 1.0 / p ** (b + 1)
        if h % p == 0:
            factor += 1.0 / p ** (a + b + 1)
        value *= factor

    tail_bound = math.expm1(2.0 * P ** -c / c)
    return EulerProductResult(value, tail_bound, h, 1, spec)


def _verify_bytes(query: AsymptoticQuery) -> int:
    """Peak bytes asymptotic_verify charges: lhs_sum's tables, which its
    cache keeps alive while the product runs, plus the larger of their
    temporaries and the product's primes (_product_bytes), plus the
    entries the reduction check adds to fresh crs_fast and factorize
    caches (two crs_fast keys and one factorize key per r) and the
    call's own small objects.  Entries already cached by earlier calls,
    and factorize's table of trial primes, which grows on demand to at
    most 78,498 primes (0.63 MB) and lives for the whole process, are
    outside the charge."""
    _, _, tables, temps = _lhs_plan(query)
    c = query.s + min(query.a, query.b)
    return (tables + max(temps, _product_bytes(c, query.prime_cutoff))
            + 3 * _CHECK_R * _ENTRY_BYTES + _CALL_BYTES)


def asymptotic_verify(query: AsymptoticQuery, tolerance: float = 0.02,
                      *, memory_budget: int | None = None) -> AsymptoticReport:
    """Assemble the full report: summation checkpoints, product, ratios.

    converged means the final |ratio - 1| is below tolerance and
    |ratio - 1| did not increase across the last two checkpoints.  The
    reduction c_r^s(h) = c_r^s(m^s) is re-verified for r <= 100 before
    any heavy work.  The memory budget is checked next, against
    _verify_bytes, before anything is built.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    m, kfree = shift_decompose(query.h, query.s)
    for r in range(1, _CHECK_R + 1):
        if crs_fast(r, query.s, query.h) != crs_fast(r, query.s, m**query.s):
            raise InternalAssertionError(
                f"c_r^s(h) != c_r^s(m^s) at r = {r} for h = {query.h}, s = {query.s}")

    _check_budget(f"jordan tables for [1, {query.N}] and [{query.h + 1}, "
                  f"{query.h + query.N}] and the Euler product to "
                  f"P = {query.prime_cutoff}", _verify_bytes(query), memory_budget)
    checkpoints = tuple(lhs_sum(query))
    rhs = rhs_product(query)
    ratios = []
    for n, v in checkpoints:
        rho = v / (n * rhs.value)
        if not math.isfinite(rho) or rho <= 0:
            raise InternalAssertionError(f"ratio {rho!r} at N = {n} is not usable")
        ratios.append((n, rho))
    errs = [abs(rho - 1.0) for _, rho in ratios]
    converged = errs[-1] < tolerance and (len(errs) < 2 or errs[-1] <= errs[-2])
    notes = (
        "dividing-prime local factor numerator is p^s - 1, the exact value "
        "of c_p^s(m^s) for p | m",
    )
    return AsymptoticReport(query, m, kfree, checkpoints, rhs, tuple(ratios),
                            tolerance, converged, notes)


def _crs_table(R: int, s: int, h: int) -> np.ndarray:
    """c_r^s(h) for r = 0..R (entry 0 is 0) as exact Python ints in an
    object table, so a large h or s cannot wrap a fixed-width integer.

    c_r^s(h) is multiplicative in r, and each prime power takes the rule
    crs_fast applies in closed form: c_{p^e}^s(h) = p^(se) - p^(s(e-1))
    if p^(se) | h, -p^(s(e-1)) if only p^(s(e-1)) | h, and 0 otherwise.
    crs_fast itself is not called, so the table's one-off prime powers
    leave its cache alone.
    """

    def local(p: int, e: int) -> int:
        below = p ** (s * (e - 1))
        if h % below:
            return 0
        return below * (p**s - 1) if h % (below * p**s) == 0 else -below

    return multiplicative_table(R, local, object)


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
    Each entry is a product of omega(r) rounded factors, divided once by
    zeta."""
    if min(s, power, R) < 1:
        raise ValueError(f"s, power, R must be >= 1, got {(s, power, R)}")
    k = s + power
    out = multiplicative_table(R, lambda p, e: -1 / (p**k - 1) if e == 1 else 0.0)
    out /= zeta(k, _ZETA_PRECISION)
    out.flags.writeable = False
    return out
