"""Exact arithmetic primitives: factorization, scalar multiplicative
functions, zeta evaluation, and windowed multiplicative tables.

Everything here is deterministic.  The scalar functions work on plain
Python integers, so values like J_4(n) for n around 10**6 (which need
more than 64 bits) are exact; multiplicative_table builds a table over
any window in numpy floats, small ints or exact Python ints.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "InternalAssertionError",
    "MemoryBudgetError",
    "is_prime",
    "factorize",
    "divisors",
    "mobius",
    "jordan",
    "generalized_gcd",
    "tau_s",
    "divisor_sigma",
    "zeta",
    "zeta_upper_bound",
    "primes_upto",
    "multiplicative_table",
]


class InternalAssertionError(ArithmeticError):
    """A numeric self-check failed.  Signals a bug, never bad input."""


class MemoryBudgetError(ValueError):
    """A requested table would be charged more than _MEMORY_LIMIT bytes."""


# ---------------------------------------------------------------------------
# factorization

_FACTOR_LIMIT = 2**63
_TRIAL_LIMIT = 10**6
# Deterministic witness set for Miller-Rabin below 3.3e24, far beyond 2^63.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# (bound, every prime <= bound): one table for the whole process, held
# as int64 at 8 bytes a prime, against 40 for a list of Python ints; one
# tuple, replaced whole, so no reader pairs a bound with an older table
_trial: tuple[int, array] = (0, array("q"))


def _trial_primes(limit: int = _TRIAL_LIMIT) -> array:
    """Every prime up to at least min(limit, _TRIAL_LIMIT), increasing.

    The table grows to the next power of two above limit (capped at
    _TRIAL_LIMIT) when a call needs more, so it is rebuilt at most about
    twenty times, and never shrinks.  With no argument it is every prime
    up to _TRIAL_LIMIT.  The int64 buffer of primes_upto is copied as
    is, the same values as converting each entry.
    """
    global _trial
    bound, table = _trial
    if bound < min(limit, _TRIAL_LIMIT):
        bound = min(_TRIAL_LIMIT, 1 << limit.bit_length())
        table = array("q", primes_upto(bound).tobytes())
        _trial = bound, table
    return table


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (Eratosthenes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set; deterministic for n < 2^63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Non-trivial factor of an odd composite n (Brent's cycle finding).

    The parameter sweep is fixed, so the result is deterministic.
    """
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalAssertionError(f"rho parameter sweep exhausted on {n}")


def _factor_backend(n: int) -> list[tuple[int, int]]:
    out = []
    m = n
    for p in _trial_primes(math.isqrt(n)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        if m == 1:
            break
    if m > 1:
        if p * p > m or is_prime(m):
            out.append((m, 1))
        else:
            # the table held every prime <= min(sqrt(n), 10^6) and a
            # composite survivor has a prime factor <= sqrt(n), so n > 10^12
            # and every prime factor of the survivor is > 10^6
            stack, found = [m], {}
            while stack:
                t = stack.pop()
                if is_prime(t):
                    found[t] = found.get(t, 0) + 1
                    continue
                d = _pollard_rho(t)
                stack.extend((d, t // d))
            out.extend(sorted(found.items()))
    return sorted(out)


@lru_cache(maxsize=1 << 17)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime-power pairs (p, e) of n, 1 <= n < 2^63, by increasing p;
    () for n = 1.

    Trial division by the sieved primes up to min(sqrt(n), 10^6), from
    one table that grows with the numbers asked for (_trial_primes), so
    the first call at n near 10^6 sieves to 1024, not to 10^6.  A
    survivor is then prime, or has all its prime factors above 10^6 and
    goes to deterministic Miller-Rabin plus Pollard rho.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"factorize expects an integer, got {type(n).__name__}")
    if not 1 <= n < _FACTOR_LIMIT:
        raise ValueError(f"factorize requires 1 <= n < 2^63, got {n}")
    factors = tuple(_factor_backend(n))
    if math.prod(p**e for p, e in factors) != n:
        raise InternalAssertionError(f"{factors!r} does not factor {n}")
    return factors


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# scalar arithmetic functions

# the largest r^s the exact c_r^s evaluators and jordan build: 14,284 bits,
# within Python's 4,300-digit int-to-str limit, since 2^14284 < 10^4300
_EXACT_LIMIT = 2**14284 - 1
_FLOAT_LIMIT = 2**1024 - 2**970 - 1  # the largest int float() takes without overflow


def _over_guard(r: int, s: int, limit: int) -> bool:
    """Whether r^s > limit for ints r, s >= 1, from bit lengths first, so a
    huge s never builds r^s: with b = s * bit_length(r), 2^(b-s) <= r^s <
    2^b, so b < L = bit_length(limit) answers no and b - s >= L answers
    yes; only between is r^s, of fewer than 2L bits, built."""
    b, L = s * r.bit_length(), limit.bit_length()
    return b >= L and (b - s >= L or r**s > limit)


def mobius(n: int) -> int:
    """Mobius mu: 1 at n=1, (-1)^omega(n) for squarefree n, else 0."""
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


@lru_cache(maxsize=1 << 12, typed=True)
def jordan(k: int, n: int) -> int:
    """Jordan totient J_k(n) = n^k * prod_{p|n} (1 - p^-k), exactly.

    Computed as prod over prime powers p^e || n of (p^(ke) - p^(k(e-1))).
    J_1 is Euler's phi; J_k(n) also counts k-tuples mod n whose gcd with
    n is 1.  Memoized: the exact local-factor grid asks for the same few
    hundred values over and over.  The cache is typed, so jordan(2, True)
    still refuses the bool instead of returning the cached J_2(1).
    An n^k over _EXACT_LIMIT is refused from bit lengths first.
    """
    if k < 1:
        raise ValueError(f"jordan requires k >= 1, got {k}")
    factors = factorize(n)  # refuses an n that is not an int
    if _over_guard(n, k, _EXACT_LIMIT):  # J_k(n) < n^k
        raise ValueError(f"jordan guard: n^k = {n}^{k} has more than 14284 bits")
    v = 1
    for p, e in factors:
        v *= p ** (k * e) - p ** (k * (e - 1))
    return v


def generalized_gcd(m: int, n: int, s: int) -> int:
    """(m, n)_s: the largest perfect s-th power l^s dividing both m and n.

    Equals the largest s-th power dividing gcd(m, n); reduces to the
    ordinary gcd at s = 1.
    """
    if m < 1 or n < 1 or s < 1:
        raise ValueError(f"generalized_gcd requires positive arguments, got {(m, n, s)}")
    g = math.gcd(m, n)
    if s == 1:
        return g
    v = 1
    for p, e in factorize(g):
        v *= p ** (s * (e // s))
    return v


def tau_s(s: int, n: int) -> int:
    """Number of divisors of n that are perfect s-th powers.

    Equals prod over p^e || n of (floor(e/s) + 1); tau_s(1, n) is the
    number of divisors, and tau_s(s, n^s) = tau_s(1, n).
    """
    if s < 1:
        raise ValueError(f"tau_s requires s >= 1, got {s}")
    v = 1
    for _, e in factorize(n):
        v *= e // s + 1
    return v


def divisor_sigma(n: int) -> int:
    """Sum of divisors sigma(n)."""
    v = 1
    for p, e in factorize(n):
        v *= (p ** (e + 1) - 1) // (p - 1)
    return v


# ---------------------------------------------------------------------------
# Riemann zeta on integer arguments >= 2

_ZETA_PRECISION = 1e-12  # series truncation must dominate the error budget


@lru_cache(maxsize=64)
def zeta(z: int) -> float:
    """zeta(z) for integer z >= 2 to absolute precision _ZETA_PRECISION.

    Direct series sum_{n<=M} n^-z plus the Euler-Maclaurin tail
    M^(1-z)/(z-1) - M^-z/2; the first omitted term is ~ z*M^-(z+1)/12,
    and M is chosen to push it below _ZETA_PRECISION/2.
    """
    if z < 2:
        raise ValueError(f"zeta requires integer z >= 2, got {z}")
    cutoff = max(16, math.ceil((z / (3 * _ZETA_PRECISION)) ** (1.0 / (z + 1))))
    head = math.fsum(n ** float(-z) for n in range(1, cutoff + 1))
    tail = cutoff ** (1.0 - z) / (z - 1) - cutoff ** float(-z) / 2.0
    return head + tail


def zeta_upper_bound(z: int, cutoff: int = 100) -> Fraction:
    """A certified rational upper bound on zeta(z), z >= 2.

    sum_{n<=M} n^-z + M^(1-z)/(z-1) bounds the series from above because
    sum_{n>M} n^-z < integral_M^inf x^-z dx.
    """
    if z < 2:
        raise ValueError(f"zeta_upper_bound requires z >= 2, got {z}")
    head = sum(Fraction(1, n**z) for n in range(1, cutoff + 1))
    return head + Fraction(1, (z - 1) * cutoff ** (z - 1))


# ---------------------------------------------------------------------------
# multiplicative tables

_BLOCK = 1 << 16  # entries per block of a table build
# entries of a table, or of its prime sieve, refused whatever its charge:
# above every window _SIEVE_WORK_LIMIT admits at a, b <= 4 (N <= 4.22e8)
_TABLE_LIMIT = 1 << 29
_GROUP = 1 << 14  # (m, P) pairs per scatter group of a table build's large primes


def _power(x: np.ndarray, t: int) -> np.ndarray:
    """x^t elementwise for t >= 1, by one fixed sequence of squarings and
    multiplications by x (left-to-right binary powering); overflow gives
    inf silently.  The relative error is at most (t - 1) rounding units
    of x's dtype, as for any product of t copies of x."""
    out = x.copy()
    with np.errstate(over="ignore"):
        for bit in bin(t)[3:]:
            out *= out
            if bit == "1":
                out *= x
    return out


_LONG = np.finfo(np.longdouble)
# longdouble's unit roundoff where it has at least 64 significant bits and
# the 15-bit exponent of x87 extended or IEEE quad, else None
_ROUNDOFF = np.longdouble(_LONG.eps) / 2 if _LONG.nmant >= 63 and _LONG.minexp < -16380 else None
_UNDERFLOW = np.ldexp(np.longdouble(1), -16380) if _ROUNDOFF is not None else None


def _reciprocals(t: int, primes: np.ndarray) -> np.ndarray:
    """1 / (p^t - 1) for an int64 array of primes and t >= 1, as float64,
    bit for bit Python's correctly rounded 1 / (p**t - 1).

    p^t (by _power), p^t - 1 and the quotient q are computed in
    longdouble: t + 1 roundings, so q is within (t + 1) u of the exact
    value, u = _ROUNDOFF.  q is rounded to float64, and the result x is
    kept when |q - x| + (t + 2) u q + 2^-16380 is below half the gap
    from x down to the next float, which is never more than the gap up,
    so the exact value lies strictly between the two midpoints around x
    and rounds to x (A. Ziv, ACM TOMS 17(3), 1991).  The extra u covers
    second-order terms and the rounding of the bound itself; the
    absolute 2^-16380 covers a p^t that overflows longdouble (q = 0,
    exact value below 2^-16383) and a longdouble subnormal q.  Every
    other entry, under 1 % of them at t <= 12, is recomputed as the
    exact Python quotient, and so is every entry where longdouble is no
    wider than a double.  Past t = 1075 every value is below 2^-1075,
    half the least subnormal, and rounds to 0: zeros are returned and
    no power is built."""
    out = np.zeros(len(primes))
    if t > 1075:
        return out
    retry = range(len(primes))
    if _ROUNDOFF is not None:
        x = primes.astype(np.longdouble)
        q = _power(x, t)
        q -= 1
        np.divide(1, q, out=q)
        out[:] = q
        x[:] = out  # every mixed-dtype step is an assignment, so numpy needs no cast buffer
        np.subtract(q, x, out=x)  # exact: q and out agree to 53 bits
        np.abs(x, out=x)
        q *= (t + 2) * _ROUNDOFF
        q += _UNDERFLOW
        x += q
        x *= 2
        gap = np.nextafter(out, -np.inf)
        np.subtract(out, gap, out=gap)  # exact: the gap down to the next float
        q[:] = gap
        retry = np.flatnonzero(x >= q).tolist()
    for i in retry:
        out[i] = 1 / (int(primes[i]) ** t - 1)
    return out


def _iroot(n: int, e: int) -> int:
    """The largest r with r^e <= n, for 0 <= n < 2^65 and e >= 1, where
    the float estimate is within one of it."""
    r = int(n ** (1 / e))
    while r**e > n:
        r -= 1
    while (r + 1) ** e <= n:
        r += 1
    return r


def multiplicative_table(limit: int, local, dtype=np.float64, *, lo: int = 0,
                         cap: int | None = None) -> np.ndarray:
    """f(n) for n = lo..limit (f(0) = 0) of the multiplicative f whose
    values at p^e, for an increasing int64 array of primes p, are
    local(primes, e), as a numpy array of the given dtype.

    local runs once for e = 1 on the primes p <= min(sqrt(limit), cap)
    with a multiple in [lo, limit] (the sieving primes; one numpy test
    selects them, so local never sees the others), once for each e >= 2
    on those with p^e <= limit, and once for e = 1 on the primes in
    (sqrt(limit), cap].  It may return any sequence that numpy takes as
    the dtype.  In blocks of _BLOCK entries, every sieving prime, in
    increasing order, multiplies its multiples: by one scalar when its
    value is the same at every power p^e <= limit, else by a pattern
    with the value at p^e at the multiples of p^e.  Then each
    prime P in (sqrt(limit), cap] multiplies its value into its
    multiples n = m P, batched by cofactor: m <= limit // P < P, and for
    each m two searchsorted calls give the run of primes with m P in
    [lo, limit]; the runs are scattered in groups of _GROUP (m, P) pairs.
    Such a P is the largest prime of n and n has only one, so every
    entry takes its factors in increasing prime order and float tables
    are identical run to run; dtype=object keeps exact Python ints.
    Every prime above cap (default limit) must have the factor 1 at
    every power: it is not visited.  Peak memory is _table_bytes.  A
    window or a prime sieve of more than _TABLE_LIMIT = 2^29 entries is
    refused first.
    """
    cap = limit if cap is None else cap
    if max(limit - lo, cap) >= _TABLE_LIMIT:
        raise ValueError(f"a table over [{lo}, {limit}] with primes to {cap} "
                         f"exceeds the 2^29-entry table guard")
    out = np.empty(limit - lo + 1, dtype=dtype)
    primes = primes_upto(cap)
    n_small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    large, small = primes[n_small:], primes[:n_small]
    uprimes = small.astype(np.uint64)  # lo and block starts may pass 2^63 - 1
    touched = (uprimes - np.uint64(lo) % uprimes) % uprimes <= limit - lo  # first multiple
    small, uprimes = small[touched], uprimes[touched]
    powers = []  # powers[e - 1]: the values at p^e of small[:count], those with p^e <= limit
    patterned = np.zeros(small.size, dtype=bool)  # some power's value differs from p's
    count, e = small.size, 1
    while count:
        powers.append(np.asarray(local(small[:count], e), dtype=dtype))
        patterned[:count] |= powers[-1] != powers[0][:count]
        e += 1
        count = int(np.searchsorted(small, _iroot(limit, e), side="right"))
    if not patterned.any():  # one scalar per prime: the other powers are not read
        del powers[1:]
    small, patterned = small.tolist(), patterned.tolist()
    powers = [vals.tolist() for vals in powers]
    scratch = np.empty((min(_BLOCK, limit - lo + 1) + 1) // 2 if len(powers) > 1 else 0,
                       dtype=dtype)
    for start in range(lo, limit + 1, _BLOCK):
        stop = min(limit + 1, start + _BLOCK)
        seg = out[start - lo : stop - lo]
        seg.fill(1)
        first = (uprimes - np.uint64(start) % uprimes) % uprimes  # first multiple
        hit = first < stop - start
        for j, i in zip(np.flatnonzero(hit).tolist(), first[hit].tolist()):
            p = small[j]
            if not patterned[j]:
                seg[i::p] *= powers[0][j]
            else:  # pattern[t] multiplies n = start + i + t p
                pattern = scratch[: (stop - start - 1 - i) // p + 1]
                pattern.fill(powers[0][j])
                for e, vals in enumerate(powers[1:], 2):
                    if j >= len(vals):  # p^e > limit
                        break
                    pattern[(-start % p**e - i) // p :: p ** (e - 1)] = vals[j]
                seg[i::p] *= pattern
    if large.size:
        values = np.asarray(local(large, 1), dtype=dtype)
        cofactors = np.arange(max(1, -(-lo // int(large[-1]))), limit // int(large[0]) + 1)
        # each cofactor m's run of primes: large[first:first + runs] have m P in [lo, limit]
        first = np.searchsorted(large, -(-lo // cofactors))
        runs = np.searchsorted(large, limit // cofactors, side="right") - first
        ends = np.cumsum(runs)
        starts = ends - runs
        for g in range(0, int(runs.sum()), _GROUP):
            # the cofactors a..b-1 own pairs g..g + _GROUP - 1 of the runs laid end to end
            a, b = np.searchsorted(ends, [g, g + _GROUP - 1], side="right").tolist()
            b = min(b + 1, ends.size)
            skip = np.maximum(g - starts[a:b], 0)  # pairs taken by earlier groups
            taken = np.minimum(ends[a:b], g + _GROUP) - starts[a:b] - skip
            index = np.arange(taken.sum()) + np.repeat(
                first[a:b] + skip - (np.cumsum(taken) - taken), taken)
            np.multiply.at(out, np.repeat(cofactors[a:b], taken) * large[index] - lo, values[index])
    if lo == 0:
        out[0] = 0
    return out


def _prime_count_bound(x: int) -> int:
    """An upper bound on the number of primes <= x: 1.25506 x / ln x for
    x > 1 (Rosser and Schoenfeld, 1962)."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


def _primes_bytes(limit: int) -> int:
    """Peak bytes of primes_upto(limit): its flags plus the primes."""
    return limit + 1 + 8 * _prime_count_bound(limit)


def _table_bytes(limit: int, lo: int = 0, cap: int | None = None, patterned: bool = True) -> int:
    """Peak bytes of multiplicative_table(limit, local, dtype, lo=lo,
    cap=cap) for an 8-byte dtype (float64, or object pointers) and the
    locals of this package: the output, the primes to cap, and the
    largest of three stages whose temporaries never coexist.

    - The sieve's flags, cap + 1 bytes.
    - The skip mask: 25 bytes per sieving prime (its uint64 copy, two
      uint64 temporaries and the mask).
    - The build: 1 byte per sieving prime (the mask, kept); 109 per
      touched sieving prime, one with a multiple in the window (its
      uint64 copy, its Python int, value and pattern flag in lists, and
      its first multiple in a block with two temporaries); 88 per
      touched prime with a multiple in the block (its index and offset,
      as arrays and as Python ints); unless local is not patterned
      (the same value at every power), 40 per value at a power p^e,
      e >= 2 (array and list), and one block's pattern scratch; 48 per
      large prime, past sqrt(limit) (its value, and the two longdouble
      arrays and the float64 gaps of _reciprocals, which the lists of
      _crs_table's exact ints stay below); 104 per cofactor (its run of
      primes, and its share of a scatter group's run arrays); and, when
      there is a cofactor, 32 bytes per pair of the one group built.

    A run of L entries, the window or one block, has a multiple of every
    prime up to L, and each entry has fewer than log2(limit) / log2(L)
    prime factors above L, since such a prime exceeds
    2^(bit_length(L) - 1).  When L is below the last sieving prime y,
    the primes in (L, y] are charged at the smaller of that bound and
    twice the number a run at a random place has on average,
    L * sum_{L < p <= y} 1 / p < L (ln ln y - ln ln L + 1 / ln^2 L)
    (Mertens' theorem with Rosser and Schoenfeld's error terms).  The
    bound alone is about six times the touched primes of a short window
    far out, so the average, not a proof, is charged there."""

    def touching(run: int) -> int:  # sieving primes with a multiple in a run
        far = run * (limit.bit_length() // max(1, run.bit_length() - 1))
        if 3 <= run < top:
            ln = math.log(run)
            far = min(far, math.ceil(2 * run * (math.log(math.log(top)) - math.log(ln) + ln**-2)))
        return min(sieving, _prime_count_bound(run) + far)

    cap = limit if cap is None else cap
    entries, root = limit - lo + 1, math.isqrt(limit)
    block, top = min(_BLOCK, entries), min(root, cap)
    sieving = _prime_count_bound(top)
    touched = touching(entries)
    # p^e <= limit < 2^bits puts p below 2^ceil(bits / e)
    bits = limit.bit_length()
    powers = sum(min(touched, _prime_count_bound(min(top, 1 << -(-bits // e))))
                 for e in range(2, bits)) if patterned else 0
    large = _prime_count_bound(cap) if cap > root else 0
    cofactors = max(0, limit // (root + 1) - max(1, -(-lo // cap)) + 1) if large else 0
    build = (sieving + 109 * touched + 88 * touching(block) + 40 * powers
             + 4 * (block + 1) * patterned + 48 * large + 104 * cofactors
             + 32 * min(_GROUP, entries) * (cofactors > 0))
    return 8 * entries + 8 * _prime_count_bound(cap) + max(cap + 1, 25 * sieving, build)


_CHUNK = 1 << 16  # floats per fsum or exact chunk sum: fixes the reduction order
# bytes charged for the small objects of one charged call (array headers,
# closures, short lists), which no per-entry term counts: up to 15 KB measured
_CALL_BYTES = 20 << 10
_MEMORY_LIMIT = 2**32  # bytes one call may be charged: 4 GiB, a _TABLE_LIMIT float64 table


def _check_budget(what: str, need: int) -> None:
    """Refuse with MemoryBudgetError when need bytes exceed _MEMORY_LIMIT."""
    if need > _MEMORY_LIMIT:
        raise MemoryBudgetError(
            f"{what}: ~{need} bytes needed, over the {_MEMORY_LIMIT}-byte memory ceiling")
