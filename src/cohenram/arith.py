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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "FactoredInteger",
    "InternalAssertionError",
    "MemoryBudgetError",
    "is_prime",
    "factorize",
    "divisors",
    "mobius",
    "jordan",
    "generalized_gcd",
    "tau",
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
    """A requested table would exceed the allowed memory budget."""


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


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its full prime factorization.

    ``factors`` is ordered by increasing prime; ``value == 1`` iff it is
    empty.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 0
        for p, e in self.factors:
            if p < 2 or p <= prev or e < 1:
                raise ValueError(f"malformed factorization {self.factors!r}")
            prev = p
            prod *= p**e
        if prod != self.value or self.value < 1:
            raise ValueError(f"{self.factors!r} does not factor {self.value}")


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
def factorize(n: int) -> FactoredInteger:
    """Unique prime factorization of n, 1 <= n < 2^63.

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
    if n == 1:
        return FactoredInteger(1, ())
    return FactoredInteger(n, tuple(_factor_backend(n)))


def _coerce(n) -> FactoredInteger:
    return n if isinstance(n, FactoredInteger) else factorize(n)


def divisors(n) -> list[int]:
    """Sorted list of positive divisors."""
    fi = _coerce(n)
    out = [1]
    for p, e in fi.factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# scalar arithmetic functions

def mobius(n) -> int:
    """Mobius mu: 1 at n=1, (-1)^omega(n) for squarefree n, else 0."""
    fi = _coerce(n)
    if any(e > 1 for _, e in fi.factors):
        return 0
    return -1 if len(fi.factors) % 2 else 1


@lru_cache(maxsize=1 << 12, typed=True)
def jordan(k: int, n) -> int:
    """Jordan totient J_k(n) = n^k * prod_{p|n} (1 - p^-k), exactly.

    Computed as prod over prime powers p^e || n of (p^(ke) - p^(k(e-1))).
    J_1 is Euler's phi; J_k(n) also counts k-tuples mod n whose gcd with
    n is 1.  Memoized: the exact local-factor grid asks for the same few
    hundred values over and over.  The cache is typed, so jordan(2, True)
    still refuses the bool instead of returning the cached J_2(1).
    """
    if k < 1:
        raise ValueError(f"jordan requires k >= 1, got {k}")
    fi = _coerce(n)
    v = 1
    for p, e in fi.factors:
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
    for p, e in factorize(g).factors:
        v *= p ** (s * (e // s))
    return v


def tau_s(s: int, n) -> int:
    """Number of divisors of n that are perfect s-th powers.

    Equals prod over p^e || n of (floor(e/s) + 1); tau_s(n^s) = tau(n).
    """
    if s < 1:
        raise ValueError(f"tau_s requires s >= 1, got {s}")
    fi = _coerce(n)
    v = 1
    for _, e in fi.factors:
        v *= e // s + 1
    return v


def tau(n) -> int:
    """Number of divisors."""
    return tau_s(1, n)


def divisor_sigma(n) -> int:
    """Sum of divisors sigma(n)."""
    fi = _coerce(n)
    v = 1
    for p, e in fi.factors:
        v *= (p ** (e + 1) - 1) // (p - 1)
    return v


# ---------------------------------------------------------------------------
# Riemann zeta on integer arguments >= 2

@lru_cache(maxsize=64)
def zeta(z: int, precision: float = 1e-12, cutoff: int | None = None) -> float:
    """zeta(z) for integer z >= 2 to the requested absolute precision.

    Direct series sum_{n<=M} n^-z plus the Euler-Maclaurin tail
    M^(1-z)/(z-1) - M^-z/2; the first omitted term is ~ z*M^-(z+1)/12,
    and M is chosen to push it below precision/2.
    """
    if z < 2:
        raise ValueError(f"zeta requires integer z >= 2, got {z}")
    if not 0 < precision <= 1e-2:
        raise ValueError(f"unreasonable precision {precision}")
    if cutoff is None:
        cutoff = max(16, math.ceil((z / (3 * precision)) ** (1.0 / (z + 1))))
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
_GROUP = 1 << 14  # (m, P) pairs per scatter group of a table build's large primes


def multiplicative_table(limit: int, local, dtype=np.float64, *, lo: int = 0,
                         cap: int | None = None) -> np.ndarray:
    """f(n) for n = lo..limit (f(0) = 0) of the multiplicative f with
    f(p^e) = local(p, e), as a numpy array of the given dtype.

    First, in blocks of _BLOCK entries, every prime p <= min(sqrt(limit),
    cap), in increasing order, multiplies its multiples: by one scalar
    when local(p, e) equals local(p, 1) at every power p^e <= limit, else
    by a pattern with local(p, e) at the multiples of p^e.  Then each
    prime P in (sqrt(limit), cap] multiplies local(P, 1) into its
    multiples n = m P, batched by cofactor: m <= limit // P < P, and for
    each m two searchsorted calls give the run of primes with m P in
    [lo, limit]; the runs are scattered in groups of _GROUP (m, P) pairs.
    Such a P is the largest prime of n and n has only one, so every
    entry takes its factors in increasing prime order and float tables
    are identical run to run; dtype=object keeps exact Python ints.
    Every prime above cap (default limit) must have the factor 1 at
    every power: it is not visited.  local is called once per prime and
    power.  Peak memory is _table_bytes.
    """
    cap = limit if cap is None else cap
    out = np.empty(limit - lo + 1, dtype=dtype)
    primes = primes_upto(cap)
    n_small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    large, small = primes[n_small:], primes[:n_small].tolist()
    uprimes = primes[:n_small].astype(np.uint64)  # block starts may pass 2^63 - 1
    powers = []  # local(p, e) at every power p^e <= limit, or one value if all equal
    for p in small:
        vals, q = [local(p, 1)], p * p
        while q <= limit:
            vals.append(local(p, len(vals) + 1))
            q *= p
        powers.append(vals[:1] if vals.count(vals[0]) == len(vals) else vals)
    patterned = any(len(vals) > 1 for vals in powers)  # else no pattern scratch
    scratch = np.empty((min(_BLOCK, limit - lo + 1) + 1) // 2 if patterned else 0, dtype=dtype)
    for start in range(lo, limit + 1, _BLOCK):
        stop = min(limit + 1, start + _BLOCK)
        seg = out[start - lo : stop - lo]
        seg.fill(1)
        first = (uprimes - np.uint64(start) % uprimes) % uprimes  # first multiple
        hit = first < stop - start
        for j, i in zip(np.flatnonzero(hit).tolist(), first[hit].tolist()):
            p, vals = small[j], powers[j]
            if len(vals) == 1:  # a sieving prime has p^2 <= limit: all values equal
                seg[i::p] *= vals[0]
            else:  # pattern[t] multiplies n = start + i + t p
                pattern = scratch[: (stop - start - 1 - i) // p + 1]
                pattern.fill(vals[0])
                for e, v in enumerate(vals[1:], 2):
                    pattern[(-start % p**e - i) // p :: p ** (e - 1)] = v
                seg[i::p] *= pattern
    if large.size:
        values = np.array([local(p, 1) for p in large.tolist()], dtype=dtype)
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


def _table_bytes(limit: int, lo: int = 0, cap: int | None = None) -> int:
    """Peak bytes of multiplicative_table(limit, local, dtype, lo=lo,
    cap=cap) for an 8-byte dtype (float64, or object pointers): the
    output; the primes to cap; 176 bytes per sieving prime (its Python
    int, its list of local values, its offsets in a block); one block's
    pattern scratch and 96 bytes per sieving prime with a multiple in
    the block (that offset as a Python int); 88 bytes per large prime
    (its value, and the Python lists of ints and values it is built
    from); 104 bytes per cofactor (its run of primes, and its share of a
    scatter group's run arrays); and 32 bytes per pair of one group.

    A block of L entries holds multiples of at most pi(L) primes <= L,
    and each entry has fewer than log2(limit) / log2(L) prime factors
    above L, since such a prime exceeds 2^(bit_length(L) - 1)."""
    cap = limit if cap is None else cap
    entries, root = limit - lo + 1, math.isqrt(limit)
    block = min(_BLOCK, entries)
    sieving = _prime_count_bound(min(root, cap))
    hits = min(sieving, _prime_count_bound(block)
               + block * (limit.bit_length() // max(1, block.bit_length() - 1)))
    large = _prime_count_bound(cap) if cap > root else 0
    cofactors = max(0, limit // (root + 1) - max(1, -(-lo // cap)) + 1) if large else 0
    return (8 * entries + _primes_bytes(cap) + 176 * sieving + 4 * (block + 1) + 96 * hits
            + 88 * large + 104 * cofactors + 32 * min(_GROUP, entries))


_CHUNK = 1 << 16  # floats per fsum or exact chunk sum: fixes the reduction order
# bytes charged for the small objects of one budgeted call (array headers,
# closures, short lists), which no per-entry term counts: a few KB measured
_CALL_BYTES = 1 << 14
_ZETA_PRECISION = 1e-12  # series truncation must dominate the error budget


def _check_budget(what: str, need: int, budget: int | None) -> None:
    """Refuse with MemoryBudgetError when need bytes exceed a set budget."""
    if budget is not None and need > budget:
        raise MemoryBudgetError(
            f"{what}: ~{need} bytes needed, budget allows {budget}")
