"""Evaluators for the Cohen-Ramanujan sum c_r^s(n) and the k-vector
exponential sum c^k(n, r), cross-validated against each other.

c_r^s(n) = sum over h = 1..r^s with (h, r^s)_s = 1 of e^(2*pi*i*n*h/r^s),
where (m, n)_s is the largest perfect s-th power dividing both.  Three
independent evaluation routes are provided:

* ``crs_direct``      -- the definition, term by term (slow, the oracle);
* ``crs_divisor_sum`` -- sum over d | r with d^s | n of d^s * mu(r/d);
* ``crs_fast``        -- multiplicative prime-power rule (production).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    _CHUNK, _EXACT_LIMIT, InternalAssertionError, _over_guard, divisors, factorize, mobius)

__all__ = [
    "CohenSumQuery",
    "RoundingAssertionError",
    "DIRECT_TERM_GUARD",
    "crs_direct",
    "crs_direct_spectrum",
    "crs_divisor_sum",
    "crs_fast",
    "shift_decompose",
    "kvector_sum",
    "evaluate",
]

DIRECT_TERM_GUARD = 10**7
_ROUND_TOL = 1e-6


class RoundingAssertionError(InternalAssertionError):
    """A float exponential sum failed to land on an integer."""


@dataclass(frozen=True)
class CohenSumQuery:
    """Arguments (r, s, n) of c_r^s(n): modulus index r >= 1, power
    parameter s >= 1, argument n >= 0."""

    r: int
    s: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 1 or self.n < 0:
            raise ValueError(f"need r >= 1, s >= 1, n >= 0, got {self}")


def _exp_sum(chunks: list[np.ndarray], context: str) -> int:
    """The sum of e^(i x) over the angles in chunks, rounded to an int:
    the cosines, then the sines, streamed into one fsum each, so the
    chunking changes no bit; off an integer it raises RoundingAssertionError."""
    re = math.fsum(itertools.chain.from_iterable(np.cos(c).tolist() for c in chunks))
    im = math.fsum(itertools.chain.from_iterable(np.sin(c).tolist() for c in chunks))
    v = round(re)
    if abs(im) >= _ROUND_TOL or abs(re - v) >= _ROUND_TOL:
        raise RoundingAssertionError(
            f"{context}: sum {re!r} + {im!r}j is not within {_ROUND_TOL} of an integer")
    return v


def _admissible(r: int, s: int) -> np.ndarray:
    """All h in 1..r^s with (h, r^s)_s = 1, as an int64 array.

    Since l^s | r^s iff l | r, the condition is: no prime p | r has
    p^s | h.  (Checked against the literal generalized-gcd filter in the
    test suite.)  Not memoized: near the guard one set is tens of MB,
    and building it costs a small share of the exponential sum that
    reads it.
    """
    m = r**s
    mask = np.ones(m + 1, dtype=bool)
    mask[0] = False
    for p, _ in factorize(r):
        mask[p**s :: p**s] = False
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def crs_direct(r: int, s: int, n: int) -> int:
    """c_r^s(n) straight from the definition.

    Sums e^(2*pi*i*n*h/r^s) over the admissible h, with fsum-compensated
    real/imaginary accumulation, and asserts the result is within 1e-6
    of an integer.  Guarded to r^s <= 10^7 terms.
    """
    if r < 1 or s < 1 or n < 0:
        CohenSumQuery(r, s, n)  # raises the ValueError naming the arguments
    if _over_guard(r, s, DIRECT_TERM_GUARD):
        raise ValueError(f"crs_direct guard: r^s = {r}^{s} exceeds {DIRECT_TERM_GUARD}")
    m = r**s
    h = _admissible(r, s)
    # reduce n*h mod r^s exactly before going to floats
    t = (n % m) * h % m
    ang = t * (2.0 * math.pi / m)
    return _exp_sum([ang[lo : lo + _CHUNK] for lo in range(0, ang.size, _CHUNK)],
                    f"crs_direct(r={r}, s={s}, n={n})")


def crs_direct_spectrum(r: int, s: int) -> np.ndarray:
    """c_r^s(n) for every residue n = 0..r^s-1 at once.

    Evaluates the same literal exponential sum as ``crs_direct`` for all
    n simultaneously (an FFT of the admissibility indicator), so it is
    just as independent of the multiplicative rule.  Same guard and
    rounding discipline.
    """
    if r < 1 or s < 1:
        raise ValueError(f"need r >= 1, s >= 1, got r={r}, s={s}")
    if _over_guard(r, s, DIRECT_TERM_GUARD):
        raise ValueError(f"crs_direct_spectrum guard: r^s = {r}^{s} exceeds {DIRECT_TERM_GUARD}")
    m = r**s
    indicator = np.zeros(m)
    indicator[_admissible(r, s) % m] = 1.0
    spec = np.conj(np.fft.fft(indicator))
    worst_im = float(np.max(np.abs(spec.imag))) if m > 1 else 0.0
    out = np.rint(spec.real)
    worst_re = float(np.max(np.abs(spec.real - out)))
    if worst_im >= _ROUND_TOL or worst_re >= _ROUND_TOL:
        raise RoundingAssertionError(
            f"crs_direct_spectrum(r={r}, s={s}): drift {worst_re!r} + {worst_im!r}j")
    return out.astype(np.int64)


def crs_divisor_sum(r: int, s: int, n: int) -> int:
    """c_r^s(n) as sum over d | r with d^s | n of d^s * mu(r/d).

    Exact integers throughout; the mid-speed oracle.  An r^s over
    _EXACT_LIMIT (14,284 bits) is refused from bit lengths first.
    """
    if r < 1 or s < 1 or n < 0:
        CohenSumQuery(r, s, n)  # raises the ValueError naming the arguments
    divs = divisors(r)  # refuses an r that is not an int
    if _over_guard(r, s, _EXACT_LIMIT):
        raise ValueError(f"crs_divisor_sum guard: r^s = {r}^{s} has more than 14284 bits")
    total = 0
    for d in divs:
        ds = d**s
        if n % ds == 0:  # n == 0 passes for every d, as it should
            total += ds * mobius(r // d)
    return total


def _crs_prime_power(s: int, n: int, p: int, e: int) -> int:
    """c_{p^e}^s(n) by Cohen's prime-power rule:

    c_{p^e}^s(n) = p^(se) - p^(s(e-1))  if p^(se) | n,
                 = -p^(s(e-1))          if p^(s(e-1)) | n but p^(se) does not,
                 = 0                    otherwise.
    """
    ps = p**s
    if e == 1:  # most r the evaluators meet are squarefree
        return ps - 1 if n % ps == 0 else -1
    below = ps ** (e - 1)
    if n % below:
        return 0
    return below * (ps - 1) if n % (below * ps) == 0 else -below


@lru_cache(maxsize=1 << 13, typed=True)
def crs_fast(r: int, s: int, n: int) -> int:
    """c_r^s(n) as the product over p^e || r of _crs_prime_power.

    This is the production evaluator.  The arguments are checked inline;
    building a CohenSumQuery on every call is a measurable share of the
    exact local-factor grid.  Memoized, since that grid repeats a few
    thousand (q, s, n^s) keys; the cache is typed, so a bool or float r
    is still refused rather than answered from an int key.  An r^s over
    _EXACT_LIMIT (14,284 bits) is refused from bit lengths first.
    """
    if r < 1 or s < 1 or n < 0:
        CohenSumQuery(r, s, n)  # raises the ValueError naming the arguments
    factors = factorize(r)  # refuses an r that is not an int
    if _over_guard(r, s, _EXACT_LIMIT):
        raise ValueError(f"crs_fast guard: r^s = {r}^{s} has more than 14284 bits")
    v = 1
    for p, e in factors:
        v *= _crs_prime_power(s, n, p, e)
    return v


def shift_decompose(h: int, s: int) -> tuple[int, int]:
    """Write h = m^s * k with k s-power-free; returns (m, k).

    m collects p^(e // s) over prime powers p^e || h, leaving
    k = prod p^(e mod s), which has every exponent below s.  The
    decomposition is unique.
    """
    if h < 1 or s < 1:
        raise ValueError(f"need h >= 1, s >= 1, got h={h}, s={s}")
    m = k = 1
    for p, e in factorize(h):
        m *= p ** (e // s)
        k *= p ** (e % s)
    return m, k


def kvector_sum(k: int, n: int, r: int) -> int:
    """Cohen's k-vector sum c^k(n, r).

    Enumerates all k-tuples (x_1..x_k) in [0, r)^k with
    gcd(x_1, ..., x_k, r) = 1 and sums e^(2*pi*i*n*(x_1+...+x_k)/r).
    The value does not depend on which residue system is used.
    Guarded to r^k <= 10^7 tuples.

    The tuples are read as flat indices 0..r^k - 1, _CHUNK at a time:
    their k base-r digits come from divmod, np.gcd against r picks the
    admissible ones, and n mod r times the digit sum mod r stays below
    r^2, so no int64 overflows.  Only the admissible angles are kept, as
    one float64 array per chunk; the cosines and then the sines are
    streamed from them into one fsum each by _exp_sum, and no list
    over every term is built.
    """
    if k < 1 or r < 1:
        raise ValueError(f"need k >= 1, r >= 1, got k={k}, r={r}")
    if _over_guard(r, k, DIRECT_TERM_GUARD):
        raise ValueError(f"kvector_sum guard: r^k = {r}^{k} exceeds {DIRECT_TERM_GUARD}")
    m = r**k
    step, nr = 2.0 * math.pi / r, n % r
    chunks = []
    for lo in range(0, m, _CHUNK):
        rest = np.arange(lo, min(lo + _CHUNK, m))
        common, total = r, 0  # gcd of r and the digits so far, and their sum
        for _ in range(k):
            rest, digit = np.divmod(rest, r)
            common, total = np.gcd(common, digit), total + digit
        chunks.append((nr * (total[common == 1] % r) % r) * step)
    return _exp_sum(chunks, f"kvector_sum(k={k}, n={n}, r={r})")


# evaluator name -> route, in the order the CLI offers them
_EVALUATORS = {"multiplicative": crs_fast, "divisor-sum": crs_divisor_sum, "direct": crs_direct}


def evaluate(query: CohenSumQuery, evaluator: str = "multiplicative") -> int:
    """c_r^s(n) at the query by the route _EVALUATORS names."""
    fn = _EVALUATORS.get(evaluator)
    if fn is None:
        raise ValueError(f"unknown evaluator {evaluator!r}; pick one of {', '.join(_EVALUATORS)}")
    value = fn(query.r, query.s, query.n)
    # every evaluator's guard has bounded r^s from bit lengths by now
    if abs(value) > query.r**query.s:
        raise InternalAssertionError(
            f"|c_r^s(n)| = {abs(value)} exceeds r^s for {query}")
    return value
