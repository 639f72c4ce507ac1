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

from .arith import _CHUNK, InternalAssertionError, factorize, divisors, mobius

__all__ = [
    "CohenSumQuery",
    "CohenSumValue",
    "RoundingAssertionError",
    "DIRECT_TERM_GUARD",
    "crs_direct",
    "crs_direct_spectrum",
    "crs_divisor_sum",
    "crs_fast",
    "shift_decompose",
    "crs_of_shift",
    "kvector_sum",
    "evaluate",
]

DIRECT_TERM_GUARD = 10**7
_ROUND_TOL = 1e-6
_EVALUATORS = ("direct", "divisor-sum", "multiplicative")


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


@dataclass(frozen=True)
class CohenSumValue:
    """An exact value of c_r^s(n) tagged with the route that produced it."""

    value: int
    evaluator: str

    def __post_init__(self) -> None:
        if self.evaluator not in _EVALUATORS:
            raise ValueError(f"unknown evaluator tag {self.evaluator!r}")


def _round_assert(re: float, im: float, context: str) -> int:
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
    for p, _ in factorize(r).factors:
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
    m = r**s
    if m > DIRECT_TERM_GUARD:
        raise ValueError(f"crs_direct guard: r^s = {m} exceeds {DIRECT_TERM_GUARD}")
    h = _admissible(r, s)
    # reduce n*h mod r^s exactly before going to floats
    t = (n % m) * h % m
    ang = t * (2.0 * math.pi / m)
    # fsum is correctly rounded, so reading _CHUNK terms at a time changes no bit
    chunks = [ang[lo : lo + _CHUNK] for lo in range(0, ang.size, _CHUNK)]
    re = math.fsum(itertools.chain.from_iterable(np.cos(c).tolist() for c in chunks))
    im = math.fsum(itertools.chain.from_iterable(np.sin(c).tolist() for c in chunks))
    return _round_assert(re, im, f"crs_direct(r={r}, s={s}, n={n})")


def crs_direct_spectrum(r: int, s: int) -> np.ndarray:
    """c_r^s(n) for every residue n = 0..r^s-1 at once.

    Evaluates the same literal exponential sum as ``crs_direct`` for all
    n simultaneously (an FFT of the admissibility indicator), so it is
    just as independent of the multiplicative rule.  Same guard and
    rounding discipline.
    """
    if r < 1 or s < 1:
        raise ValueError(f"need r >= 1, s >= 1, got r={r}, s={s}")
    m = r**s
    if m > DIRECT_TERM_GUARD:
        raise ValueError(f"crs_direct_spectrum guard: r^s = {m} exceeds {DIRECT_TERM_GUARD}")
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

    Exact integers throughout; the mid-speed oracle.
    """
    if r < 1 or s < 1 or n < 0:
        CohenSumQuery(r, s, n)  # raises the ValueError naming the arguments
    total = 0
    for d in divisors(r):
        ds = d**s
        if n % ds == 0:  # n == 0 passes for every d, as it should
            total += ds * mobius(r // d)
    return total


@lru_cache(maxsize=1 << 13, typed=True)
def crs_fast(r: int, s: int, n: int) -> int:
    """c_r^s(n) via multiplicativity in r and the prime-power rule:

    c_{p^e}^s(n) = p^(se) - p^(s(e-1))  if p^(se) | n,
                 = -p^(s(e-1))          if p^(s(e-1)) | n but p^(se) does not,
                 = 0                    otherwise.

    This is the production evaluator.  The arguments are checked inline;
    building a CohenSumQuery on every call is a measurable share of the
    exact local-factor grid.  Memoized, since that grid repeats a few
    thousand (q, s, n^s) keys; the cache is typed, so a bool or float r
    is still refused rather than answered from an int key.
    """
    if r < 1 or s < 1 or n < 0:
        CohenSumQuery(r, s, n)  # raises the ValueError naming the arguments
    v = 1
    for p, e in factorize(r).factors:
        pse = p ** (s * e)
        if n % pse == 0:
            v *= pse - pse // p**s
        elif n % (pse // p**s) == 0:
            v *= -(pse // p**s)
        else:
            return 0
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
    for p, e in factorize(h).factors:
        m *= p ** (e // s)
        k *= p ** (e % s)
    return m, k


def crs_of_shift(r: int, s: int, h: int) -> int:
    """c_r^s(h) evaluated through the reduction c_r^s(h) = c_r^s(m^s),
    where h = m^s * k with k s-power-free."""
    m, _ = shift_decompose(h, s)
    return crs_fast(r, s, m**s)


def kvector_sum(k: int, n: int, r: int) -> int:
    """Cohen's k-vector sum c^k(n, r).

    Enumerates all k-tuples (x_1..x_k) in [0, r)^k with
    gcd(x_1, ..., x_k, r) = 1 and sums e^(2*pi*i*n*(x_1+...+x_k)/r).
    The value does not depend on which residue system is used.
    Guarded to r^k <= 10^7 tuples.
    """
    if k < 1 or r < 1:
        raise ValueError(f"need k >= 1, r >= 1, got k={k}, r={r}")
    if r**k > DIRECT_TERM_GUARD:
        raise ValueError(f"kvector_sum guard: r^k = {r**k} exceeds {DIRECT_TERM_GUARD}")
    step = 2.0 * math.pi / r
    res, ims = [], []
    for xs in itertools.product(range(r), repeat=k):
        if math.gcd(*xs, r) == 1:
            ang = (n * sum(xs) % r) * step
            res.append(math.cos(ang))
            ims.append(math.sin(ang))
    return _round_assert(math.fsum(res), math.fsum(ims),
                         f"kvector_sum(k={k}, n={n}, r={r})")


def evaluate(query: CohenSumQuery, evaluator: str = "multiplicative") -> CohenSumValue:
    """Evaluate a query with the chosen route and tag the result."""
    fn = {"direct": crs_direct,
          "divisor-sum": crs_divisor_sum,
          "multiplicative": crs_fast}.get(evaluator)
    if fn is None:
        raise ValueError(f"unknown evaluator {evaluator!r}; pick one of {_EVALUATORS}")
    value = fn(query.r, query.s, query.n)
    if abs(value) > query.r**query.s:
        raise InternalAssertionError(
            f"|c_r^s(n)| = {abs(value)} exceeds r^s for {query}")
    return CohenSumValue(value, evaluator)
