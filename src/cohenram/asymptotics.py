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
functions.  ``asymptotic_verify`` reports the ratio trajectory
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
from typing import Callable

import numpy as np

from .arith import (
    InternalAssertionError,
    MemoryBudgetError,
    _bucket,
    _table_bytes,
    factorize,
    jordan,
    mobius,
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

_CHUNK = 1 << 16  # fixed chunk size keeps the reduction order deterministic
_ZETA_PRECISION = 1e-12


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

    def to_csv(self) -> str:
        lines = ["N,lhs,N_times_rhs,ratio"]
        for (n, v), (_, rho) in zip(self.lhs_checkpoints, self.ratios):
            lines.append(f"{n},{v!r},{n * self.rhs.value!r},{rho!r}")
        return "\n".join(lines) + "\n"

    def plot_data(self) -> str:
        """Two whitespace-separated columns: N and ratio."""
        return "".join(f"{n} {rho!r}\n" for n, rho in self.ratios)


@lru_cache(maxsize=8)
def _ratio_array(k: int, bucket: int) -> np.ndarray:
    """J_k(n)/n^k = prod_{p | n} (1 - p^-k) for n = 0..bucket as float64
    (entry 0 is 0), built by multiplicative_table.  Each entry is a
    product of omega(n) rounded factors, within 2 omega(n) 2^-53
    relative of the exact value."""
    out = multiplicative_table(bucket, lambda p, e: 1.0 - p ** -k)
    out.flags.writeable = False
    return out


def _lhs_checkpoints_of(N: int) -> list[int]:
    return sorted({c for c in (10**4, 10**5, 10**6) if c < N} | {N})


def lhs_sum(query: AsymptoticQuery, *, memory_budget: int | None = None,
            ) -> list[tuple[int, float]]:
    """Checkpointed partial sums of J_a(n)/n^a * J_b(n+h)/(n+h)^b.

    The ratios come from float64 tables to N+h built by
    multiplicative_table (see _ratio_array for their error bound), one
    table per distinct exponent; the budget counts those tables and the
    scratch of multiplicative_table.  Accumulation is fsum-compensated
    over fixed-size chunks, so results are identical run to run.
    """
    a, b, h, N = query.a, query.b, query.h, query.N
    bucket = _bucket(N + h)
    if memory_budget is not None:
        need = _table_bytes(bucket, 8) + (8 * (bucket + 1) if a != b else 0)
        if need > memory_budget:
            raise MemoryBudgetError(
                f"jordan tables to {N + h} need ~{need} bytes, "
                f"budget allows {memory_budget}")
    ra = _ratio_array(a, bucket)
    rb = ra if a == b else _ratio_array(b, bucket)

    out = []
    chunk_sums: list[float] = []
    prev = 1
    for mark in _lhs_checkpoints_of(N):
        for lo in range(prev, mark + 1, _CHUNK):
            hi = min(mark + 1, lo + _CHUNK)
            seg = ra[lo:hi] * rb[lo + h : hi + h]
            chunk_sums.append(math.fsum(seg.tolist()))
        out.append((mark, math.fsum(chunk_sums)))
        prev = mark + 1
    return out


def rhs_product(query: AsymptoticQuery) -> EulerProductResult:
    """The truncated Euler product over primes up to the cutoff.

    The dividing-prime numerator is p^s - 1, which is the exact value
    c_p^s(m^s) of the prime-level Cohen-Ramanujan sum.  The omitted tail
    is bounded by exp(sum_{p > P} 2 p^-(s+min(a,b))) - 1 via integral
    comparison, and reported alongside the value.
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
    value = 1.0
    for p in primes_upto(P).tolist():
        base = (1.0 - 1.0 / p ** (s + a)) * (1.0 - 1.0 / p ** (s + b))
        if m % p == 0:
            factor = base + (p**s - 1) / p ** (a + b + 2 * s)
        else:
            factor = base - 1.0 / p ** (a + b + 2 * s)
        if not 0.0 < factor < 2.0:
            raise InternalAssertionError(
                f"local factor {factor!r} at p = {p} escapes (0, 2)")
        value *= factor

    c = s + min(a, b)
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
    not refused.
    """
    a, b, h, P = query.a, query.b, query.h, query.prime_cutoff
    spec = EulerProductSpec(
        prime_cutoff=P,
        dividing_factor=f"1 - p^-{a + 1} - p^-{b + 1} + p^-{a + b + 1}",
        nondividing_factor=f"1 - p^-{a + 1} - p^-{b + 1}",
    )
    value = 1.0
    for p in primes_upto(P).tolist():
        factor = 1.0 - 1.0 / p ** (a + 1) - 1.0 / p ** (b + 1)
        if h % p == 0:
            factor += 1.0 / p ** (a + b + 1)
        value *= factor

    c = min(a, b)
    tail_bound = math.expm1(2.0 * P ** -c / c)
    return EulerProductResult(value, tail_bound, h, 1, spec)


def asymptotic_verify(query: AsymptoticQuery, tolerance: float = 0.02,
                      *, memory_budget: int | None = None) -> AsymptoticReport:
    """Assemble the full report: summation checkpoints, product, ratios.

    converged means the final |ratio - 1| is below tolerance and
    |ratio - 1| did not increase across the last two checkpoints.  The
    reduction c_r^s(h) = c_r^s(m^s) is re-verified for r <= 100 before
    any heavy work.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    m, kfree = shift_decompose(query.h, query.s)
    for r in range(1, 101):
        if crs_fast(r, query.s, query.h) != crs_fast(r, query.s, m**query.s):
            raise InternalAssertionError(
                f"c_r^s(h) != c_r^s(m^s) at r = {r} for h = {query.h}, s = {query.s}")

    checkpoints = tuple(lhs_sum(query, memory_budget=memory_budget))
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


def general_main_term(fhat: Callable[[int], float], ghat: Callable[[int], float],
                      s: int, h: int, R: int) -> float:
    """sum_{r <= R} fhat(r) * ghat(r) * c_r^s(h) for caller-supplied
    coefficient functions."""
    if s < 1 or h < 1 or R < 1:
        raise ValueError(f"s, h, R must be >= 1, got {(s, h, R)}")
    terms = []
    for r in range(1, R + 1):
        c = fhat(r) * ghat(r)
        if c:
            terms.append(c * crs_fast(r, s, h))
    return math.fsum(terms)


def expansion_coefficients(s: int, power: int) -> Callable[[int], float]:
    """The Jordan-ratio expansion coefficients
    r -> mu(r) / (J_{s+power}(r) * zeta(s+power))."""
    if s < 1 or power < 1:
        raise ValueError(f"s and power must be >= 1, got {(s, power)}")
    z = zeta(s + power, _ZETA_PRECISION)

    def fhat(r: int) -> float:
        fi = factorize(r)
        mu = mobius(fi)
        if not mu:
            return 0.0
        return mu / (jordan(s + power, fi) * z)

    return fhat
