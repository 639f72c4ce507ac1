import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohenram.arith import (factorize, jordan, mobius, multiplicative_table, primes_upto, tau_s,
                            zeta)
from cohenram.cohen import crs_fast, shift_decompose
from cohenram.asymptotics import (
    AsymptoticQuery,
    asymptotic_verify,
    expansion_coefficients,
    general_main_term,
    lhs_sum,
    main_term,
    rhs_product,
)
from cohenram import arith, asymptotics, cli
from cohenram.asymptotics import (
    _CHUNK, _chunk_sum, _crs_table, _euler_product, _factor_cap, _lhs_plan, _lhs_windows,
    _ratio_array, _ratio_factors)
from cohenram.arith import (
    _CALL_BYTES, _MEMORY_LIMIT, _TABLE_LIMIT, InternalAssertionError, MemoryBudgetError,
    _table_bytes)


def naive_lhs(a, b, h, N):
    """Per-n factorization loop; the independent summation oracle."""
    return math.fsum((jordan(a, n) / n**a) * (jordan(b, n + h) / (n + h) ** b)
                     for n in range(1, N + 1))


# ---------------------------------------------------------------------------
# hypothesis enforcement at construction

def test_query_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AsymptoticQuery(1, 3, 3, 1, 10)       # s must exceed 1
    with pytest.raises(ValueError):
        AsymptoticQuery(2, 2, 3, 1, 10)       # a = 2 fails a > 1 + s/2 = 2
    with pytest.raises(ValueError):
        AsymptoticQuery(2, 3, 2, 1, 10)
    with pytest.raises(ValueError):
        AsymptoticQuery(4, 3, 3, 1, 10)       # a = 3 = 1 + 4/2 is not enough
    with pytest.raises(ValueError):
        AsymptoticQuery(2, 3, 3, 0, 10)
    with pytest.raises(ValueError, match=r"in \[1, 2\^63\)"):
        AsymptoticQuery(2, 3, 3, 2**63, 10)   # past factorize's range
    with pytest.raises(ValueError):
        AsymptoticQuery(2, 3, 3, 1, 0)
    AsymptoticQuery(2, 3, 3, 2**63 - 1, 10)
    AsymptoticQuery(2, 3, 3, 1, 10)           # boundary-clearing case is fine


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 8), st.integers(0, 8))
def test_query_hypothesis_boundary(s, a, b):
    ok = 2 * a > 2 + s and 2 * b > 2 + s
    if ok:
        AsymptoticQuery(s, a, b, 1, 10)
    else:
        with pytest.raises(ValueError):
            AsymptoticQuery(s, a, b, 1, 10)


# ---------------------------------------------------------------------------
# summation side

def test_lhs_single_term():
    for h in (1, 5, 12):
        got = lhs_sum(AsymptoticQuery(2, 3, 4, h, 1))
        want = jordan(4, 1 + h) / (1 + h) ** 4  # J_3(1) = 1
        assert got == [(1, pytest.approx(want, rel=1e-15))]


def test_lhs_checkpoints_increasing():
    pts = lhs_sum(AsymptoticQuery(2, 3, 3, 12, 25000))
    assert [n for n, _ in pts] == [10**4, 25000]
    vals = [v for _, v in pts]
    assert vals[0] < vals[1]  # all terms positive


def test_lhs_matches_naive_factorization_loop():
    # a near shift, a far one (h = 10^6 + 7 reads a separate window), and
    # the shifts either side of where the two windows merge: at N = 2000
    # the a-side window is [0, 4096] and the b-side one starts at
    # (h + 1) rounded down to a multiple of 4096, inside it up to h = 8190
    assert _lhs_windows(3, 4, 8190, 2000) == ((3, 0, 12288), (4, 0, 12288))
    assert _lhs_windows(3, 4, 8191, 2000) == ((3, 0, 4096), (4, 8192, 12288))
    for a, b, h in [(3, 3, 12), (3, 4, 10**6 + 7), (3, 3, 10**6 + 7),
                    (3, 4, 8190), (3, 4, 8191)]:
        got = dict(lhs_sum(AsymptoticQuery(2, a, b, h, 2000)))[2000]
        want = naive_lhs(a, b, h, 2000)
        assert abs(got - want) <= 1e-9 * want, (a, b, h)


def test_lhs_huge_shift(monkeypatch):
    # the tables cover [1, 10] and a window at 10^12, not [0, 10^12 + 10]
    with monkeypatch.context() as m:
        m.setattr(arith, "_MEMORY_LIMIT", 10**7)
        got = lhs_sum(AsymptoticQuery(2, 3, 4, 10**12, 10))
    want = naive_lhs(3, 4, 10**12, 10)
    assert got[0][0] == 10 and got[0][1] == pytest.approx(want, rel=1e-12)
    # no window sieves past _factor_cap, so a short sum runs at any shift
    for h in (10**17, 2**62 + 7):
        got = lhs_sum(AsymptoticQuery(2, 3, 4, h, 10))
        assert got[0][1] == pytest.approx(naive_lhs(3, 4, h, 10), rel=1e-12), h
    # a sum past the sieving-work limit is refused before any table is built
    with pytest.raises(ValueError, match="sieving steps"):
        lhs_sum(AsymptoticQuery(2, 3, 4, 12, 10**9))


@pytest.mark.parametrize("a, b", [(3, 3), (3, 4), (4, 4)])
@pytest.mark.parametrize("h", [1, 12, 10**6, 10**12])
def test_table_guard_admits_what_the_sieve_guard_admits(a, b, h):
    # at a, b in {3, 4} the sieving-work limit refuses every N whose
    # windows reach _TABLE_LIMIT entries (the work grows with N), so the
    # table guard never refuses an N that limit admits there; nor does the
    # memory ceiling, which charges the longest admitted N at most 3.14 GiB
    def longest(N):
        return max(hi - lo + 1 for _, lo, hi in _lhs_windows(a, b, h, N))

    def admitted(N):
        try:
            _lhs_plan(AsymptoticQuery(2, a, b, h, N))
        except ValueError:
            return False
        return True

    lo, hi = 1, _TABLE_LIMIT
    while lo < hi:  # the least N with a window of _TABLE_LIMIT entries
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if longest(mid) < _TABLE_LIMIT else (lo, mid)
    assert longest(lo) >= _TABLE_LIMIT > longest(lo - 1)
    with pytest.raises(ValueError, match="sieving steps"):
        lhs_sum(AsymptoticQuery(2, a, b, h, lo))
    first, last = 1, lo
    while first < last:  # the longest N the sieving-work limit admits
        mid = (first + last + 1) // 2
        first, last = (mid, last) if admitted(mid) else (first, mid - 1)
    assert admitted(first) and not admitted(first + 1)
    _, _, tables, temps = _lhs_plan(AsymptoticQuery(2, a, b, h, first))
    assert tables + temps + _CALL_BYTES <= _MEMORY_LIMIT


def test_lhs_memory_budget(monkeypatch):
    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 1000)
    with pytest.raises(MemoryBudgetError, match="ceiling"):
        lhs_sum(AsymptoticQuery(2, 3, 3, 1, 10**6))


def test_lhs_budget_counts_float_tables(monkeypatch):
    # one float64 table on [0, 102400] plus one block build's temporaries
    # (larger than one summation chunk's products, hi and lo) is ~3.6 MB
    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 4_000_000)
    got = lhs_sum(AsymptoticQuery(2, 3, 3, 1, 10**5))
    assert got[-1][0] == 10**5


# L(N) checkpoints as float.hex, recorded when every chunk was summed
# with math.fsum over its Python floats: the README reference
# configurations, a shifted-far shift (h >= 10 N) and a huge shift
LHS_PINS = {
    (2, 3, 3, 12, 10**6): [(10**4, "0x1.0c09da99bede8p+13"),
                           (10**5, "0x1.4f0c323e6bfaap+16"),
                           (10**6, "0x1.a2cf3ad009f84p+19")],
    (2, 4, 3, 4, 10**6): [(10**4, "0x1.170874f80097bp+13"),
                          (10**5, "0x1.5cca6d3163270p+16"),
                          (10**6, "0x1.b3fd03b2c9c29p+19")],
    (2, 3, 4, 1014185, 10**5): [(10**4, "0x1.15d5f75308d66p+13"),
                                (10**5, "0x1.5b4b6c120c68ep+16")],
    (2, 3, 4, 10**12, 10): [(10, "0x1.1e341725943d4p+3")],
    # recorded when the sieving primes still ran to sqrt(N + h)
    (2, 3, 4, 10**14, 10): [(10, "0x1.1e332626afb46p+3")],
    (2, 3, 4, 10**16, 10): [(10, "0x1.1e309c4886dbfp+3")],
}


@pytest.mark.parametrize("key", list(LHS_PINS))
def test_lhs_checkpoints_are_pinned_bit_for_bit(key):
    got = lhs_sum(AsymptoticQuery(*key))
    assert [(n, v.hex()) for n, v in got] == LHS_PINS[key]


def _fsum_hex(seg):
    return math.fsum(seg.tolist()).hex()


def test_chunk_sum_matches_fsum_on_every_lhs_chunk(monkeypatch):
    sizes = []

    def checked(seg, bits):
        want = _fsum_hex(seg)
        got = _chunk_sum(seg, bits)
        assert got.hex() == want
        sizes.append(seg.size)
        return got

    monkeypatch.setattr(asymptotics, "_chunk_sum", checked)
    for key in list(LHS_PINS)[:3]:
        lhs_sum(AsymptoticQuery(*key))
    # 1 + 2 + 14 chunks at N = 10^6 (checkpoints 10^4, 10^5), 1 + 2 at 10^5
    assert len(sizes) == 2 * 17 + 3 and max(sizes) == _CHUNK


def _edge_chunks():
    """Chunks at the edges of _chunk_sum's range; the first two have
    2^16 - 1 ones and one 1/2 + 2^-38 or 1/2 + 3 * 2^-38: the exact
    totals lie halfway between floats 2^-37 apart, and ties go to even.
    The third, 2^16 ones, makes every uint64 run of bit offsets sum to
    2^11 * 2^52 = 2^63, the most a run may hold."""
    rng = np.random.default_rng(8)
    ones = np.ones(_CHUNK)
    down, up = ones.copy(), ones.copy()
    down[-1], up[-1] = 0.5 + 2.0**-38, 0.5 + 3 * 2.0**-38
    cases = [down, up, ones, np.full(_CHUNK, np.nextafter(0.5, 1.0)), np.array([0.5]),
             np.array([1.0]), rng.uniform(0.5, 1.0, _CHUNK)]
    return cases + [rng.uniform(0.5, 1.0, n) for n in rng.integers(1, _CHUNK, 30)]


def _filled_bits(size=_CHUNK):
    """A uint64 buffer pre-filled with 2^64 - 1, above every bit offset
    a summand in range has, so a stale entry that were read would show."""
    return np.full(size, np.iinfo(np.uint64).max, np.uint64)


def test_chunk_sum_matches_fsum_on_edge_chunks():
    cases = _edge_chunks()
    down, up = cases[:2]
    assert _chunk_sum(down, _filled_bits()) == _CHUNK - 0.5
    assert _chunk_sum(up, _filled_bits()) == _CHUNK - 0.5 + 2.0**-36
    for seg in cases:
        assert _chunk_sum(seg, _filled_bits()).hex() == _fsum_hex(seg), seg.size


def test_chunk_sum_into_a_buffer_matches_and_keeps_the_chunk():
    # one uint64 buffer, wider than most chunks and holding the last
    # chunk's bit offsets, as lhs_sum passes it
    bits = _filled_bits()
    for seg in _edge_chunks():
        before = seg.copy()
        assert _chunk_sum(seg, bits).hex() == _fsum_hex(seg), seg.size
        assert np.array_equal(seg, before), seg.size


def test_chunk_sum_of_an_empty_chunk_is_zero():
    for bits in (_filled_bits(0), _filled_bits()):
        got = _chunk_sum(np.empty(0), bits)
        assert got.hex() == math.fsum([]).hex() == (0.0).hex()


@pytest.mark.parametrize("bad", [0.4999, np.nextafter(1.0, 2.0), np.nan, -0.0, 0.0,
                                 5e-324, np.inf, -np.inf, -0.75])
def test_chunk_sum_refuses_summands_outside_its_range(bad):
    seg = np.full(100, 0.75)
    seg[37] = bad
    for bits in (_filled_bits(_CHUNK + 1), np.zeros(_CHUNK + 1, np.uint64)):
        with pytest.raises(InternalAssertionError, match="needs at most"):
            _chunk_sum(seg, bits)
        with pytest.raises(InternalAssertionError, match="needs at most"):
            _chunk_sum(np.ones(_CHUNK + 1), bits)


# ---------------------------------------------------------------------------
# product side: the paper's P is the product at level s

def test_rhs_single_prime_factor_example():
    # s=2, a=3, b=3, h=12 = 2^2 * 3, so m = 2; at P = 2 only p = 2 enters
    res = rhs_product(AsymptoticQuery(2, 3, 3, 12, 1, prime_cutoff=2), 2)
    assert res.m == 2 and res.k == 3
    assert res.value == pytest.approx((1 - 2**-5) ** 2 + 3 * 2**-10, rel=1e-15)


def test_rhs_empty_product():
    res = rhs_product(AsymptoticQuery(2, 3, 3, 1, 1, prime_cutoff=1), 2)
    assert res.m == 1 and res.k == 1
    assert res.value == 1.0
    assert res.tail_bound > 0


def test_rhs_factor_matches_general_form():
    # (1-p^-(s+a))(1-p^-(s+b)) (1 + c_p^s(m^s)/((p^(s+a)-1)(p^(s+b)-1)))
    # == (1-p^-(s+a))(1-p^-(s+b)) + c_p^s(m^s)/p^(a+b+2s)   exactly,
    # and that pair of factors, expanded, is the level-s factor
    # 1 - p^-(s+a) - p^-(s+b) + [p | m] p^-(s+a+b)
    for s, a, b in [(2, 3, 3), (2, 4, 3), (3, 3, 3)]:
        for m in (1, 2, 6):
            for p in (2, 3, 5, 7, 11):
                c = crs_fast(p, s, m**s)
                base = (1 - Fraction(1, p ** (s + a))) * (1 - Fraction(1, p ** (s + b)))
                general = base * (1 + Fraction(c, (p ** (s + a) - 1) * (p ** (s + b) - 1)))
                split = base + Fraction(c, p ** (a + b + 2 * s))
                level = (1 - Fraction(1, p ** (s + a)) - Fraction(1, p ** (s + b))
                         + (Fraction(1, p ** (s + a + b)) if m % p == 0 else 0))
                assert general == split == level
                # and c at a prime is p^s - 1 or -1 according to p | m
                assert c == (p**s - 1 if m % p == 0 else -1)


def test_rhs_refuses_a_level_below_one():
    with pytest.raises(ValueError, match="s >= 1"):
        rhs_product(AsymptoticQuery(2, 3, 3, 12, 1), 0)


def test_rhs_refuses_a_power_past_the_float_range_in_one_line():
    # at level 1, a = b = 1100 needs 1.0 / 2^1101 at the first prime
    with pytest.raises(ValueError, match=r"p\^1101 .* 2\^1024 float guard") as info:
        rhs_product(AsymptoticQuery(2, 1100, 1100, 1, 10, 10), 1)
    assert "\n" not in str(info.value)


def test_rhs_tail_bound_is_honest():
    q100 = rhs_product(AsymptoticQuery(2, 3, 3, 12, 1, prime_cutoff=100), 2)
    q_hi = rhs_product(AsymptoticQuery(2, 3, 3, 12, 1, prime_cutoff=10**5), 2)
    assert abs(q_hi.value - q100.value) <= q100.tail_bound * q100.value
    assert q_hi.tail_bound < q100.tail_bound


# every level-t factor lies in [1 - 2 p^-c, 1), so the tail bound also
# covers a prime of m above the cutoff: 7 of m = 7 at P = 5, 97 of
# m = 2 * 97 at P = 50
@pytest.mark.parametrize("h, P", [(7**2, 5), (4 * 97**2, 50)])
def test_rhs_tail_bound_covers_primes_of_m_above_the_cutoff(h, P):
    lo = rhs_product(AsymptoticQuery(2, 3, 3, h, 1, prime_cutoff=P), 2)
    hi = rhs_product(AsymptoticQuery(2, 3, 3, h, 1, prime_cutoff=10**5), 2)
    assert max(sympy.primefactors(lo.m)) > P
    assert abs(hi.value - lo.value) <= lo.tail_bound * lo.value
    assert hi.tail_bound < lo.tail_bound


def test_rhs_nondividing_only_when_shift_is_power_free():
    # h squarefree and s >= 2 force m = 1: every factor is non-dividing
    res = rhs_product(AsymptoticQuery(2, 3, 3, 30, 1, prime_cutoff=50), 2)
    want = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        want *= (1 - p**-5.0) * (1 - p**-5.0) - p**-10.0
    assert res.value == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# the joint-divisibility mean value C: the product at level 1

def _squarefree_divisors(primes):
    """(d, mu(d)) for every squarefree d built from the given primes."""
    return [(math.prod(t), (-1) ** size)
            for size in range(len(primes) + 1)
            for t in combinations(primes, size)]


def test_joint_density_exact_over_finite_prime_sets():
    # Truncating both divisor expansions J_k(n)/n^k = sum_{d|n} mu(d)/d^k
    # to d | D = prod S makes each factor periodic mod D; its exact mean
    # over one period must be the product of the local factors over S.
    cases = 0
    for size in range(5):
        for S in combinations((2, 3, 5, 7), size):
            D = math.prod(S)
            divs = _squarefree_divisors(S)
            # ratio[k][g] = sum_{d | g} mu(d)/d^k for each g | D
            ratio = {k: {g: sum(Fraction(mu, d**k) for d, mu in divs if g % d == 0)
                         for g, _ in divs}
                     for k in (3, 4)}
            for a in (3, 4):
                for b in (3, 4):
                    for h in range(1, 31):
                        mean = sum(ratio[a][math.gcd(n, D)] * ratio[b][math.gcd(n + h, D)]
                                   for n in range(D)) / D
                        want = Fraction(1)
                        for p in S:
                            want *= (1 - Fraction(1, p ** (a + 1)) - Fraction(1, p ** (b + 1))
                                     + (Fraction(1, p ** (a + b + 1)) if h % p == 0 else 0))
                        assert mean == want, (S, a, b, h)
                        cases += 1
    assert cases == 16 * 4 * 30


def test_joint_density_matches_hand_written_product():
    res = rhs_product(AsymptoticQuery(2, 4, 3, 12, 1, prime_cutoff=50), 1)
    want = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        want *= 1 - p**-5.0 - p**-4.0 + (p**-8.0 if 12 % p == 0 else 0.0)
    assert res.value == pytest.approx(want, rel=1e-14)
    assert (res.m, res.k) == (12, 1)
    assert res.dividing_factor == "1 - p^-5 - p^-4 + p^-8"
    assert res.nondividing_factor == "1 - p^-5 - p^-4"


def test_joint_density_does_not_depend_on_s():
    # h = 4 with a = b = 4 admits s = 2 (m = 2) and s = 3 (m = 1): one sum,
    # one mean value, but two values of the level-s product
    q2, q3 = AsymptoticQuery(2, 4, 4, 4, 1), AsymptoticQuery(3, 4, 4, 4, 1)
    assert rhs_product(q2, 1) == rhs_product(q3, 1)
    assert abs(rhs_product(q2, 2).value - rhs_product(q3, 3).value) > 0.01


def test_joint_density_tail_bound_is_honest():
    # 97 divides h but lies above the low cutoff: the tail bound covers it
    lo = rhs_product(AsymptoticQuery(2, 3, 3, 2 * 97, 1, prime_cutoff=50), 1)
    hi = rhs_product(AsymptoticQuery(2, 3, 3, 2 * 97, 1, prime_cutoff=10**5), 1)
    assert abs(hi.value - lo.value) <= lo.tail_bound * lo.value
    assert hi.tail_bound < lo.tail_bound


# ---------------------------------------------------------------------------
# primes past _factor_cap: their float factor is exactly 1.0

def uncapped(t, a, b, m, P):
    """rhs_product's level-t loop over every prime up to P, where m is the
    product's m: the primes p with p^t | h."""
    value = 1.0
    for p in primes_upto(P).tolist():
        value *= (1.0 - 1.0 / p ** (t + a) - 1.0 / p ** (t + b)
                  + (1.0 / p ** (t + a + b) if m % p == 0 else 0.0))
    return value


def uncapped_rhs(s, a, b, m, P):
    """The paper's unexpanded pair of factors over every prime up to P."""
    value = 1.0
    for p in primes_upto(P).tolist():
        base = (1.0 - 1.0 / p ** (s + a)) * (1.0 - 1.0 / p ** (s + b))
        if m % p == 0:
            value *= base + (p**s - 1) / p ** (a + b + 2 * s)
        else:
            value *= base - 1.0 / p ** (a + b + 2 * s)
    return value


@pytest.mark.parametrize("s, a, b", [(2, 3, 4), (2, 5, 3), (3, 4, 6), (4, 4, 5)])
def test_rhs_product_cap_keeps_every_bit(s, a, b):
    cap = _factor_cap(s + min(a, b), 10**6)
    for P in (cap - 1, cap, cap + 1, 10**5):
        for h in (12, 1, 6**s * 5):
            got = rhs_product(AsymptoticQuery(s, a, b, h, 1, prime_cutoff=P), s)
            want = uncapped(s, a, b, got.m, P)
            assert got.value.hex() == want.hex(), (P, h)
            assert got.prime_cutoff == P


@pytest.mark.parametrize("s, a, b", [(2, 3, 3), (2, 3, 4), (2, 5, 3), (3, 4, 6), (4, 4, 5)])
def test_level_s_product_is_the_papers_product_to_4_ulps(s, a, b):
    # the expanded factor rounds differently from the paper's pair of
    # factors; over the whole product the two differ by at most 2 ulps
    for P in (1000, 10**5):
        for h in (1, 12, 72, 1080, 6**s * 5, 2**9 * 3**3):
            got = rhs_product(AsymptoticQuery(s, a, b, h, 1, prime_cutoff=P), s).value
            want = uncapped_rhs(s, a, b, shift_decompose(h, s)[0], P)
            assert abs(got - want) <= 4 * math.ulp(want), (P, h)


# s = 2, a = 3, b = 4: the cap is the prime 1783, and these m have a
# prime at or above it
@pytest.mark.parametrize("h, P", [(1783**2, 1783), (1783**2, 1784), (3 * 1787**2, 1787),
                                  (3 * 1787**2, 10**4), (10007**2, 10**5),
                                  (4 * 99991**2, 10**5)])
def test_rhs_product_cap_with_dividing_primes_above_it(h, P):
    assert _factor_cap(5, 10**5) == 1783
    got = rhs_product(AsymptoticQuery(2, 3, 4, h, 1, prime_cutoff=P), 2)
    assert got.value.hex() == uncapped(2, 3, 4, got.m, P).hex()


# a = 3, b = 4: the cap is 11586, between the primes 11579 and 11587
@pytest.mark.parametrize("h, P", [(12, 11585), (12, 11586), (12, 11587),
                                  (12 * 11587, 11587), (12 * 11587, 10**5),
                                  (99991, 10**5), (1, 3 * 10**5)])
def test_joint_density_cap_keeps_every_bit(h, P):
    assert _factor_cap(4, 10**5) == 11586
    got = rhs_product(AsymptoticQuery(2, 3, 4, h, 1, prime_cutoff=P), 1)
    assert got.value.hex() == uncapped(1, 3, 4, h, P).hex()


def test_products_take_exponents_whose_powers_overflow_a_float():
    # a = b = 29: the paper's 1.0 / p ** 62 cannot convert p ** 62 for p
    # near 10^5, but the loops stop at the cap (4 here), far below such primes
    q = AsymptoticQuery(2, 29, 29, 12, 1)
    assert _factor_cap(31, 10**5) == _factor_cap(30, 10**5) == 4
    assert rhs_product(q, 2).value.hex() == uncapped(2, 29, 29, 2, 4).hex()
    assert rhs_product(q, 1).value.hex() == uncapped(1, 29, 29, 12, 4).hex()
    with pytest.raises(OverflowError):
        uncapped_rhs(2, 29, 29, 2, 10**5)


# value.hex() and tail_bound.hex(): P = 1 (the empty product), P on either
# side of the cap (1783 for P at (2, 3, 4), 11586 for C at a = 3, b = 4),
# and the prime 97 of h above P for C.  The ids name each pin's constant
# as they always have: rhs_product for P (level s), joint_density_product
# for C (level 1)
@pytest.mark.parametrize("level, key, value, tail", [
    (2, (2, 3, 4, 1, 1), '0x1.0000000000000p+0', '0x1.4c2531c3c0d38p-1'),
    (2, (2, 3, 4, 12, 1782), '0x1.e61776d1de633p-1', '0x1.be9c4cdb4d624p-45'),
    (2, (2, 3, 4, 12, 1783), '0x1.e61776d1de633p-1', '0x1.bd9c058e223fap-45'),
    (2, (2, 3, 4, 12, 1784), '0x1.e61776d1de633p-1', '0x1.bc9c75f9e697cp-45'),
    (2, (2, 3, 4, 12, 10**6), '0x1.e61776d1de633p-1', '0x1.357c299a88ea7p-81'),
    (3, (3, 4, 6, 1080, 10**5), '0x1.facc3c2480745p-1', '0x1.b0b0ffe8fae2bp-102'),
    (1, (2, 3, 4, 12, 1), '0x1.0000000000000p+0', '0x1.e53d656f45818p-1'),
    (1, (2, 3, 4, 12, 11585), '0x1.c93cdcc8f90b9p-1', '0x1.e2bf77942b311p-42'),
    (1, (2, 3, 4, 12, 11586), '0x1.c93cdcc8f90b9p-1', '0x1.e29f7852368d1p-42'),
    (1, (2, 3, 4, 12, 11587), '0x1.c93cdcc8f90b9p-1', '0x1.e27f7be418ba0p-42'),
    (1, (2, 3, 3, 194, 50), '0x1.b6f2c1d16c7a4p-1', '0x1.65ea369bfce0bp-18'),
    (1, (2, 3, 3, 194, 10**5), '0x1.b6f2a20e180f7p-1', '0x1.804ea293472cap-51'),
], ids=lambda v: ("joint_density_product" if v == 1 else "rhs_product")
   if type(v) is int else None)
def test_products_are_pinned_bit_for_bit(level, key, value, tail):
    s, a, b, h, P = key
    assert level in (1, s)
    got = rhs_product(AsymptoticQuery(s, a, b, h, 1, prime_cutoff=P), level)
    assert (got.value.hex(), got.tail_bound.hex()) == (value, tail)


@pytest.mark.parametrize("bad", [0.0, -0.5, 2.0, math.inf, math.nan])
def test_euler_product_refuses_a_factor_outside_0_2(bad):
    # the third prime, 5, gets the bad factor
    def local(primes):
        return (bad if p == 5 else 1.0 - p**-3.0 for p in primes)

    assert _euler_product(3, 10, lambda primes: (1.0 - p**-3.0 for p in primes))[0] < 1.0
    with pytest.raises(InternalAssertionError, match=r"at p = 5 escapes \(0, 2\)"):
        _euler_product(3, 10, local)


def test_ratio_factors_are_the_libm_expression():
    # 1.0 - 1.0 / p^k from float squarings gives the bits of 1.0 - p ** -k
    # at every prime a table visits for k = 3..60, and at p = 2 past the
    # float range; at (3, 3) both round twice and miss the correctly
    # rounded 1 - 1/27 by one ulp
    count = 0
    for k in range(3, 61):
        primes = primes_upto(_factor_cap(k, 2**40))
        want = [(1.0 - p ** -k).hex() for p in primes.tolist()]
        assert list(map(float.hex, _ratio_factors(k, primes).tolist())) == want, k
        count += len(primes)
    assert count == 25014
    for k in (1023, 1024, 10**9):
        assert _ratio_factors(k, np.array([2])).tolist() == [1.0 - 2 ** -k] == [1.0]
    assert _ratio_factors(3, np.array([3]))[0].hex() == "0x1.ed097b425ed0ap-1"
    assert float(1 - Fraction(1, 27)).hex() == "0x1.ed097b425ed09p-1"


# windows at 10^12 (k = 3, cap 262145) and 10^14 (k = 4, cap 11586),
# centred on a multiple of the last prime below the cap or the first
# prime above it, which is no longer a sieving prime; and windows past
# 2^63, where a block's start no longer fits an int64
@pytest.mark.parametrize("k, p, at", [(3, 262139, 10**12), (3, 262147, 10**12),
                                      (4, 11579, 10**14), (4, 11587, 10**14),
                                      (3, 262139, 2**63 + 2**20), (4, 11587, 2**63 + 2**20)])
def test_far_ratio_window_matches_the_uncapped_product(k, p, at):
    n = at // p * p
    lo, hi = n - 100, n + 100
    got = _ratio_array(k, lo, hi).tolist()
    for x, g in zip(range(lo, hi + 1), got):
        want = 1.0  # factors in increasing prime order, as multiplicative_table
        for q in sympy.primefactors(x):
            want *= 1.0 - q ** -k
        assert g.hex() == want.hex(), x


# ---------------------------------------------------------------------------
# the assembled report

def test_verify_report_structure():
    q = AsymptoticQuery(2, 3, 3, 12, 30000, prime_cutoff=10**4)
    rep = asymptotic_verify(q, tolerance=0.02)
    assert rep.rhs.m == 2 and rep.rhs.k == 3
    assert [n for n, _ in rep.lhs_checkpoints] == [10**4, 30000]
    for _, rho in rep.ratios:
        assert math.isfinite(rho) and rho > 0
    errs = [abs(rho - 1) for _, rho in rep.ratios]
    assert rep.converged == (errs[-1] < rep.tolerance and errs[-1] <= errs[-2])


@pytest.mark.parametrize("last_error, converged", [(0.004, False), (0.002, True)])
def test_verify_converged_needs_a_non_increasing_error(monkeypatch, last_error, converged):
    # both trajectories end under the tolerance, so only the "did not
    # increase" clause decides: 0.003 -> 0.004 rises, 0.003 -> 0.002 falls
    q = AsymptoticQuery(2, 3, 3, 12, 20000, prime_cutoff=1000)
    C = rhs_product(q, q.s).value
    checkpoints = [(10**4, 10**4 * C * 1.003), (20000, 20000 * C * (1 + last_error))]
    monkeypatch.setattr(asymptotics, "lhs_sum", lambda query: checkpoints)
    rep = asymptotic_verify(q, tolerance=0.02)
    errs = [abs(rho - 1) for _, rho in rep.ratios]
    assert max(errs) < rep.tolerance and (errs[1] > errs[0]) is not converged
    assert rep.converged is converged


def test_verify_shift_reduction_recheck():
    q = AsymptoticQuery(2, 3, 3, 72, 100, prime_cutoff=100)
    rep = asymptotic_verify(q)
    m, k = shift_decompose(72, 2)  # 72 = 6^2 * 2 with 2 squarefree
    assert (rep.rhs.m, rep.rhs.k) == (m, k) == (6, 2)
    for r in range(1, 101):
        assert crs_fast(r, 2, 72) == crs_fast(r, 2, 36)


_PEAK_SCRIPT = """
import sys, tracemalloc
from cohenram import arith
from cohenram.asymptotics import AsymptoticQuery, _lhs_plan, asymptotic_verify
query = AsymptoticQuery(*map(int, sys.argv[1:]))
arith._trial_primes()  # lives for the whole process, outside the charge
tracemalloc.start()
asymptotic_verify(query)
peak = tracemalloc.get_traced_memory()[1]
_, _, tables, temps = _lhs_plan(query)  # the one charge the call makes
print(peak, tables + temps + arith._CALL_BYTES)
"""


# a, b >= 4 make the summation chunk the largest temporary, where the
# charge is tightest; a huge shift and a huge prime cutoff are charged
# only for the primes their sieves visit; a far k = 3 window sieves
# ~23,000 primes, most of which have no multiple in its one block.
# Every charge is also at most twice its peak
@pytest.mark.parametrize("key", [(2, 4, 4, 12, 10**6), (2, 5, 5, 12, 10**6),
                                 (2, 3, 3, 12, 10), (2, 3, 4, 10**17, 10),
                                 (2, 3, 3, 12, 10, 10**8), (2, 4, 3, 10**12, 10)])
def test_verify_charge_covers_the_traced_peak(key):
    src = os.path.dirname(os.path.dirname(asymptotics.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *map(str, key)],
                          capture_output=True, text=True, env=env, check=True)
    peak, charge = map(int, proc.stdout.split())
    assert peak <= charge
    assert charge <= 2 * peak


# the charge of one Jordan-ratio window covers its traced build peak at
# random places and lengths: near 0, with large primes and their
# cofactors, and far out, where a short window has a multiple of few of
# its sieving primes
@settings(max_examples=25, deadline=None)
@given(k=st.integers(3, 5), lo=st.integers(0, 2**20) | st.integers(2**20, 2**40),
       length=st.integers(1, 2 * 10**5))
def test_window_charge_covers_the_traced_build_peak(k, lo, length):
    hi = lo + length - 1
    arith._trial_primes()  # lives for the whole process, outside the charge
    tracemalloc.start()
    try:
        _ratio_array.__wrapped__(k, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _table_bytes(hi, lo, _factor_cap(k, hi), patterned=False) + _CALL_BYTES


def test_every_query_has_a_product_of_few_primes():
    # asymptotic_verify and main_term charge no Euler product: a query has
    # s >= 2 and a, b >= 3, so the product stops at the primes to 1783
    admitted = 0
    for s, a, b in product(range(1, 13), repeat=3):
        try:
            AsymptoticQuery(s, a, b, 1, 1)
        except ValueError:
            continue
        admitted += 1
        assert _factor_cap(s + min(a, b), 10**100) <= 1783, (s, a, b)
    assert admitted > 0 and primes_upto(1783).size == 276


def test_verify_charges_once_before_any_table_or_product(monkeypatch):
    # the one charge, lhs_sum's, refuses before a table or the product runs
    query = AsymptoticQuery(2, 3, 3, 12, 10)
    _, _, tables, temps = _lhs_plan(query)
    charges, ran = [], []

    def check(what, need):
        charges.append(need)
        arith._check_budget(what, need)

    monkeypatch.setattr(arith, "_MEMORY_LIMIT", 1000)
    monkeypatch.setattr(asymptotics, "_check_budget", check)
    monkeypatch.setattr(asymptotics, "_ratio_array", lambda *window: ran.append(window))
    monkeypatch.setattr(asymptotics, "rhs_product", lambda *args: ran.append(args))
    with pytest.raises(MemoryBudgetError, match="ceiling"):
        asymptotic_verify(query)
    assert charges == [tables + temps + _CALL_BYTES] and ran == []


def test_report_serialization(capsys):
    # the CLI renders the report's JSON from its fields
    q = AsymptoticQuery(2, 3, 3, 12, 5000, prime_cutoff=1000)
    rep = asymptotic_verify(q, tolerance=0.05)
    assert cli.main(["asymptotic", "--s", "2", "--a", "3", "--b", "3", "--h", "12",
                     "--N", "5000", "--prime-cutoff", "1000", "--tolerance", "0.05",
                     "--output", "json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back["schema"] == 1
    assert back["rhs"]["m"] == 2 and back["rhs"]["k"] == 3 and "m" not in back
    assert back["rhs"]["prime_cutoff"] == 1000
    assert back["lhs_checkpoints"] == [[n, v] for n, v in rep.lhs_checkpoints]


@pytest.mark.xfail(strict=True,
                   reason="the truncated-product target does not describe the "
                          "empirical mean of the Jordan ratios for s > 1: the "
                          "ratio stabilizes near 0.92-0.94 instead of 1")
def test_ratio_approaches_one_on_reference_grid():
    q = AsymptoticQuery(2, 3, 3, 12, 10**5)
    rep = asymptotic_verify(q, tolerance=0.02)
    assert abs(rep.ratios[-1][1] - 1.0) < 0.02


# ---------------------------------------------------------------------------
# generic main term

@pytest.mark.parametrize("b", [3, 4])
def test_main_term_is_the_cli_comparison(capsys, monkeypatch, b):
    # the series over the public coefficient tables and the level-s
    # product, bit for bit what main-term prints; one table when b == a
    built = []

    def counting(s, power, R):
        built.append(power)
        return expansion_coefficients(s, power, R)

    monkeypatch.setattr(asymptotics, "expansion_coefficients", counting)
    series, product = main_term(2, 3, b, 12, 2000)
    assert built == sorted({3, b})
    want = general_main_term(expansion_coefficients(2, 3, 2000),
                             expansion_coefficients(2, b, 2000), 2, 12)
    assert series.hex() == want.hex()
    assert product.hex() == rhs_product(AsymptoticQuery(2, 3, b, 12, 1, 2000), 2).value.hex()
    assert cli.main(["main-term", "--s", "2", "--a", "3", "--b", str(b), "--h", "12",
                     "--R", "2000", "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["series"].hex(), out["product"].hex()) == (series.hex(), product.hex())


def test_general_main_term_indicator():
    ind = np.zeros(51)
    ind[1] = 1.0
    for s, h in [(1, 3), (2, 12), (3, 5)]:
        assert general_main_term(ind, ind, s, h) == 1.0  # c_1^s(h) = 1


def test_general_main_term_validation():
    fa = expansion_coefficients(2, 3, 10)
    with pytest.raises(ValueError, match="length"):
        general_main_term(fa, fa[:5], 2, 12)
    with pytest.raises(ValueError, match="length"):
        general_main_term(fa[:1], fa[:1], 2, 12)
    with pytest.raises(ValueError):
        general_main_term(fa, fa, 2, 0)
    with pytest.raises(ValueError):
        expansion_coefficients(2, 3, 0)


def test_expansion_coefficients_values():
    fhat = expansion_coefficients(2, 3, 10)
    assert fhat[1] == pytest.approx(1 / zeta(5), rel=1e-14)
    assert fhat[4] == 0.0
    assert fhat[2] == pytest.approx(-1 / (jordan(5, 2) * zeta(5)), rel=1e-14)
    assert not fhat.flags.writeable


def test_expansion_coefficients_at_a_huge_power():
    # past s + power = 1075 every -1 / (p^k - 1) is -0.0 and no p^k is
    # built; -0.0 equals the 0.0 at p^e, e >= 2, so each prime of r
    # multiplies its entry by -0.0 as one scalar, as it did when the
    # quotient was built (11 s at power 10^6, unbounded at 10^9)
    for k in range(1076, 1081):
        assert -1 / (2**k - 1) == 0.0 and math.copysign(1, -1 / (2**k - 1)) == -1
    start = time.perf_counter()
    for power in (10**6, 10**9):
        got = expansion_coefficients(1, power, 100)
        want = [0.0]
        for r in range(1, 101):
            w = 1.0
            for _ in factorize(r):
                w *= -0.0
            want.append(w / zeta(1 + power))
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))
        assert got[1] == 1.0 and math.copysign(1, got[12]) == 1 and math.copysign(1, got[60]) == -1
    assert time.perf_counter() - start < 0.5


def test_general_main_term_matches_exact_sum():
    # the table sum against mu(r)^2 c_r^s(h) / (J_{s+a}(r) J_{s+b}(r)),
    # accumulated as an exact Fraction and divided by zeta(s+a) zeta(s+b)
    R = 300
    for s, a, b, h in [(2, 3, 3, 12), (2, 4, 3, 4), (1, 3, 2, 30), (3, 4, 4, 2**9 * 3**3)]:
        exact = sum(Fraction(mobius(r) ** 2 * crs_fast(r, s, h),
                             jordan(s + a, r) * jordan(s + b, r))
                    for r in range(1, R + 1))
        want = float(exact) / (zeta(s + a) * zeta(s + b))
        got = general_main_term(expansion_coefficients(s, a, R),
                                expansion_coefficients(s, b, R), s, h)
        assert got == pytest.approx(want, rel=1e-14)


def test_general_main_term_large_shift_is_exact():
    # c_r^s(h) = r^s prod_p (1 - p^-s) for r = 2310 = 2*3*5*7*11, s = 8
    # and h = r^8: about 8e26, far beyond int64; the table keeps it exact
    s, r = 8, 2 * 3 * 5 * 7 * 11
    h = r**s
    want = crs_fast(r, s, h)
    assert want == jordan(s, r) and want > 2**63
    ones, only_r = np.ones(r + 1), np.zeros(r + 1)
    only_r[r] = 1.0
    assert general_main_term(ones, only_r, s, h) == float(want)


def test_general_main_term_chunks_are_bit_identical():
    # fsum is correctly rounded, so reading the terms in chunks gives the
    # fsum of the whole lists bit for bit; the support spans two chunks
    s, a, b, h, R = 2, 3, 4, 12, 2 * _CHUNK
    fa, fb = expansion_coefficients(s, a, R), expansion_coefficients(s, b, R)
    weights = np.multiply(fa[1:], fb[1:])
    support = np.flatnonzero(weights)
    assert _CHUNK < len(support) < 2 * _CHUNK
    crs = multiplicative_table(R, lambda primes, e: [crs_fast(p**e, s, h) for p in primes.tolist()],
                               object)
    want = math.fsum(w * c for w, c in zip(weights[support].tolist(),
                                          crs[support + 1].tolist()))
    assert general_main_term(fa, fb, s, h).hex() == want.hex()


def test_crs_table_matches_crs_fast():
    # h = 2^10 3^4 5^2 at s = 2 reaches all three prime-power cases at
    # e >= 2; the last shift is far beyond int64
    for s, h in [(1, 12), (2, 12), (2, 2**10 * 3**4 * 5**2), (3, 720720),
                 (2, 10**12 + 39), (5, 2**40 * 3**15 * 7**10)]:
        table = _crs_table(5000, s, h)
        assert table[0] == 0
        assert table[1:].tolist() == [crs_fast(r, s, h) for r in range(1, 5001)], (s, h)


def test_general_main_term_leaves_the_crs_fast_cache_alone():
    fa, fb = expansion_coefficients(2, 3, 10**4), expansion_coefficients(2, 4, 10**4)
    before = crs_fast.cache_info()
    general_main_term(fa, fb, 2, 12)
    assert crs_fast.cache_info() == before


def test_series_approaches_product():
    for s, a, b, h in [(2, 3, 3, 12), (2, 4, 3, 4)]:
        q = AsymptoticQuery(s, a, b, h, 1, prime_cutoff=10**5)
        target = rhs_product(q, s).value
        fa, fb = expansion_coefficients(s, a, 100), expansion_coefficients(s, b, 100)
        diffs = [abs(general_main_term(fa[: R + 1], fb[: R + 1], s, h) - target)
                 for R in (5, 20, 100)]
        assert diffs[0] > diffs[1] > diffs[2]


def test_coefficient_envelope_bound():
    # |fhat(r)| r^(s/2) tau_s(r^s) <= 1/r^(a - s/2), the summable envelope
    s, a = 2, 3
    fhat = expansion_coefficients(s, a, 499)
    for r in range(1, 500):
        lhs = abs(fhat[r]) * r ** (s / 2) * tau_s(1, r)  # tau_s(s, r^s) = tau_s(1, r)
        assert lhs <= r ** (s / 2 - a) * (1 + 1e-12)
