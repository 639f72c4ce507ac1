import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohenram.arith import jordan, mobius, multiplicative_table, primes_upto, tau, zeta
from cohenram.cohen import crs_fast, shift_decompose
from cohenram.asymptotics import (
    AsymptoticQuery,
    asymptotic_verify,
    expansion_coefficients,
    general_main_term,
    joint_density_product,
    lhs_sum,
    rhs_product,
)
from cohenram import asymptotics
from cohenram.asymptotics import (
    _CHUNK, _chunk_sum, _crs_table, _factor_cap, _lhs_windows, _ratio_array)
from cohenram.arith import InternalAssertionError, MemoryBudgetError


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
    with pytest.raises(ValueError):
        AsymptoticQuery(2, 3, 3, 1, 0)
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


def test_lhs_huge_shift():
    # the tables cover [1, 10] and a window at 10^12, not [0, 10^12 + 10]
    got = lhs_sum(AsymptoticQuery(2, 3, 4, 10**12, 10), memory_budget=10**7)
    want = naive_lhs(3, 4, 10**12, 10)
    assert got[0][0] == 10 and got[0][1] == pytest.approx(want, rel=1e-12)
    # no window sieves past _factor_cap, so a short sum runs at any shift
    for h in (10**17, 2**62 + 7):
        got = lhs_sum(AsymptoticQuery(2, 3, 4, h, 10))
        assert got[0][1] == pytest.approx(naive_lhs(3, 4, h, 10), rel=1e-12), h
    # a sum past the sieving-work limit is refused before any table is built
    with pytest.raises(ValueError, match="sieving steps"):
        lhs_sum(AsymptoticQuery(2, 3, 4, 12, 10**9))


def test_lhs_memory_budget():
    with pytest.raises(MemoryBudgetError, match="budget"):
        lhs_sum(AsymptoticQuery(2, 3, 3, 1, 10**6), memory_budget=1000)


def test_lhs_budget_counts_float_tables():
    # one float64 table on [0, 102400] plus one block build's temporaries
    # (larger than one summation chunk's products, hi and lo) is ~3.6 MB
    got = lhs_sum(AsymptoticQuery(2, 3, 3, 1, 10**5), memory_budget=4_000_000)
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

    def checked(seg, buffer):
        want = _fsum_hex(seg)
        got = _chunk_sum(seg, buffer)
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
    totals lie halfway between floats 2^-37 apart, and ties go to even."""
    rng = np.random.default_rng(8)
    ones = np.ones(_CHUNK)
    down, up = ones.copy(), ones.copy()
    down[-1], up[-1] = 0.5 + 2.0**-38, 0.5 + 3 * 2.0**-38
    cases = [down, up, ones, np.full(_CHUNK, np.nextafter(0.5, 1.0)), np.array([0.5]),
             np.array([1.0]), rng.uniform(0.5, 1.0, _CHUNK)]
    return cases + [rng.uniform(0.5, 1.0, n) for n in rng.integers(1, _CHUNK, 30)]


def test_chunk_sum_matches_fsum_on_edge_chunks():
    cases = _edge_chunks()
    down, up = cases[:2]
    assert _chunk_sum(down) == _CHUNK - 0.5
    assert _chunk_sum(up) == _CHUNK - 0.5 + 2.0**-36
    for seg in cases:
        assert _chunk_sum(seg).hex() == _fsum_hex(seg), seg.size


def test_chunk_sum_into_a_buffer_matches_and_keeps_the_chunk():
    # one buffer, wider than most chunks and holding the last chunk's
    # hi and lo, as lhs_sum passes it
    buffer = np.full((2, _CHUNK), np.nan)
    for seg in _edge_chunks():
        before = seg.copy()
        assert _chunk_sum(seg, buffer).hex() == _chunk_sum(seg).hex(), seg.size
        assert np.array_equal(seg, before), seg.size


@pytest.mark.parametrize("bad", [0.4999, np.nextafter(1.0, 2.0), np.nan])
def test_chunk_sum_refuses_summands_outside_its_range(bad):
    seg = np.full(100, 0.75)
    seg[37] = bad
    for buffer in (None, np.empty((2, _CHUNK + 1))):
        with pytest.raises(InternalAssertionError, match="needs at most"):
            _chunk_sum(seg, buffer)
        with pytest.raises(InternalAssertionError, match="needs at most"):
            _chunk_sum(np.ones(_CHUNK + 1), buffer)


# ---------------------------------------------------------------------------
# product side

def test_rhs_single_prime_factor_example():
    # s=2, a=3, b=3, h=12 = 2^2 * 3, so m = 2; at P = 2 only p = 2 enters
    res = rhs_product(AsymptoticQuery(2, 3, 3, 12, 1, prime_cutoff=2))
    assert res.m == 2 and res.k == 3
    assert res.value == pytest.approx((1 - 2**-5) ** 2 + 3 * 2**-10, rel=1e-15)


def test_rhs_empty_product():
    res = rhs_product(AsymptoticQuery(2, 3, 3, 1, 1, prime_cutoff=1))
    assert res.m == 1 and res.k == 1
    assert res.value == 1.0
    assert res.tail_bound > 0


def test_rhs_factor_matches_general_form():
    # (1-p^-(s+a))(1-p^-(s+b)) (1 + c_p^s(m^s)/((p^(s+a)-1)(p^(s+b)-1)))
    # == (1-p^-(s+a))(1-p^-(s+b)) + c_p^s(m^s)/p^(a+b+2s)   exactly
    for s, a, b in [(2, 3, 3), (2, 4, 3), (3, 3, 3)]:
        for m in (1, 2, 6):
            for p in (2, 3, 5, 7, 11):
                c = crs_fast(p, s, m**s)
                base = (1 - Fraction(1, p ** (s + a))) * (1 - Fraction(1, p ** (s + b)))
                general = base * (1 + Fraction(c, (p ** (s + a) - 1) * (p ** (s + b) - 1)))
                split = base + Fraction(c, p ** (a + b + 2 * s))
                assert general == split
                # and c at a prime is p^s - 1 or -1 according to p | m
                assert c == (p**s - 1 if m % p == 0 else -1)


def test_rhs_requires_cutoff_above_m():
    with pytest.raises(ValueError, match="cutoff"):
        rhs_product(AsymptoticQuery(2, 3, 3, 7**2, 1, prime_cutoff=5))


def test_rhs_tail_bound_is_honest():
    q100 = rhs_product(AsymptoticQuery(2, 3, 3, 12, 1, prime_cutoff=100))
    q_hi = rhs_product(AsymptoticQuery(2, 3, 3, 12, 1, prime_cutoff=10**5))
    assert abs(q_hi.value - q100.value) <= q100.tail_bound * q100.value
    assert q_hi.tail_bound < q100.tail_bound


def test_rhs_nondividing_only_when_shift_is_power_free():
    # h squarefree and s >= 2 force m = 1: every factor is non-dividing
    res = rhs_product(AsymptoticQuery(2, 3, 3, 30, 1, prime_cutoff=50))
    want = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        want *= (1 - p**-5.0) * (1 - p**-5.0) - p**-10.0
    assert res.value == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# the joint-divisibility mean value C

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
    res = joint_density_product(AsymptoticQuery(2, 4, 3, 12, 1, prime_cutoff=50))
    want = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        want *= 1 - p**-5.0 - p**-4.0 + (p**-8.0 if 12 % p == 0 else 0.0)
    assert res.value == pytest.approx(want, rel=1e-14)
    assert (res.m, res.k) == (12, 1)
    assert res.spec.dividing_factor == "1 - p^-5 - p^-4 + p^-8"
    assert res.spec.nondividing_factor == "1 - p^-5 - p^-4"


def test_joint_density_does_not_depend_on_s():
    # h = 4 with a = b = 4 admits s = 2 (m = 2) and s = 3 (m = 1): one sum,
    # one mean value, but two values of the s-dependent product
    c2 = joint_density_product(AsymptoticQuery(2, 4, 4, 4, 1))
    c3 = joint_density_product(AsymptoticQuery(3, 4, 4, 4, 1))
    assert c2 == c3
    p2 = rhs_product(AsymptoticQuery(2, 4, 4, 4, 1)).value
    p3 = rhs_product(AsymptoticQuery(3, 4, 4, 4, 1)).value
    assert abs(p2 - p3) > 0.01


def test_joint_density_tail_bound_is_honest():
    # 97 divides h but lies above the low cutoff: the tail bound covers it
    lo = joint_density_product(AsymptoticQuery(2, 3, 3, 2 * 97, 1, prime_cutoff=50))
    hi = joint_density_product(AsymptoticQuery(2, 3, 3, 2 * 97, 1, prime_cutoff=10**5))
    assert abs(hi.value - lo.value) <= lo.tail_bound * lo.value
    assert hi.tail_bound < lo.tail_bound


# ---------------------------------------------------------------------------
# primes past _factor_cap: their float factor is exactly 1.0

def uncapped_rhs(s, a, b, m, P):
    """rhs_product's loop over every prime up to P."""
    value = 1.0
    for p in primes_upto(P).tolist():
        base = (1.0 - 1.0 / p ** (s + a)) * (1.0 - 1.0 / p ** (s + b))
        if m % p == 0:
            value *= base + (p**s - 1) / p ** (a + b + 2 * s)
        else:
            value *= base - 1.0 / p ** (a + b + 2 * s)
    return value


def uncapped_joint_density(a, b, h, P):
    """joint_density_product's loop over every prime up to P."""
    value = 1.0
    for p in primes_upto(P).tolist():
        factor = 1.0 - 1.0 / p ** (a + 1) - 1.0 / p ** (b + 1)
        if h % p == 0:
            factor += 1.0 / p ** (a + b + 1)
        value *= factor
    return value


@pytest.mark.parametrize("s, a, b", [(2, 3, 4), (2, 5, 3), (3, 4, 6), (4, 4, 5)])
def test_rhs_product_cap_keeps_every_bit(s, a, b):
    cap = _factor_cap(s + min(a, b), 10**6)
    for P in (cap - 1, cap, cap + 1, 10**5):
        for h in (12, 1, 6**s * 5):
            got = rhs_product(AsymptoticQuery(s, a, b, h, 1, prime_cutoff=P))
            want = uncapped_rhs(s, a, b, got.m, P)
            assert got.value.hex() == want.hex(), (P, h)
            assert got.spec.prime_cutoff == P


# s = 2, a = 3, b = 4: the cap is the prime 1783, and these m have a
# prime at or above it
@pytest.mark.parametrize("h, P", [(1783**2, 1783), (1783**2, 1784), (3 * 1787**2, 1787),
                                  (3 * 1787**2, 10**4), (10007**2, 10**5),
                                  (4 * 99991**2, 10**5)])
def test_rhs_product_cap_with_dividing_primes_above_it(h, P):
    assert _factor_cap(5, 10**5) == 1783
    got = rhs_product(AsymptoticQuery(2, 3, 4, h, 1, prime_cutoff=P))
    assert got.value.hex() == uncapped_rhs(2, 3, 4, got.m, P).hex()


# a = 3, b = 4: the cap is 11586, between the primes 11579 and 11587
@pytest.mark.parametrize("h, P", [(12, 11585), (12, 11586), (12, 11587),
                                  (12 * 11587, 11587), (12 * 11587, 10**5),
                                  (99991, 10**5), (1, 3 * 10**5)])
def test_joint_density_cap_keeps_every_bit(h, P):
    assert _factor_cap(4, 10**5) == 11586
    got = joint_density_product(AsymptoticQuery(2, 3, 4, h, 1, prime_cutoff=P))
    assert got.value.hex() == uncapped_joint_density(3, 4, h, P).hex()


def test_products_take_exponents_whose_powers_overflow_a_float():
    # a = b = 29: 1.0 / p ** 62 cannot convert p ** 62 for p near 10^5,
    # but the loops stop at the cap (4 here), far below such primes
    q = AsymptoticQuery(2, 29, 29, 12, 1)
    assert _factor_cap(31, 10**5) == 4
    assert rhs_product(q).value.hex() == uncapped_rhs(2, 29, 29, 2, 4).hex()
    assert joint_density_product(q).value.hex() == uncapped_joint_density(29, 29, 12, 4).hex()
    with pytest.raises(OverflowError):
        uncapped_rhs(2, 29, 29, 2, 10**5)


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
    assert rep.m == 2 and rep.k == 3
    assert [n for n, _ in rep.lhs_checkpoints] == [10**4, 30000]
    for _, rho in rep.ratios:
        assert math.isfinite(rho) and rho > 0
    errs = [abs(rho - 1) for _, rho in rep.ratios]
    assert rep.converged == (errs[-1] < rep.tolerance and errs[-1] <= errs[-2])
    assert rep.notes


def test_verify_shift_reduction_recheck():
    q = AsymptoticQuery(2, 3, 3, 72, 100, prime_cutoff=100)
    rep = asymptotic_verify(q)
    m, k = shift_decompose(72, 2)  # 72 = 6^2 * 2 with 2 squarefree
    assert (rep.m, rep.k) == (m, k) == (6, 2)
    for r in range(1, 101):
        assert crs_fast(r, 2, 72) == crs_fast(r, 2, 36)


_PEAK_SCRIPT = """
import sys, tracemalloc
from cohenram import arith
from cohenram.asymptotics import AsymptoticQuery, _verify_bytes, asymptotic_verify
query = AsymptoticQuery(*map(int, sys.argv[1:]))
arith._trial_primes()  # lives for the whole process, outside the charge
tracemalloc.start()
asymptotic_verify(query)
print(tracemalloc.get_traced_memory()[1], _verify_bytes(query))
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


def test_report_serialization():
    q = AsymptoticQuery(2, 3, 3, 12, 5000, prime_cutoff=1000)
    rep = asymptotic_verify(q, tolerance=0.05)
    d = rep.to_json_dict()
    blob = json.dumps(d, sort_keys=True)
    back = json.loads(blob)
    assert back["schema"] == 1
    assert back["m"] == 2 and back["k"] == 3
    assert back["rhs"]["prime_cutoff"] == 1000
    assert back["lhs_checkpoints"] == [[n, v] for n, v in rep.lhs_checkpoints]

    plot = rep.plot_data().strip().split("\n")
    assert len(plot) == len(rep.ratios)
    assert plot[0].split() == [str(rep.ratios[0][0]), repr(rep.ratios[0][1])]


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
    crs = multiplicative_table(R, lambda p, e: crs_fast(p**e, s, h), object)
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
        target = rhs_product(q).value
        fa, fb = expansion_coefficients(s, a, 100), expansion_coefficients(s, b, 100)
        diffs = [abs(general_main_term(fa[: R + 1], fb[: R + 1], s, h) - target)
                 for R in (5, 20, 100)]
        assert diffs[0] > diffs[1] > diffs[2]


def test_coefficient_envelope_bound():
    # |fhat(r)| r^(s/2) tau_s(r^s) <= 1/r^(a - s/2), the summable envelope
    s, a = 2, 3
    fhat = expansion_coefficients(s, a, 499)
    for r in range(1, 500):
        lhs = abs(fhat[r]) * r ** (s / 2) * tau(r)  # tau_s(r^s) = tau(r)
        assert lhs <= r ** (s / 2 - a) * (1 + 1e-12)
