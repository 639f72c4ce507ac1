import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohenram.arith import (
    FactoredInteger,
    MemoryBudgetError,
    divisor_sigma,
    divisors,
    factorize,
    generalized_gcd,
    is_prime,
    jordan,
    mobius,
    multiplicative_table,
    sieve,
    shared_sieve,
    tau,
    tau_s,
    read_sieve_cache,
    write_sieve_cache,
    zeta,
    zeta_upper_bound,
)
from cohenram.asymptotics import _BLOCK, _ratio_array

M61 = 2**61 - 1


# ---------------------------------------------------------------------------
# factorization

def test_factorize_trivial():
    assert factorize(1) == FactoredInteger(1, ())
    assert factorize(12).factors == ((2, 2), (3, 1))


def test_factorize_mersenne_prime():
    # oracle: an independent deterministic primality test
    assert sympy.isprime(M61)
    assert factorize(M61).factors == ((M61, 1),)


def test_factorize_large_semiprime_needs_rho():
    p, q = 10**9 + 7, 10**9 + 9
    assert sympy.isprime(p) and sympy.isprime(q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)
    with pytest.raises(ValueError):
        factorize(1.5)


def test_factorize_matches_sympy_on_a_block():
    for n in range(1, 2000):
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))


def test_factored_integer_invariants_enforced():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # product mismatch


def test_is_prime_against_sympy():
    for n in range(0, 3000):
        assert is_prime(n) == sympy.isprime(n)
    for n in (561, 3215031751, 2**61 - 1, 2**62 - 1):
        assert is_prime(n) == sympy.isprime(n)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


# ---------------------------------------------------------------------------
# scalar functions

def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    for n in range(1, 500):
        assert mobius(n) == sympy.mobius(n)


def _jordan_count(k, n):
    """J_k(n) by its counting definition: k-tuples mod n with gcd 1."""
    return sum(1 for xs in product(range(n), repeat=k)
               if math.gcd(*xs, n) == 1)


def test_jordan_values():
    assert jordan(1, 6) == 2      # J_1 = Euler phi
    assert jordan(2, 4) == 12     # frozen from the counting oracle below
    assert jordan(5, 1) == 1
    assert _jordan_count(2, 4) == 12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jordan_matches_counting_definition(k):
    for n in range(1, 13 if k < 3 else 9):
        assert jordan(k, n) == _jordan_count(k, n)


def test_jordan_one_is_phi():
    for n in range(1, 300):
        assert jordan(1, n) == sympy.totient(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(1, 6))
def test_jordan_multiplicative(m, n, k):
    if math.gcd(m, n) == 1:
        assert jordan(k, m * n) == jordan(k, m) * jordan(k, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(1, 4))
def test_mobius_and_tau_s_multiplicative(m, n, s):
    if math.gcd(m, n) == 1:
        assert mobius(m * n) == mobius(m) * mobius(n)
        assert tau_s(s, m * n) == tau_s(s, m) * tau_s(s, n)


def test_jordan_divisor_identity():
    # sum over d | n of J_k(d) = n^k
    for k in (1, 2, 3, 4):
        for n in range(1, 400):
            assert sum(jordan(k, d) for d in divisors(n)) == n**k


def test_generalized_gcd_examples():
    assert generalized_gcd(12, 18, 1) == 6
    assert generalized_gcd(4, 8, 2) == 4
    assert generalized_gcd(7, 9, 2) == 1


def _ggcd_enum(m, n, s):
    best = 1
    l = 1
    while l**s <= min(m, n):
        if m % l**s == 0 and n % l**s == 0:
            best = l**s
        l += 1
    return best


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 4))
def test_generalized_gcd_properties(m, n, s):
    g = generalized_gcd(m, n, s)
    assert g == _ggcd_enum(m, n, s)
    assert math.gcd(m, n) % g == 0
    assert generalized_gcd(m, n, 1) == math.gcd(m, n)
    root = round(g ** (1 / s))
    assert root**s == g  # always a perfect s-th power


def test_tau_s_values():
    assert tau_s(1, 6) == 4
    assert tau_s(2, 36) == 4  # square divisors of 36: 1, 4, 9, 36
    assert tau_s(3, 7) == 1


def test_tau_s_counts_power_divisors():
    for s in (1, 2, 3):
        for n in range(1, 200):
            want = sum(1 for d in divisors(n) if round(d ** (1 / s)) ** s == d)
            assert tau_s(s, n) == want


def test_tau_s_of_powers():
    for s in (1, 2, 3, 4):
        for n in range(1, 200):
            assert tau_s(s, n**s) == tau(n)


def test_divisor_sigma():
    for n in range(1, 200):
        assert divisor_sigma(n) == sum(divisors(n))


# ---------------------------------------------------------------------------
# zeta

def test_zeta_closed_forms():
    assert zeta(2) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta(4) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_against_mpmath():
    import mpmath
    for z in range(2, 12):
        assert zeta(z) == pytest.approx(float(mpmath.zeta(z)), abs=1e-12)


def test_zeta_two_cutoffs_agree():
    # two independent truncations must land within the precision budget
    for z in (2, 3, 10):
        a = zeta(z, 1e-12, cutoff=20000)
        b = zeta(z, 1e-12, cutoff=40000)
        assert abs(a - b) < 1e-12


def test_zeta_rejects_divergent_argument():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        zeta(0)


def test_zeta_upper_bound_certified():
    import mpmath
    for z in (2, 3, 4, 5):
        ub = zeta_upper_bound(z)
        assert isinstance(ub, Fraction)
        assert float(ub) >= float(mpmath.zeta(z))
        assert float(ub) - float(mpmath.zeta(z)) < 1e-3


def test_jordan_coefficient_bound():
    # 1/J_s(r) <= zeta(s)/r^s, compared exactly through the certified bound
    for s in (2, 3):
        ub = zeta_upper_bound(s)
        for r in range(1, 2000):
            assert r**s * ub.denominator <= jordan(s, r) * ub.numerator


# ---------------------------------------------------------------------------
# sieves

def test_sieve_examples():
    jt = sieve("jordan", 10, k=1)
    assert [jt[n] for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    mt = sieve("mobius", 6)
    assert [mt[n] for n in range(1, 7)] == [1, -1, -1, 0, -1, 1]
    assert sieve("jordan", 1, k=3)[1] == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jordan_sieve_matches_pointwise(k):
    jt = sieve("jordan", 10**4, k=k)
    for n in range(1, 10**4 + 1):
        assert jt[n] == jordan(k, n)


def test_mobius_sieve_matches_pointwise():
    mt = sieve("mobius", 10**4)
    for n in range(1, 10**4 + 1):
        assert mt[n] == mobius(n)


def test_spf_sieve_matches_pointwise():
    spf = sieve("spf", 10**4)
    assert spf.kind == "smallest-prime-factor"
    assert spf[1] == 1
    for n in range(2, 10**4 + 1):
        assert spf[n] == factorize(n).factors[0][0]


def test_sieve_tables_are_immutable():
    mt = sieve("mobius", 50)
    with pytest.raises(ValueError):
        mt.values[3] = 7
    jt = sieve("jordan", 50, k=2)
    assert isinstance(jt.values, tuple)


def test_sieve_validation():
    with pytest.raises(ValueError):
        sieve("totient", 10)
    with pytest.raises(ValueError):
        sieve("jordan", 10)  # missing k
    with pytest.raises(ValueError):
        sieve("mobius", 10, k=2)
    with pytest.raises(ValueError):
        sieve("mobius", 0)
    with pytest.raises(IndexError):
        sieve("mobius", 10)[11]


def test_sieve_memory_budget():
    with pytest.raises(MemoryBudgetError, match="budget"):
        sieve("jordan", 10**6, k=4, memory_budget=1000)
    assert sieve("mobius", 100, memory_budget=10**6)[1] == 1


# edges between the strided small-prime updates and the batched large
# primes: 9409 = 97^2 has a prime at sqrt(limit), 9973 is itself prime
@pytest.mark.parametrize("limit", [1, 2, 3, 4, 8, 9, 25, 9409, 9973, 10**4])
def test_multiplicative_table_matches_pointwise(limit):
    mu = multiplicative_table(limit, lambda p, e: -1 if e == 1 else 0, np.int8)
    assert mu.dtype == np.int8 and mu[0] == 0
    assert mu[1:].tolist() == [mobius(n) for n in range(1, limit + 1)]
    for k in (1, 3):
        jt = multiplicative_table(
            limit, lambda p, e: p ** (k * e) - p ** (k * (e - 1)), object)
        assert jt[1:].tolist() == [jordan(k, n) for n in range(1, limit + 1)]


# windows of the block-segmented ratio build (blocks of _BLOCK = 2^16
# entries from lo): whole tables from 0 and 1, a last block of a single
# entry, windows crossing block boundaries with lo one below and one
# above 2^16, a prime at sqrt(hi) (97^2), a prime hi, and lo > sqrt(hi)
_B = _BLOCK
_WINDOWS = [(0, 10**4), (1, 10**4), (0, _B), (60000, 200000),
            (_B - 1, 3 * _B), (_B + 1, 3 * _B), (0, 97**2), (1, 9973),
            (5000, 9973), (1007616, 1130496)]


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("lo, hi", _WINDOWS)
def test_ratio_array_window_is_bit_identical(k, lo, hi):
    want = multiplicative_table(hi, lambda p, e: 1.0 - p ** -k)[lo : hi + 1]
    got = _ratio_array(k, lo, hi)
    assert got.dtype == np.float64 and not got.flags.writeable
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [3, 4])
def test_ratio_array_error_bound(k):
    # each entry is a product of omega(n) rounded factors 1 - p^-k; the
    # stated bound is 2 omega(n) 2^-53 relative to the exact J_k(n)/n^k
    bucket = 1003520  # the bucket lhs_sum uses at N = 10^6
    ratios = _ratio_array(k, 0, bucket)
    assert ratios[0] == 0.0 and ratios[1] == 1.0
    for n in [*range(1, 2 * 10**4 + 1), *range(bucket - 2 * 10**3 + 1, bucket + 1)]:
        exact = Fraction(jordan(k, n), n**k)
        omega = len(factorize(n).factors)
        assert abs(Fraction(ratios[n]) - exact) <= 2 * omega * exact / 2**53, n


def test_ratio_array_error_bound_far_window():
    # the same bound where the window sits at 10^12, far above its sieving
    # primes, against sympy's factorization
    lo, hi = 10**12 + 1, 10**12 + 2000
    primes = [sympy.primefactors(n) for n in range(lo, hi + 1)]
    for k in (3, 4):
        ratios = _ratio_array(k, lo, hi)
        assert len(ratios) == hi - lo + 1
        for n, ps, got in zip(range(lo, hi + 1), primes, ratios.tolist()):
            exact = math.prod((1 - Fraction(1, p**k) for p in ps), start=Fraction(1))
            assert abs(Fraction(got) - exact) <= 2 * len(ps) * exact / 2**53, n


def test_shared_sieve_covers_request():
    t = shared_sieve("jordan", 5000, k=2)
    assert t.limit >= 5000
    assert t[4999] == jordan(2, 4999)
    # identical bucket -> same object
    assert shared_sieve("jordan", 5001, k=2) is t


# ---------------------------------------------------------------------------
# sieve cache files

def test_cache_round_trip(tmp_path):
    for table in (sieve("jordan", 60, k=2), sieve("mobius", 60), sieve("spf", 60)):
        path = tmp_path / f"{table.kind}.bin"
        write_sieve_cache(table, path)
        back = read_sieve_cache(path)
        assert back.kind == table.kind
        assert back.k == table.k
        assert back.limit == table.limit
        assert all(back[n] == table[n] for n in range(1, 61))


def test_cache_rejects_wide_entries(tmp_path):
    wide = sieve("jordan", 12, k=40)  # 11^40 is far beyond 64 bits
    assert wide[11] == 11**40 - 1 and wide[12] == jordan(40, 12)
    with pytest.raises(OverflowError, match="bits"):
        write_sieve_cache(wide, tmp_path / "wide.bin")


def test_cache_rejects_corruption(tmp_path):
    path = tmp_path / "t.bin"
    write_sieve_cache(sieve("mobius", 20), path)
    raw = path.read_bytes()
    (tmp_path / "bad_magic.bin").write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(ValueError, match="magic"):
        read_sieve_cache(tmp_path / "bad_magic.bin")
    (tmp_path / "short.bin").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="length"):
        read_sieve_cache(tmp_path / "short.bin")
