import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohenram import arith
from cohenram.arith import (
    _BLOCK,
    _reciprocals,
    _table_bytes,
    _trial_primes,
    divisor_sigma,
    divisors,
    factorize,
    generalized_gcd,
    is_prime,
    jordan,
    mobius,
    multiplicative_table,
    primes_upto,
    tau_s,
    zeta,
    zeta_upper_bound,
)
from cohenram.asymptotics import _ratio_array
from cohenram.cohen import crs_direct_spectrum, kvector_sum
from cohenram.expansions import _expansion_terms, local_factor_cases

M61 = 2**61 - 1


# ---------------------------------------------------------------------------
# factorization

def test_factorize_trivial():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))


def test_factorize_mersenne_prime():
    # oracle: an independent deterministic primality test
    assert sympy.isprime(M61)
    assert factorize(M61) == ((M61, 1),)


def test_factorize_large_semiprime_needs_rho():
    p, q = 10**9 + 7, 10**9 + 9
    assert sympy.isprime(p) and sympy.isprime(q)
    assert factorize(p * q) == ((p, 1), (q, 1))
    assert factorize(p * p) == ((p, 2),)


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)
    with pytest.raises(ValueError):
        factorize(1.5)


def test_trial_primes_are_the_sieved_primes():
    # held as an int64 array, not a list of Python ints, with the same values
    primes = _trial_primes()
    assert primes.typecode == "q"
    assert primes.tolist() == primes_upto(10**6).tolist()


def test_factorize_across_the_trial_limit():
    # around the largest trial prime 999983, its square, and a product of
    # two primes above 10^6 (the Pollard rho path); against sympy
    p, q = 1_000_003, 1_000_033
    assert sympy.isprime(p) and sympy.isprime(q) and sympy.prevprime(10**6) == 999_983
    sample = [2, 999_983, 999_983**2, 2**5 * 999_983, 3 * p, p * q, p * p,
              2 * 3 * p * q, 999_983 * p, 10**6, 10**12 + 39, 2**62 - 57]
    for n in sample:
        assert dict(factorize(n)) == sympy.factorint(n), n


def _fresh_python(script, *args):
    """stdout of script run by a new interpreter on this cohenram."""
    src = os.path.dirname(os.path.dirname(arith.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True).stdout


_GROWTH_SCRIPT = """
import json, sys
from cohenram import arith
assert arith._trial[0] == 0 and not arith._trial[1]  # a fresh process starts empty
out = [[n, arith.factorize(n), arith._trial[0]] for n in map(int, sys.argv[1:])]
assert arith._trial[1].tolist() == arith.primes_upto(arith._trial[0]).tolist()
print(json.dumps(out))
"""


@pytest.mark.parametrize("descending", [False, True])
def test_growing_trial_table_factors_like_sympy(descending):
    # the table grows to the power of two above sqrt(n), capped at 10^6:
    # p^2 for the largest prime p below each such limit asks for exactly
    # that limit, and p * q with q the next prime above it straddles it
    limits = [2**e for e in range(2, 20)] + [10**6]
    sample = {2, 3, 4, 999_983**2, 10**12 + 39, 2**62 - 57}
    for limit in limits:
        p, q = sympy.prevprime(limit), sympy.nextprime(limit)
        sample |= {p * p, p * q}
    sample = sorted(sample, reverse=descending)
    got = json.loads(_fresh_python(_GROWTH_SCRIPT, *sample))
    bounds = [bound for _, _, bound in got]
    assert [n for n, _, _ in got] == sample
    assert bounds == sorted(bounds) and bounds[-1] == 10**6
    for n, factors, bound in got:
        assert [tuple(f) for f in factors] == sorted(sympy.factorint(n).items()), n
        assert bound >= min(math.isqrt(n), 10**6), n


_FAR_SCRIPT = """
import contextlib, io
from cohenram import arith, cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["asymptotic", "--s", "2", "--a", "3", "--b", "4", "--h", "1014185",
              "--N", "100000"])
bound = arith._trial[0]
full = arith._trial_primes().tolist() == arith.primes_upto(10**6).tolist()
print(bound, full)
"""


def test_far_shift_sieves_few_trial_primes():
    # every factorize call of a far shift near 10^6 needs the primes
    # below about 1000, not the 78,498 below 10^6
    bound, full = _fresh_python(_FAR_SCRIPT).split()
    assert int(bound) < 2**12 and full == "True"


def test_factorize_matches_sympy_on_a_block():
    for n in range(1, 2000):
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))


def test_factorize_refuses_a_wrong_factorization(monkeypatch):
    # a backend whose pairs do not multiply back to n is a bug, not bad
    # input; n is used by no other test, so it is not in the cache
    n, calls = 2**59 + 2**31 + 7, []

    def wrong(m):
        calls.append(m)
        return [(2, 1), (m // 2, 1)]

    monkeypatch.setattr(arith, "_factor_backend", wrong)
    with pytest.raises(arith.InternalAssertionError, match="does not factor"):
        factorize(n)
    assert calls == [n]


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


def test_jordan_cache_is_typed_and_bounded():
    assert jordan(2, 1) == 1 and jordan(2, 1) == 1
    assert jordan.cache_info().maxsize == 1 << 12
    # the int key is cached; a bool equal to it is still refused
    with pytest.raises(ValueError):
        jordan(2, True)


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
            assert tau_s(s, n**s) == tau_s(1, n) == len(divisors(n))


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
# dense tables

def _jordan_local(k):
    return lambda primes, e: [p ** (k * e) - p ** (k * (e - 1)) for p in primes.tolist()]


def _mu_local(primes, e):
    return np.full(len(primes), -1 if e == 1 else 0)


# edges between the strided small-prime updates and the batched large
# primes: 9409 = 97^2 has a prime at sqrt(limit), 9973 is itself prime
@pytest.mark.parametrize("limit", [1, 2, 3, 4, 8, 9, 12, 25, 9409, 9973, 10**4])
def test_multiplicative_table_matches_pointwise(limit):
    mu = multiplicative_table(limit, _mu_local, np.int8)
    assert mu.dtype == np.int8 and mu[0] == 0
    assert mu[1:7].tolist() == [1, -1, -1, 0, -1, 1][:limit]
    assert mu[1:].tolist() == [mobius(n) for n in range(1, limit + 1)]
    for k in (1, 2, 3, 4):
        jt = multiplicative_table(limit, _jordan_local(k), object)
        assert jt[1:].tolist() == [jordan(k, n) for n in range(1, limit + 1)]
        if k == 1:
            assert jt[1:11].tolist() == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4][:limit]
    if limit <= 25:  # exact k = 40 entries, far beyond 64 bits
        wide = multiplicative_table(limit, _jordan_local(40), object)
        assert wide[1:].tolist() == [jordan(40, n) for n in range(1, limit + 1)]
        assert limit < 11 or wide[11] == 11**40 - 1


def test_sieve_examples():
    jt = multiplicative_table(10, _jordan_local(1), object)
    assert jt[1:].tolist() == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    mt = multiplicative_table(6, _mu_local, np.int8)
    assert mt[1:].tolist() == [1, -1, -1, 0, -1, 1]
    assert multiplicative_table(1, _jordan_local(3), object)[1] == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jordan_sieve_matches_pointwise(k):
    jt = multiplicative_table(10**4, _jordan_local(k), object)
    for n in range(1, 10**4 + 1):
        assert jt[n] == jordan(k, n)


def test_mobius_sieve_matches_pointwise():
    mt = multiplicative_table(10**4, _mu_local, np.int8)
    for n in range(1, 10**4 + 1):
        assert mt[n] == mobius(n)


def test_cache_rejects_wide_entries():
    # an object table keeps entries far beyond 64 bits exactly; an int64
    # table refuses them instead of wrapping
    wide = multiplicative_table(12, _jordan_local(40), object)
    assert wide[11] == 11**40 - 1 and wide[12] == jordan(40, 12)
    with pytest.raises(OverflowError):
        multiplicative_table(12, _jordan_local(40), np.int64)


def test_table_guard_refuses_before_any_work():
    # whatever its charge, a window or a prime sieve of more than 2^29
    # entries is refused before np.empty, primes_upto or local runs; a
    # short far window with a small cap still builds
    def local(primes, e):
        raise AssertionError(f"local called at {primes}")

    for limit, window in [(10**12, {}), (2**29, {}), (10**12 + 10, {"lo": 10**12}),
                          (10, {"cap": 2**29}), (2**29 + 5, {"lo": 5, "cap": 10})]:
        with pytest.raises(ValueError, match="2\\^29-entry table guard"):
            multiplicative_table(limit, local, **window)
    mu = multiplicative_table(10**12 + 10, _mu_local, np.int8, lo=10**12, cap=1000)
    assert mu.tolist() == [mobius(math.prod(p**e for p, e in factorize(n) if p <= 1000))
                           for n in range(10**12, 10**12 + 11)]


def test_local_runs_once_per_exponent_on_touched_primes():
    # a far window: local sees, once for e = 1, exactly the sieving
    # primes with a multiple in [lo, limit], then once for each e >= 2
    # those with p^e <= limit, then once the primes in (sqrt(limit), cap]
    # with a multiple in [lo, limit], a few of them
    lo, limit, cap = 10**9, 10**9 + 999, 40000
    calls = []

    def local(primes, e):
        assert primes.dtype == np.int64 and (np.diff(primes) > 0).all()
        calls.append((e, primes.tolist()))
        return np.full(len(primes), -1 if e == 1 else 0)

    mu = multiplicative_table(limit, local, np.int8, lo=lo, cap=cap)
    root = math.isqrt(limit)
    sieving = primes_upto(root).tolist()
    touched = [p for p in sieving if -lo % p <= limit - lo]
    assert 0 < len(touched) < len(sieving) // 2
    assert calls[0] == (1, touched)
    powers = [(e, [p for p in touched if p**e <= limit]) for e in range(2, limit.bit_length())]
    assert calls[1:-1] == [(e, ps) for e, ps in powers if ps]
    large = [p for p in primes_upto(cap).tolist() if p > root]
    assert calls[-1] == (1, [p for p in large if -lo % p <= limit - lo])
    assert 0 < len(calls[-1][1]) < len(large) // 10
    assert mu.tolist() == [mobius(math.prod(p**e for p, e in factorize(n) if p <= cap))
                           for n in range(lo, limit + 1)]


def test_reciprocals_are_the_python_quotients():
    # every prime to 10^6 at t = 2..12, bit for bit the exact int quotient
    primes = primes_upto(10**6)
    for t in range(2, 13):
        want = [1 / (p**t - 1) for p in primes.tolist()]
        assert _reciprocals(t, primes).tolist() == want, t


def test_reciprocals_edges():
    # an exact 1/8; t = 1; at t = 1075, 1/(2^1075 - 1) rounds up to the
    # least subnormal and every larger prime to 0, past it every value
    # is 0; p^1075 past the longdouble range (p > 2^15.3) gives 0 too
    primes = primes_upto(10**5)
    assert _reciprocals(2, np.array([3])).tolist() == [0.125]
    assert _reciprocals(1, primes[:50]).tolist() == [1 / (p - 1) for p in primes[:50].tolist()]
    for t in (1074, 1075, 1076):
        got = _reciprocals(t, primes[:5]).tolist()
        assert got == [1 / (p**t - 1) for p in primes[:5].tolist()], t
    assert _reciprocals(1075, primes[:1]).tolist() == [5e-324]
    assert not _reciprocals(1076, primes[:1]).any()
    huge = primes[-3:]
    assert all(p**1075 > 2**16384 for p in huge.tolist())
    assert _reciprocals(1075, huge).tolist() == [0.0] * 3 == [1 / (p**1075 - 1) for p in huge.tolist()]
    assert _reciprocals(10**12, primes).tolist() == [0.0] * len(primes)
    assert _reciprocals(3, primes[:0]).size == 0


@pytest.mark.parametrize("roundoff", [None, np.longdouble(0.125)], ids=["double", "wide-error"])
def test_expansion_terms_are_exact_when_every_reciprocal_falls_back(monkeypatch, roundoff):
    # with no longdouble kernel (None, as where longdouble is a double)
    # every value is the exact Python quotient; with an error term far
    # above every float gap, every value that is not 0 is: the same bits
    cases = [(1, 1, 1), (2, 1, 30), (3, 2, 90), (1, 1074, 6), (2, 1100, 12)]
    want = [_expansion_terms(s, k, n, 3000) for s, k, n in cases]
    monkeypatch.setattr(arith, "_ROUNDOFF", roundoff)
    for (s, k, n), w in zip(cases, want):
        got = _expansion_terms(s, k, n, 3000)
        assert got.tobytes() == w.tobytes(), (s, k, n)


# windows of the block-segmented ratio build (blocks of _BLOCK = 2^16
# entries from lo): whole tables from 0 and 1, a last block of a single
# entry, windows crossing block boundaries with lo one below and one
# above 2^16, a prime at sqrt(hi) (97^2), a prime hi, and lo > sqrt(hi).
# Then edges of the cofactor phase over the primes in (sqrt(hi), cap]:
# four entries none of which has such a prime, so every cofactor's run
# is empty; at lo = 2^34 the k = 3 cofactors m run from lo / 2^18 to
# sqrt(hi), the widest range, about 2^16; and [0, 2^18], where the run
# of m = 1 holds ~23,000 primes at k = 3, more than one _GROUP of 2^14
_B = _BLOCK
_WINDOWS = [(0, 10**4), (1, 10**4), (0, _B), (60000, 200000),
            (_B - 1, 3 * _B), (_B + 1, 3 * _B), (0, 97**2), (1, 9973),
            (5000, 9973), (1007616, 1130496),
            (10000036, 10000039), (2**34, 2**34 + 2047), (0, 2**18)]


def test_table_charge_counts_the_scatter_group_only_when_built(monkeypatch):
    # with cap <= isqrt(limit) there is no large prime, so no cofactor and
    # no scatter group; a dense window has both
    sparse, dense = _table_bytes(10**6, cap=1000), _table_bytes(10**6)
    monkeypatch.setattr(arith, "_GROUP", 1 << 10)
    assert _table_bytes(10**6, cap=1000) == sparse
    assert _table_bytes(10**6) == dense - 32 * ((1 << 14) - (1 << 10))


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("lo, hi", _WINDOWS)
def test_ratio_array_window_is_bit_identical(k, lo, hi):
    got = _ratio_array(k, lo, hi)
    assert got.dtype == np.float64 and not got.flags.writeable
    want = [0.0] if lo == 0 else []
    for n in range(max(lo, 1), hi + 1):
        w = 1.0  # factors 1 - p^-k in increasing prime order
        for p, _ in factorize(n):
            w *= 1.0 - p ** -k
        want.append(w)
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))


# an exponent-dependent local value takes the per-block pattern: windows
# crossing block boundaries, a cap below sqrt(hi) = 443, past which no
# prime is visited (its factor is taken to be 1), and a cap between
# sqrt(hi) and lo, so that the large primes to the cap are scattered by
# cofactor m >= 4 and those past it are skipped
@pytest.mark.parametrize("lo, cap", [(_B - 1, None), (_B + 1, None), (_B + 1, 97),
                                     (2 * _B + 1, 40000)])
def test_windowed_pattern_tables_match_pointwise(lo, cap):
    hi, seen = 3 * _B, set()

    def mu_local(primes, e):
        seen.update(primes.tolist())
        return _mu_local(primes, e)

    mu = multiplicative_table(hi, mu_local, np.int8, lo=lo, cap=cap)
    j2 = multiplicative_table(hi, _jordan_local(2), object, lo=lo, cap=cap)
    assert mu.dtype == np.int8 and len(mu) == len(j2) == hi - lo + 1
    assert max(seen) == primes_upto(cap or hi)[-1]
    for n, m, j in zip(range(lo, hi + 1), mu.tolist(), j2.tolist()):
        smooth = math.prod(p**e for p, e in factorize(n) if p <= (cap or hi))
        assert (m, j) == (mobius(smooth), jordan(2, smooth)), n


@pytest.mark.parametrize("k", [3, 4])
def test_ratio_array_error_bound(k):
    # each entry is a product of omega(n) rounded factors 1 - p^-k; the
    # stated bound is 2 omega(n) 2^-53 relative to the exact J_k(n)/n^k
    bucket = 1003520  # the bucket lhs_sum uses at N = 10^6
    ratios = _ratio_array(k, 0, bucket)
    assert ratios[0] == 0.0 and ratios[1] == 1.0
    for n in [*range(1, 2 * 10**4 + 1), *range(bucket - 2 * 10**3 + 1, bucket + 1)]:
        exact = Fraction(jordan(k, n), n**k)
        omega = len(factorize(n))
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


# refusals of the public functions that no other test reaches in-process
@pytest.mark.parametrize("call, args", [
    pytest.param(local_factor_cases, (0, 1, 2, 1), id="local_factor_cases-s"),
    pytest.param(local_factor_cases, (1, 0, 2, 1), id="local_factor_cases-k"),
    pytest.param(local_factor_cases, (1, 1, 2, 0), id="local_factor_cases-n"),
    pytest.param(local_factor_cases, (1, 1, 4, 1), id="local_factor_cases-p"),
    pytest.param(kvector_sum, (0, 1, 2), id="kvector_sum-k"),
    pytest.param(kvector_sum, (1, 1, 0), id="kvector_sum-r"),
    pytest.param(crs_direct_spectrum, (0, 1), id="crs_direct_spectrum-r"),
    pytest.param(crs_direct_spectrum, (2, 0), id="crs_direct_spectrum-s"),
    pytest.param(tau_s, (0, 4), id="tau_s-s"),
    pytest.param(zeta_upper_bound, (1,), id="zeta_upper_bound-z"),
    pytest.param(jordan, (0, 4), id="jordan-k"),
    pytest.param(generalized_gcd, (0, 4, 2), id="generalized_gcd-m"),
    pytest.param(generalized_gcd, (4, 0, 2), id="generalized_gcd-n"),
    pytest.param(generalized_gcd, (4, 8, 0), id="generalized_gcd-s"),
])
def test_argument_refusals_are_one_line(call, args):
    with pytest.raises(ValueError) as info:
        call(*args)
    message = str(info.value)
    assert message and "\n" not in message
