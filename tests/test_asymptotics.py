import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohenram.arith import jordan, mobius, multiplicative_table, tau, zeta
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
from cohenram.asymptotics import _CHUNK, _lhs_windows
from cohenram.arith import MemoryBudgetError


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
    # past the sieving-work limit it is refused before any table is built
    with pytest.raises(ValueError, match="sieving steps"):
        lhs_sum(AsymptoticQuery(2, 3, 4, 10**17, 10))


def test_lhs_memory_budget():
    with pytest.raises(MemoryBudgetError, match="budget"):
        lhs_sum(AsymptoticQuery(2, 3, 3, 1, 10**6), memory_budget=1000)


def test_lhs_budget_counts_float_tables():
    # one float64 table on [0, 102400] plus one summation chunk's
    # temporaries (larger than one block build's) is ~3.4 MB
    got = lhs_sum(AsymptoticQuery(2, 3, 3, 1, 10**5), memory_budget=4_000_000)
    assert got[-1][0] == 10**5


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

    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "N,lhs,N_times_rhs,ratio"
    n0, lhs0, nr0, rho0 = lines[1].split(",")
    assert int(n0) == rep.lhs_checkpoints[0][0]
    assert float(nr0) == pytest.approx(int(n0) * rep.rhs.value, rel=1e-15)
    assert float(rho0) == rep.ratios[0][1]

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
