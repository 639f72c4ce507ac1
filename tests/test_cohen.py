import cmath
import math
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cohenram.arith import _CHUNK, _EXACT_LIMIT, generalized_gcd, jordan, mobius
from cohenram.cohen import (
    CohenSumQuery,
    DIRECT_TERM_GUARD,
    _EVALUATORS,
    _admissible,
    _over_guard,
    crs_direct,
    crs_direct_spectrum,
    crs_divisor_sum,
    crs_fast,
    evaluate,
    kvector_sum,
    shift_decompose,
)


def classical_ramanujan(r, n):
    """c_r(n) by the raw trigonometric definition; test-local oracle."""
    acc = sum(cmath.exp(2j * math.pi * n * m / r)
              for m in range(1, r + 1) if math.gcd(m, r) == 1)
    assert abs(acc.imag) < 1e-6
    return round(acc.real)


# ---------------------------------------------------------------------------
# frozen examples (each value reproduced by an independent brute force)

def test_crs_direct_examples():
    assert crs_direct(1, 3, 5) == 1
    assert crs_direct(2, 2, 4) == 3    # 2^2 - 1, the p^s | n case
    assert crs_direct(2, 2, 2) == -1   # -p^(s(e-1)), p^s does not divide n


def test_crs_divisor_sum_examples():
    assert crs_divisor_sum(1, 2, 9) == 1
    assert crs_divisor_sum(6, 1, 3) == -2
    assert crs_divisor_sum(4, 2, 16) == 12  # 2^4 - 2^2 with p^(se) | n


def test_crs_fast_examples():
    for p in (2, 3, 5, 97):
        assert crs_fast(p, 2, 1) == -1  # prime r, p not dividing n
    assert crs_fast(9, 1, 3) == -3
    assert crs_fast(12, 1, 0) == jordan(1, 12) == 4


def test_kvector_examples():
    assert kvector_sum(1, 3, 6) == -2
    assert kvector_sum(2, 1, 2) == -1
    for k in (1, 2, 5):
        assert kvector_sum(k, 7, 1) == 1


# ---------------------------------------------------------------------------
# cross-evaluator agreement

def test_three_way_equivalence_small():
    for r in range(1, 13):
        for s in (1, 2):
            for n in range(0, 30):
                d = crs_direct(r, s, n)
                assert d == crs_divisor_sum(r, s, n)
                assert d == crs_fast(r, s, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 3),
       st.integers(0, 200))
def test_multiplicative_in_r(r1, r2, s, n):
    if math.gcd(r1, r2) == 1:
        assert crs_fast(r1 * r2, s, n) == crs_fast(r1, s, n) * crs_fast(r2, s, n)


def test_periodicity_in_n():
    for r in range(1, 9):
        for s in (1, 2):
            m = r**s
            for n in range(0, 2 * m, max(1, m // 3)):
                assert crs_fast(r, s, n) == crs_fast(r, s, n + m)
                assert crs_direct(r, s, n) == crs_direct(r, s, n + m)


def test_s_equals_one_is_classical_ramanujan():
    for r in range(1, 25):
        for n in range(0, 25):
            c = classical_ramanujan(r, n)
            assert crs_fast(r, 1, n) == c
            assert kvector_sum(1, n, r) == c


def test_n_zero_gives_jordan_totient():
    for r in range(1, 30):
        for s in (1, 2, 3):
            assert crs_fast(r, s, 0) == jordan(s, r)


def test_argument_one_gives_mobius():
    # the divisor sum collapses to the d = 1 term
    for r in range(1, 200):
        for s in (1, 2, 3):
            assert crs_fast(r, s, 1) == mobius(r)


# ---------------------------------------------------------------------------
# admissible residues and the spectrum evaluator

def test_admissible_matches_generalized_gcd_filter():
    for r in range(1, 13):
        for s in (1, 2):
            m = r**s
            want = [h for h in range(1, m + 1) if generalized_gcd(h, m, s) == 1]
            assert _admissible(r, s).tolist() == want


def test_admissible_count_is_jordan():
    for r in range(1, 20):
        for s in (1, 2):
            assert len(_admissible(r, s)) == jordan(s, r)


def test_spectrum_agrees_with_direct():
    for r, s in [(1, 1), (2, 3), (6, 1), (9, 2), (12, 1), (30, 1)]:
        spec = crs_direct_spectrum(r, s)
        m = r**s
        assert len(spec) == m
        for n in range(0, min(m, 40)):
            assert spec[n] == crs_direct(r, s, n)
        # periodicity folds any n onto the spectrum
        assert spec[(m + 7) % m] == crs_direct(r, s, m + 7)


# ---------------------------------------------------------------------------
# shift decomposition

def test_shift_decompose_examples():
    assert shift_decompose(12, 2) == (2, 3)
    assert shift_decompose(30, 2) == (1, 30)   # squarefree is 2-power-free
    assert shift_decompose(1, 5) == (1, 1)
    assert shift_decompose(7**6, 3) == (49, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(2, 4))
def test_shift_decompose_is_the_unique_decomposition(h, s):
    m, k = shift_decompose(h, s)
    assert m**s * k == h
    # k is s-power-free: no l > 1 with l^s | k
    l = 2
    while l**s <= k:
        assert k % l**s != 0
        l += 1


def test_crs_of_shift_matches_direct_argument():
    # the reduction c_r^s(h) = c_r^s(m^s) for h = m^s * k, k s-power-free
    for h in (1, 4, 12, 30, 72, 500):
        for s in (2, 3):
            m, _ = shift_decompose(h, s)
            for r in range(1, 40):
                assert crs_fast(r, s, h) == crs_fast(r, s, m**s)


# ---------------------------------------------------------------------------
# residue-system invariance of the k-vector sum

def _kvector_shifted(k, n, r, shift):
    """Same sum over the residue system shift..shift+r-1 per coordinate."""
    acc = 0j
    for xs in product(range(shift, shift + r), repeat=k):
        if math.gcd(*xs, r) == 1:
            acc += cmath.exp(2j * math.pi * n * sum(xs) / r)
    assert abs(acc.imag) < 1e-6
    return round(acc.real)


def test_kvector_residue_system_invariance():
    for k, n, r in [(1, 3, 6), (2, 1, 4), (2, 5, 6), (3, 2, 3)]:
        base = kvector_sum(k, n, r)
        for shift in (1, 2, r):
            assert _kvector_shifted(k, n, r, shift) == base


# ---------------------------------------------------------------------------
# the numpy k-vector sum against a pure-Python enumeration

def _kvector_residue_counts(k, r):
    """{t: number of admissible k-tuples with digit sum = t mod r}, by
    itertools.product and math.gcd over every tuple of [0, r)^k."""
    counts = {}
    for xs in product(range(r), repeat=k):
        if math.gcd(*xs, r) == 1:
            t = sum(xs) % r
            counts[t] = counts.get(t, 0) + 1
    return counts


def _kvector_reference(counts, n, r):
    acc = sum(c * cmath.exp(2j * math.pi * (n * t % r) / r) for t, c in counts.items())
    assert abs(acc.imag) < 1e-6
    return round(acc.real)


def test_kvector_sum_matches_the_itertools_reference():
    # every (k, r) with r <= 40 and r^k <= 2 * 10^5, plus two cases whose
    # r^k tuples span two _CHUNK slices; n takes negative and zero values
    # and one whose product with a digit sum overflows int64, which
    # kvector_sum avoids by reducing n mod r first
    cases = [(k, r) for k in (1, 2, 3) for r in range(1, 41) if r**k <= 2 * 10**5]
    cases += [(2, 300), (3, 41)]
    assert all(r**k > _CHUNK for k, r in cases[-2:])
    for k, r in cases:
        counts = _kvector_residue_counts(k, r)
        for n in (-3, 0, 1, 2, 6, 12, 30, 10**18 + 1):
            assert kvector_sum(k, n, r) == _kvector_reference(counts, n, r), (k, n, r)


def test_kvector_sum_keeps_no_list_over_every_term():
    # 720,000 admissible pairs: two lists of Python floats over them would
    # take about 46 MB; the angles take 5.8 MB and one chunk's floats 3 MB
    r = 1000
    assert jordan(2, r) == 720_000
    tracemalloc.start()
    try:
        assert kvector_sum(2, 1, r) == mobius(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10**6


# ---------------------------------------------------------------------------
# guards, validation, tagging

def test_query_validation():
    with pytest.raises(ValueError):
        CohenSumQuery(0, 1, 1)
    with pytest.raises(ValueError):
        CohenSumQuery(1, 0, 1)
    with pytest.raises(ValueError):
        CohenSumQuery(1, 1, -1)


def test_evaluators_reject_bad_arguments():
    # each evaluator checks r >= 1, s >= 1, n >= 0 itself, with the
    # message a CohenSumQuery gives
    for fn in (crs_fast, crs_direct, crs_divisor_sum):
        for args in [(0, 1, 1), (1, 0, 1), (1, 1, -1)]:
            with pytest.raises(ValueError, match="need r >= 1, s >= 1, n >= 0"):
                fn(*args)


def test_crs_fast_cache_is_typed_and_bounded():
    assert crs_fast(1, 1, 5) == 1 and crs_fast(1, 1, 5) == 1
    assert crs_fast.cache_info().maxsize == 1 << 13
    # the int key (1, 1, 5) is cached; a bool or float r equal to 1 is
    # still refused rather than answered from it
    with pytest.raises(ValueError):
        crs_fast(True, 1, 5)
    with pytest.raises(ValueError):
        crs_fast(1.0, 1, 5)


def test_admissible_sets_are_not_retained():
    # crs_direct and crs_direct_spectrum build the admissible set on each
    # call; near the guard one set is 53-80 MB, so a memo of them would
    # hold memory that no charge counts.  The guard-sized sets are built
    # through _admissible alone: crs_direct there makes 2e7 Python floats,
    # which take minutes to trace.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for r in (3162, 3161, 3159):
            assert len(_admissible(r, 2)) == jordan(2, r)
        guard_retained = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        for r in (100, 99, 97):
            assert crs_direct(r, 2, 1) == mobius(r)
        direct_retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert guard_retained <= 8 * DIRECT_TERM_GUARD  # one guard-sized set
    assert direct_retained <= 8 * 100**2


def test_crs_direct_reads_its_terms_a_chunk_at_a_time():
    # the peak is three 8-byte arrays over the admissible h (h, n*h mod r^s
    # and the angles), the admissibility mask, and the cosines or sines of
    # one chunk with their Python floats, not a list over every term
    r, s = 1000, 2
    terms = jordan(s, r)  # |{h <= r^s : (h, r^s)_s = 1}|
    tracemalloc.start()
    try:
        assert crs_direct(r, s, 7) == crs_fast(r, s, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * terms + r**s + 1 + 48 * _CHUNK


def test_direct_term_guard():
    assert 100**4 > DIRECT_TERM_GUARD
    with pytest.raises(ValueError, match="guard"):
        crs_direct(100, 4, 1)
    with pytest.raises(ValueError, match="guard"):
        crs_direct_spectrum(100, 4)
    with pytest.raises(ValueError, match="guard"):
        kvector_sum(4, 1, 100)
    # a huge exponent is refused from bit lengths, before r^s is built,
    # and the message names r and s, not the power
    start = time.perf_counter()
    for call in (lambda: crs_direct(12, 10**8, 7), lambda: crs_direct_spectrum(2, 10**8),
                 lambda: kvector_sum(10**8, 1, 2)):
        with pytest.raises(ValueError, match=r"guard: r\^[sk] = \d+\^100000000 exceeds"):
            call()
    assert time.perf_counter() - start < 0.25


def test_guard_shortcut_agrees_with_the_power():
    # s * (bit_length(r) - 1) >= 24 refuses without r^s; 2^23 < 10^7 < 2^24
    for r in range(1, 400):
        for s in range(1, 40):
            assert _over_guard(r, s, DIRECT_TERM_GUARD) == (r**s > DIRECT_TERM_GUARD), (r, s)
    # the exact-int limit, where r^s crosses 2^14284 and where the
    # shortcut s * (bit_length(r) - 1) >= 14285 starts
    for r in range(2, 70):
        crossing = int(14284 / math.log2(r))
        shortcut = -(-14285 // (r.bit_length() - 1))
        for s in {*range(crossing - 2, crossing + 3), *range(shortcut - 2, shortcut + 3)}:
            assert _over_guard(r, s, _EXACT_LIMIT) == (r**s >= 2**14284), (r, s)


def test_exact_int_guard():
    # c_r^s(n) and J_k(n) are refused from bit lengths when r^s (n^k) has
    # more than 14,284 bits, so every admitted value prints in 4,300 digits
    assert crs_fast(2, 14283, 0) == crs_divisor_sum(2, 14283, 0) == jordan(14283, 2)
    assert len(str(jordan(14283, 2))) <= 4300
    assert crs_fast(1, 10**8, 7) == 1  # 1^s never grows
    start = time.perf_counter()
    for call in (lambda: crs_fast(2, 14284, 0), lambda: crs_fast(12, 10**8, 7),
                 lambda: crs_divisor_sum(12, 10**8, 7),
                 lambda: evaluate(CohenSumQuery(12, 10**8, 7)),
                 lambda: evaluate(CohenSumQuery(12, 10**8, 7), "divisor-sum")):
        with pytest.raises(ValueError, match=r"guard: r\^s = \d+\^\d+ has more than 14284 bits"):
            call()
    for k, n in ((14284, 2), (10**8, 2), (10**5, 10**12)):
        with pytest.raises(ValueError, match=rf"jordan guard: n\^k = {n}\^{k} has more"):
            jordan(k, n)
    assert time.perf_counter() - start < 0.25


def test_evaluate_tags_and_dispatch():
    # one name -> route table, in the order the CLI offers the names
    assert _EVALUATORS == {"multiplicative": crs_fast, "divisor-sum": crs_divisor_sum,
                           "direct": crs_direct}
    assert list(_EVALUATORS) == ["multiplicative", "divisor-sum", "direct"]
    q = CohenSumQuery(6, 1, 3)
    for tag in _EVALUATORS:
        out = evaluate(q, tag)
        assert out == -2 and type(out) is int
    with pytest.raises(ValueError, match="evaluator"):
        evaluate(q, "magic")


def test_negative_n_allowed_in_kvector():
    # periodic in n, so a negative argument is fine
    assert kvector_sum(1, -3, 6) == kvector_sum(1, 3, 6)
