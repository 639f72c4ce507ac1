import cmath
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from cohenram import cli, expansions
from cohenram.arith import factorize, jordan, mobius, primes_upto, zeta
from cohenram.cohen import crs_direct_spectrum, crs_fast
from cohenram.expansions import (
    _CHUNK,
    ExpansionQuery,
    _expansion_terms,
    expansion_partial_sum,
    local_factor_cases,
    local_factor_exact,
    sivaramakrishnan_check,
)


def test_query_validation():
    with pytest.raises(ValueError):
        ExpansionQuery(0, 1, 1, 10)
    with pytest.raises(ValueError):
        ExpansionQuery(1, 1, 1, 0)


def test_single_term_partial_sum():
    rep = expansion_partial_sum(ExpansionQuery(2, 3, 1, 1))
    assert rep.partial_sums == ((1, 1.0),)


def test_classical_collapse_n_equals_one():
    # with n = 1 the series is sum mu^2(q)/J_{s+k}(q) -> zeta(s+k)
    for s, k in [(1, 1), (2, 1), (1, 2), (3, 3)]:
        rep = expansion_partial_sum(ExpansionQuery(s, k, 1, 10**4))
        assert rep.target == pytest.approx(zeta(s + k), abs=1e-12)
        assert rep.final_abs_error < 1e-3
        assert rep.converged


def test_report_structure():
    rep = expansion_partial_sum(ExpansionQuery(1, 1, 6, 5000))
    qs = [q for q, _ in rep.partial_sums]
    assert qs == [10, 100, 1000, 5000]
    assert rep.final_abs_error == abs(rep.partial_sums[-1][1] - rep.target)
    assert rep.target == pytest.approx(zeta(2) * jordan(1, 6) / 6, abs=1e-12)


def test_error_decays_with_cutoff():
    for s, k, n in [(1, 1, 1), (1, 2, 7), (2, 1, 12), (2, 2, 20)]:
        rep = expansion_partial_sum(ExpansionQuery(s, k, n, 2000))
        sums = dict(rep.partial_sums)
        assert abs(sums[2000] - rep.target) < abs(sums[100] - rep.target)


def test_matches_classical_ramanujan_expansion_at_s_one():
    # same sums as an implementation built on the classical c_q(n)
    n, k, Q = 6, 1, 300

    def classical_c(q):
        acc = sum(cmath.exp(2j * math.pi * n * m / q)
                  for m in range(1, q + 1) if math.gcd(m, q) == 1)
        assert abs(acc.imag) < 1e-6
        return round(acc.real)

    s_classical = math.fsum(
        mobius(q) * classical_c(q) / jordan(k + 1, q) for q in range(1, Q + 1)
        if mobius(q) != 0)
    rep = expansion_partial_sum(ExpansionQuery(1, k, n, Q))
    assert rep.partial_sums[-1][1] == pytest.approx(s_classical, abs=1e-12)


def test_expansion_terms_match_pointwise():
    # each table entry is a product of omega(q) rounded factors, within
    # 2 omega(q) 2^-53 relative of the exact term
    Q = 5000
    for s, k, n in [(1, 1, 1), (1, 2, 30), (2, 1, 12), (2, 3, 25), (3, 1, 7), (3, 3, 90)]:
        terms = _expansion_terms(s, k, n, Q)
        assert terms[0] == 0.0
        for q in range(1, Q + 1):
            exact = Fraction(mobius(q) * crs_fast(q, s, n**s), jordan(s + k, q))
            if exact == 0:
                assert terms[q] == 0.0
                continue
            omega = len(factorize(q))
            err = abs(Fraction(terms[q]) - exact) / abs(exact)
            assert err <= 2 * omega * Fraction(1, 2**53), (s, k, n, q)


def test_expansion_terms_at_primes_are_bit_identical():
    # the closed forms at a prime give the same ints crs_fast and jordan
    # return, so the same floats
    primes = primes_upto(10**4).tolist()
    for s, k, n in [(1, 1, 1), (1, 2, 30), (2, 1, 12), (2, 3, 25), (3, 1, 7), (3, 3, 90)]:
        terms = _expansion_terms(s, k, n, 10**4)
        for p in primes:
            want = -crs_fast(p, s, n**s) / jordan(s + k, p)
            assert terms[p].hex() == want.hex(), (s, k, n, p)


def test_expansion_terms_past_the_float_range_are_zero():
    # past s + k = 1140 no p^(s+k) is built, and the exact quotient rounds
    # to zero at every prime on either side of that line
    primes = primes_upto(100).tolist()
    for s, k in [(1, 1139), (1, 1140), (1100, 41), (63, 1100)]:
        terms = _expansion_terms(s, k, 1, 100)
        assert terms[1] == 1.0 and not terms[2:].any()
        assert all(1 / jordan(s + k, p) == 0.0 for p in primes[:3]), (s, k)
    start = time.perf_counter()
    for s, k in [(10**12, 1), (1, 10**12), (1, 2**63 + 1)]:
        rep = expansion_partial_sum(ExpansionQuery(s, k, 1, 10))
        assert rep.partial_sums == ((10, 1.0),) and rep.target == 1.0
    assert time.perf_counter() - start < 0.5


def test_chunked_partial_sums_are_bit_identical():
    # fsum is correctly rounded, so reading the table in chunks gives the
    # sum of one whole list bit for bit; Q ends inside a fourth chunk
    Q = 3 * _CHUNK + 5
    for s, k, n in [(1, 1, 1), (2, 1, 12), (3, 2, 30)]:
        terms = _expansion_terms(s, k, n, Q)
        report = expansion_partial_sum(ExpansionQuery(s, k, n, Q))
        assert [c for c, _ in report.partial_sums] == [10, 100, 1000, Q]
        for c, got in report.partial_sums:
            assert got.hex() == math.fsum(terms[1 : c + 1].tolist()).hex()


def test_partial_sums_are_the_fsum_of_every_term(monkeypatch):
    # only the nonzero terms reach fsum; it is correctly rounded and an
    # exact 0 adds nothing, so every checkpoint is the fsum of the whole
    # slice bit for bit, at Q < 10, on the all-zero path past s + k = 1140,
    # and over up to 47 chunks once _CHUNK is 64
    rng = random.Random(2701)
    queries = [ExpansionQuery(1141, 1, 1, 20), ExpansionQuery(2, 1, 6, 1)]
    queries += [ExpansionQuery(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 60),
                               rng.randint(2, 9) if i % 4 == 0 else rng.randint(10, 3000))
                for i in range(36)]
    assert sum(q.Q < 10 for q in queries) >= 9
    for chunk in (_CHUNK, 64):
        monkeypatch.setattr(expansions, "_CHUNK", chunk)
        for q in queries:
            terms = _expansion_terms(q.s, q.k, q.n, q.Q)
            for c, got in expansion_partial_sum(q).partial_sums:
                want = math.fsum(terms[1 : c + 1].tolist())
                assert got.hex() == want.hex(), (q, chunk, c)
    assert expansion_partial_sum(queries[0]).partial_sums == ((10, 1.0), (20, 1.0))


def test_overflow_guard_on_argument():
    with pytest.raises(ValueError, match="2\\^63"):
        expansion_partial_sum(ExpansionQuery(2, 1, 2**40, 10))


def test_serialization_round_trip(capsys):
    # the CLI renders the report's JSON from its fields
    rep = expansion_partial_sum(ExpansionQuery(2, 2, 5, 1500))
    assert cli.main(["expansion", "--s", "2", "--k", "2", "--n", "5", "--Q", "1500",
                     "--output", "json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back["schema"] == 1
    assert back["query"] == {"s": 2, "k": 2, "n": 5, "Q": 1500}
    assert back["partial_sums"] == [[q, s] for q, s in rep.partial_sums]
    assert back["converged"] == rep.converged


# ---------------------------------------------------------------------------
# exact local Euler factors

def test_local_factor_exact_examples():
    lhs, rhs = local_factor_exact(1, 1, 1, {2})
    assert lhs == rhs == Fraction(4, 3)
    lhs, rhs = local_factor_exact(2, 3, 9, ())
    assert lhs == rhs == 1
    lhs, rhs = local_factor_exact(2, 2, 2, {2, 3})
    assert lhs == rhs


def test_local_factor_exact_matches_manual_sum():
    # one Fraction per term, summed term by term
    cases = [(2, 1, 6, (2, 3, 5)), (1, 2, 30, (2, 3, 5, 7, 11)),
             (3, 1, 14, (2, 3, 5, 7, 11)), (2, 3, 35, (2, 3, 5, 7, 11, 13)),
             (1, 1, 1, (3, 5, 7, 11, 13, 17))]
    for s, k, n, pset in cases:
        want = Fraction(0)
        for size in range(len(pset) + 1):
            for sub in combinations(pset, size):
                q = math.prod(sub)
                want += Fraction(mobius(q) * crs_fast(q, s, n**s), jordan(s + k, q))
        lhs, rhs = local_factor_exact(s, k, n, pset)
        assert lhs == want == rhs


def _clear_local_factor_caches():
    expansions._local_factor.cache_clear()
    expansions._crs_row.cache_clear()
    expansions._jordan_row.cache_clear()
    expansions._divisor_lattice.cache_clear()
    expansions._prime_set.cache_clear()


def test_local_factor_exact_evaluates_every_divisor(monkeypatch):
    # the lhs reads crs_fast at every q | Q_P and jordan at every Q_P/q,
    # composite ones included, so it is never built from the rhs factors;
    # a warm call reads both from the cached rows and evaluates neither
    seen_crs, seen_jordan = set(), set()

    def spy_crs(r, s, n):
        seen_crs.add(r)
        return crs_fast(r, s, n)

    def spy_jordan(k, n):
        seen_jordan.add(n)
        return jordan(k, n)

    _clear_local_factor_caches()
    monkeypatch.setattr(expansions, "crs_fast", spy_crs)
    monkeypatch.setattr(expansions, "jordan", spy_jordan)
    pset = (2, 3, 5, 7)
    divisors_qp = {math.prod(sub) for size in range(5) for sub in combinations(pset, size)}
    assert len(divisors_qp) == 16
    lhs, rhs = local_factor_exact(2, 3, 12, pset)
    assert lhs == rhs
    assert seen_crs == divisors_qp
    assert seen_jordan == {210 // q for q in divisors_qp}

    seen_crs.clear()
    seen_jordan.clear()
    assert local_factor_exact(2, 3, 12, pset) == (lhs, rhs)
    assert seen_crs == set()
    assert seen_jordan == set()


def test_local_factor_exact_shares_the_crs_row_across_k(monkeypatch):
    # c_q^s(n^s) does not depend on k: after a cold start, k = 1, 2, 3 at
    # one (s, n, P) evaluate crs_fast once at each q | Q_P in all
    seen = []

    def spy_crs(r, s, n):
        seen.append(r)
        return crs_fast(r, s, n)

    _clear_local_factor_caches()
    monkeypatch.setattr(expansions, "crs_fast", spy_crs)
    s, n, pset = 2, 12, (2, 3, 5, 7)
    for k in (1, 2, 3):
        want = math.prod(local_factor_cases(s, k, p, n) for p in pset)
        assert local_factor_exact(s, k, n, pset) == (want, want)
    assert sorted(seen) == sorted(math.prod(sub) for size in range(5)
                                  for sub in combinations(pset, size))


def test_crs_depends_on_n_only_through_its_gcd_with_q_p():
    # Cohen's gcd property, which lets local_factor_exact key its results
    # by gcd(n, Q_P): at every squarefree q | 30030, c_q^s(n^s) equals
    # c_q^s(gcd(n, 30030)^s), and where q^s <= 10^6 both equal the literal
    # exponential sum (crs_direct's sum, for every residue at once)
    qs = [math.prod(sub) for size in range(7) for sub in combinations((2, 3, 5, 7, 11, 13), size)]
    direct = 0
    for q, s in product(qs, (1, 2, 3)):
        spectrum = crs_direct_spectrum(q, s).tolist() if q**s <= 10**6 else None
        for n in range(1, 61):
            d = math.gcd(n, 30030)
            assert crs_fast(q, s, n**s) == crs_fast(q, s, d**s), (q, s, n)
            if spectrum:
                assert spectrum[n**s % q**s] == spectrum[d**s % q**s] == crs_fast(q, s, d**s)
        direct += spectrum is not None
    assert direct == 139


def test_local_factor_exact_grid_is_the_closed_form_in_any_order():
    # a pair cached under too coarse a key, gcd(n, 2) in place of
    # gcd(n, Q_P) say, keeps lhs == rhs, which is all criterion 1 checks,
    # and depends on which n came first: run the repro-all grid forward,
    # reversed and shuffled, each from cold caches, and hold every lhs
    # and rhs to the closed-form product
    primes = (2, 3, 5, 7, 11, 13)
    grid = [(s, k, n, subset) for s, k, n in product((1, 2, 3), (1, 2, 3), range(1, 31))
            for size in range(len(primes) + 1) for subset in combinations(primes, size)]
    factor = {(s, k, p, n): local_factor_cases(s, k, p, n)
              for s, k, p, n in product((1, 2, 3), (1, 2, 3), primes, range(1, 31))}
    closed = [math.prod((factor[s, k, p, n] for p in subset), start=Fraction(1))
              for s, k, n, subset in grid]
    shuffled = grid[:]
    random.Random(2601).shuffle(shuffled)
    texts = []
    for order in (grid, grid[::-1], shuffled):
        _clear_local_factor_caches()
        got = {case: local_factor_exact(*case) for case in order}
        assert [got[case] for case in grid] == [(want, want) for want in closed]
        texts.append([tuple(map(str, got[case])) for case in grid])
    assert len(grid) == 17280 and texts[0] == texts[1] == texts[2]
    assert expansions._crs_row.cache_info().hits > 0


def test_local_factor_exact_bounds_the_lattice():
    # more than 10 distinct primes, or a product Q_P >= 2^63, is refused
    # before any lattice or row is built; 10 primes still run
    _clear_local_factor_caches()
    first = primes_upto(100).tolist()
    with pytest.raises(ValueError, match="lattice guard of 10"):
        local_factor_exact(1, 1, 1, first[:11])
    with pytest.raises(ValueError, match="2\\^63 lattice guard"):
        local_factor_exact(1, 1, 1, [2**61 - 1, 5])
    for cache in (expansions._divisor_lattice, expansions._jordan_row, expansions._crs_row,
                  expansions._local_factor, expansions._prime_set):
        assert cache.cache_info().currsize == 0
    lhs, rhs = local_factor_exact(1, 1, 2, first[:10])
    assert lhs == rhs == math.prod(local_factor_cases(1, 1, p, 2) for p in first[:10])


def test_local_factor_exact_reports_a_wrong_composite_value(monkeypatch):
    # equal sides come back as one normalised Fraction; a wrong crs_fast
    # value at the composite q = 6 changes only the lhs, and the rhs, read
    # from the prime values of the same evaluations, stays the product of
    # the closed-form local factors
    pset, cases = (2, 3, 5), [(1, 1, 1), (2, 1, 6), (2, 3, 12), (3, 2, 7)]

    def closed_form(s, k, n):
        return math.prod(local_factor_cases(s, k, p, n) for p in pset)

    for s, k, n in cases:
        lhs, rhs = local_factor_exact(s, k, n, pset)
        assert lhs == rhs == closed_form(s, k, n)
        for side in (lhs, rhs):
            assert type(side) is Fraction
            assert type(side.numerator) is int and type(side.denominator) is int
            assert side.denominator > 0 and math.gcd(side.numerator, side.denominator) == 1

    def wrong_at_6(r, s, n):
        return crs_fast(r, s, n) + (r == 6)

    monkeypatch.setattr(expansions, "crs_fast", wrong_at_6)
    _clear_local_factor_caches()
    try:
        for s, k, n in cases:
            lhs, rhs = local_factor_exact(s, k, n, pset)
            assert lhs != rhs
            assert rhs == closed_form(s, k, n)
    finally:  # the rows built from wrong_at_6 must not outlive it
        monkeypatch.undo()
        _clear_local_factor_caches()


def test_local_factor_exact_guards_n_to_the_s_at_its_edge():
    # the bit-length pre-check skips the guard only where n^s < 2^63 is
    # certain: the largest n with n^s < 2^63 runs, the next is refused in
    # one line, and a non-prime is named before that guard
    for s, edge in ((1, 2**63 - 1), (2, math.isqrt(2**63 - 1)), (3, 2**21 - 1)):
        assert edge**s < 2**63 <= (edge + 1) ** s
        lhs, rhs = local_factor_exact(s, 1, edge, [2])
        assert lhs == rhs == local_factor_cases(s, 1, 2, edge)
        with pytest.raises(ValueError, match="exceeds the 2\\^63 evaluation guard") as refusal:
            local_factor_exact(s, 1, edge + 1, [2])
        assert "\n" not in str(refusal.value)
        with pytest.raises(ValueError, match="4 is not prime"):
            local_factor_exact(s, 1, edge + 1, [4])


def test_local_factor_exact_rejects_non_primes():
    with pytest.raises(ValueError, match="prime"):
        local_factor_exact(1, 1, 1, {2, 4})


def test_local_factor_exact_keys_are_typed():
    # the caches are keyed by s, k, gcd(n, Q_P) and sorted prime tuples,
    # and 2.0 == 2, True == 1: a float or bool s, k, n or "prime" must be
    # refused whether or not its int twin is cached, and a refusal must
    # leave nothing behind
    def closed_form(s, k, n, pset):
        return math.prod(local_factor_cases(s, k, p, n) for p in pset)

    def assert_refused():
        # a str, complex or list is refused before sorted or set can raise TypeError
        for primes in ([2.0], [True], [2, 3.0], {2, 4}, [2, '3'], [2, 3 + 0j], [[2]]):
            with pytest.raises(ValueError, match="int|prime") as refusal:
                local_factor_exact(1, 1, 1, primes)
            assert "\n" not in str(refusal.value)
        for args in [(1.0, 1, 1), (1, 1.0, 1), (1, 1, 1.0), (True, 1, 1), (1, True, 1),
                     (1, 1, True), (1, 1, 6.0), (2, 1, 2**40 + 0.5)]:
            with pytest.raises(ValueError, match="must be ints") as refusal:
                local_factor_exact(*args, [2])
            assert "\n" not in str(refusal.value)

    _clear_local_factor_caches()
    assert_refused()
    for pset in ((2,), (2, 3)):
        for s, k, n in [(1, 1, 1), (2, 1, 6), (3, 2, 12)]:
            lhs, rhs = local_factor_exact(s, k, n, pset)
            assert lhs == rhs == closed_form(s, k, n, pset)
            assert type(lhs.numerator) is int and type(lhs.denominator) is int
    assert_refused()
    assert local_factor_exact(1, 1, 1, [2]) == (Fraction(4, 3), Fraction(4, 3))

    forms = ([3, 2, 5], {2, 3, 5}, (p for p in (5, 3, 2)), [5, 2, 3, 2, 5, 3])
    results = [local_factor_exact(2, 2, 12, primes) for primes in forms]
    assert results[0] == (closed_form(2, 2, 12, (2, 3, 5)),) * 2
    assert [tuple(map(str, r)) for r in results] == [tuple(map(str, results[0]))] * 4


def test_local_factor_cases_examples():
    assert local_factor_cases(1, 1, 2, 3) == Fraction(4, 3)
    assert local_factor_cases(1, 1, 2, 2) == Fraction(2, 3)
    assert local_factor_cases(2, 2, 3, 1) == Fraction(81, 80)
    # p | n case equals p^s (p^k - 1) / (p^(s+k) - 1)
    assert local_factor_cases(1, 1, 2, 2) == Fraction(2 * (2 - 1), 2**2 - 1)


def test_local_factor_cases_match_generic():
    primes = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
    for p in primes:
        for s in (1, 2, 3):
            for k in (1, 2, 3):
                for n in range(1, 101):
                    want = 1 + Fraction(-crs_fast(p, s, n**s), jordan(s + k, p))
                    assert local_factor_cases(s, k, p, n) == want


# ---------------------------------------------------------------------------
# the k-vector variant (evidence grade)

def test_sivaramakrishnan_classical_case():
    rep = sivaramakrishnan_check(1, 1, 1, 500)
    assert rep.target == pytest.approx(zeta(2), abs=1e-12)
    assert rep.final_abs_error < 1e-2
    assert rep.converged


def test_sivaramakrishnan_single_term():
    rep = sivaramakrishnan_check(2, 2, 3, 1)
    assert rep.partial_sums == ((1, 1.0),)


def test_sivaramakrishnan_two_vector_case():
    rep = sivaramakrishnan_check(2, 1, 2, 40)
    assert rep.target == pytest.approx(zeta(3) * jordan(1, 2) / 2, abs=1e-12)
    assert rep.final_abs_error / rep.target < 0.01
    assert rep.converged


def test_sivaramakrishnan_guard():
    with pytest.raises(ValueError, match="guard"):
        sivaramakrishnan_check(3, 1, 1, 500)
    # R^s = 3162^2 passes a bound on R^s alone, but the enumeration would
    # visit sum over squarefree r <= R of r^2, about 6e9 tuples
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard"):
        sivaramakrishnan_check(2, 1, 2, 3162)
    assert time.perf_counter() - start < 1.0
    # 2^(10^8) alone is over the guard, and is refused without being built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard at r = 2"):
        sivaramakrishnan_check(10**8, 1, 2, 2)
    assert time.perf_counter() - start < 0.25
