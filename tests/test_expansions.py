import cmath
import json
import math
import time
from fractions import Fraction
from itertools import combinations

import pytest

from cohenram.arith import factorize, jordan, mobius, zeta
from cohenram.cohen import crs_fast
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
            omega = len(factorize(q).factors)
            err = abs(Fraction(terms[q]) - exact) / abs(exact)
            assert err <= 2 * omega * Fraction(1, 2**53), (s, k, n, q)


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


def test_overflow_guard_on_argument():
    with pytest.raises(ValueError, match="2\\^63"):
        expansion_partial_sum(ExpansionQuery(2, 1, 2**40, 10))


def test_serialization_round_trip():
    rep = expansion_partial_sum(ExpansionQuery(2, 2, 5, 1500))
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["schema"] == 1
    assert back["query"] == {"s": 2, "k": 2, "n": 5, "Q": 1500}
    assert back["partial_sums"] == [[q, s] for q, s in rep.partial_sums]
    assert back["converged"] == rep.converged

    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "Q,partial_sum,abs_error"
    assert len(lines) == 1 + len(rep.partial_sums)
    q0, s0, e0 = lines[1].split(",")
    assert int(q0) == rep.partial_sums[0][0]
    assert float(s0) == rep.partial_sums[0][1]
    assert float(e0) == abs(rep.partial_sums[0][1] - rep.target)


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


def test_local_factor_exact_rejects_non_primes():
    with pytest.raises(ValueError, match="prime"):
        local_factor_exact(1, 1, 1, {2, 4})


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
