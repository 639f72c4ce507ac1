"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Criterion 5 checks L(N)/N against C, the mean value obtained
by expanding both Jordan ratios over their divisors: the Euler
product ``rhs_product`` at level 1.  Its verdict line also prints the ratio
against the paper's product P, which settles at roughly 0.92x / 0.94x
on the two reference configurations: for s > 1, N * P is not the limit
of the sum (it depends on s, the sum does not; see the README).
"""

import math
from itertools import combinations

from cohenram.arith import (
    divisors,
    jordan,
    tau_s,
    zeta_upper_bound,
)
from cohenram.cohen import (
    crs_direct,
    crs_direct_spectrum,
    crs_divisor_sum,
    crs_fast,
    kvector_sum,
    shift_decompose,
)
from cohenram.expansions import ExpansionQuery, expansion_partial_sum, local_factor_exact
from cohenram.asymptotics import (
    AsymptoticQuery,
    asymptotic_verify,
    expansion_coefficients,
    general_main_term,
    lhs_sum,
    rhs_product,
)

GRID_5 = ((2, 3, 3, 12), (2, 4, 3, 4))


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} ({label}): {state}{tail}")


def test_criterion_1_exact_euler_factor_skeleton():
    # lhs = rhs holds whatever Cohen's prime-power rule returns, since both
    # sides read the same c_q^s values; the closed form of statement 1 over
    # S, compared in integers, does not:
    # rhs * prod_S (p^(s+k) - 1) = prod_{p | n} p^s (p^k - 1) * prod_{p not | n} p^(s+k)
    primes = (2, 3, 5, 7, 11, 13)
    cases = 0
    failures = []
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(1, 31):
                for size in range(len(primes) + 1):
                    for subset in combinations(primes, size):
                        lhs, rhs = local_factor_exact(s, k, n, subset)
                        num = math.prod(p**s * (p**k - 1) if n % p == 0 else p ** (s + k)
                                        for p in subset)
                        den = math.prod(p ** (s + k) - 1 for p in subset)
                        cases += 1
                        if lhs != rhs or rhs.numerator * den != num * rhs.denominator:
                            failures.append((s, k, n, subset))
    ok = not failures
    _verdict(1, "exact Euler-factor identity and closed form", ok,
             f"{cases} cases, zero tolerance")
    assert ok, f"exact identity failed at {failures[:3]}"


def test_criterion_2_expansion_numeric():
    worst_final = 0.0
    decay_failures = []
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(1, 21):
                rep_hi = expansion_partial_sum(ExpansionQuery(s, k, n, 10**4))
                worst_final = max(worst_final, rep_hi.final_abs_error)
                rep_lo = expansion_partial_sum(ExpansionQuery(s, k, n, 2000))
                sums = dict(rep_lo.partial_sums)
                err_100 = abs(sums[100] - rep_lo.target)
                err_2000 = abs(sums[2000] - rep_lo.target)
                if not err_2000 < err_100:
                    decay_failures.append((s, k, n))
    ok = worst_final < 1e-3 and not decay_failures
    _verdict(2, "series vs closed form on the grid", ok,
             f"worst |S_1e4 - target| = {worst_final:.3e}, "
             f"decay failures: {len(decay_failures)}")
    assert worst_final < 1e-3
    assert not decay_failures, decay_failures[:5]


def test_criterion_3_cross_evaluator_exactness():
    mismatches = []
    for r in range(1, 31):
        for s in (1, 2, 3):
            for n in range(0, 101):
                d = crs_direct(r, s, n)
                if not d == crs_divisor_sum(r, s, n) == crs_fast(r, s, n):
                    mismatches.append((r, s, n))
    for r in range(1, 31):
        for n in range(0, 51):
            if kvector_sum(1, n, r) != crs_fast(r, 1, n):
                mismatches.append(("kvector", r, n))
    # Cohen's s-vector sum is c_r^s at n^s: sum over e | (n, r) of mu(r/e) e^s
    for s, top in ((2, 24), (3, 11)):
        for r in range(1, top + 1):
            for n in range(0, 40):
                if kvector_sum(s, n, r) != crs_fast(r, s, n**s):
                    mismatches.append(("kvector", s, r, n))
    ok = not mismatches
    _verdict(3, "three evaluators + s-vector sums agree", ok,
             "r<=30, s<=3, n<=100 exhaustive; s-vector at n^s, s<=3, n<40; zero tolerance")
    assert ok, mismatches[:5]


def _prime_powers_upto(limit):
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, p)):
            q, e = p, 1
            while q <= limit:
                out.append((p, e, q))
                q *= p
                e += 1
    return out


def test_criterion_4_prime_power_rule():
    mismatches = []
    for p, e, r in _prime_powers_upto(100):
        for s in (1, 2, 3):
            spectrum = crs_direct_spectrum(r, s)  # the definition, all residues
            m = r**s
            pse, psem1 = p ** (s * e), p ** (s * (e - 1))
            for n in range(0, 201):
                if n % pse == 0:
                    rule = pse - psem1
                elif n % psem1 == 0:
                    rule = -psem1
                else:
                    rule = 0
                if not rule == crs_fast(r, s, n) == spectrum[n % m]:
                    mismatches.append((p, e, s, n))
    ok = not mismatches
    _verdict(4, "prime-power three-case rule vs definition", ok,
             "p^e <= 100, s <= 3, n <= 200, zero tolerance")
    assert ok, mismatches[:5]


def test_criterion_5_shifted_convolution_asymptotic():
    results = []
    for s, a, b, h in GRID_5:
        q = AsymptoticQuery(s, a, b, h, 10**6, prime_cutoff=10**5)
        rep = asymptotic_verify(q, tolerance=0.02)
        C = rhs_product(q, 1).value
        rho_C = {n: v / (n * C) for n, v in rep.lhs_checkpoints}
        results.append((s, a, b, h, rho_C[10**6], rep.ratios[-1][1],
                        abs(rho_C[10**4] - 1.0), abs(rho_C[10**6] - 1.0)))
    ok = all(e6 < 0.02 and e6 < e4 and e6 < 1e-6 for *_, e4, e6 in results)
    detail = "; ".join(
        f"s={s} a={a} b={b} h={h}: L/(N*C)={rho_C:.9f}, "
        f"|L/(N*C)-1|={e6:.1e} at 1e6 vs {e4:.1e} at 1e4, L/(N*P)={rho_P:.6f}"
        for s, a, b, h, rho_C, rho_P, e4, e6 in results)
    _verdict(5, "shifted-convolution ratio L/(N*C) -> 1", ok, detail)
    assert ok, (
        "the summation side does not approach N * C, the joint-divisibility "
        "mean value, within 0.02 and 1e-6 at N = 1e6 with a smaller error "
        f"than at N = 1e4: {detail}")


def test_criterion_6_series_product_consistency():
    worst = 0.0
    for s, a, b, h in GRID_5:
        q = AsymptoticQuery(s, a, b, h, 1, prime_cutoff=10**4)
        series = general_main_term(expansion_coefficients(s, a, 10**4),
                                   expansion_coefficients(s, b, 10**4), s, h)
        worst = max(worst, abs(series - rhs_product(q, s).value))
    ok = worst < 1e-6
    _verdict(6, "main-term series vs Euler product", ok,
             f"R = P = 1e4, worst |diff| = {worst:.3e}")
    assert ok


def test_criterion_7_sieved_vs_naive_summation():
    worst = 0.0
    for s, a, b, h in GRID_5:
        sieved = dict(lhs_sum(AsymptoticQuery(s, a, b, h, 10**4)))[10**4]
        naive = math.fsum(
            (jordan(a, n) / n**a) * (jordan(b, n + h) / (n + h) ** b)
            for n in range(1, 10**4 + 1))
        worst = max(worst, abs(sieved - naive) / naive)
    ok = worst <= 1e-9
    _verdict(7, "sieved sum vs per-n factorization", ok,
             f"N = 1e4, worst relative diff = {worst:.2e}")
    assert ok


def test_criterion_8_arithmetic_identities():
    bad = []

    for n in range(1, 10**4 + 1):
        t = tau_s(1, n)
        for s in (1, 2, 3, 4):
            if tau_s(s, n**s) != t:
                bad.append(("tau_s", s, n))

    for k in (1, 2, 3, 4):
        for n in range(1, 10**4 + 1):
            if sum(jordan(k, d) for d in divisors(n)) != n**k:
                bad.append(("jordan-divisor", k, n))

    for s in (2, 3):
        ub = zeta_upper_bound(s)
        for r in range(1, 10**4 + 1):
            if r**s * ub.denominator > jordan(s, r) * ub.numerator:
                bad.append(("coefficient-bound", s, r))

    for s in (2, 3):
        for h in range(1, 501):
            m, _ = shift_decompose(h, s)
            ms = m**s
            for r in range(1, 51):
                if crs_fast(r, s, h) != crs_fast(r, s, ms):
                    bad.append(("shift", s, h, r))

    ok = not bad
    _verdict(8, "exact arithmetic identities", ok,
             "tau_s/jordan-divisor/coefficient-bound/shift, zero tolerance")
    assert ok, bad[:5]
