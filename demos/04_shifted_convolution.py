"""
The shifted convolution and its claimed main term
=================================================

L(N) = sum_{n<=N} J_a(n)/n^a * J_b(n+h)/(n+h)^b grows linearly; the
question is the constant.  The candidate examined here is the paper's
Euler product P built from the expansion coefficients
mu(r)/(J_{s+r'}(r) zeta) and the prime-level Cohen sums c_p^s(m^s),
where h = m^s * k with k s-power-free.  rhs_product computes it as one
mean-value product at level t = s, with local factor
1 - p^-(t+a) - p^-(t+b) + [p^t | h] p^-(t+a+b).

Three things are demonstrated:

1. the series sum_r fhat(r) ghat(r) c_r^s(h) and the product really are
   the same constant (two truncations of one Euler-factorable series);
2. L(N)/N settles fast, but NOT at that constant for s > 1: the
   measured ratio parks near 0.92 for the reference parameters.  The
   verifier reports this honestly instead of averaging it away;
3. L(N)/N does settle at C = prod_p (1 - p^-(a+1) - p^-(b+1)
   [+ p^-(a+b+1) when p | h]), the mean value found by expanding both
   Jordan ratios over their divisors: the same product at level t = 1.
"""

from cohenram import (
    AsymptoticQuery,
    asymptotic_verify,
    expansion_coefficients,
    general_main_term,
    rhs_product,
)

s, a, b, h = 2, 3, 3, 12
q = AsymptoticQuery(s, a, b, h, N=10**5, prime_cutoff=10**4)

print("series vs product (same constant, two truncations):")
prod = rhs_product(q, s)
fa, fb = expansion_coefficients(s, a, 1000), expansion_coefficients(s, b, 1000)
for R in (10, 100, 1000):
    series = general_main_term(fa[: R + 1], fb[: R + 1], s, h)
    print(f"   R={R:>5}: series = {series:.12f}   product = {prod.value:.12f}"
          f"   |diff| = {abs(series - prod.value):.2e}")
print(f"   product tail bound beyond P={prod.prime_cutoff}: {prod.tail_bound:.2e}")
print()

print(f"h = {h} decomposes as m^s * k with m={prod.m}, k={prod.k}")
print()

report = asymptotic_verify(q, tolerance=0.02)
C = rhs_product(q, 1).value
print(f"ratio trajectory L(N) / (N * product) and L(N) / (N * C), C = {C:.12f}:")
for (n, lhs), (_, rho) in zip(report.lhs_checkpoints, report.ratios):
    print(f"   N={n:>7}: L = {lhs:.6f}   ratio = {rho:.6f}"
          f"   |L/(N*C) - 1| = {abs(lhs / (n * C) - 1):.1e}")
print(f"converged within {report.tolerance}: {report.converged}")
print()
print("the ratio is flat near 0.92, not drifting toward 1: L(N)/N has a")
print("well-defined limit, and it is not this product once s > 1.  It is C,")
print("the same product taken at level 1 instead of level s.")
