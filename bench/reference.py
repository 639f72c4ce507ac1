"""Independent value of L(N) = sum_{n <= N} J_a(n)/n^a * J_b(n+h)/(n+h)^b.

Each term is built from the exact pointwise ``jordan()`` (factorization,
no sieve) with one correctly rounded division per ratio, and the whole
sum is one ``math.fsum``.  Usage: ``python3 bench/reference.py a b h N``;
prints the value as a Python float literal.
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from cohenram.arith import jordan  # noqa: E402


def pointwise_lhs(a: int, b: int, h: int, N: int) -> float:
    return math.fsum(jordan(a, n) / n**a * (jordan(b, n + h) / (n + h) ** b)
                     for n in range(1, N + 1))


if __name__ == "__main__":
    print(repr(pointwise_lhs(*map(int, sys.argv[1:5]))))
