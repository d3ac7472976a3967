"""Reference values the benchmark checks CLI output against.

Nothing here imports spantree: partition numbers come from Euler's
pentagonal recurrence and the Euler transform (the library uses a
one-part-at-a-time DP), and determinants are taken modulo primes with numpy
(the library uses exact fraction-free elimination).
"""

from __future__ import annotations

import math

import numpy as np

# two primes below 2^31, so a product of residues fits in int64
PRIMES = (2_147_483_647, 2_147_483_629)

# long-published values of the partition function
P_50 = 204_226
P_100 = 190_569_292

# |A_n|: distinct spanning-tree counts of connected simple graphs on n vertices
ATLAS_SIZES = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 65, 7: 386}
# by hand: trees and the triangle; then tree, triangle+pendant, C4, diamond, K4
ATLAS_SETS = {3: {1, 3}, 4: {1, 3, 4, 8, 16}}


def primes_upto(n: int) -> list[int]:
    """Primes <= n by trial division against the primes found so far."""
    found: list[int] = []
    for k in range(2, n + 1):
        if all(k % p for p in found if p * p <= k):
            found.append(k)
    return found


def partition_numbers(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def restricted_partition_numbers(n: int, parts: list[int]) -> list[int]:
    """Partitions of 0..n into the given parts, by the Euler transform.

    With sigma(j) the sum of the allowed parts dividing j,
    m * c(m) = sum_{j=1..m} sigma(j) * c(m - j).
    """
    sigma = [0] * (n + 1)
    for a in parts:
        for j in range(a, n + 1, a):
            sigma[j] += a
    c = [1] + [0] * n
    for m in range(1, n + 1):
        c[m] = sum(sigma[j] * c[m - j] for j in range(1, m + 1) if sigma[j]) // m
    return c


def odd_prime_cumulative(n: int) -> int:
    """Nonempty odd-prime partitions with sum <= n."""
    counts = restricted_partition_numbers(n, [p for p in primes_upto(n) if p != 2])
    return sum(counts[3:])


def det_mod(mat: np.ndarray, p: int) -> int:
    """Determinant of a square integer matrix modulo the prime p."""
    a = np.array(mat, dtype=np.int64) % p
    k = a.shape[0]
    det = 1
    for col in range(k):
        nz = np.flatnonzero(a[col:, col])
        if nz.size == 0:
            return 0
        r = col + int(nz[0])
        if r != col:
            a[[col, r]] = a[[r, col]]
            det = -det
        pivot = int(a[col, col])
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        factors = a[col + 1 :, col] * inv % p
        a[col + 1 :, col:] = (a[col + 1 :, col:] - factors[:, None] * a[col, col:] % p) % p
    return det % p


def reduced_laplacian(n: int, edges: list[tuple[int, int, int]]) -> np.ndarray:
    """Laplacian of a multigraph with vertex 0's row and column struck."""
    lap = np.zeros((n, n), dtype=np.int64)
    for u, v, m in edges:
        lap[u, u] += m
        lap[v, v] += m
        lap[u, v] -= m
        lap[v, u] -= m
    return lap[1:, 1:]


def tau_residues(n: int, edges: list[tuple[int, int, int]]) -> tuple[int, ...]:
    """Spanning-tree count modulo each of PRIMES, by the matrix-tree theorem."""
    lap = reduced_laplacian(n, edges)
    return tuple(det_mod(lap, p) for p in PRIMES)


def log_hardy_ramanujan(n: int) -> float:
    return math.pi * math.sqrt(2 * n / 3) - math.log(4 * n * math.sqrt(3))


def log_main_term(n: int) -> float:
    """log f(n), f(n) = exp((2 pi / sqrt 3) sqrt(n / ln n))."""
    return 2 * math.pi / math.sqrt(3) * math.sqrt(n / math.log(n))


def log_lower_bound(n: int) -> float:
    """log of (1/4) sqrt(n ln n) f(n)."""
    return math.log(0.25) + 0.5 * math.log(n * math.log(n)) + log_main_term(n)


def log_integral_target(x: float) -> float:
    """log of (sqrt 3 / pi) sqrt(x ln x) f(x)."""
    return math.log(math.sqrt(3) / math.pi) + 0.5 * math.log(x * math.log(x)) + log_main_term(x)


def lhospital_ratio(n: int) -> float:
    """The CLI's documented r: a central difference of the integral target,
    step max(1, n/1000), over f(n).

    The step is coarse for large n: at n ~ 8e6 this differs from the exact
    derivative ratio by about 25%.  The check holds the CLI to its own
    documented method.
    """
    h = max(1.0, n / 1000)
    base = log_integral_target(n)
    rise = math.exp(log_integral_target(n + h) - base) - math.exp(log_integral_target(n - h) - base)
    return math.exp(base - log_main_term(n)) * rise / (2 * h)
