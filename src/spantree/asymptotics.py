"""Growth-rate formulas in log-space, and the consistency check behind them.

Four estimates matter: the classical partition asymptotic, the main
exponential term for partitions into primes, the cumulative lower bound
(1/4)sqrt(n ln n) f(n) on the number of odd-prime partitions with sum at
most n, and the integral target (sqrt(3)/pi) sqrt(n ln n) f(n) that the
derivative argument compares against.  All four overflow double precision
around n ~ 1e5, so the natural log of the value is the canonical form and
linear values are derived opportunistically.

The main term is f(n) = exp((2*pi/sqrt(3)) * sqrt(n / ln n)).  That choice
is pinned by a derivative identity: d/dn of the integral target tends to
f(n), and `check_lhospital` verifies the ratio numerically.  Any other
constant in the exponent breaks the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "Estimate",
    "LhospitalReport",
    "hardy_ramanujan",
    "prime_main_term",
    "cumulative_lower_bound",
    "integral_target",
    "scaled_central_derivative",
    "check_lhospital",
    "N_MAX",
]

_MAIN_COEFF = 2.0 * math.pi / math.sqrt(3.0)

# every estimate refuses n past this: n ln n is computed in double precision
# and overflows near 10^306
N_MAX = 10**300


@dataclass(frozen=True)
class Estimate:
    """One formula evaluated at one n; ``log_value`` is the natural log.

    ``value`` is the linear-scale number, or None when exp overflows a
    double (the overflow marker; log-space stays finite far beyond that).
    Which formula and which n are the caller's to keep.
    """

    log_value: float

    @property
    def value(self) -> float | None:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return None


def _log_hr(x: float) -> float:
    return math.pi * math.sqrt(2.0 * x / 3.0) - math.log(4.0 * x * math.sqrt(3.0))


def _log_f(x: float) -> float:
    return _MAIN_COEFF * math.sqrt(x / math.log(x))


def _log_cumulative(x: float) -> float:
    return math.log(0.25) + 0.5 * math.log(x * math.log(x)) + _log_f(x)


def _log_target(x: float) -> float:
    return math.log(math.sqrt(3.0) / math.pi) + 0.5 * math.log(x * math.log(x)) + _log_f(x)


def _estimate(log_fn: Callable[[float], float], n: int, lo: int) -> Estimate:
    """``log_fn`` at n, refusing n outside lo..N_MAX."""
    if not lo <= n <= N_MAX:
        raise ValueError(f"n must be >= {lo} and <= 10^300")
    return Estimate(log_fn(n))


def hardy_ramanujan(n: int) -> Estimate:
    """Partition-count asymptotic exp(pi sqrt(2n/3)) / (4 n sqrt(3))."""
    return _estimate(_log_hr, n, 1)


def prime_main_term(n: int) -> Estimate:
    """Main term f(n) for partitions into primes; needs ln n > 0, so n >= 2."""
    return _estimate(_log_f, n, 2)


def cumulative_lower_bound(n: int) -> Estimate:
    """Eventual lower bound (1/4) sqrt(n ln n) f(n) on the family size.

    Eventual means: valid for all n past some unspecified threshold, so no
    finite comparison against the exact count is asserted anywhere; tables
    put the two side by side and leave the judgment to the reader.
    """
    return _estimate(_log_cumulative, n, 2)


def integral_target(n: int) -> Estimate:
    """Closed form (sqrt(3)/pi) sqrt(n ln n) f(n) for the integral of f."""
    return _estimate(_log_target, n, 2)


def scaled_central_derivative(
    log_fn: Callable[[float], float], x: float, h: float, log_scale: float = 0.0
) -> float:
    """(g(x+h) - g(x-h)) / (2h) / exp(log_scale) for g = exp(log_fn).

    Factoring exp(log_fn(x) - log_scale) out of the difference keeps every
    exponential near 1, so the quotient is computable even where g itself
    overflows.  With log_scale = 0 this is a plain central difference,
    usable to calibrate the step size on a function with known derivative.
    """
    base = log_fn(x)
    spread = math.exp(log_fn(x + h) - base) - math.exp(log_fn(x - h) - base)
    return math.exp(base - log_scale) * spread / (2.0 * h)


@dataclass(frozen=True)
class LhospitalReport:
    """Ratios r(n) = (d/dn integral target) / f(n) over an ascending grid."""

    rows: tuple[tuple[int, float], ...]

    @property
    def deviations(self) -> tuple[float, ...]:
        return tuple(abs(r - 1.0) for _, r in self.rows)

    @property
    def tending_to_one(self) -> bool:
        """Weak monotone decrease of |r - 1| along the grid."""
        d = self.deviations
        return all(b <= a for a, b in zip(d, d[1:]))


def check_lhospital(n_grid: Sequence[int]) -> LhospitalReport:
    """Differentiate the integral target numerically and compare with f.

    The ratio should drift toward 1 from below as the grid grows (the
    leading deficit is 1/ln n).  Central differences with step
    h = max(1, n/1000); everything runs through the scaled form above, so
    grids far past the overflow point of f itself are fine.  Where the
    difference still overflows a double, ValueError names the n.

    Known defect: the step is too coarse for large n, since the change in
    the log of the integral target over it grows like sqrt(n / ln n) / 1000,
    so r is unreliable from about 10^7.  For n = 10^6, 7,805,544 and 10^8
    this gives r = 0.960720, 1.175517 and 6.432552, where the exact
    derivative gives 0.928716, 0.937407 and 0.945838, and
    ``tending_to_one`` is false on any grid that reaches that far.
    """
    if not n_grid:
        raise ValueError("grid must be nonempty")
    if any(n < 10 for n in n_grid):
        raise ValueError("grid values must be >= 10")
    if any(n > N_MAX for n in n_grid):
        raise ValueError("grid values must be <= 10^300")
    if any(a > b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("grid must be ascending")
    rows = []
    for n in n_grid:
        try:
            h = max(1.0, n / 1000.0)
            r = scaled_central_derivative(_log_target, float(n), h, log_scale=_log_f(n))
        except OverflowError as exc:
            raise ValueError(f"n={n}: the central difference overflows double precision") from exc
        rows.append((n, r))
    return LhospitalReport(rows=tuple(rows))
