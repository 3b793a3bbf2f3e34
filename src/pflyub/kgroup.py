"""Grothendieck-group classes of local cohomology with Pfaffian support.

A class is a tuple of m+1 q-polynomials, the coefficients of the basis
modules: the indecomposables Q_0..Q_m coming from the pole order filtration
(even ambient size only) or the simples D_0..D_m.  The function that builds a
class names its basis.  Since [Q_p] = [D_0] + ... + [D_p], ``q_to_d``
rewrites a Q-basis class in the D-basis by running sums.

Every class is that of the total local cohomology of the polynomial ring S
with support in the rank <= 2k locus of n x n skew-symmetric matrices, in one
grading: by cohomological degree q^j, so that its lowest degree is the
codimension C(n-2k, 2) of the locus (the grade of its ideal, S being
Cohen-Macaulay).  Each function that builds a class states its coefficients;
``reverse_class`` turns q^j into the q^(C(n,2)-j) of the Lyubeznik tables.
"""

from __future__ import annotations

from math import comb

from .partitions import gaussian_binomial
from .polyring import ZERO, QPoly


def q_to_d(c: tuple[QPoly, ...]) -> tuple[QPoly, ...]:
    """Rewrite a Q-basis class in the D-basis via [Q_p] = sum_{s<=p} [D_s]."""
    return tuple(sum(c[s:], ZERO) for s in range(len(c)))


def localcoh_class_even_Q(m: int, k: int) -> tuple[QPoly, ...]:
    """The class for n = 2m even, in the Q-basis: coefficient of Q_p is
    q^(C(n-2k,2) + 4(k-p)) * binom(m-p-2, k-p)_{q^4} for 0 <= k <= m-2, and
    the hypersurface case k = m-1 is [Q_{m-1}] * q."""
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    coeffs = [ZERO] * (m + 1)
    if k == m - 1:
        # hypersurface case: the localization quotient sits in degree 1
        coeffs[m - 1] = QPoly.q(1)
    else:
        for p in range(k + 1):
            coeffs[p] = QPoly.q(comb(2 * (m - k), 2) + 4 * (k - p)) * gaussian_binomial(m - p - 2, k - p, power=4)
    return tuple(coeffs)


def localcoh_class_even_D(m: int, k: int) -> tuple[QPoly, ...]:
    """The same class in the D-basis, after collapsing the running sums with
    the Pascal identity: coefficient of D_s is
    q^(C(2(m-k),2)) * binom(m-s-1, k-s)_{q^4} for s <= k."""
    if not 0 <= k <= m - 2:
        raise ValueError(f"require 0 <= k <= m-2, got k={k}, m={m}")
    shift = comb(2 * (m - k), 2)
    coeffs = [ZERO] * (m + 1)
    for s in range(k + 1):
        coeffs[s] = QPoly.q(shift) * gaussian_binomial(m - s - 1, k - s, power=4)
    return tuple(coeffs)


def localcoh_class_odd_D(m: int, k: int) -> tuple[QPoly, ...]:
    """The class for n = 2m+1 odd, in the D-basis: coefficient of D_p is
    q^(C(n-2k,2) + 2(k-p)) * binom(m-p-1, k-p)_{q^4}."""
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    coeffs = [ZERO] * (m + 1)
    for p in range(k + 1):
        coeffs[p] = QPoly.q(comb(2 * (m - k) + 1, 2) + 2 * (k - p)) * gaussian_binomial(m - p - 1, k - p, power=4)
    return tuple(coeffs)


def reverse_class(c: tuple[QPoly, ...], d: int) -> tuple[QPoly, ...]:
    """Swap the grading q^j <-> q^(d-j) by reversing every basis coefficient."""
    return tuple(p.reverse(d) for p in c)
