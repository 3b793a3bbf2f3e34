"""Grothendieck-group classes of local cohomology with Pfaffian support.

A class is a tuple of m+1 q-polynomials, m = floor(n/2), the coefficients of
the basis modules.  ``localcoh_class`` uses the basis in which the local
cohomology splits: for even n the indecomposables Q_0..Q_m coming from the
pole order filtration, for odd n, where it is semisimple, the simples
D_0..D_m.  ``localcoh_class_even_D`` gives an even class in the D-basis.
Since [Q_p] = [D_0] + ... + [D_p], ``q_to_d`` rewrites a Q-basis class in the
D-basis by running sums.

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


def localcoh_class(n: int, k: int) -> tuple[QPoly, ...]:
    """The class for n x n matrices, one formula for both parities, in the
    Q-basis for even n and the D-basis for odd n: with r = floor((n-1)/2), the
    coefficient of the p-th module is
    q^(C(n-2k,2) + (4 - 2(n mod 2))(k-p)) * binom(r-p-1, k-p)_{q^4}, and the
    even hypersurface case k = n/2-1 is [Q_{m-1}] * q."""
    m = n // 2
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= floor(n/2)-1, got k={k}, n={n}")
    coeffs = [ZERO] * (m + 1)
    if n % 2 == 0 and k == m - 1:
        # hypersurface case: the localization quotient sits in degree 1
        coeffs[m - 1] = QPoly.q(1)
    else:
        r, codim = (n - 1) // 2, comb(n - 2 * k, 2)
        for p in range(k + 1):
            coeffs[p] = QPoly.q(codim + (4 - 2 * (n % 2)) * (k - p)) * gaussian_binomial(r - p - 1, k - p, power=4)
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


def reverse_class(c: tuple[QPoly, ...], d: int) -> tuple[QPoly, ...]:
    """Swap the grading q^j <-> q^(d-j) by reversing every basis coefficient."""
    return tuple(p.reverse(d) for p in c)
