"""Grothendieck-group classes of local cohomology with Pfaffian support.

A class is a vector of q-polynomials indexed by a basis of module symbols:
the indecomposables Q_0..Q_m coming from the pole order filtration (even
ambient size only) or the simples D_0..D_m.  Since [Q_p] = [D_0] + ... + [D_p],
the change of basis is a running sum one way and a difference the other.

``localcoh_class_even_Q(m, k)`` is the class of the total local cohomology of
the polynomial ring with support in the rank <= 2k locus of 2m x 2m
skew-symmetric matrices, graded by cohomological degree q^j:

    sum_p [Q_p] * q^(2(m-k)^2 - (m-k) + 4(k-p)) * binom(m-p-2, k-p)_{q^4}

for 0 <= k <= m-2, and [Q_{m-1}] * q for the hypersurface case k = m-1.
``reverse_class`` converts between the q^j and q^(d-j) gradings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import gaussian_binomial
from .polyring import ZERO, BiLaurentPoly

QBASIS = "Q"
DBASIS = "D"


@dataclass(frozen=True)
class KClass:
    """Coefficients (q-polynomials) of a class in the {Q_p} or {D_s} basis."""

    basis: str
    n: int
    coeffs: tuple[BiLaurentPoly, ...]

    def __post_init__(self):
        if self.basis not in (QBASIS, DBASIS):
            raise ValueError(f"basis must be {QBASIS!r} or {DBASIS!r}, got {self.basis!r}")
        if self.basis == QBASIS and self.n % 2:
            raise ValueError("the Q-basis only exists for even ambient size")
        m = self.n // 2
        if len(self.coeffs) != m + 1:
            raise ValueError(f"expected {m + 1} coefficients for n={self.n}, got {len(self.coeffs)}")
        for c in self.coeffs:
            if not c.is_q_only():
                raise ValueError("basis coefficients must be polynomials in q only")

    @property
    def m(self) -> int:
        return self.n // 2


def q_to_d(c: KClass) -> KClass:
    """Rewrite a Q-basis class in the D-basis via [Q_p] = sum_{s<=p} [D_s]."""
    if c.basis != QBASIS:
        raise ValueError("q_to_d expects a Q-basis class")
    coeffs = [sum(c.coeffs[s:], ZERO) for s in range(c.m + 1)]
    return KClass(DBASIS, c.n, tuple(coeffs))


def d_to_q(c: KClass) -> KClass:
    """Inverse of q_to_d, by differencing consecutive D-coefficients."""
    if c.basis != DBASIS:
        raise ValueError("d_to_q expects a D-basis class")
    if c.n % 2:
        raise ValueError("the Q-basis only exists for even ambient size")
    m = c.m
    coeffs = [c.coeffs[p] - c.coeffs[p + 1] for p in range(m)]
    coeffs.append(c.coeffs[m])
    return KClass(QBASIS, c.n, tuple(coeffs))


def localcoh_class_even_Q(m: int, k: int) -> KClass:
    """Class of the local cohomology of S with support in the rank <= 2k locus,
    n = 2m even, in the Q-basis, graded by q^(cohomological degree)."""
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    coeffs = [ZERO] * (m + 1)
    if k == m - 1:
        # hypersurface case: the localization quotient sits in degree 1
        coeffs[m - 1] = BiLaurentPoly.q(1)
    else:
        for p in range(k + 1):
            shift = 2 * (m - k) ** 2 - (m - k) + 4 * (k - p)
            coeffs[p] = BiLaurentPoly.q(shift) * gaussian_binomial(m - p - 2, k - p, power=4)
    return KClass(QBASIS, 2 * m, tuple(coeffs))


def localcoh_class_even_D(m: int, k: int) -> KClass:
    """The same class in the D-basis, after collapsing the running sums with
    the Pascal identity: coefficient of D_s is
    q^(2(m-k)^2 - (m-k)) * binom(m-s-1, k-s)_{q^4} for s <= k."""
    if not 0 <= k <= m - 2:
        raise ValueError(f"require 0 <= k <= m-2, got k={k}, m={m}")
    shift = 2 * (m - k) ** 2 - (m - k)
    coeffs = [ZERO] * (m + 1)
    for s in range(k + 1):
        coeffs[s] = BiLaurentPoly.q(shift) * gaussian_binomial(m - s - 1, k - s, power=4)
    return KClass(DBASIS, 2 * m, tuple(coeffs))


def localcoh_class_odd_D_reversed(m: int, k: int) -> KClass:
    """For n = 2m+1 odd: the class sum_j [H^(d-j)] q^j with d = n(n-1)/2,
    support in the rank <= 2k locus; coefficient of D_p is
    q^(k(2k+3) - 2p(2k-2m+1)) * binom(m-p-1, k-p)_{q^4}."""
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    coeffs = [ZERO] * (m + 1)
    for p in range(k + 1):
        shift = k * (2 * k + 3) - 2 * p * (2 * k - 2 * m + 1)
        coeffs[p] = BiLaurentPoly.q(shift) * gaussian_binomial(m - p - 1, k - p, power=4)
    return KClass(DBASIS, 2 * m + 1, tuple(coeffs))


def reverse_class(c: KClass, d: int) -> KClass:
    """Swap the grading q^j <-> q^(d-j) by reversing every basis coefficient."""
    return KClass(c.basis, c.n, tuple(p.reverse(d) for p in c.coeffs))
