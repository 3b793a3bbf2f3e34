"""Local cohomology at the origin of the indecomposable and simple modules.

Every module supported at the origin is a direct sum of copies of the
injective hull E, so each of these computations is a single polynomial in q
recording the multiplicity of E per cohomological degree.  All exponents lie
in [0, C(n,2)] where n is the ambient matrix size.
"""

from __future__ import annotations

from .partitions import gaussian_binomial
from .polyring import BiLaurentPoly


def h0_pf_pole(m: int, k: int) -> BiLaurentPoly:
    """E-multiplicities of the origin local cohomology of <Pf^(-2k)>, n = 2m:

        q^(m(2m-1) - k(2k+3) - 4(m-k-1)k) * binom(m-1, m-k-1)_{q^4}
    """
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    shift = m * (2 * m - 1) - k * (2 * k + 3) - 4 * (m - k - 1) * k
    return BiLaurentPoly.q(shift) * gaussian_binomial(m - 1, m - k - 1, power=4)


def h0_Q(m: int, p: int) -> BiLaurentPoly:
    """E-multiplicities of the origin local cohomology of the indecomposable
    Q_p (n = 2m even): q^(p(2p+3)) * binom(m-1, p)_{q^4}."""
    if not 0 <= p <= m - 1:
        raise ValueError(f"require 0 <= p <= m-1, got p={p}, m={m}")
    return BiLaurentPoly.q(p * (2 * p + 3)) * gaussian_binomial(m - 1, p, power=4)


def h0_D_even(m: int, s: int) -> BiLaurentPoly:
    """E-multiplicities of the origin local cohomology of the simple D_s
    (n = 2m even): q^(s(2s-1)) * binom(m, s)_{q^4}."""
    if not 0 <= s <= m:
        raise ValueError(f"require 0 <= s <= m, got s={s}, m={m}")
    return BiLaurentPoly.q(s * (2 * s - 1)) * gaussian_binomial(m, s, power=4)


def h0_D_odd(m: int, p: int) -> BiLaurentPoly:
    """E-multiplicities of the origin local cohomology of the simple D_p
    (n = 2m+1 odd): q^(p(2p+1)) * binom(m, p)_{q^4}."""
    if not 0 <= p <= m:
        raise ValueError(f"require 0 <= p <= m, got p={p}, m={m}")
    return BiLaurentPoly.q(p * (2 * p + 1)) * gaussian_binomial(m, p, power=4)
