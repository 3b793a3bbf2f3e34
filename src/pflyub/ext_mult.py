"""Ext-multiplicity series of invariant-ideal quotients, by box enumeration.

For the quotient by the ideal of an a x b rectangle (n = 2m even, b >= 2a-1),
the graded multiplicity of the determinant power det(W*)^(n+b-2a) in
Ext(S/I_{a x b}, S) is

    sum over partitions beta in an (m-a) x (a-1) box of
        q^( C(2m,2) - C(2a-2,2) - 4(a-1) - 4|beta| ),

the box oracle ``gaussian_binomial_oracle(m-1, a-1)`` regraded by
e -> C(2m,2) - C(2a-2,2) - 4(a-1) - 4e.
The value does not depend on b, which only gates validity.  By graded local
duality the series reversed in C(2m,2) is h0_Q(m, a-1), the origin local
cohomology of Q_(a-1); the ``ext_series`` suite of ``verify`` checks this.

The Z-sets record which subquotient pairs (x, p) occur in the standard
filtration of S/I_z, for two shapes of z: a rectangle a x (e+1), and the same
rectangle with a column of ones glued underneath.  Only the ``ext_series``
suite of ``verify`` reads them; an open ROADMAP item ties them to the Ext
series or deletes them.
A pair is the tuple (x, p): x a partition as a weakly decreasing m-tuple with
x_1 = ... = x_{p+1}, and 0 <= p < m.
"""

from __future__ import annotations

from math import comb

from .partitions import _weakly_decreasing, gaussian_binomial_oracle
from .polyring import QPoly


def ext_series_enum(m: int, a: int, b: int) -> QPoly:
    """The multiplicity series: the (m-a) x (a-1) box sizes of the oracle, regraded."""
    _check_args(m, a, b=b)
    base = comb(2 * m, 2) - comb(2 * a - 2, 2) - 4 * (a - 1)
    return QPoly({base - 4 * e: c for e, c in gaussian_binomial_oracle(m - 1, a - 1).terms().items()})


def _check_args(m: int, a: int, *, b: int | None = None, e: int = 0) -> None:
    """Refuse a outside 1..m, then the caller's own gate: b below 2a-1 or e below 0."""
    if not 1 <= a <= m:
        raise ValueError(f"require 1 <= a <= m, got a={a}, m={m}")
    if b is not None and b < 2 * a - 1:
        raise ValueError(f"require b >= 2a-1 = {2 * a - 1}, got b={b}")
    if e < 0:
        raise ValueError(f"require e >= 0, got e={e}")


def zset_rectangle(m: int, a: int, e: int) -> frozenset[tuple[tuple[int, ...], int]]:
    """Filtration labels of the quotient by an a x (e+1) rectangle ideal:
    all (x, a-1) with x in P(m) and x_1 = ... = x_a <= e."""
    _check_args(m, a, e=e)
    return frozenset(((v,) * a + tail, a - 1) for v in range(e + 1) for tail in _weakly_decreasing(m - a, 0, v))


def zset_thickened(m: int, a: int, e: int) -> frozenset[tuple[tuple[int, ...], int]]:
    """Filtration labels for the rectangle with a column of ones underneath,
    z = ((e+1)^a, 1^(m-a)): the sentinel (0, m-1) plus all (x, a-1) with
    x_1 = ... = x_a <= e and every part of x at least 1."""
    _check_args(m, a, e=e)
    labels = frozenset(((v,) * a + tail, a - 1) for v in range(1, e + 1) for tail in _weakly_decreasing(m - a, 1, v))
    return labels | {((0,) * m, m - 1)}
