"""Ext-multiplicity series of invariant-ideal quotients, by two routes.

For the quotient by the ideal of an a x b rectangle (n = 2m even, b >= 2a-1),
the graded multiplicity of the determinant power det(W*)^(n+b-2a) in
Ext(S/I_{a x b}, S) is computed either by direct enumeration,

    sum over partitions beta in an (m-a) x (a-1) box of
        q^( C(2m,2) - C(2a-2,2) - 4(a-1) - 4|beta| ),

or in closed form as q^(a(2a-3) - m(4a-2m-3) + 1) * binom(m-1, a-1)_{q^4}.
The value does not depend on b, which only gates validity.

The Z-sets record which subquotient pairs (x, p) occur in the standard
filtration of S/I_z, for the two shapes of z needed downstream: a rectangle
a x (e+1), and the same rectangle with a column of ones glued underneath.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .partitions import Partition, _weakly_decreasing, gaussian_binomial
from .polyring import QPoly


@dataclass(frozen=True)
class ZPair:
    """A filtration label (x, p): partition x with x_1 = ... = x_{p+1}."""

    x: Partition
    p: int

    def __post_init__(self):
        if not 0 <= self.p < len(self.x):
            raise ValueError(f"require 0 <= p < len(x), got p={self.p}, len={len(self.x)}")
        head = self.x.parts[: self.p + 1]
        if any(v != head[0] for v in head):
            raise ValueError(f"first p+1 = {self.p + 1} parts of {self.x} must be equal")


def ext_series_enum(m: int, a: int, b: int) -> QPoly:
    """The multiplicity series by box enumeration (the brute-force route)."""
    _check_args(m, a, b)
    base = comb(2 * m, 2) - comb(2 * a - 2, 2) - 4 * (a - 1)
    sizes = Counter(map(sum, _weakly_decreasing(m - a, 0, a - 1)))
    return QPoly({base - 4 * size: count for size, count in sizes.items()})


def ext_series_closed(m: int, a: int, b: int) -> QPoly:
    """The multiplicity series in closed form."""
    _check_args(m, a, b)
    shift = a * (2 * a - 3) - m * (4 * a - 2 * m - 3) + 1
    return QPoly.q(shift) * gaussian_binomial(m - 1, a - 1, power=4)


def _check_args(m: int, a: int, b: int) -> None:
    if not 1 <= a <= m:
        raise ValueError(f"require 1 <= a <= m, got a={a}, m={m}")
    if b < 2 * a - 1:
        raise ValueError(f"require b >= 2a-1 = {2 * a - 1}, got b={b}")


def zset_rectangle(m: int, a: int, e: int) -> frozenset[ZPair]:
    """Filtration labels of the quotient by an a x (e+1) rectangle ideal:
    all (x, a-1) with x in P(m) and x_1 = ... = x_a <= e."""
    if not 1 <= a <= m:
        raise ValueError(f"require 1 <= a <= m, got a={a}, m={m}")
    if e < 0:
        raise ValueError(f"require e >= 0, got e={e}")
    return frozenset(
        ZPair(Partition((v,) * a + tail), a - 1) for v in range(e + 1) for tail in _weakly_decreasing(m - a, 0, v)
    )


def zset_thickened(m: int, a: int, e: int) -> frozenset[ZPair]:
    """Filtration labels for the rectangle with a column of ones underneath,
    z = ((e+1)^a, 1^(m-a)): the sentinel (0, m-1) plus all (x, a-1) with
    x_1 = ... = x_a <= e and every part of x at least 1."""
    if not 1 <= a <= m:
        raise ValueError(f"require 1 <= a <= m, got a={a}, m={m}")
    if e < 0:
        raise ValueError(f"require e >= 0, got e={e}")
    sentinel = ZPair(Partition((), length=m), m - 1)
    return frozenset(
        ZPair(Partition((v,) * a + tail), a - 1) for v in range(1, e + 1) for tail in _weakly_decreasing(m - a, 1, v)
    ) | {sentinel}
