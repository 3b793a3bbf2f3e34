"""Integer partitions, box enumeration, and Gaussian binomial coefficients.

A partition here is a weakly decreasing tuple of nonnegative integers with an
explicit ambient length: trailing zeros count toward the length but not toward
the identity of the partition, so ``Partition((2, 1)) == Partition((2, 1, 0))``
while their lengths differ.

The Gaussian binomial ``binom(a, b)_q`` is computed by the Pascal recurrence

    binom(a, b) = binom(a-1, b-1) + q^b * binom(a-1, b),    a > b > 0,

with binom(a, 0) = binom(a, a) = 1, keeping all arithmetic in integers.  The
recurrence runs iteratively, one row of dense coefficient tuples per value of
b, so no size of a exhausts the call stack.  An independent route,
``gaussian_binomial_oracle``, sums q^|x| over the partitions x fitting inside
an (a-b) x b box; the two must agree.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from operator import add, ge
from typing import Iterator, Sequence

from .polyring import QPoly


class Partition:
    """Weakly decreasing nonnegative integers padded to an ambient length."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence[int] = (), length: int | None = None):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"partition parts must be nonnegative integers, got {p!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if length is not None:
            trimmed = _trim(parts)
            if length < len(trimmed):
                raise ValueError(f"ambient length {length} too short for {trimmed}")
            parts = trimmed + (0,) * (length - len(trimmed))
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def profile(self) -> tuple[int, ...]:
        """The parts with trailing zeros removed."""
        return _trim(self._parts)

    def size(self) -> int:
        return sum(self._parts)

    def padded(self, length: int) -> Partition:
        return Partition(self._parts, length=length)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.profile == other.profile

    def __hash__(self) -> int:
        return hash(self.profile)

    def __repr__(self) -> str:
        return f"Partition({self._parts})"


def _trim(parts: tuple[int, ...]) -> tuple[int, ...]:
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a >= b for sequences of equal ambient length."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(map(ge, a, b))


def enumerate_box(c: int, d: int) -> Iterator[Partition]:
    """All partitions with at most c parts, each part at most d.

    Yields each partition exactly once (ambient length c), in lexicographically
    descending order starting from the full c x d rectangle.  The number of
    partitions produced is the binomial coefficient C(c+d, d).
    """
    if c < 0 or d < 0:
        raise ValueError("box dimensions must be nonnegative")
    return (Partition(parts) for parts in _weakly_decreasing(c, 0, d))


def _weakly_decreasing(length: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of the given length with entries in [lo, hi],
    in lexicographically descending order; just () at length 0."""
    return combinations_with_replacement(range(hi, lo - 1, -1), length)


def _doubled(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(zip(v, v)))


def double_columns(z: Partition) -> Partition:
    """Repeat every part twice: (z1, z2, ...) -> (z1, z1, z2, z2, ...).

    On Young diagrams this doubles every column length; the result has ambient
    length 2 * len(z).
    """
    return Partition(_doubled(z.parts))


def conjugate(z: Partition) -> Partition:
    """Transpose of the Young diagram; ambient length is the widest row of z."""
    profile = z.profile
    width = profile[0] if profile else 0
    cols = [0] * width
    for p in profile:
        for i in range(p):
            cols[i] += 1
    return Partition(cols, length=width)


# _gauss(a, b) takes time and memory growing as its degree b(a-b) squared,
# and a + 1 steps at degree 0 (b = 0 or b = a), where the binomial is 1
_MAX_DEGREE = 10_000


def gaussian_binomial(a: int, b: int, power: int = 1) -> QPoly:
    """The Gaussian binomial coefficient binom(a, b)_q, a polynomial in q;
    with ``power``, the same coefficients on q^power (``power=4`` gives the
    binom(a, b)_{q^4} of the local cohomology formulas).

    Requires a >= b >= 0 and b(a-b) <= 10 000; callers dispatch any special
    cases before calling.  The result has degree power * b(a-b) and
    nonnegative coefficients.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("arguments must be integers")
    if b < 0 or a < b:
        raise ValueError(f"gaussian_binomial requires a >= b >= 0, got ({a}, {b})")
    if not isinstance(power, int) or power < 1:
        raise ValueError("substitution power must be a positive integer")
    degree = b * (a - b)
    if degree > _MAX_DEGREE:
        raise ValueError(f"binomial({a}, {b}) has degree {degree}, above the limit {_MAX_DEGREE}")
    coeffs = _gauss(a, b) if degree else (1,)
    return QPoly({power * e: c for e, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def _gauss(a: int, b: int) -> tuple[int, ...]:
    """Coefficients of binom(a, b)_q, constant term first.

    Row j holds binom(j + r, j) for r = 0..a-b; Pascal's rule gives
    binom(j + r, j) = binom(j + r - 1, j - 1) + q^j * binom(j + r - 1, j),
    the first term from the row before and the second from the entry before.
    """
    row = [(1,)] * (a - b + 1)
    for j in range(1, b + 1):
        new = [(1,)]
        for r in range(1, a - b + 1):
            coeffs = list(row[r]) + [0] * r  # degree (j-1)r, padded to jr
            coeffs[j:] = map(add, coeffs[j:], new[r - 1])
            new.append(tuple(coeffs))
        row = new
    return row[-1]


def gaussian_binomial_oracle(a: int, b: int) -> QPoly:
    """binom(a, b)_q by brute force: sum of q^|x| over partitions x in an (a-b) x b box."""
    if b < 0 or a < b:
        raise ValueError(f"gaussian_binomial_oracle requires a >= b >= 0, got ({a}, {b})")
    sizes = Counter(map(sum, _weakly_decreasing(a - b, 0, b)))
    return QPoly(sizes)
