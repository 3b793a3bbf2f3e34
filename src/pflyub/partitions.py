"""Integer partitions and Gaussian binomial coefficients.

A partition here is a plain weakly decreasing tuple of nonnegative integers,
padded with zeros to a fixed length; ``_weakly_decreasing`` enumerates the
partitions in a box and, with a negative lower end, windows of weights.

The Gaussian binomial ``binom(a, b)_q`` is computed by the product formula

    binom(c+i, i) = binom(c+i-1, i-1) * (1 - q^(c+i)) / (1 - q^i),    i = 1..b,

with c = a - b and b <= a - b, keeping all arithmetic in integers on one dense
coefficient list.  An independent route, ``gaussian_binomial_oracle``, sums
q^|x| over the partitions x fitting inside an (a-b) x b box; the two must
agree.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement
from operator import sub
from typing import Iterator

from .polyring import QPoly, _raw


def _weakly_decreasing(length: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of the given length with entries in [lo, hi],
    in lexicographically descending order; just () at length 0."""
    return combinations_with_replacement(range(hi, lo - 1, -1), length)


def _doubled(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(zip(v, v)))


# _gauss(a, b) takes min(b, a-b) passes over one list about as long as its
# degree b(a-b): time grows as min(b, a-b) times the degree, memory as the degree
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
    coeffs = _gauss(a, b)
    # every coefficient is a positive int, so the terms are already canonical
    return _raw(dict(zip(range(0, power * len(coeffs), power), coeffs)))


# bounded for long-lived callers; verify --n-max 56 makes 433 distinct calls
@lru_cache(maxsize=1024)
def _gauss(a: int, b: int) -> tuple[int, ...]:
    """Coefficients of binom(a, b)_q, constant term first.

    Step i turns binom(c + i - 1, i - 1) into binom(c + i, i), c = a - b:
    multiply by 1 - q^(c+i), then divide by 1 - q^i as a running sum along
    each residue class mod i.  The division is exact, so the quotient's top i
    coefficients are zero and are dropped.
    """
    b = min(b, a - b)
    c = a - b
    coeffs = [1]
    for i in range(1, b + 1):
        shift = [0] * (c + i)
        coeffs = list(map(sub, coeffs + shift, shift + coeffs))
        for r in range(i):
            coeffs[r::i] = accumulate(coeffs[r::i])
        del coeffs[-i:]
    return tuple(coeffs)


def gaussian_binomial_oracle(a: int, b: int) -> QPoly:
    """binom(a, b)_q by brute force: sum of q^|x| over partitions x in an (a-b) x b box."""
    if b < 0 or a < b:
        raise ValueError(f"gaussian_binomial_oracle requires a >= b >= 0, got ({a}, {b})")
    sizes = Counter(map(sum, _weakly_decreasing(a - b, 0, b)))
    return QPoly(sizes)
