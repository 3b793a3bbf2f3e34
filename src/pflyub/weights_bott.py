"""Dominant weights and Bott's algorithm on a Grassmannian.

A weight is a plain tuple of integers; a dominant weight is weakly decreasing.

Bott's algorithm, for a length-n integer sequence gamma and rho = (n-1, ..., 1, 0):
if gamma + rho has a repeated entry the cohomology vanishes; otherwise the
unique nonvanishing degree is the number of inversions of gamma + rho (the
minimal number of adjacent transpositions that sort it, the entries being
distinct), and the resulting dominant weight is sort_desc(gamma + rho) - rho.

The sets B(s, n) are the dominant-weight supports of the simple equivariant
D-modules on skew-symmetric matrices:

    B(s, 2m)   = { lambda : lambda_{2s} >= 2s-1, lambda_{2s+1} <= 2s,
                   lambda_{2i-1} = lambda_{2i} for all i }
    B(s, 2m+1) = { lambda : lambda_{2s+1} = 2s,
                   lambda_{2i-1} = lambda_{2i} for i <= s,
                   lambda_{2i} = lambda_{2i+1} for i > s }

Both sets are infinite; ``enumerate_B`` returns the window whose entries have
absolute value at most a caller-supplied bound, as a tuple in ascending order.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from collections.abc import Sequence
from operator import add, neg, sub

from .errors import VerificationError
from .partitions import _doubled, _weakly_decreasing


# bott's sorted insertions take time quadratic in the length when many pairs
# are inverted, so a sequence longer than this is refused before any work
_MAX_LENGTH = 10_000


def bott(gamma: Sequence[int]) -> tuple[int, tuple[int, ...]] | tuple[None, None]:
    """Run Bott's algorithm on an integer sequence gamma: (degree, dominant
    weight), or (None, None) when the cohomology vanishes."""
    n = len(gamma)
    if n > _MAX_LENGTH:
        raise ValueError(f"bott takes at most {_MAX_LENGTH} entries, got {n}")
    rho = range(n - 1, -1, -1)
    v = list(map(add, gamma, rho))
    if len(set(v)) < n:
        return None, None
    # entries are distinct, so inversion count = minimal adjacent-transposition count;
    # scanning from the right, each entry is inverted with every larger one seen
    seen: list[int] = []
    inversions = 0
    for x in reversed(v):
        i = bisect(seen, x)
        inversions += len(seen) - i
        seen.insert(i, x)
    seen.reverse()
    return inversions, tuple(map(sub, seen, rho))


def dual(weight: tuple[int, ...]) -> tuple[int, ...]:
    """The dual weight (-w_n, ..., -w_1); an involution."""
    return tuple(map(neg, reversed(weight)))


def _check_s(s: int, n: int) -> None:
    if not 0 <= s <= n // 2:
        raise ValueError(f"require 0 <= s <= floor(n/2), got s={s}, n={n}")


def in_B(lam: tuple[int, ...], s: int) -> bool:
    """Membership of a dominant weight in B(s, n), n being its length."""
    n = len(lam)
    _check_s(s, n)
    m = n // 2
    if n % 2 == 0:
        if lam[0::2] != lam[1::2]:
            return False
        if s >= 1 and lam[2 * s - 1] < 2 * s - 1:
            return False
        if s <= m - 1 and lam[2 * s] > 2 * s:
            return False
        return True
    if lam[2 * s] != 2 * s:
        return False
    # lambda_{2i-1} = lambda_{2i} for i <= s, lambda_{2i} = lambda_{2i+1} for i > s
    return lam[0 : 2 * s : 2] == lam[1 : 2 * s : 2] and lam[2 * s + 1 :: 2] == lam[2 * s + 2 :: 2]


def enumerate_B(s: int, n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Every weight of B(s, n) with entries of absolute value <= bound, as a tuple in ascending order."""
    _check_s(s, n)
    m = n // 2
    if n % 2 == 0:
        # ascending heads (u_1, u_1, ..., u_s, u_s), u_s >= 2s-1, times ascending tails
        # (t_1, t_1, ..., t_{m-s}, t_{m-s}), t_1 <= 2s; a head ending in 2s-1 takes t_1 < 2s
        heads = [_doubled(u) for u in _weakly_decreasing(s, 2 * s - 1, bound)][::-1]
        tails = [_doubled(t) for t in _weakly_decreasing(m - s, -bound, 2 * s)][::-1]
        low = tails[: bisect_left(tails, (2 * s,))]
        return tuple(h + t for h in heads for t in (low if h[-1:] == (2 * s - 1,) else tails))
    if 2 * s > bound:  # odd: the middle entry 2s is outside the box
        return ()
    heads = [_doubled(u) for u in _weakly_decreasing(s, 2 * s, bound)][::-1]
    tails = [(2 * s,) + _doubled(t) for t in _weakly_decreasing(m - s, -bound, 2 * s)][::-1]
    return tuple(h + t for h in heads for t in tails)


def verify_pushforward(m: int, p: int) -> None:
    """Check the pushforward lemma from 2m x 2m to (2m+1) x (2m+1) matrices.

    For every lambda in the window of B(s, 2m), s = m-p, with entries of
    absolute value at most 2m+1, Bott's algorithm on (0, lambda) in length
    2m+1, the dual of the paper's (dual(lambda), 0), must give the lemma's
    answer below; each image must lie in B(s, 2m+1), and the images must cover
    the B(s, 2m+1) window at 2m.  As dual(gamma) + rho = (n-1, ..., n-1) minus
    the reversal of gamma + rho, Bott's algorithm commutes with dual: the
    degree is the paper's, and the weight is the image itself.

    The lemma.  In (0, lambda) + rho only the leading 2m can be out of order;
    it belongs after each lambda_i > i and repeats lambda_i + 2m - i when
    lambda_i = i.  For lambda in B(s, 2m) the entries above their index are
    exactly lambda_1, ..., lambda_{2s}, and an entry equals its index exactly
    when lambda_{2s} is 2s-1 or 2s (s >= 1).  So (0, lambda) vanishes when
    s >= 1 and lambda_{2s} <= 2s, and otherwise lands in degree 2s with image
    (lambda_1-1, ..., lambda_{2s}-1, 2s, lambda_{2s+1}, ..., lambda_{2m}).
    That map has an inverse, which adds 1 to the first 2s entries and drops
    the 2s, so once Bott agrees with the lemma no two survivors share an image
    and injectivity needs no check of its own.  The inverse is a bijection of
    B(s, 2m+1) onto the survivors, so sources with entries in [-W, W] reach
    every weight of B(s, 2m+1) with entries in [-(W-1), W-1]; for s >= 1 the
    weight (W, W, ..., 2s, ...) at W would need the entry W+1, so coverage is
    checked at W-1.  W = 2m+1 is the least window at which every (m, p) keeps
    a survivor: at p = 0 it keeps exactly (2m+1, ..., 2m+1), and at 2m none.
    A window with no survivor checks nothing and fails.

    Raises VerificationError naming the offending weight on any failure.
    """
    if not 0 <= p <= m:
        raise ValueError(f"require 0 <= p <= m, got p={p}, m={m}")
    s = m - p
    bound = 2 * m + 1
    images: set[tuple[int, ...]] = set()
    for lam in enumerate_B(s, 2 * m, bound):
        if s and lam[2 * s - 1] <= 2 * s:
            lemma = None, None
        else:
            lemma = 2 * s, tuple(x - 1 for x in lam[: 2 * s]) + (2 * s,) + lam[2 * s :]
        answer = bott((0,) + lam)
        if answer != lemma:
            raise VerificationError(f"pushforward(m={m}, p={p}): Bott sends {lam} to {answer}, the lemma to {lemma}")
        image = lemma[1]
        if image is None:
            continue
        if not in_B(image, s):
            raise VerificationError(f"pushforward(m={m}, p={p}): image {image} of {lam} is not in B({s}, {2 * m + 1})")
        images.add(image)
    if not images:
        raise VerificationError(f"pushforward(m={m}, p={p}): no weight of the window survives")
    missing = [w for w in enumerate_B(s, 2 * m + 1, bound - 1) if w not in images]
    if missing:
        raise VerificationError(f"pushforward(m={m}, p={p}): window weight {missing[0]} has no preimage")
