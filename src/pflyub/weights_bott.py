"""Dominant weights and Bott's algorithm on a Grassmannian.

Bott's algorithm, for a length-n integer sequence gamma and rho = (n-1, ..., 1, 0):
if gamma + rho has a repeated entry the cohomology vanishes; otherwise the
unique nonvanishing degree is the number of inversions of gamma + rho (the
minimal transposition count needed to sort it, since the entries are distinct),
and the resulting dominant weight is sort_desc(gamma + rho) - rho.

The sets B(s, n) are the dominant-weight supports of the simple equivariant
D-modules on skew-symmetric matrices:

    B(s, 2m)   = { lambda : lambda_{2s} >= 2s-1, lambda_{2s+1} <= 2s,
                   lambda_{2i-1} = lambda_{2i} for all i }
    B(s, 2m+1) = { lambda : lambda_{2s+1} = 2s,
                   lambda_{2i-1} = lambda_{2i} for i <= s,
                   lambda_{2i} = lambda_{2i+1} for i > s }

Both sets are infinite; enumeration is truncated by a caller-supplied bound on
the maximum absolute entry.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from operator import add, neg, sub
from typing import Sequence

from .errors import VerificationError
from .partitions import _doubled, _weakly_decreasing


class DominantWeight:
    """A weakly decreasing integer sequence of fixed ambient length."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[int]):
        entries = tuple(entries)
        for e in entries:
            if not isinstance(e, int):
                raise ValueError(f"weight entries must be integers, got {e!r}")
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise ValueError(f"entries must be weakly decreasing, got {entries}")
        self._entries = entries

    @property
    def entries(self) -> tuple[int, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i):
        return self._entries[i]

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DominantWeight):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"DominantWeight({self._entries})"


@dataclass(frozen=True)
class BottResult:
    """Outcome of Bott's algorithm: Zero, or cohomology in a single degree."""

    degree: int | None
    weight: DominantWeight | None

    @classmethod
    def zero(cls) -> BottResult:
        return cls(None, None)

    @classmethod
    def cohomology(cls, degree: int, weight: DominantWeight) -> BottResult:
        return cls(degree, weight)

    @property
    def is_zero(self) -> bool:
        return self.degree is None


def _bott(gamma: Sequence[int]) -> tuple[int, tuple[int, ...]] | tuple[None, None]:
    """Bott's algorithm on plain tuples: (degree, weight entries), or (None, None)."""
    n = len(gamma)
    rho = range(n - 1, -1, -1)
    v = list(map(add, gamma, rho))
    if len(set(v)) < n:
        return None, None
    # entries are distinct, so inversion count = minimal transposition count;
    # scanning from the right, each entry is inverted with every larger one seen
    seen: list[int] = []
    inversions = 0
    for x in reversed(v):
        i = bisect(seen, x)
        inversions += len(seen) - i
        seen.insert(i, x)
    seen.reverse()
    return inversions, tuple(map(sub, seen, rho))


def bott(gamma: Sequence[int]) -> BottResult:
    """Run Bott's algorithm on an arbitrary integer sequence gamma."""
    degree, weight = _bott(gamma)
    if degree is None:
        return BottResult.zero()
    return BottResult.cohomology(degree, DominantWeight(weight))


def _dual(entries: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(entries)))


def dual(weight: DominantWeight) -> DominantWeight:
    """The dual weight (-w_n, ..., -w_1); an involution."""
    return DominantWeight(_dual(weight.entries))


def _check_s(s: int, n: int) -> None:
    if not 0 <= s <= n // 2:
        raise ValueError(f"require 0 <= s <= floor(n/2), got s={s}, n={n}")


def _in_B(lam: tuple[int, ...], s: int, n: int) -> bool:
    if len(lam) != n:
        return False
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


def in_B(weight: DominantWeight, s: int, n: int) -> bool:
    """Membership of a length-n dominant weight in B(s, n)."""
    _check_s(s, n)
    return _in_B(weight.entries, s, n)


def _enumerate_B(s: int, n: int, bound: int) -> set[tuple[int, ...]]:
    m = n // 2
    if n % 2 == 0:
        # pair values v_i = lambda_{2i-1} = lambda_{2i}
        return {
            _doubled(v)
            for v in _weakly_decreasing(m, -bound, bound)
            if not (s >= 1 and v[s - 1] < 2 * s - 1) and not (s <= m - 1 and v[s] > 2 * s)
        }
    # odd: (u_1, u_1, ..., u_s, u_s, 2s, t_1, t_1, ..., t_{m-s}, t_{m-s})
    if 2 * s > bound:
        return set()
    tails = [(2 * s,) + _doubled(t) for t in _weakly_decreasing(m - s, -bound, 2 * s)]
    return {_doubled(u) + tail for u in _weakly_decreasing(s, 2 * s, bound) for tail in tails}


def enumerate_B(s: int, n: int, bound: int) -> set[DominantWeight]:
    """All weights of B(s, n) whose entries have absolute value <= bound."""
    _check_s(s, n)
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    return set(map(DominantWeight, _enumerate_B(s, n, bound)))


def verify_pushforward(m: int, p: int, bound: int) -> dict:
    """Check the pushforward pattern from 2m x 2m to (2m+1) x (2m+1) matrices.

    For every lambda in the bounded window of B(m-p, 2m), Bott's algorithm is
    applied to (dual(lambda), 0) in length 2m+1.  Every non-vanishing case must
    land in degree exactly 2m-2p with dual image weight in B(m-p, 2m+1); the
    assignment must be injective, and it must cover the entire B(m-p, 2m+1)
    window at bound-2 (images of window-bounded sources shift entries by at
    most 1, so the shrunken window is guaranteed to be reached).

    Returns a JSON-ready report; raises VerificationError naming the offending
    weight on any failure.
    """
    if not 0 <= p <= m:
        raise ValueError(f"require 0 <= p <= m, got p={p}, m={m}")
    if bound < 2 * m:
        raise ValueError(f"bound must be at least 2m = {2 * m}")
    expected_degree = 2 * m - 2 * p
    zero_count = 0
    images: dict[tuple[int, ...], tuple[int, ...]] = {}
    domain = _enumerate_B(m - p, 2 * m, bound)
    for lam in sorted(domain):
        degree, weight = _bott(_dual(lam) + (0,))
        if degree is None:
            zero_count += 1
            continue
        if degree != expected_degree:
            raise VerificationError(
                f"pushforward(m={m}, p={p}): {DominantWeight(lam)} lands in degree "
                f"{degree}, expected {expected_degree}"
            )
        image = _dual(weight)
        if not _in_B(image, m - p, 2 * m + 1):
            raise VerificationError(
                f"pushforward(m={m}, p={p}): image {DominantWeight(image)} of {DominantWeight(lam)} "
                f"is not in B({m - p}, {2 * m + 1})"
            )
        if image in images:
            raise VerificationError(
                f"pushforward(m={m}, p={p}): {DominantWeight(lam)} and {DominantWeight(images[image])} "
                f"share the image {DominantWeight(image)}"
            )
        images[image] = lam
    if bound >= 2 * m + 2:
        missing = _enumerate_B(m - p, 2 * m + 1, bound - 2) - images.keys()
        if missing:
            raise VerificationError(
                f"pushforward(m={m}, p={p}): window weight "
                f"{DominantWeight(min(missing))} has no preimage"
            )
    return {
        "m": m,
        "p": p,
        "bound": bound,
        "checked": len(domain),
        "zero": zero_count,
        "nonzero": len(images),
        "pass": True,
    }
