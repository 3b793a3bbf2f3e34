"""GL-character sets of the equivariant objects on skew-symmetric matrices.

Every decomposition handled here is multiplicity free, so each object is fully
described by a membership test on dominant weights, given as weakly decreasing
integer tuples of the ambient length n.  Weights of modules built
from W (subspaces of the polynomial ring or its Pfaffian localization) are kept
as W-weights; conditions stated on the dual side are checked through ``dual``.

The membership rules, for a weight mu of ambient length n (m = floor(n/2)):

* fractional-twist module N_{k,e} = I_{(m-k) x e} * Pf^{-e-2k}: mu = nu^(2)
  with nu >= ((-2k)^(m-k), (-e-2k)^k);
* pole-order module <Pf^(-2k)>: mu paired, with dual(mu)_{2k+1} <= 2k;
* simple module D_s: dual(mu) in B(m-s, n).

``verify_limitpfaff`` checks, on a bounded weight window, that <Pf^(-2k)> is
the union over e of the N_{k,e} characters, together with the inclusions
N_{k,e} <= N_{k,e+1} and N_{k,e} <= N_{k+1,e}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import VerificationError
from .partitions import _doubled, _weakly_decreasing, dominates
from .weights_bott import dual, in_B


def _paired_half(entries: tuple[int, ...]) -> tuple[int, ...] | None:
    """For (a, a, b, b, ...) return (a, b, ...); None if not of that shape."""
    if len(entries) % 2:
        return None
    half = entries[0::2]
    return half if half == entries[1::2] else None


def _check_length(mu: tuple[int, ...], n: int) -> None:
    if len(mu) != n:
        raise ValueError(f"weight has length {len(mu)}, ambient requires {n}")


@dataclass(frozen=True)
class ModuleN:
    """Character of N_{k,e}, the (m-k) x e invariant ideal twisted by Pf^(-e-2k)."""

    k: int
    e: int
    n: int
    threshold: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("N_{k,e} requires an even ambient size")
        m = self.n // 2
        if not 0 <= self.k <= m - 1:
            raise ValueError(f"require 0 <= k <= m-1, got k={self.k}, m={m}")
        if self.e < 1:
            raise ValueError(f"require e >= 1, got e={self.e}")
        threshold = (-2 * self.k,) * (m - self.k) + (-self.e - 2 * self.k,) * self.k
        object.__setattr__(self, "threshold", threshold)

    def contains(self, mu: tuple[int, ...]) -> bool:
        _check_length(mu, self.n)
        half = _paired_half(mu)
        return half is not None and dominates(half, self.threshold)


@dataclass(frozen=True)
class PfPole:
    """Character of the module generated by Pf^(-2k) over the Weyl algebra."""

    k: int
    n: int

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("pole-order modules require an even ambient size")
        m = self.n // 2
        if not 0 <= self.k <= m - 1:
            raise ValueError(f"require 0 <= k <= m-1, got k={self.k}, m={m}")

    def contains(self, mu: tuple[int, ...]) -> bool:
        _check_length(mu, self.n)
        return _paired_half(mu) is not None and dual(mu)[2 * self.k] <= 2 * self.k


@dataclass(frozen=True)
class SimpleD:
    """Character of the simple equivariant module attached to the rank-2s orbit."""

    s: int
    n: int

    def __post_init__(self):
        m = self.n // 2
        if not 0 <= self.s <= m:
            raise ValueError(f"require 0 <= s <= m, got s={self.s}, m={m}")

    def contains(self, mu: tuple[int, ...]) -> bool:
        _check_length(mu, self.n)
        return in_B(dual(mu), self.n // 2 - self.s, self.n)


def paired_window(m: int, bound: int) -> list[tuple[int, ...]]:
    """All paired dominant weights of length 2m with entries in [-bound, bound]."""
    return list(map(_doubled, _weakly_decreasing(m, -bound, bound)))


def verify_limitpfaff(m: int, k: int, bound: int) -> dict:
    """Bounded check that <Pf^(-2k)> is the rising union of the N_{k,e}.

    For every paired weight mu in the window, membership in <Pf^(-2k)> must be
    equivalent to membership in N_{k,e} for some e <= 2*bound + 4m (once e
    exceeds every entry in absolute value, membership stabilizes, so this
    witness bound suffices).  Also asserts the inclusions N_{k,e} <= N_{k,e+1}
    for all e in range, and N_{k,e} <= N_{k+1,e} when k+1 <= m-1.

    Returns a JSON-ready report; raises VerificationError with the offending
    weight on failure.
    """
    n = 2 * m
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    e_max = 2 * bound + 4 * m
    pole = PfPole(k, n)
    modules = [ModuleN(k, e, n) for e in range(1, e_max + 1)]
    next_modules = [ModuleN(k + 1, e, n) for e in range(1, e_max + 1)] if k + 1 <= m - 1 else None
    members = 0
    window = paired_window(m, bound)
    for mu in window:
        flags = [mod.contains(mu) for mod in modules]
        in_pole = pole.contains(mu)
        if in_pole != any(flags):
            raise VerificationError(
                f"limit(m={m}, k={k}): {mu} is "
                f"{'in' if in_pole else 'not in'} the pole-order character but "
                f"{'not ' if in_pole else ''}reached by N_(k,e), e <= {e_max}"
            )
        members += in_pole
        for e_idx in range(e_max - 1):
            if flags[e_idx] and not flags[e_idx + 1]:
                raise VerificationError(
                    f"limit(m={m}, k={k}): {mu} in N_(k,{e_idx + 1}) "
                    f"but not in N_(k,{e_idx + 2})"
                )
        if next_modules is not None:
            for e_idx in range(e_max):
                if flags[e_idx] and not next_modules[e_idx].contains(mu):
                    raise VerificationError(
                        f"limit(m={m}, k={k}): {mu} in N_(k,{e_idx + 1}) "
                        f"but not in N_(k+1,{e_idx + 1})"
                    )
    return {
        "m": m,
        "k": k,
        "bound": bound,
        "e_max": e_max,
        "checked": len(window),
        "members": members,
        "pass": True,
    }
