"""GL-character sets of the equivariant objects on skew-symmetric matrices.

Every decomposition handled here is multiplicity free, so each object is fully
described by a membership function on dominant weights, given as weakly
decreasing integer tuples of the ambient length n.  Weights of modules built
from W (subspaces of the polynomial ring or its Pfaffian localization) are kept
as W-weights; conditions stated on the dual side are checked through ``dual``.

The membership functions, for a weight mu of ambient length n (m = floor(n/2)),
after ``weights_bott.in_B(lam, s, n)``:

* ``in_N(mu, k, e, n)``, the fractional-twist module
  N_{k,e} = I_{(m-k) x e} * Pf^{-e-2k}: mu = nu^(2) with
  nu >= ((-2k)^(m-k), (-e-2k)^k);
* ``in_pole(mu, k, n)``, the pole-order module <Pf^(-2k)>: mu paired, with
  dual(mu)_{2k+1} = -mu_{n-2k} <= 2k;
* ``in_D(mu, s, n)``, the simple module D_s: dual(mu) in B(m-s, n).

Each raises ValueError for an index out of range, an odd n where the module
needs an even one, or a weight of the wrong length.

``verify_limitpfaff`` checks, on a bounded weight window, that <Pf^(-2k)> is
the union over e of the N_{k,e} characters, together with the inclusions
N_{k,e} <= N_{k,e+1} and N_{k,e} <= N_{k+1,e}, and that the weights of
<Pf^(-2k)> outside <Pf^(-2k+2)> are those of the simple D_{m-k}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .errors import VerificationError
from .partitions import _doubled, _weakly_decreasing, dominates
from .weights_bott import dual, in_B


def _check_length(length: int, n: int) -> None:
    if length != n:
        raise ValueError(f"weight has length {length}, ambient requires {n}")


def _check_k(k: int, n: int, odd_error: str) -> None:
    if n % 2:
        raise ValueError(odd_error)
    m = n // 2
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")


@lru_cache(maxsize=256)
def _threshold(k: int, e: int, n: int, length: int) -> tuple[int, ...]:
    """The bound ((-2k)^(m-k), (-e-2k)^k) on the half of a weight in N_{k,e},
    validated together with the weight's length once per (k, e, n, length)."""
    _check_k(k, n, "N_{k,e} requires an even ambient size")
    if e < 1:
        raise ValueError(f"require e >= 1, got e={e}")
    _check_length(length, n)
    m = n // 2
    return (-2 * k,) * (m - k) + (-e - 2 * k,) * k


def in_N(mu: tuple[int, ...], k: int, e: int, n: int) -> bool:
    """Membership in the character of N_{k,e}, the (m-k) x e invariant ideal
    twisted by Pf^(-e-2k)."""
    threshold = _threshold(k, e, n, len(mu))
    half = mu[0::2]
    return half == mu[1::2] and dominates(half, threshold)


def in_pole(mu: tuple[int, ...], k: int, n: int) -> bool:
    """Membership in the character of the module generated by Pf^(-2k) over
    the Weyl algebra."""
    _check_k(k, n, "pole-order modules require an even ambient size")
    _check_length(len(mu), n)
    return mu[0::2] == mu[1::2] and mu[n - 1 - 2 * k] >= -2 * k


def in_D(mu: tuple[int, ...], s: int, n: int) -> bool:
    """Membership in the character of the simple equivariant module attached
    to the rank-2s orbit."""
    m = n // 2
    if not 0 <= s <= m:
        raise ValueError(f"require 0 <= s <= m, got s={s}, m={m}")
    _check_length(len(mu), n)
    return in_B(dual(mu), m - s, n)


@lru_cache(maxsize=16)
def paired_window(m: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """All paired dominant weights of length 2m with entries in [-bound, bound]."""
    return tuple(map(_doubled, _weakly_decreasing(m, -bound, bound)))


def verify_limitpfaff(m: int, k: int, bound: int) -> None:
    """Bounded check that <Pf^(-2k)> is the rising union of the N_{k,e}.

    For every paired weight mu in the window, membership in <Pf^(-2k)> must be
    equivalent to membership in N_{k,e} for some e <= 2*bound + 4m (once e
    exceeds every entry in absolute value, membership stabilizes, so this
    witness bound suffices).  Also asserts the inclusions N_{k,e} <= N_{k,e+1}
    for all e in range, and N_{k,e} <= N_{k+1,e} when k+1 <= m-1, and that
    mu lies in <Pf^(-2k)> but not in <Pf^(-2k+2)> exactly when it lies in the
    simple D_{m-k} (for k = 0, exactly when it lies in <Pf^0> = S).

    Raises VerificationError with the offending weight on failure.
    """
    n = 2 * m
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    e_max = 2 * bound + 4 * m
    es = range(1, e_max + 1)
    for mu in paired_window(m, bound):
        flags = [in_N(mu, k, e, n) for e in es]
        pole = in_pole(mu, k, n)
        if pole != any(flags):
            raise VerificationError(
                f"limit(m={m}, k={k}): {mu} is "
                f"{'in' if pole else 'not in'} the pole-order character but "
                f"{'not ' if pole else ''}reached by N_(k,e), e <= {e_max}"
            )
        quotient = pole and not (k and in_pole(mu, k - 1, n))
        if quotient != in_D(mu, m - k, n):
            raise VerificationError(
                f"limit(m={m}, k={k}): {mu} is {'in' if quotient else 'not in'} the "
                f"pole-order quotient <Pf^{-2 * k}>/<Pf^{2 - 2 * k}> but {'not ' if quotient else ''}in D_{m - k}"
            )
        if flags != sorted(flags):  # False < True, so a rising chain is sorted
            e = next(e for e in es if flags[e - 1] and not flags[e])
            raise VerificationError(f"limit(m={m}, k={k}): {mu} in N_(k,{e}) but not in N_(k,{e + 1})")
        if k + 1 <= m - 1:
            for e in compress(es, flags):
                if not in_N(mu, k + 1, e, n):
                    raise VerificationError(
                        f"limit(m={m}, k={k}): {mu} in N_(k,{e}) but not in N_(k+1,{e})"
                    )
