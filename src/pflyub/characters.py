"""GL-character sets of the equivariant objects on skew-symmetric matrices.

Every decomposition handled here is multiplicity free, so each object is fully
described by a membership function on dominant weights, given as weakly
decreasing integer tuples of the ambient length n.  Weights of modules built
from W (subspaces of the polynomial ring or its Pfaffian localization) are kept
as W-weights; conditions stated on the dual side are checked through ``dual``.

The membership functions, for a weight mu of length n (m = floor(n/2)),
after ``weights_bott.in_B(lam, s)``:

* ``in_N(mu, k, e)``, the fractional-twist module
  N_{k,e} = I_{(m-k) x e} * Pf^{-e-2k}: mu = nu^(2) with
  nu >= ((-2k)^(m-k), (-e-2k)^k), read at the block ends nu_{m-k} and nu_m;
* ``in_pole(mu, k)``, the pole-order module <Pf^(-2k)>: mu paired, with
  dual(mu)_{2k+1} = -mu_{n-2k} <= 2k;
* ``in_D(mu, s)``, the simple module D_s: dual(mu) in B(m-s, n).

Each raises ValueError for an index out of range, or an odd n where the
module needs an even one.

``verify_limitpfaff`` checks, on the paired weights with entries in [-2m, 0]
and witnesses e <= 2(m-k) (e = 1 for k = 0), a window its docstring proves
sufficient and least, that <Pf^(-2k)> is the union over e of the N_{k,e}
characters, together with the inclusions N_{k,e} <= N_{k,e+1} and
N_{k,e} <= N_{k+1,e}, and that the weights of <Pf^(-2k)> outside <Pf^(-2k+2)>
are those of the simple D_{m-k}.
"""

from __future__ import annotations

from itertools import compress

from .errors import VerificationError
from .partitions import _doubled, _weakly_decreasing
from .weights_bott import dual, in_B


def _check_k(k: int, n: int, odd_error: str) -> None:
    if n % 2:
        raise ValueError(odd_error)
    m = n // 2
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")


def in_N(mu: tuple[int, ...], k: int, e: int) -> bool:
    """Membership in the character of N_{k,e} = I_{(m-k) x e} * Pf^(-e-2k): mu = nu^(2)
    with nu >= ((-2k)^(m-k), (-e-2k)^k), read at the block ends nu_(m-k) and nu_m."""
    _check_k(k, len(mu), "N_{k,e} requires an even ambient size")
    if e < 1:
        raise ValueError(f"require e >= 1, got e={e}")
    half = mu[0::2]
    return half == mu[1::2] and half[-1 - k] >= -2 * k and half[-1] >= -e - 2 * k


def in_pole(mu: tuple[int, ...], k: int) -> bool:
    """Membership in the character of the module generated by Pf^(-2k) over
    the Weyl algebra."""
    _check_k(k, len(mu), "pole-order modules require an even ambient size")
    return mu[0::2] == mu[1::2] and mu[-1 - 2 * k] >= -2 * k


def in_D(mu: tuple[int, ...], s: int) -> bool:
    """Membership in the character of the simple equivariant module attached
    to the rank-2s orbit."""
    m = len(mu) // 2
    if not 0 <= s <= m:
        raise ValueError(f"require 0 <= s <= m, got s={s}, m={m}")
    return in_B(dual(mu), m - s)


def verify_limitpfaff(m: int, k: int) -> None:
    """Check that <Pf^(-2k)> is the rising union of the N_{k,e}.

    For every paired weight mu = nu^(2) of length 2m with nu in [-2m, 0],
    membership in <Pf^(-2k)> must be equivalent to membership in N_{k,e} for
    some e <= E_k, where E_k = 2(m-k) for k >= 1 and E_0 = 1.  Also asserts
    the inclusions N_{k,e} <= N_{k,e+1} for all e in range, and
    N_{k,e} <= N_{k+1,e} when k+1 <= m-1, and that mu lies in <Pf^(-2k)> but
    not in <Pf^(-2k+2)> exactly when it lies in the simple D_{m-k} (for k = 0,
    exactly when it lies in <Pf^0> = S).

    The window is proved sufficient and least.  The membership functions
    compare nu only with thresholds <= 0: -2k-2, -2k, 2-2k (k >= 1), 0 (k = 0),
    -e-2k and -e-2k-2.  Clamping nu to [-2m, 0] keeps it weakly decreasing and
    keeps every answer whose threshold lies in [-2m+1, 0], which holds for each
    threshold free of e.  A pole weight lies in N_{k,e} exactly from e = max(1, -nu_m-2k) on:
    one False -> True step in e, which clamping nu_m to -2m moves to E_k, and
    which on the window is at most E_k (k = 0 forces nu_m >= 0).  The pole
    weight nu_m = -2m, nu_{m-k} = -2k steps at exactly E_k; for k = m-1 >= 1 it
    is the only one that steps after e = 1, so a window starting above -2m has
    no step there.  0 is the k = 0 threshold: a window ending below it has no
    pole weight at k = 0.  A window with no e-step for some k >= 1 fails, and so
    does one where every weight, or none, lies in <Pf^(-2k)>.

    Raises VerificationError with the offending weight on failure.
    """
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")
    e_max = 2 * (m - k) if k else 1
    es = range(1, e_max + 1)
    sides = set()
    stepped = False
    for mu in map(_doubled, _weakly_decreasing(m, -2 * m, 0)):
        flags = [in_N(mu, k, e) for e in es]
        pole = in_pole(mu, k)
        if pole != any(flags):
            raise VerificationError(
                f"limit(m={m}, k={k}): {mu} is "
                f"{'in' if pole else 'not in'} the pole-order character but "
                f"{'not ' if pole else ''}reached by N_(k,e), e <= {e_max}"
            )
        quotient = pole and not (k and in_pole(mu, k - 1))
        if quotient != in_D(mu, m - k):
            raise VerificationError(
                f"limit(m={m}, k={k}): {mu} is {'in' if quotient else 'not in'} the "
                f"pole-order quotient <Pf^{-2 * k}>/<Pf^{2 - 2 * k}> but {'not ' if quotient else ''}in D_{m - k}"
            )
        if flags != sorted(flags):  # False < True, so a rising chain is sorted
            e = next(e for e in es if flags[e - 1] and not flags[e])
            raise VerificationError(f"limit(m={m}, k={k}): {mu} in N_(k,{e}) but not in N_(k,{e + 1})")
        sides.add(pole)
        stepped = stepped or (pole and not flags[0])
        if k + 1 <= m - 1:
            for e in compress(es, flags):
                if not in_N(mu, k + 1, e):
                    raise VerificationError(
                        f"limit(m={m}, k={k}): {mu} in N_(k,{e}) but not in N_(k+1,{e})"
                    )
    if len(sides) < 2:
        raise VerificationError(f"limit(m={m}, k={k}): the window does not straddle the pole-order character")
    if k and not stepped:
        raise VerificationError(f"limit(m={m}, k={k}): no weight of the window needs e > 1")
