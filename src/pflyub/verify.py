"""Verification suites: every cross-check of the package, run as one report.

Each suite is a generator that yields once after each check passes;
``verify_all`` runs them all and reports, per suite, whether it passed, its
checks and seconds, and the first failure.  No table command imports this module.
"""

from __future__ import annotations

from math import comb
from time import perf_counter

from . import characters, ext_mult, weights_bott
from .errors import VerificationError
from .kgroup import localcoh_class, localcoh_class_even_D, q_to_d
from .lyubeznik import _N_MAX, build_table
from .origin_localcoh import h0_D_even, h0_pf_pole, h0_Q
from .partitions import gaussian_binomial, gaussian_binomial_oracle
from .polyring import QPoly


def _suite(name: str, checks) -> dict:
    """Run one suite, a generator that yields once after each check passes;
    stop at the suite's first failure but never propagate."""
    checked = 0
    error = None
    start = perf_counter()
    try:
        for _ in checks:
            checked += 1
    except Exception as exc:  # any failure, expected or not, is this suite's alone
        error = f"{type(exc).__name__}: {exc}"
    seconds = round(perf_counter() - start, 6)  # wall time, to the microsecond
    return {"name": name, "pass": error is None, "checked": checked, "seconds": seconds, "error": error}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def _table_checks(n_max: int):
    for n in range(2, n_max + 1):
        for k in range(n // 2):
            build_table(n, k)
            yield


def _gaussian_checks(a_max: int):
    for a in range(a_max + 1):
        for b in range(a + 1):
            g = gaussian_binomial(a, b)
            _require(
                g == gaussian_binomial_oracle(a, b),
                f"binomial({a},{b}) disagrees with the box enumeration",
            )
            yield


def _kgroup_checks(m_max: int, m_max_odd: int):
    for m in range(2, m_max + 1):
        for k in range(m - 1):
            even_Q, even_D = localcoh_class(2 * m, k), localcoh_class_even_D(m, k)
            _require(q_to_d(even_Q) == even_D, f"Q-to-D decomposition fails at (m={m}, k={k})")
            yield
            if m > m_max_odd:
                continue
            # an identity between two closed forms: the odd class is the even
            # D-class with D_p shifted by q^(2(m-p)); so it starts at C(2m+1-2k, 2)
            odd = localcoh_class(2 * m + 1, k)
            for p in range(m + 1):
                _require(
                    odd[p] == QPoly.q(2 * (m - p)) * even_D[p],
                    f"odd class at (n={2 * m + 1}, k={k}) is not the even D-class shifted at D_{p}",
                )
            yield


def _origin_checks(m_max: int):
    for m in range(1, m_max + 1):
        for p in range(m):
            _require(
                QPoly.q(1) * h0_Q(m, p) == h0_pf_pole(m, m - p - 1),
                f"pole/indecomposable splice fails at (m={m}, p={p})",
            )
            yield
        for s in range(1, m):
            spliced = h0_pf_pole(m, m - s) + QPoly.q(-1) * h0_pf_pole(m, m - s - 1)
            _require(
                h0_D_even(m, s) == spliced,
                f"simple-module splice fails at (m={m}, s={s})",
            )
            yield


def _ext_checks(m_max: int):
    for m in range(1, m_max + 1):
        for a in range(1, m + 1):
            for b in (2 * a - 1, 2 * a, 2 * a + 3):
                # graded local duality: Ext^(N-i)(M, S) is dual to H^i_m(M), N = C(2m, 2)
                _require(
                    ext_mult.ext_series_enum(m, a, b).reverse(comb(2 * m, 2)) == h0_Q(m, a - 1),
                    f"Ext series mismatch at (m={m}, a={a}, b={b})",
                )
                yield
    for m in range(1, 6):
        for a in range(m - 1, 0, -1):
            for e in range(5):
                rect = ext_mult.zset_rectangle(m, a, e)
                _require(
                    not (rect & ext_mult.zset_thickened(m, a + 1, e)),
                    f"Z-sets not disjoint at (m={m}, a={a}, e={e})",
                )
                # the sharp inclusion: past the sentinel, thickened labels at cap e lie in the rectangle at cap e
                _require(
                    ext_mult.zset_thickened(m, a, e) - {((0,) * m, m - 1)} <= rect,
                    f"Z-set inclusion fails at (m={m}, a={a}, e={e})",
                )
                yield


def _bott_checks(m_max: int):
    for m in range(1, m_max + 1):
        for p in range(m + 1):
            weights_bott.verify_pushforward(m, p)
            yield


def _character_checks(m_max: int):
    for m in range(1, m_max + 1):
        for k in range(m):
            characters.verify_limitpfaff(m, k)
            yield


def verify_all(n_max: int) -> dict:
    """Run every verification suite; the tables cover 2 <= n <= n_max, with
    n_max at most ``_N_MAX``; each binomial with a <= 14 is compared with the box;
    the class decomposition and the splices run to m = max(10, n_max // 2), the
    odd class tie to m = max(8, n_max // 2), the other suites at their standard
    ranges.  Returns a structured report; a suite stops at its first failure,
    the others still run."""
    if not 2 <= n_max <= _N_MAX:
        raise ValueError(f"require 2 <= n_max <= {_N_MAX}, got n_max={n_max}")
    m_max = n_max // 2
    suites = [
        # the table suite keeps its old name: the benchmark's checks look it up by name
        _suite("two_path_tables", _table_checks(n_max)),
        _suite("gaussian_binomials", _gaussian_checks(14)),
        _suite("kgroup_identities", _kgroup_checks(max(10, m_max), max(8, m_max))),
        _suite("origin_splices", _origin_checks(max(10, m_max))),
        _suite("ext_series", _ext_checks(7)),
        _suite("bott_pushforward", _bott_checks(4)),
        _suite("character_limits", _character_checks(3)),
    ]
    return {"n_max": n_max, "pass": all(s["pass"] for s in suites), "suites": suites}
