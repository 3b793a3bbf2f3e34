"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each criterion prints a single pass/fail line (visible with ``pytest -s``).
Criteria 5-9 are verify suites: they read the session's one ``verify_all(13)``
report (``tests/conftest.py``) for the suite's result, exact check count and
seconds, rather than run its loop again.
"""

from math import comb
from time import perf_counter

from pflyub import (
    build_table,
    gaussian_binomial,
    localcoh_class_even_D,
    localcoh_class_even_Q,
    q_to_d,
    reverse_class,
)
from pflyub.lyubeznik import _closed_factors, _composed_factors, _entries, _expand, valid_k_range
from pflyub.polyring import ZERO, QPoly


def _in_q4(poly):
    return QPoly({4 * e: c for e, c in poly.terms().items()})


def _run(number, name, budget, fn):
    start = perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    elapsed = perf_counter() - start
    print(f"criterion {number:2d} [{name}]: PASS ({elapsed:.3f}s < {budget:g}s)")
    assert elapsed < budget, f"{name}: {elapsed:.3f}s exceeded the {budget:g}s budget"


def _read(number, name, budget, report, suite_name, checked):
    """Criterion ``number`` as the verify suite ``suite_name`` of ``report``:
    it passed, ran exactly ``checked`` checks, and took under ``budget`` seconds."""
    suite = next(s for s in report["suites"] if s["name"] == suite_name)
    held = suite["pass"] and suite["checked"] == checked and suite["seconds"] < budget
    print(f"criterion {number:2d} [{name}]: {'PASS' if held else 'FAIL'} ({suite['seconds']:.3f}s < {budget:g}s)")
    assert suite["pass"], suite["error"]
    assert suite["checked"] == checked, suite["checked"]
    assert suite["seconds"] < budget, f"{name}: {suite['seconds']:.3f}s exceeded the {budget:g}s budget"


def test_criterion_01_published_table():
    def check():
        table = build_table(6, 1)
        assert _entries(table.rows) == {(0, 5): 1, (5, 9): 1, (9, 9): 1}
        assert table.dim == 9

    _run(1, "published n=6 table", 1.0, check)


def test_criterion_02_hypersurface_case():
    def check():
        for n in (2, 4, 6, 8, 10, 12):
            d = comb(n, 2)
            assert _entries(build_table(n, n // 2 - 1).rows) == {(d - 1, d - 1): 1}, n

    _run(2, "even hypersurface closed form", 1.0, check)


def test_criterion_03_two_path_equality():
    def check():
        for n in range(2, 14):
            for k in valid_k_range(n):
                # expanded even where the factor lists are equal, which build_table skips
                assert _expand(_closed_factors(n, k)) == _expand(_composed_factors(n, k)), (n, k)

    _run(3, "two-path equality n <= 13", 10.0, check)


def test_criterion_04_kgroup_identities():
    def check():
        for m in range(2, 11):
            d = comb(2 * m, 2)
            for k in range(m - 1):
                assert q_to_d(localcoh_class_even_Q(m, k)) == localcoh_class_even_D(m, k), (m, k)
                got = reverse_class(localcoh_class_even_Q(m, k), d)
                expected = [ZERO] * (m + 1)
                for p in range(k + 1):
                    shift = k * (2 * k + 3) - 4 * p * (k - m + 1)
                    expected[p] = QPoly.q(shift) * _in_q4(gaussian_binomial(m - p - 2, k - p))
                assert got == tuple(expected), (m, k)

    _run(4, "basis decomposition and grading reversal m <= 10", 5.0, check)


def test_criterion_05_origin_splices(verify_report):
    _read(5, "origin local cohomology splices m <= 10", 5.0, verify_report, "origin_splices", 100)


def test_criterion_06_ext_oracle(verify_report):
    _read(6, "Ext series oracle m <= 7 and Z-sets m <= 5", 5.0, verify_report, "ext_series", 134)


def test_criterion_07_bott_pushforward(verify_report):
    _read(7, "pushforward degrees and window bijection m <= 4", 10.0, verify_report, "bott_pushforward", 14)


def test_criterion_08_gaussian_identities(verify_report):
    _read(8, "Gaussian binomial identities a <= 14", 2.0, verify_report, "gaussian_binomials", 120)


def test_criterion_09_character_limits(verify_report):
    _read(9, "pole-order direct limits m <= 3", 10.0, verify_report, "character_limits", 6)


def test_criterion_10_structural_properties():
    def check():
        for n in range(2, 14):
            for k in valid_k_range(n):
                table = build_table(n, k)
                entries = _entries(table.rows)
                dim = k * (2 * n - 2 * k - 1)
                assert table.dim == dim, (n, k)
                assert entries[(dim, dim)] == 1, (n, k)
                for (i, j), lam in entries.items():
                    assert lam > 0, (n, k, i, j)
                    assert 0 <= i <= j <= dim, (n, k, i, j)

    _run(10, "structural table properties n <= 13", 10.0, check)
