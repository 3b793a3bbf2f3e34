"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each criterion prints a single pass/fail line (visible with ``pytest -s``).
"""

from math import comb
from time import perf_counter

from pflyub import (
    L_closed,
    L_composed,
    build_table,
    ext_series_closed,
    ext_series_enum,
    gaussian_binomial,
    gaussian_binomial_oracle,
    h0_D_even,
    h0_pf_pole,
    h0_Q,
    localcoh_class_even_D,
    localcoh_class_even_Q,
    q_to_d,
    reverse_class,
    verify_limitpfaff,
    verify_pushforward,
)
from pflyub.kgroup import KClass
from pflyub.lyubeznik import valid_k_range
from pflyub.polyring import ZERO, BiLaurentPoly


def _in_q4(poly):
    return BiLaurentPoly({(4 * eq, ew): c for (eq, ew), c in poly.terms().items()})


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


def test_criterion_01_published_table():
    def check():
        table = build_table(6, 1)
        assert table.entries == {(0, 5): 1, (5, 9): 1, (9, 9): 1}
        assert table.dim == 9

    _run(1, "published n=6 table", 1.0, check)


def test_criterion_02_hypersurface_case():
    def check():
        for n in (4, 6, 8, 10, 12):
            d = comb(n, 2)
            assert L_closed(n, n // 2 - 1) == BiLaurentPoly.monomial(1, d - 1, d - 1)

    _run(2, "even hypersurface closed form", 1.0, check)


def test_criterion_03_two_path_equality():
    def check():
        for n in range(2, 14):
            for k in valid_k_range(n):
                assert L_closed(n, k) == L_composed(n, k), (n, k)

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
                    expected[p] = BiLaurentPoly.q(shift) * _in_q4(gaussian_binomial(m - p - 2, k - p))
                assert got == KClass("Q", 2 * m, tuple(expected)), (m, k)

    _run(4, "basis decomposition and grading reversal m <= 10", 5.0, check)


def test_criterion_05_origin_splices():
    def check():
        for m in range(1, 11):
            for p in range(m):
                assert BiLaurentPoly.q(1) * h0_Q(m, p) == h0_pf_pole(m, m - p - 1), (m, p)
            for s in range(1, m):
                spliced = h0_pf_pole(m, m - s) + BiLaurentPoly.q(-1) * h0_pf_pole(m, m - s - 1)
                assert h0_D_even(m, s) == spliced, (m, s)

    _run(5, "origin local cohomology splices m <= 10", 5.0, check)


def test_criterion_06_ext_oracle():
    def check():
        for m in range(1, 8):
            for a in range(1, m + 1):
                for b in (2 * a - 1, 2 * a, 2 * a + 3):
                    assert ext_series_enum(m, a, b) == ext_series_closed(m, a, b), (m, a, b)

    _run(6, "Ext series oracle m <= 7", 5.0, check)


def test_criterion_07_bott_pushforward():
    def check():
        for m in range(1, 5):
            for p in range(m + 1):
                report = verify_pushforward(m, p, 2 * m + 6)
                assert report["pass"] is True, (m, p)

    _run(7, "pushforward degrees and window bijection m <= 4", 10.0, check)


def test_criterion_08_gaussian_identities():
    def check():
        for a in range(15):
            for b in range(a + 1):
                g = gaussian_binomial(a, b)
                assert g == gaussian_binomial_oracle(a, b), (a, b)
                assert g == gaussian_binomial(a, a - b), (a, b)
                assert g.reverse(b * (a - b)) == g, (a, b)
                if a > b > 0:
                    pascal = gaussian_binomial(a - 1, b - 1) + BiLaurentPoly.q(b) * gaussian_binomial(a - 1, b)
                    assert g == pascal, (a, b)

    _run(8, "Gaussian binomial identities a <= 14", 2.0, check)


def test_criterion_09_character_limits():
    def check():
        for m in range(1, 4):
            for k in range(m):
                report = verify_limitpfaff(m, k, 6)
                assert report["pass"] is True, (m, k)

    _run(9, "pole-order direct limits m <= 3", 10.0, check)


def test_criterion_10_structural_properties():
    def check():
        for n in range(2, 14):
            for k in valid_k_range(n):
                table = build_table(n, k)
                dim = k * (2 * n - 2 * k - 1)
                assert table.dim == dim, (n, k)
                assert table.entries[(dim, dim)] == 1, (n, k)
                for (i, j), lam in table.entries.items():
                    assert lam > 0, (n, k, i, j)
                    assert 0 <= i <= j <= dim, (n, k, i, j)

    _run(10, "structural table properties n <= 13", 10.0, check)
