"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each criterion prints a single pass/fail line (visible with ``pytest -s``).
Criteria 3-9 are verify suites: they read the session's one ``verify_all(13)``
report (``tests/conftest.py``) for the suite's result, exact check count and
seconds, rather than run its loop again.
"""

from math import comb
from time import perf_counter

from pflyub import build_table
from pflyub.lyubeznik import valid_k_range


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
        assert table.rows == {0: ((5,), [1]), 5: ((9,), [1]), 9: ((9,), [1])}
        assert table.dim == 9

    _run(1, "published n=6 table", 1.0, check)


def test_criterion_02_hypersurface_case():
    def check():
        for n in (2, 4, 6, 8, 10, 12):
            d = comb(n, 2)
            assert build_table(n, n // 2 - 1).rows == {d - 1: ((d - 1,), [1])}, n

    _run(2, "even hypersurface closed form", 1.0, check)


def test_criterion_03_two_path_equality(verify_report):
    _read(3, "two-path equality n <= 13", 10.0, verify_report, "two_path_tables", 42)


def test_criterion_04_kgroup_identities(verify_report):
    _read(4, "basis decomposition m <= 10 and class grade m <= 8", 5.0, verify_report, "kgroup_identities", 73)


def test_criterion_05_origin_splices(verify_report):
    _read(5, "origin local cohomology splices m <= 10", 5.0, verify_report, "origin_splices", 100)


def test_criterion_06_ext_oracle(verify_report):
    _read(6, "Ext series by local duality m <= 7 and Z-sets m <= 5", 5.0, verify_report, "ext_series", 134)


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
                entries = {(i, j): lam for i, (js, lams) in table.rows.items() for j, lam in zip(js, lams)}
                dim = k * (2 * n - 2 * k - 1)
                assert table.dim == dim, (n, k)
                assert entries[(dim, dim)] == 1, (n, k)
                for (i, j), lam in entries.items():
                    assert lam > 0, (n, k, i, j)
                    assert 0 <= i <= j <= dim, (n, k, i, j)

    _run(10, "structural table properties n <= 13", 10.0, check)
