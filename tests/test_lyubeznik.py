import contextlib
import gc
import io
import itertools
import json
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import pflyub.lyubeznik as ly
from pflyub import ext_mult, kgroup, partitions, verify, weights_bott
from pflyub.cli import main
from pflyub.errors import TableInvariantError, VerificationError
from pflyub.lyubeznik import LyubeznikTable, build_table
from pflyub.origin_localcoh import h0_D_even, h0_Q
from pflyub.partitions import gaussian_binomial
from pflyub.polyring import ZERO, QPoly
from pflyub.verify import verify_all


def _entries(rows):
    """Rows {i: (js, lams)} as {(i, j): lambda}."""
    return {(i, j): lam for i, (js, lams) in rows.items() for j, lam in zip(js, lams)}


def entries(table):
    """A table's rows as {(i, j): lambda}."""
    return _entries(table.rows)


def _past_the_limit(*args):
    raise AssertionError("called past a size limit")


@pytest.fixture
def expansions(monkeypatch):
    """The factor lists ``_expand`` is called with from here on, in order."""
    calls = []
    real = ly._expand

    def recorded(factors):
        calls.append(factors)
        return real(factors)

    monkeypatch.setattr(ly, "_expand", recorded)
    return calls


@pytest.fixture
def corrupt_composed(monkeypatch):
    """corrupt_composed(n, k) adds the term 1 * w^(dim+1) to the composed factor
    list of table (n, k) alone: an entry past the last column."""

    def corrupt(bad_n, bad_k):
        real = ly._composed_factors
        extra = [(QPoly({0: 1}), QPoly.q(comb(bad_n, 2) - comb(bad_n - 2 * bad_k, 2) + 1))]

        def corrupted(n, k):
            return real(n, k) + (extra if (n, k) == (bad_n, bad_k) else [])

        monkeypatch.setattr(ly, "_composed_factors", corrupted)

    return corrupt


def _closed_factors(n, k):
    """The table's factor list from one closed formula for both parities: with
    r = floor((n-1)/2), a_s = q^(s(2s+3-2(n mod 2))) binom(r, s)_{q^4} and
    b_s = q^(k(2k+3) - 2s(2k-n+2)) binom(r-s-1, k-s)_{q^4} for s = 0..k; the
    even hypersurface case k = n/2-1 is (q*w)^(C(n,2)-1)."""
    q = QPoly.q
    if n % 2 == 0 and k == n // 2 - 1:
        return [(q(comb(n, 2) - 1), q(comb(n, 2) - 1))]
    r = (n - 1) // 2
    return [
        (
            q(s * (2 * s + 3 - 2 * (n % 2))) * gaussian_binomial(r, s, power=4),
            q(k * (2 * k + 3) - 2 * s * (2 * k - n + 2)) * gaussian_binomial(r - s - 1, k - s, power=4),
        )
        for s in range(k + 1)
    ]


class TestComposedPath:
    def test_factor_lists_are_equal_for_every_admitted_table(self):
        # the composed route, term by term, against the closed formula typed on its own,
        # for every table with n <= 56, the benchmark's among them
        for n in range(2, 57):
            for k in range(n // 2):
                assert _closed_factors(n, k) == ly._composed_factors(n, k), (n, k)

    def test_the_even_tables_are_not_the_semisimple_ones(self):
        # the paper's result for even n: the local cohomology splits into the
        # indecomposables Q_p, not into the simples D_s.  The same class expanded in
        # the D-basis, as if it were semisimple, gives the real table at k = 0 and a
        # different one at every k >= 1, which validate still passes
        for n in range(4, 25, 2):
            m = n // 2
            for k in range(m - 1):
                d_class = kgroup.localcoh_class_even_D(m, k)
                factors = [(h0_D_even(m, s), c.reverse(comb(n, 2))) for s, c in enumerate(d_class) if c]
                semisimple = LyubeznikTable(n, k, ly._expand(factors))
                semisimple.validate()
                real = build_table(n, k).rows
                assert (semisimple.rows == real) == (k == 0), (n, k)
                if (n, k) == (6, 1):
                    assert _entries(semisimple.rows) == {**_entries(real), (0, 9): 1, (1, 9): 1}


def test_exponent_identities_hold_for_every_m():
    """Graded local duality, the identity h0_Q rests on: the Ext series, the
    box oracle regraded, reversed in C(2m, 2) is h0_Q(m, a - 1).  Once its two
    sides' binomials agree, it is an equality of exponents, and the source
    writes each exponent as a polynomial of degree at most 2 in each of three
    integers: a C(x, 2), a product of two linear terms, plus 4e for the e-th
    term of a binomial in q^4 (a Gaussian binomial has no zero coefficient
    between its lowest and top degree).  So the difference D of the two sides
    is such a polynomial.  Write D = c_0 + c_1 x + c_2 x^2, the c_i polynomials
    in (y, z) of degree at most 2 in each: if D vanishes at three values of x
    for each (y, z) of a 3 x 3 grid, then each c_i vanishes on that grid, and
    the same step on y, then on z, makes each c_i zero.  So D vanishing on this
    3 x 3 x 3 grid makes it zero at every m, not only at the three m the grid
    takes.  The binomials agree by the q-binomial theorem: the
    ``gaussian_binomials`` suite checks them against the box for a <= 14, and
    TestGaussKernel against Pascal's rows for a <= 40."""
    for m, a, e in itertools.product((6, 7, 8), (2, 3, 4), (0, 1, 2)):
        ext = ext_mult.ext_series_enum(m, a, 2 * a - 1).reverse(comb(2 * m, 2))
        assert sorted(ext.terms())[e] == sorted(h0_Q(m, a - 1).terms())[e], (m, a, e)


# q-polynomials for _expand: a_s with small exponents, so that rows collide, and
# b_s zero, a monomial (step 0) or strided with its own offset, stride and
# coefficients, some negative and some zero (so the stride of the nonzero terms varies)
_A = st.dictionaries(st.integers(-2, 4), st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(QPoly)
_B = st.one_of(
    st.just(QPoly()),
    st.builds(lambda e, c: QPoly({e: c}), st.integers(-3, 9), st.integers(-3, 3).filter(bool)),
    st.builds(
        lambda lo, step, cs: QPoly({lo + step * t: c for t, c in enumerate(cs)}),
        st.integers(-3, 9),
        st.integers(1, 4),
        st.lists(st.integers(-3, 3), min_size=2, max_size=6),
    ),
)


@st.composite
def _hand_built_rows(draw):
    """Rows {i: (js, lams)} in no particular i order, each js one of a few
    shapes with holes, given as the shared tuple or a fresh equal tuple."""
    shape = st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True).map(lambda js: tuple(sorted(js)))
    shapes = draw(st.lists(shape, min_size=1, max_size=3))
    rows = {}
    for i in draw(st.lists(st.integers(-3, 30), min_size=1, max_size=8, unique=True)):
        js = draw(st.sampled_from(shapes))
        form = draw(st.sampled_from([lambda js: js, lambda js: tuple(list(js))]))
        lams = draw(st.lists(st.integers(-5, 10**12).filter(bool), min_size=len(js), max_size=len(js)))
        rows[i] = (form(js), lams)
    return rows


class TestExpand:
    @given(st.lists(st.tuples(_A, _B), max_size=6), st.booleans())
    @example([(QPoly({0: 1}), QPoly({0: 1, 2: 1, 5: 1}))], False)  # gaps 2 and 3: stride 1, not 2
    # row 0 is an accumulator over range(0, 2) and row 1 one factor's exponents: one shared (0, 1)
    @example([(QPoly({0: 1, 1: 1}), QPoly({0: 1, 1: 1})), (QPoly({0: 1}), QPoly({0: 1, 1: 1}))], False)
    def test_matches_naive_accumulation(self, factors, cancel):
        if cancel and factors:
            a, b = factors[0]
            factors = factors + [(a, -b)]  # cancels the first pair's rows, down to empty ones
        naive = {}
        for a, b in factors:
            for i, x in a.terms().items():
                for j, y in b.terms().items():
                    naive[i, j] = naive.get((i, j), 0) + x * y
        rows = ly._expand(factors)
        assert _entries(rows) == {key: lam for key, lam in naive.items() if lam}
        assert list(rows) == sorted(rows)
        shapes = {}
        for js, lams in rows.values():
            assert js and all(lams) and list(js) == sorted(set(js))
            assert shapes.setdefault(js, js) is js  # rows with equal columns share one tuple


class TestBuildTable:
    def test_n5_k1(self):
        table = build_table(5, 1)
        assert table.dim == 7
        assert entries(table) == {(0, 5): 1, (3, 7): 1, (7, 7): 1}

    def test_range_validation(self):
        for n in (1, 57):
            with pytest.raises(ValueError, match=rf"^require 2 <= n <= 56, got n={n}$"):
                build_table(n, 0)
        for n, k in ((6, 3), (7, -1)):
            with pytest.raises(ValueError, match=rf"^require 0 <= k <= floor\(n/2\)-1, got k={k}, n={n}$"):
                build_table(n, k)
        # the bound is inclusive: the even hypersurface at n = 56 is one entry at its corner
        assert build_table(56, 27).rows == {1539: ((1539,), [1])}

    def test_expands_the_composed_list_once_per_build(self, expansions):
        for n, k in ((2, 0), (6, 1), (6, 2), (9, 2), (12, 3)):
            build_table(n, k)
            assert expansions == [ly._composed_factors(n, k)], (n, k)
            expansions.clear()

    def test_invariant_violations_located(self):
        bad = LyubeznikTable(n=6, k=1, rows={9: ((9,), [1]), 7: ((3,), [1])})
        with pytest.raises(TableInvariantError, match=r"\(7, 3\)"):
            bad.validate()
        below_diagonal = {0: ((5,), [1]), 7: ((3, 9), [1, 1]), 9: ((9,), [1])}  # row 7 also reaches past i
        for rows, entry in (
            ({0: ((5, 10), [1, 1])}, r"\(0, 10\)"),
            ({-1: ((2,), [1])}, r"\(-1, 2\)"),
            (below_diagonal, r"\(7, 3\)"),
        ):
            with pytest.raises(TableInvariantError, match=r"at \(i,j\)=" + entry + ": index outside 0 <= i <= j <= 9"):
                LyubeznikTable(n=6, k=1, rows=rows).validate()
        missing_corner = LyubeznikTable(n=6, k=1, rows={0: ((5,), [1])})
        with pytest.raises(TableInvariantError, match="corner"):
            missing_corner.validate()
        for lam in (-1, 0):
            with pytest.raises(TableInvariantError, match=f"entry {lam} not positive"):
                LyubeznikTable(4, 0, {0: ((0,), [lam])}).validate()
        # lambda_{5,9} doubled: every other invariant holds
        euler_two = LyubeznikTable(n=6, k=1, rows={0: ((5,), [1]), 5: ((9,), [2]), 9: ((9,), [1])})
        with pytest.raises(TableInvariantError, match="Euler characteristic is 2, expected 1"):
            euler_two.validate()
        # one row with two odd columns: row 0 counts 4 - 2 * 4 and row 9 counts 1
        two_odd_columns = LyubeznikTable(n=6, k=1, rows={0: ((5, 7), [1, 3]), 9: ((9,), [1])})
        with pytest.raises(TableInvariantError, match="Euler characteristic is -3, expected 1"):
            two_odd_columns.validate()
        # one js of mixed parity, shared by an even and an odd row: row 2 counts 3 - 1 and row 3
        # counts -(1 - 2), so a parity mask of the first column gives 2 and no row sign gives -2
        js = (6, 7)
        mixed = LyubeznikTable(6, 1, {0: ((5,), [1]), 2: (js, [3, 1]), 3: (js, [1, 2]), 5: ((9,), [1]), 9: ((9,), [1])})
        with pytest.raises(TableInvariantError, match="Euler characteristic is 4, expected 1"):
            mixed.validate()

    def test_euler_characteristic_catches_an_error_both_routes_share(self, monkeypatch):
        real = partitions._gauss

        def broken(a, b):
            coeffs = real(a, b)
            return (coeffs[0] + 1,) + coeffs[1:] if (a, b) == (3, 1) else coeffs

        monkeypatch.setattr(partitions, "_gauss", broken)
        assert _closed_factors(8, 1) == ly._composed_factors(8, 1)
        for n in (7, 8):
            with pytest.raises(TableInvariantError, match=rf"table\({n},1\): Euler characteristic is 2"):
                ly.build_table(n, 1)


class TestEmitters:
    @staticmethod
    def reference_outputs(table):
        """JSON, genfun JSON and CSV formatted entry by entry from the sorted
        entries, and LaTeX formatted cell by cell, zeros included."""
        lam = entries(table)
        keys = sorted(lam)
        rows = ", ".join([f'{{"i": {i}, "j": {j}, "lambda": {lam[i, j]}}}' for i, j in keys])
        terms = ", ".join([f'{{"eq": {i}, "ew": {j}, "c": {lam[i, j]}}}' for i, j in keys])
        lines = ["i,j,lambda"] + [f"{i},{j},{lam[i, j]}" for i, j in keys]
        cols = sorted({j for _, j in keys})
        latex = [r"\begin{tabular}{r|" + "c" * len(cols) + "}"]
        latex.append(" & ".join([r"$i \backslash j$"] + [f"${j}$" for j in cols]) + r" \\ \hline")
        for i in sorted({i for i, _ in keys}):
            latex.append(" & ".join([f"${i}$"] + [f"${lam.get((i, j), 0)}$" for j in cols]) + r" \\")
        latex.append(r"\end{tabular}")
        return (
            f'{{"n": {table.n}, "k": {table.k}, "dim": {table.dim}, "entries": [{rows}]}}',
            f"[{terms}]",
            "\n".join(lines) + "\n",
            "\n".join(latex) + "\n",
        )

    def test_row_emitters_match_entrywise_reference(self):
        tables = [build_table(n, k) for n in range(2, 17) for k in range(n // 2)]
        tables.append(LyubeznikTable(3, 0, {}))
        descending = build_table(13, 4)
        tables.append(LyubeznikTable(13, 4, dict(sorted(descending.rows.items(), reverse=True))))
        assert list(tables[-1].rows) != sorted(tables[-1].rows)
        for table in tables:
            emitted = (table.to_json(), table.to_genfun_json(), table.to_csv(), table.to_latex())
            assert emitted == self.reference_outputs(table)
            assert json.dumps(table.to_obj()) == emitted[0]

    @given(_hand_built_rows())
    def test_shape_templates_match_entrywise_reference(self, rows):
        table = LyubeznikTable(10, 2, rows)  # dim 30
        emitted = (table.to_json(), table.to_genfun_json(), table.to_csv(), table.to_latex())
        assert emitted == self.reference_outputs(table)

    @pytest.mark.parametrize("n, k", [(20, 5), (26, 10)])  # (26, 10) has rows with holes that share columns
    def test_rows_with_equal_columns_share_one_js(self, n, k):
        rows = build_table(n, k).rows
        shapes = {}
        for js, _ in rows.values():
            assert isinstance(js, tuple)
            assert shapes.setdefault(js, js) is js
        assert len(shapes) < len(rows)

    def test_build_and_emission_leave_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            table = build_table(30, 7)
            table.to_json(), table.to_csv(), table.to_latex()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestVerifyAll:
    def test_corrupted_composed_route_is_located(self, corrupt_composed):
        corrupt_composed(6, 1)
        report = verify_all(7)
        assert report["pass"] is False
        suite = next(s for s in report["suites"] if s["name"] == "two_path_tables")
        assert suite["pass"] is False
        assert suite["checked"] == 7  # the six tables with n <= 5, and (6, 0)
        assert suite["error"] == "TableInvariantError: table(6,1) at (i,j)=(0, 10): index outside 0 <= i <= j <= 9"
        # the other suites still ran
        assert all(s["pass"] for s in report["suites"] if s["name"] != "two_path_tables")

    def test_mid_suite_failure_counts_the_checks_before_it(self, monkeypatch):
        real = weights_bott.verify_pushforward

        def broken(m, p):
            if (m, p) == (2, 1):
                raise VerificationError("pushforward(m=2, p=1): injected")
            return real(m, p)

        monkeypatch.setattr(weights_bott, "verify_pushforward", broken)
        report = verify_all(4)
        suite = next(s for s in report["suites"] if s["name"] == "bott_pushforward")
        assert suite["pass"] is False
        assert suite["checked"] == 3
        assert suite["error"] == "VerificationError: pushforward(m=2, p=1): injected"
        assert all(s["pass"] for s in report["suites"] if s["name"] != "bott_pushforward")

    def test_corrupted_binomial_is_located_by_the_box(self, monkeypatch):
        real = partitions._gauss

        def broken(a, b):
            coeffs = real(a, b)
            return coeffs[:-1] + (coeffs[-1] + 1,) if (a, b) == (5, 2) else coeffs

        monkeypatch.setattr(partitions, "_gauss", broken)
        report = verify_all(4)
        suite = next(s for s in report["suites"] if s["name"] == "gaussian_binomials")
        assert suite["pass"] is False
        assert suite["checked"] == 17  # every (a, b) before (5, 2)
        assert suite["error"] == "VerificationError: binomial(5,2) disagrees with the box enumeration"

    def test_unexpected_exception_is_recorded(self, monkeypatch):
        def broken(m, a, b):
            raise TypeError("broken step")

        monkeypatch.setattr(ext_mult, "ext_series_enum", broken)
        report = verify_all(4)
        assert report["pass"] is False
        suite = next(s for s in report["suites"] if s["name"] == "ext_series")
        assert suite["pass"] is False
        assert suite["checked"] == 0
        assert "TypeError" in suite["error"]
        # the other suites still ran
        assert all(s["pass"] for s in report["suites"] if s["name"] != "ext_series")

    def test_corrupted_h0_Q_is_located_by_duality(self, monkeypatch):
        real = verify.h0_Q
        monkeypatch.setattr(verify, "h0_Q", lambda m, p: real(m, p) + (QPoly.q(1) if (m, p) == (3, 1) else ZERO))
        report = verify_all(4)
        failed = {s["name"]: s for s in report["suites"] if not s["pass"]}
        # the splices read the same h0_Q; the tables' composed route imports its own
        assert set(failed) == {"ext_series", "origin_splices"}
        assert failed["ext_series"]["checked"] == 12  # every (m, a, b) before (3, 2, 3)
        assert failed["ext_series"]["error"] == "VerificationError: Ext series mismatch at (m=3, a=2, b=3)"

    def test_bad_n_max(self):
        with pytest.raises(ValueError, match=r"^require 2 <= n_max <= 56, got n_max=1$"):
            verify_all(1)


_CHOICES = "(lyubeznik, genfun, localcoh, gaussian, bott, verify)"
# (argv, the refusal after "error: "); the ids argv0, argv1, ... follow this order
_REFUSALS = [
    # a non-integer value
    (["lyubeznik", "--n", "six", "--k", "1"], "lyubeznik: --n: invalid int value 'six'"),
    (["lyubeznik", "--n=", "--k", "1"], "lyubeznik: --n: invalid int value ''"),
    # a bad choice
    (
        ["lyubeznik", "--n", "6", "--k", "1", "--format", "xml"],
        "lyubeznik: --format: invalid choice 'xml' (choose from json, csv, latex)",
    ),
    (
        ["localcoh", "--parity", "even", "--m", "3", "--object", "E", "--index", "1"],
        "localcoh: --object: invalid choice 'E' (choose from Q, D, pfpole)",
    ),
    # an unknown option
    (["gaussian", "--a", "4", "--b", "2", "--q", "4"], "gaussian: unrecognized argument '--q'"),
    (["gaussian", "--a", "4", "--b", "2", "-power", "4"], "gaussian: unrecognized argument '-power'"),
    (["gaussian", "--a", "4", "--b", "2", "--help=yes"], "gaussian: unrecognized argument '--help=yes'"),
    # a stray positional word
    (["lyubeznik", "6", "--n", "6", "--k", "1"], "lyubeznik: unrecognized argument '6'"),
    (["lyubeznik", "--n", "6", "--k", "1", "--"], "lyubeznik: unrecognized argument '--'"),
    # a value missing at the end: without its guard, the option reads as left out
    (["lyubeznik", "--n", "6", "--k"], "lyubeznik: --k expects a value"),
    # a required option left out
    (["localcoh", "--parity", "even", "--m", "3", "--object", "Q"], "localcoh: --index is required"),
    (["bott"], "bott: --gamma is required"),
    # no command at all, or an unknown one
    ([], f"expected a command {_CHOICES}, got None"),
    (["table", "--n", "6", "--k", "1"], f"expected a command {_CHOICES}, got 'table'"),
    (["--n", "6", "--k", "1"], f"expected a command {_CHOICES}, got '--n'"),
    # abbreviations are refused
    (["lyubeznik", "--n", "6", "--k", "1", "--form", "csv"], "lyubeznik: unrecognized argument '--form'"),
    (["verify", "--n", "4"], "verify: unrecognized argument '--n'"),
    (["gaussian", "--a", "4", "--b", "2", "--POWER", "4"], "gaussian: unrecognized argument '--POWER'"),
    # a family the parity lacks
    (["localcoh", "--parity", "odd", "--m", "2", "--object", "Q", "--index", "0"], "no Q family on the odd side"),
    # a value out of range
    (["lyubeznik", "--n", "6", "--k", "9"], "require 0 <= k <= floor(n/2)-1, got k=9, n=6"),
    (["gaussian", "--a", "1", "--b", "2"], "gaussian_binomial requires a >= b >= 0, got (1, 2)"),
    # sizes past sys.maxsize fail before anything is allocated
    (
        ["gaussian", "--a", "100000000000000000000", "--b", "1"],
        "binomial(100000000000000000000, 1) has degree 99999999999999999999, above the limit 10000",
    ),
    (["lyubeznik", "--n", "200000000000000000000", "--k", "1"], "require 2 <= n <= 56, got n=200000000000000000000"),
    # a sequence past bott's length limit
    (["bott", "--gamma=" + ",".join(["0"] * 10_001)], "bott takes at most 10000 entries, got 10001"),
    # without its guard, --power -1 answers with negative exponents
    (["gaussian", "--a", "5", "--b", "2", "--power", "-1"], "substitution power must be a positive integer"),
    (["gaussian", "--a", "5", "--b", "2", "--power", "0"], "substitution power must be a positive integer"),
    # an --index out of range is refused in the index's own words, not in a binomial's
    (
        ["localcoh", "--parity", "even", "--m", "3", "--object", "pfpole", "--index", "3"],
        "require 0 <= k <= m-1, got k=3, m=3",
    ),
    (
        ["localcoh", "--parity", "even", "--m", "3", "--object", "Q", "--index", "3"],
        "require 0 <= p <= m-1, got p=3, m=3",
    ),
    (["localcoh", "--parity", "even", "--m", "2", "--object", "D", "--index", "3"], "require 0 <= s <= m, got s=3, m=2"),
    (["localcoh", "--parity", "odd", "--m", "2", "--object", "D", "--index", "-1"], "require 0 <= p <= m, got p=-1, m=2"),
]


class TestCli:
    def test_table_bytes_match_the_pinned_digests(self, monkeypatch, verify_report):
        # tests/output_digests.py --check covers every admitted table; tier-1 reads the table lines
        # for n <= 16 and every family line, the verify line from the session report
        import output_digests

        monkeypatch.setattr(verify, "verify_all", lambda n_max: verify_report)
        lines = output_digests.digest_lines(16)
        assert len(lines) == 4 * 15 + 4
        pinned = output_digests.PINNED.read_text().splitlines()
        pinned = pinned[: 4 * 15] + pinned[-4:]
        assert output_digests.first_moved(lines, pinned) is None
        # the first moved line is reported as its pinned line, which names the format and n, or the family
        moved = lines[:]
        moved[9] = moved[40] = moved[-2] = "0" * 64
        assert output_digests.first_moved(moved, pinned) == pinned[9]
        assert pinned[9].endswith("  genfun n=4")
        assert output_digests.first_moved(lines[:-2] + moved[-2:], pinned) == pinned[-2]
        assert pinned[-2].endswith("  bott [-2,2]^4")
        assert output_digests.first_moved(lines[:-1], pinned) == "64 lines pinned, 63 computed"

    def test_genfun_refuses_a_broken_table(self, capsys, corrupt_composed):
        corrupt_composed(4, 1)
        assert main(["genfun", "--n", "4", "--k", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verification failure: table(4,1) at (i,j)=(0, 6): index outside 0 <= i <= j <= 5\n"

    def test_gaussian_large_a(self, capsys):
        assert main(["gaussian", "--a", "600", "--b", "2", "--power", "4"]) == 0
        terms = json.loads(capsys.readouterr().out)
        assert sum(t["c"] for t in terms) == comb(600, 2)

    def test_verify_summary_lines_and_suite_seconds(self, capsys):
        assert main(["verify", "--n-max", "4"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        report = json.loads(last)
        assert lines[0] == "two_path_tables: PASS (4 checks)"  # n = 2, 3 and 4, with two k at n = 4
        assert lines == [f"{s['name']}: PASS ({s['checked']} checks)" for s in report["suites"]]
        for suite in report["suites"]:
            assert list(suite) == ["name", "pass", "checked", "seconds", "error"]
            assert isinstance(suite["seconds"], float) and suite["seconds"] >= 0

    def test_argument_errors_exit_2(self, capsys):
        assert main(["bott", "--gamma", "not,numbers"]) == 2
        assert capsys.readouterr().err == "error: bott: --gamma: invalid int list 'not,numbers'\n"

    # each malformed or out-of-range command line is refused by a ValueError, not a SystemExit,
    # in one line that names what the caller passed
    @pytest.mark.parametrize(
        "argv, line",
        _REFUSALS,
        ids=[f"argv{i}" for i in range(len(_REFUSALS))],
    )
    def test_malformed_arguments_exit_2_in_one_line(self, argv, line, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_option_forms_agree(self, capsys):
        def out(argv):
            assert main(argv) == 0, argv
            return capsys.readouterr().out

        spaced = out(["gaussian", "--a", "6", "--b", "3", "--power", "4"])
        assert out(["gaussian", "--a=6", "--b=3", "--power=4"]) == spaced
        assert out(["gaussian", "--power", "4", "--b=3", "--a", "6"]) == spaced
        assert out(["gaussian", "--a", "9", "--b=2", "--a=6", "--power", "1", "--b", "3", "--power=4"]) == spaced
        assert out(["bott", "--gamma", "-3,-3,0"]) == out(["bott", "--gamma=-3,-3,0"]) == "degree 2, weight -2,-2,-2\n"
        assert out(["lyubeznik", "--format", "json", "--n", "6", "--k", "1"]) == out(["lyubeznik", "--n=6", "--k=1"])

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["lyubeznik", "--help"], ["gaussian", "--a", "4", "-h", "--b"]])
    def test_help_prints_the_usage_and_exits_0(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "usage: pflyub COMMAND" in captured.out
        assert "lyubeznik --n N --k K [--format json|csv|latex]" in captured.out
        assert "gc.freeze" not in captured.out  # an implementation note, kept at main

    def test_verification_failure_exits_1(self, capsys, corrupt_composed):
        corrupt_composed(4, 1)
        assert main(["verify", "--n-max", "4"]) == 1
        assert "two_path_tables: FAIL" in capsys.readouterr().out

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        # a KeyError is a bug too: no argument path raises one
        cases = ((TypeError("broken build"), "TypeError: broken build"), (KeyError((6, 1)), "KeyError: (6, 1)"))
        for exc, line in cases:

            def broken(n, k):
                raise exc

            monkeypatch.setattr(ly, "build_table", broken)
            assert main(["lyubeznik", "--n", "6", "--k", "1"]) == 3
            err = capsys.readouterr().err
            assert err == f"internal error: {line}\n"
            assert "Traceback" not in err

    def test_gaussian_degree_limit_refuses_before_any_work(self, capsys, monkeypatch):
        real = partitions._gauss

        def unbounded(a, b):
            # degree 0 is the binomial 1 at any a, which the kernel returns without a pass
            if b * (a - b):
                raise AssertionError(f"_gauss({a}, {b}) called")
            return real(a, b)

        monkeypatch.setattr(partitions, "_gauss", unbounded)
        with pytest.raises(ValueError, match=r"^binomial\(201, 100\) has degree 10100, above the limit 10000$"):
            partitions.gaussian_binomial(201, 100)
        assert main(["gaussian", "--a", "201", "--b", "100"]) == 2
        assert capsys.readouterr().err == "error: binomial(201, 100) has degree 10100, above the limit 10000\n"
        # a size above sys.maxsize is answered when the binomial's degree is within the limit
        for a, b in (("1000000000", "0"), ("1000000000", "1000000000"), ("100000000000000000000", "0")):
            assert main(["gaussian", "--a", a, "--b", b]) == 0
            assert json.loads(capsys.readouterr().out) == [{"eq": 0, "ew": 0, "c": 1}]

    def test_table_size_limit_refuses_before_any_class(self, capsys, monkeypatch):
        for module in (kgroup, ly):
            monkeypatch.setattr(module, "localcoh_class", _past_the_limit)
        monkeypatch.setattr(ly, "_expand", _past_the_limit)
        for command, n, k in (("lyubeznik", 57, 0), ("genfun", 2000004, 1000001)):
            assert main([command, "--n", str(n), "--k", str(k)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: require 2 <= n <= 56, got n={n}\n"

    def test_verify_n_max_limit_refuses_before_any_table(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "build_table", _past_the_limit)
        for n_max in ("1", "57", str(10**12)):
            assert main(["verify", "--n-max", n_max]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: require 2 <= n_max <= 56, got n_max={n_max}\n"
        # 56 is accepted: every table with n <= 56 is requested once
        built = []
        monkeypatch.setattr(verify, "build_table", lambda n, k: built.append((n, k)))
        report = verify_all(56)
        assert report["pass"] is True
        assert built == [(n, k) for n in range(2, 57) for k in range(n // 2)]
        # the class and splice suites follow n_max, to every admitted m <= 28
        checked = {s["name"]: s["checked"] for s in report["suites"]}
        assert (checked["kgroup_identities"], checked["origin_splices"]) == (756, 784)


_N_K = st.builds(lambda n, k: [f"--n={n}", f"--k={k}"], st.integers(-2, 24), st.integers(-2, 13))
_WELL_FORMED = st.one_of(
    st.builds(lambda nk, fmt: ["lyubeznik", *nk, f"--format={fmt}"], _N_K, st.sampled_from(["json", "csv", "latex"])),
    _N_K.map(lambda nk: ["genfun", *nk]),
    st.builds(
        lambda parity, obj, m, index: ["localcoh", f"--parity={parity}", f"--object={obj}", f"--m={m}", f"--index={index}"],
        st.sampled_from(["even", "odd"]),
        st.sampled_from(["Q", "D", "pfpole"]),
        st.integers(-1, 12),
        st.integers(-2, 14),
    ),
    st.builds(
        lambda a, b, power: ["gaussian", f"--a={a}", f"--b={b}", f"--power={power}"],
        st.integers(-2, 60),
        st.integers(-2, 60),
        st.integers(-1, 5),
    ),
    st.lists(st.integers(-10, 10), min_size=1, max_size=6).map(
        lambda gamma: ["bott", "--gamma=" + ",".join(map(str, gamma))]
    ),
)
# words that stand where no word of that form may: a stray positional, single
# dashes, a bare or unknown option, an abbreviation, a help flag
_MALFORMED = st.sampled_from(["6", "", "--", "-n", "--n", "--=4", "--N=6", "--form=csv", "--help=x", "-h", "--help"])
_CLI_ARGS = st.one_of(
    _WELL_FORMED,
    st.builds(lambda argv, i, word: argv[:i] + [word] + argv[i:], _WELL_FORMED, st.integers(0, 6), _MALFORMED),
    st.lists(_MALFORMED, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_CLI_ARGS)
def test_cli_answers_or_refuses_in_one_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    # a gaussian power below 1 is refused, not answered, unless a help flag answers first
    if {"--power=-1", "--power=0"} & set(argv) and not {"-h", "--help"} & set(argv):
        assert code == 2, argv
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
