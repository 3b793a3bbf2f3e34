from math import comb

import pytest
from hypothesis import given, strategies as st

from pflyub.kgroup import localcoh_class, localcoh_class_even_D, q_to_d
from pflyub.polyring import ZERO, QPoly


q = QPoly.q


def qclass(n, **coeffs):
    m = n // 2
    vec = [ZERO] * (m + 1)
    for idx, poly in coeffs.items():
        vec[int(idx[1:])] = poly
    return tuple(vec)


class TestBasisChange:
    def test_q0_maps_to_d0(self):
        c = qclass(4, p0=q(0))
        assert q_to_d(c) == (q(0), ZERO, ZERO)

    def test_qm_maps_to_full_sum(self):
        m = 3
        c = qclass(2 * m, p3=q(0))
        assert q_to_d(c) == (q(0),) * (m + 1)

    small = st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=3).map(QPoly)

    @given(st.integers(1, 4), st.data())
    def test_roundtrip(self, m, data):
        coeffs = tuple(data.draw(self.small) for _ in range(m + 1))
        d = q_to_d(coeffs)
        # [Q_p] = [D_0] + ... + [D_p], so differencing the D-coefficients inverts it
        differences = tuple(d[p] - d[p + 1] for p in range(m)) + (d[m],)
        assert differences == coeffs


class TestLocalCohClasses:
    def test_even_hypersurface_case(self):
        assert localcoh_class(4, 1) == qclass(4, p1=q(1))
        assert localcoh_class(10, 4) == qclass(10, p4=q(1))

    def test_even_k0(self):
        assert localcoh_class(6, 0) == qclass(6, p0=q(15))
        assert localcoh_class_even_D(3, 0) == (q(15), ZERO, ZERO, ZERO)
        assert localcoh_class_even_D(2, 0) == (q(6), ZERO, ZERO)

    def test_even_D_diagonal_term_is_monomial(self):
        # the s = k coefficient carries binom(m-k-1, 0) = 1
        for m in range(2, 7):
            for k in range(m - 1):
                c = localcoh_class_even_D(m, k)
                shift = 2 * (m - k) ** 2 - (m - k)
                assert c[k] == q(shift)

    def test_odd_reversed_m2_k1(self):
        c = localcoh_class(5, 1)
        assert c == (q(5), q(3), ZERO)
        assert [p.reverse(comb(5, 2)) for p in c if p] == [q(5), q(7)]

    def test_odd_diagonal_prefactor(self):
        # the p = k coefficient carries binom(r-k-1, 0) = 1 and sits in the codimension
        for n in range(3, 13, 2):
            for k in range(n // 2):
                c = localcoh_class(n, k)
                assert c[k] == q(comb(n - 2 * k, 2))

    def test_range_validation(self):
        for n, k in ((6, 3), (7, 3), (7, -1), (1, 0)):
            with pytest.raises(ValueError, match=rf"^require 0 <= k <= floor\(n/2\)-1, got k={k}, n={n}$"):
                localcoh_class(n, k)
        with pytest.raises(ValueError, match=r"^require 0 <= k <= m-2, got k=2, m=3$"):
            localcoh_class_even_D(3, 2)  # k = m-1 is the dedicated branch

    def test_one_coefficient_per_basis_module(self):
        for n in range(2, 14):
            for k in range(n // 2):
                assert len(localcoh_class(n, k)) == n // 2 + 1
        for m in range(2, 7):
            for k in range(m - 1):
                assert len(localcoh_class_even_D(m, k)) == m + 1

    def test_nonnegative_coefficients(self):
        for n in range(2, 16):
            for k in range(n // 2):
                for poly in localcoh_class(n, k):
                    assert all(c > 0 for c in poly.terms().values())

    def test_lowest_degree_is_the_codimension(self):
        # the grade of the ideal of the rank <= 2k locus is its codimension C(n-2k, 2),
        # since S is Cohen-Macaulay: no class has a term below it, and some term sits on it
        for n in range(2, 58):
            for k in range(n // 2):
                lowest = [min(poly.terms()) for poly in localcoh_class(n, k) if poly]
                assert min(lowest) == comb(n - 2 * k, 2), (n, k)


class TestGradingReversalIdentity:
    def test_d0_coefficient_palindromic_up_to_shift(self):
        for m in range(2, 8):
            for k in range(m - 1):
                poly = localcoh_class_even_D(m, k)[0]
                exps = sorted(poly.terms())
                assert poly.reverse(exps[0] + exps[-1]) == poly
