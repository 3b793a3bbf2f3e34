import json

import pytest
from hypothesis import given, strategies as st

from pflyub.polyring import ZERO, QPoly


def poly(d):
    return QPoly(d)


def test_add_cancellation():
    one, q = QPoly({0: 1}), QPoly.q()
    assert (one + q) + (one - q) == QPoly({0: 2})


def test_add_identity():
    p = poly({2: 3, 0: -5, -1: 4})
    assert p + ZERO == p
    assert ZERO + p == p


def test_add_disjoint_support():
    a = poly({3: 1})
    b = poly({7: 1})
    assert a + b == poly({3: 1, 7: 1})


def test_mul_difference_of_squares():
    one, q = QPoly({0: 1}), QPoly.q()
    assert (one + q) * (one - q) == one - q ** 2


def test_mul_laurent_inverse_monomial():
    assert QPoly.q(-1) * QPoly.q() == QPoly({0: 1})


def test_mul_square():
    p = QPoly({0: 1}) + QPoly.q(4)
    assert p * p == poly({0: 1, 4: 2, 8: 1})
    # powers by repeated squaring, of a non-monomial and to the zeroth power
    assert (QPoly({0: 1}) + QPoly.q()) ** 3 == poly({0: 1, 1: 3, 2: 3, 3: 1})
    assert p ** 0 == QPoly({0: 1})
    for bad in (-1, 0.5):
        with pytest.raises(ValueError, match="nonnegative integer"):
            p ** bad


def test_reverse():
    one, q = QPoly({0: 1}), QPoly.q()
    assert (q ** 2 + q ** 5).reverse(5) == one + q ** 3
    assert one.reverse(7) == q ** 7
    assert one.reverse(-3) == QPoly.q(-3)


def test_zero_coefficients_never_stored():
    p = poly({1: 0, 2: 5})
    assert p.terms() == {2: 5}
    assert (p - p).terms() == {}
    assert not (p - p)


def test_serialization_roundtrip():
    p = poly({5: 2, -2: 7, 0: -1})
    terms = [{"eq": -2, "ew": 0, "c": 7}, {"eq": 0, "ew": 0, "c": -1}, {"eq": 5, "ew": 0, "c": 2}]
    assert p.to_json() == json.dumps(terms)
    assert poly({t["eq"]: t["c"] for t in json.loads(p.to_json())}) == p
    assert ZERO.to_json() == "[]" == json.dumps([])


@given(st.dictionaries(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20), max_size=8).map(QPoly))
def test_to_json_is_json_dumps_of_the_sorted_terms(p):
    terms = [{"eq": e, "ew": 0, "c": c} for e, c in sorted(p.terms().items())]
    assert p.to_json() == json.dumps(terms)


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        QPoly({0: 1.5})
    with pytest.raises(TypeError):
        QPoly({0.5: 1})


@pytest.mark.parametrize("terms", [{0: True, 1: 2}, {True: 2}, {0: 1, 1: False}])
def test_bool_exponent_or_coefficient_rejected(terms):
    with pytest.raises(TypeError, match="not bool"):
        QPoly(terms)


def test_exponent_pair_keys_rejected():
    with pytest.raises(TypeError):
        QPoly({(1, 0): 1})


def test_rsub_non_integer_is_not_implemented():
    with pytest.raises(TypeError, match="'float' and 'QPoly'"):
        1.5 - QPoly.q()
    assert 3 - QPoly.q() == QPoly({0: 3}) - QPoly.q()


small_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(QPoly)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO


@given(small_polys, st.integers(-6, 6))
def test_reverse_involution(p, d):
    assert p.reverse(d).reverse(d) == p


@given(small_polys, small_polys, st.integers(-5, 5), st.integers(-5, 5))
def test_reverse_multiplicative(p, r, d1, d2):
    assert (p * r).reverse(d1 + d2) == p.reverse(d1) * r.reverse(d2)
