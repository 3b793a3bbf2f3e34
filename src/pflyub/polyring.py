"""Exact sparse Laurent polynomials over the integers in two variables q and w.

Values are immutable and kept in canonical form (no zero coefficients are
stored), so ``==`` is exact structural equality.  Exponents may be negative.
Coefficients are Python integers, hence exact at any size.
"""

from __future__ import annotations

from typing import Mapping


class BiLaurentPoly:
    """An integer Laurent polynomial in q and w, stored as {(e_q, e_w): coeff}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        data = {}
        if terms:
            for (eq, ew), c in terms.items():
                if not (isinstance(eq, int) and isinstance(ew, int) and isinstance(c, int)):
                    raise TypeError("exponents and coefficients must be integers")
                if c != 0:
                    data[(eq, ew)] = c
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> BiLaurentPoly:
        return cls({(0, 0): c})

    @classmethod
    def q(cls, e: int = 1) -> BiLaurentPoly:
        """The monomial q**e (e may be negative)."""
        return cls({(e, 0): 1})

    @classmethod
    def w(cls, e: int = 1) -> BiLaurentPoly:
        """The monomial w**e (e may be negative)."""
        return cls({(0, e): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], int]:
        """A copy of the term map {(e_q, e_w): coeff}."""
        return dict(self._terms)

    def is_q_only(self) -> bool:
        """True when no term involves w."""
        return all(ew == 0 for (_, ew) in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: BiLaurentPoly | int) -> BiLaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            s = data.get(key, 0) + c
            if s:
                data[key] = s
            else:
                data.pop(key, None)
        return _raw(data)

    __radd__ = __add__

    def __neg__(self) -> BiLaurentPoly:
        return _raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: BiLaurentPoly | int) -> BiLaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> BiLaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: BiLaurentPoly | int) -> BiLaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[tuple[int, int], int] = {}
        for (aq, aw), ac in self._terms.items():
            for (bq, bw), bc in other._terms.items():
                key = (aq + bq, aw + bw)
                s = data.get(key, 0) + ac * bc
                if s:
                    data[key] = s
                else:
                    data.pop(key, None)
        return _raw(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiLaurentPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = BiLaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- q-only transforms -------------------------------------------------

    def reverse(self, d: int) -> BiLaurentPoly:
        """Return q**d * p(1/q), i.e. send each exponent e to d - e (q only)."""
        if not self.is_q_only():
            raise ValueError("reverse requires a polynomial in q only")
        return _raw({(d - eq, 0): c for (eq, _), c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> list[dict[str, int]]:
        """JSON-ready term list [{"eq": ..., "ew": ..., "c": ...}] sorted by (eq, ew)."""
        return [{"eq": eq, "ew": ew, "c": self._terms[(eq, ew)]} for (eq, ew) in sorted(self._terms)]

    # -- equality & display --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = BiLaurentPoly.const(other)
        if not isinstance(other, BiLaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {(0, 0)}:  # a constant == its int, so it must hash like it
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BiLaurentPoly({self._terms!r})"


def _coerce(value: BiLaurentPoly | int) -> BiLaurentPoly:
    if isinstance(value, BiLaurentPoly):
        return value
    if isinstance(value, int):
        return BiLaurentPoly.const(value)
    return NotImplemented


def _raw(data: dict[tuple[int, int], int]) -> BiLaurentPoly:
    # internal fast path: data already canonical (no zeros, int keys/values)
    p = BiLaurentPoly.__new__(BiLaurentPoly)
    p._terms = data
    return p


ZERO = BiLaurentPoly()
ONE = BiLaurentPoly.const(1)
Q = BiLaurentPoly.q()
W = BiLaurentPoly.w()
