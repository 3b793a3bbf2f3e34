"""Lyubeznik numbers of Pfaffian rings: generating functions and tables.

The generating function L_k(q, w) = sum lambda_{i,j} q^i w^j collects the
Lyubeznik numbers of the local ring at the cone point of the rank <= 2k locus
of n x n skew-symmetric matrices.  ``_composed_factors`` gives it as a sum of
rank-one terms a_s(q) * b_s(w), one per basis module that occurs, kept as its
list of factor pairs (a_s, b_s) of q-polynomials, the q of b_s standing for w:
it composes the Grothendieck-group class of the local cohomology, graded by
cohomological degree and reversed so that w tracks j = C(n,2) - that degree,
with the origin local cohomology of each basis module.

``build_table`` expands that list into the table's rows, the checked L_k, and
checks the structural invariants: entries positive, 0 <= i <= j <= dim, the
corner entry lambda_{dim,dim} = 1 where dim = C(n,2) - C(n-2k,2) = k(2n-2k-1)
is the dimension of the rank <= 2k locus, and the Euler characteristic
sum (-1)^(i-j) lambda_{i,j} = 1.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import comb, gcd
from operator import add

from .errors import TableInvariantError
from .kgroup import localcoh_class
from .origin_localcoh import h0_D_odd, h0_Q
from .polyring import QPoly

# The largest n build_table takes: verify --n-max 56 builds, and
# tests/outputs.sha256 pins, every table up to it, and no check covers more.
_N_MAX = 56


class LyubeznikTable:
    """The nonzero Lyubeznik numbers lambda_{i,j} of one Pfaffian ring, by rows: ``rows[i] =
    (js, lams)``, ``lams`` the nonzero lambda_{i,j} at the j of ``js``, an ascending tuple, not a
    list, as per-shape work is keyed on it; a built table's rows with equal columns share one."""

    __slots__ = ("n", "k", "dim", "rows")

    def __init__(self, n: int, k: int, rows: dict[int, tuple[tuple[int, ...], list[int]]]):
        self.n = n
        self.k = k
        self.dim = comb(n, 2) - comb(n - 2 * k, 2)
        self.rows = rows

    def __repr__(self) -> str:
        return f"LyubeznikTable(n={self.n!r}, k={self.k!r}, rows={self.rows!r})"

    def validate(self) -> None:
        n, k, dim = self.n, self.k, self.dim
        # H^i_m H^(N-j)_I(S) => H^(i+N-j)_m(S), which is E in degree N alone, so the sum is 1
        euler = 0
        odd_mask = cache(lambda js: [j & 1 for j in js])
        for i, (js, lams) in self.rows.items():
            if min(lams) <= 0:
                j, lam = next((j, lam) for j, lam in zip(js, lams) if lam <= 0)
                raise TableInvariantError(n, k, f"entry {lam} not positive", (i, j))
            if not (0 <= i <= js[0] and js[-1] <= dim):
                j = js[0] if i < 0 or js[0] < i else next(j for j in js if j > dim)
                raise TableInvariantError(n, k, f"index outside 0 <= i <= j <= {dim}", (i, j))
            signed = sum(lams) - 2 * sum(compress(lams, odd_mask(js)))  # sum (-1)^j lambda_{i,j}
            euler += -signed if i % 2 else signed
        js, lams = self.rows.get(dim, ((), ()))
        corner = lams[-1] if js and js[-1] == dim else None
        if corner != 1:
            raise TableInvariantError(n, k, f"corner entry is {corner}, expected 1", (dim, dim))
        if euler != 1:
            raise TableInvariantError(n, k, f"Euler characteristic is {euler}, expected 1")

    def _lines(self, template) -> list[str]:
        """Every row in ascending i as ``str(i).join(template(js)) % tuple(lams)``:
        ``template(js)`` spells one shape's row, j (and fixed cells) baked in,
        with %d per lambda and NUL for i, and is built and split once per shape."""
        split = cache(lambda js: template(js).split("\0"))
        return [str(i).join(split(js)) % tuple(lams) for i, (js, lams) in sorted(self.rows.items())]

    def _cells(self, cell: str, sep: str) -> str:
        """``cell % j % lambda``, i at its NUL, per entry in (i, j) order, joined by ``sep``."""
        return sep.join(self._lines(lambda js: sep.join([cell % j for j in js])))

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "dim": self.dim,
            "entries": [
                {"i": i, "j": j, "lambda": lam} for i in sorted(self.rows) for j, lam in zip(*self.rows[i])
            ],
        }

    def to_json(self) -> str:
        """The same bytes as ``json.dumps(self.to_obj())``, formatted directly."""
        cells = self._cells('{"i": \0, "j": %d, "lambda": %%d}', ", ")
        return f'{{"n": {self.n}, "k": {self.k}, "dim": {self.dim}, "entries": [{cells}]}}'

    def to_genfun_json(self) -> str:
        """L_k(q, w) as JSON terms {"eq": i, "ew": j, "c": lambda_{i,j}} sorted
        by (i, j), in the term format of ``QPoly.to_json``, formatted directly."""
        return "[" + self._cells('{"eq": \0, "ew": %d, "c": %%d}', ", ") + "]"

    def to_csv(self) -> str:
        return "i,j,lambda\n" + self._cells("\0,%d,%%d\n", "")

    def to_latex(self) -> str:
        """A tabular with one row per occupied i, one column per occupied j
        (labels range over [0, dim]; empty rows/columns are omitted)."""
        cols = sorted(set().union(*[js for js, _ in self.rows.values()]))
        lines = [r"\begin{tabular}{r|" + "c" * len(cols) + "}"]
        lines.append(
            " & ".join([r"$i \backslash j$"] + [f"${j}$" for j in cols]) + r" \\ \hline"
        )
        column = {j: t for t, j in enumerate(cols, 1)}

        def template(js: tuple[int, ...]) -> str:
            row = ["$\0$"] + ["$0$"] * len(cols)
            for j in js:
                row[column[j]] = "$%d$"
            return " & ".join(row) + r" \\"

        lines += [*self._lines(template), r"\end{tabular}"]
        return "\n".join(lines) + "\n"


def _composed_factors(n: int, k: int) -> list[tuple[QPoly, QPoly]]:
    """The origin local cohomology h(p) of each basis module p (Q_p for even n,
    D_p for odd n), paired with the module's coefficient in the class of the
    local cohomology, regraded by w^j with j = C(n,2) - cohomological degree."""
    m = n // 2
    h = h0_Q if n % 2 == 0 else h0_D_odd
    return [(h(m, p), coeff.reverse(comb(n, 2))) for p, coeff in enumerate(localcoh_class(n, k)) if coeff]


def _expand(factors: list[tuple[QPoly, QPoly]]) -> dict[int, tuple[tuple[int, ...], list[int]]]:
    """sum_s a_s(q) * b_s(w) as rows {i: (js, lams)} in ascending i: js the
    ascending j and lams the nonzero coefficients of q^i w^j.  Each b_s is one
    column, strided by the gcd of its exponent gaps (0 for a monomial).  A row
    that one b_s meets is that column times a_s[i], with b_s's exponents as its
    js; otherwise the row is one dense accumulator, strided by the gcd of the
    steps and offsets of the b_s that meet it, which the first b_s fills and
    the others add into.  Every js is the one tuple ``canonical`` keeps per
    shape, looked up by its range (lo, step, size) for a row without holes, so
    rows with the same columns share one js."""
    canonical = cache(lambda js: js)
    shape = cache(lambda js: canonical(tuple(js)))
    meets: dict[int, list[tuple[int, tuple[int, int, list[int], tuple[int, ...]]]]] = {}
    for a, b in factors:
        if b:
            coeffs = b.terms()
            exps = tuple(sorted(coeffs))
            step = gcd(*[f - e for e, f in zip(exps, exps[1:])])
            column = exps[0], step, [coeffs.get(e, 0) for e in range(exps[0], exps[-1] + 1, step or 1)], shape(exps)
            for i, x in a.terms().items():
                meets.setdefault(i, []).append((x, column))
    rows = {}
    for i in sorted(meets):
        terms = meets[i]
        if len(terms) == 1:
            x, (_, _, c, exps) = terms[0]
            rows[i] = (exps, [x * y for y in c if y])
            continue
        lo = min(lo_s for _, (lo_s, _, _, _) in terms)
        step = gcd(*[s for _, (_, s, _, _) in terms], *[lo_s - lo for _, (lo_s, _, _, _) in terms]) or 1
        hi = max(exps[-1] for _, (_, _, _, exps) in terms)
        acc = [0] * ((hi - lo) // step + 1)
        for t, (x, (lo_s, s, c, _)) in enumerate(terms):
            start = (lo_s - lo) // step
            part = slice(start, start + s // step * (len(c) - 1) + 1, s // step or 1)
            products = [x * y for y in c]
            acc[part] = map(add, acc[part], products) if t else products
        lams = list(filter(None, acc))
        if lams:
            js = range(lo, hi + 1, step)
            rows[i] = (shape(js if len(lams) == len(acc) else tuple(compress(js, acc))), lams)
    return rows


def build_table(n: int, k: int) -> LyubeznikTable:
    """Build the Lyubeznik table from the composed factor list and check its
    invariants; n outside 2..``_N_MAX`` is refused before any class is built,
    and k outside 0..floor(n/2)-1 by ``localcoh_class``."""
    if not 2 <= n <= _N_MAX:
        raise ValueError(f"require 2 <= n <= {_N_MAX}, got n={n}")
    table = LyubeznikTable(n, k, _expand(_composed_factors(n, k)))
    table.validate()
    return table
