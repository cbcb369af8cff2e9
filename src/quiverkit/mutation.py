"""Seeds, matrix mutation, and cluster-variable enumeration.

A seed couples a tuple of rational functions in u_1..u_n (the cluster)
with a square integer exchange matrix, a tuple of row tuples of Python
ints, whose (i, j) and (j, i) entries carry opposite signs.  Mutation in
direction k replaces the k-th cluster entry via the exchange relation

    x_k * x_k' = prod_{M[i,k] > 0} x_i^M[i,k] + prod_{M[i,k] < 0} x_i^-M[i,k]

(empty products are 1, so a rank-1 seed mutates to 2/x_1) and transforms
the matrix entrywise.  Directions are 1-based throughout, matching the
usual u_1..u_n numbering.

Sign-skew-symmetry is *not* enforced on mutation output: it is genuinely
not preserved for arbitrary sign-skew-symmetric matrices (only e.g. for
skew-symmetrizable ones), and the involution property holds regardless.
Use :meth:`ExchangeMatrix.validate` where the invariant is required.

Cluster entries are elements of sympy's sparse rational-function field
ZZ(u_1, ..., u_n) in graded-lexicographic order, one field per n, kept in
the field's canonical form: coprime numerator and denominator with a
positive grlex-leading denominator coefficient, so equality, hashing and
rendering all see one form.  Every cluster variable of a
skew-symmetrizable seed is a Laurent polynomial f / u^d (Fomin-Zelevinsky's
Laurent phenomenon), so the exchange division is done exactly in
ZZ[u_1, ..., u_n] with monomial bookkeeping and no gcd; the field's own
cancelling division is the fallback for every other case, including the
non-Laurent entries that other sign-skew-symmetric seeds reach.  sympy is
imported when a field is first built (:func:`variables`, ``_field``), not
when this module loads, so only ``mutate`` and the ``verify`` checks that
mutate load it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .polygon import gamma

if TYPE_CHECKING:
    import sympy as sp
    from sympy.polys.fields import FracElement, FracField
    from sympy.polys.rings import PolyElement


def variables(n: int) -> tuple[sp.Symbol, ...]:
    """The ambient symbols u_1 .. u_n."""
    import sympy as sp

    return tuple(sp.Symbol(f"u_{i}") for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _field(n: int) -> FracField:
    """The field ZZ(u_1, ..., u_n), grlex-ordered, built once per n."""
    import sympy as sp
    from sympy.polys.fields import FracField
    from sympy.polys.orderings import grlex

    return FracField(variables(n), sp.ZZ, grlex)


def _poly_str(poly: PolyElement) -> str:
    pieces: list[str] = []
    for monom, coeff in poly.terms():  # grlex order, largest first
        factors = []
        for g, e in zip(poly.ring.symbols, monom):
            if e == 1:
                factors.append(str(g))
            elif e > 1:
                factors.append(f"{g}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def _split_monomial(poly: PolyElement) -> tuple[tuple[int, ...], PolyElement]:
    """``(e, q)`` with ``poly = u^e * q`` and no u_i dividing ``q``; poly is nonzero."""
    e = tuple(map(min, zip(*poly)))
    if not any(e):
        return e, poly
    return e, poly.new([(tuple(a - b for a, b in zip(m, e)), c) for m, c in poly.items()])


def _laurent_quotient(f: FracElement, g: FracElement) -> FracElement | None:
    """``f / g`` in canonical form without a gcd, or None if this path cannot decide it.

    It decides it when f is nonzero and both denominators are monomials
    u^a with coefficient 1, as every Laurent cluster variable's is.  Writing
    f = p / u^a and g = u^c * r / u^b with no u_i dividing r, the quotient
    is p * u^b / (r * u^(a+c)): exact division p / r = u^e * q leaves
    q * u^(b+e-a-c).  Its parts q * u^(net+) and u^(net-) are coprime and
    the denominator is a monomial with coefficient +1, which is the field's
    canonical form.  Polynomial division ``p.div(r)`` gives q and a
    remainder; None when that remainder is nonzero (r does not divide p,
    so the quotient is not a Laurent polynomial) or when the denominators
    are not such monomials.
    """
    fd, gd = f.denom, g.denom
    if not f.numer or len(fd) != 1 or len(gd) != 1 or fd.LC != 1 or gd.LC != 1:
        return None
    c, r = _split_monomial(g.numer)
    q, rem = f.numer.div(r)
    if rem:
        return None
    e, q = _split_monomial(q)
    net = [b + e_i - a - c_i for a, b, c_i, e_i in zip(fd.LM, gd.LM, c, e)]
    num = q.mul_monom(tuple(max(x, 0) for x in net))
    den = q.ring.one.mul_monom(tuple(max(-x, 0) for x in net))
    return f.field.raw_new(num, den)


class LaurentFraction:
    """A reduced ratio of integer polynomials in u_1..u_n.

    A thin wrapper around one element of ``_field(n)``; construct via
    :meth:`from_expr` or :func:`initial_cluster`.  Every value is kept in
    the field's canonical form, so equal values always compare (and hash)
    equal.  Addition, multiplication and powers are the field's own.
    Division of two Laurent polynomials (monomial denominators) is exact
    division of polynomials with the monomial parts moved into the
    exponents, and runs no gcd; any other division, and one whose exact
    division fails (the result is then not Laurent), is the field's
    cancelling division.
    """

    __slots__ = ("_f",)

    def __init__(self, f: FracElement):
        self._f = f

    @classmethod
    def from_expr(cls, expr, nvars: int) -> "LaurentFraction":
        return cls(_field(nvars).from_expr(expr))

    @property
    def nvars(self) -> int:
        return self._f.field.ngens

    @property
    def numerator(self) -> PolyElement:
        return self._f.numer

    @property
    def denominator(self) -> PolyElement:
        return self._f.denom

    def _operand(self, other):
        if isinstance(other, LaurentFraction):
            if other.nvars != self.nvars:
                raise ValueError("mixed numbers of variables")
            return other._f
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFraction(self._f + other)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFraction(self._f * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero fraction")
        if not isinstance(other, int):
            quotient = _laurent_quotient(self._f, other)
            if quotient is not None:
                return LaurentFraction(quotient)
        return LaurentFraction(self._f / other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers")
        return LaurentFraction(self._f**exponent)

    def is_laurent(self) -> bool:
        """True iff the reduced denominator is plus or minus one monomial."""
        den = self._f.denom
        return len(den) == 1 and abs(den.LC) == 1

    def sort_key(self):
        return (
            tuple(sorted(self._f.denom.items())),
            tuple(sorted(self._f.numer.items())),
        )

    def render(self) -> str:
        """Canonical string, e.g. ``(u_1 + u_2 + 1) / u_1*u_2``."""
        num, den = self._f.numer, self._f.denom
        num_str = _poly_str(num)
        if den == 1:
            return num_str
        if len(num) > 1:
            num_str = f"({num_str})"
        den_str = _poly_str(den)
        if len(den) > 1:
            den_str = f"({den_str})"
        return f"{num_str} / {den_str}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return self.nvars == other.nvars and self._f == other._f

    def __hash__(self) -> int:
        return hash(self._f)

    def __repr__(self) -> str:
        return f"LaurentFraction({self.render()})"


def initial_cluster(n: int) -> tuple[LaurentFraction, ...]:
    """The fractions u_1, ..., u_n."""
    return tuple(LaurentFraction(g) for g in _field(n).gens)


_INT64 = range(-(2**63), 2**63)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


class ExchangeMatrix:
    """Square integer matrix driving the exchange relation.

    Stored as a tuple of row tuples of Python ``int``.  Entries must be
    integers (not ``bool``) within int64 and the matrix square and
    non-empty, else ``ValueError``: Python ints cannot overflow, but the
    bound stays as validation of outside input (``mutate --matrix``) and
    of mutation results.  Construction does not require sign-skew-symmetry
    (mutation can leave that class); call :meth:`validate` to enforce it.
    """

    __slots__ = ("_m",)

    def __init__(self, rows):
        # Entries first, at any depth, then the shape: nested lists of
        # integers that are ragged, 1-D or 3-D are not square.
        seqs, stack = (list, tuple), [rows]
        while stack:
            x = stack.pop()
            if isinstance(x, seqs):
                stack.extend(x)
            elif type(x) is not int or x not in _INT64:
                raise ValueError("exchange matrix entries must be integers within int64")
        n = len(rows) if isinstance(rows, seqs) else 0
        if not n or not all(
            isinstance(r, seqs) and len(r) == n and not any(isinstance(x, seqs) for x in r)
            for r in rows
        ):
            raise ValueError("exchange matrix must be square and non-empty")
        self._m = tuple(tuple(r) for r in rows)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "ExchangeMatrix":
        """Wrap rows already known to be a valid square matrix, unchecked."""
        M = object.__new__(cls)
        M._m = rows
        return M

    @property
    def n(self) -> int:
        return len(self._m)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self._m]

    def is_sign_skew_symmetric(self) -> bool:
        m = self._m
        return all(_sign(x) == -_sign(m[j][i]) for i, r in enumerate(m) for j, x in enumerate(r))

    def validate(self) -> "ExchangeMatrix":
        if not self.is_sign_skew_symmetric():
            raise ValueError(
                "matrix is not sign-skew-symmetric: "
                "some (i,j)/(j,i) entries do not have opposite signs"
            )
        return self

    def permuted(self, perm: tuple[int, ...]) -> "ExchangeMatrix":
        m = self._m
        return ExchangeMatrix._from_rows(tuple(tuple(m[i][j] for j in perm) for i in perm))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._m[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self._m == other._m

    def __hash__(self) -> int:
        return hash(self._m)

    def __repr__(self) -> str:
        return f"ExchangeMatrix({self.rows()!r})"


def a_path_matrix(n: int) -> ExchangeMatrix:
    """Exchange matrix of the linearly oriented path on n vertices."""
    return ExchangeMatrix([[(j == i + 1) - (j == i - 1) for j in range(n)] for i in range(n)])


def mutate_matrix(M: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based); an involution.

    Entries in row/column k flip sign; any other entry M[i,j] picks up
    sgn(M[i,k]) * max(M[i,k] * M[k,j], 0) (Fomin-Zelevinsky).  The
    arithmetic runs on Python integers, so it cannot wrap; a result entry
    outside int64 raises ``ValueError``.
    """
    if not 1 <= k <= M.n:
        raise IndexError(f"direction {k} out of range 1..{M.n}")
    c, m = k - 1, M._m
    rows = tuple(
        tuple(
            -x if c in (i, j) else x + _sign(r[c]) * max(r[c] * m[c][j], 0)
            for j, x in enumerate(r)
        )
        for i, r in enumerate(m)
    )
    if min(map(min, rows)) < _INT64.start or max(map(max, rows)) >= _INT64.stop:
        raise ValueError("exchange matrix entries must be integers within int64")
    return ExchangeMatrix._from_rows(rows)


@dataclass(frozen=True)
class Seed:
    """A cluster of fractions together with its exchange matrix."""

    cluster: tuple[LaurentFraction, ...]
    matrix: ExchangeMatrix

    def __post_init__(self):
        if len(self.cluster) != self.matrix.n:
            raise ValueError("cluster length must equal the matrix dimension")


def initial_seed(M: ExchangeMatrix) -> Seed:
    return Seed(cluster=initial_cluster(M.n), matrix=M)


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k (1-based); an involution."""
    n = seed.matrix.n
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    col = k - 1
    xk = seed.cluster[col]
    if xk.numerator.is_zero:
        raise ZeroDivisionError("cannot mutate a seed whose active entry is zero")

    one = LaurentFraction(_field(n).one)
    pos = one
    neg = one
    for i in range(n):
        e = seed.matrix[i, col]
        if e > 0:
            pos = pos * seed.cluster[i] ** e
        elif e < 0:
            neg = neg * seed.cluster[i] ** (-e)
    new_entry = (pos + neg) / xk

    cluster = list(seed.cluster)
    cluster[col] = new_entry
    return Seed(cluster=tuple(cluster), matrix=mutate_matrix(seed.matrix, k))


def _canonical_seed_key(seed: Seed) -> tuple:
    """Key identifying seeds up to simultaneous cluster/matrix permutation.

    Sorting the cluster fixes the permutation: its entries are pairwise
    distinct.  Every seed the closure sees comes from the initial one by
    mutations, and since x_k = (P + Q) / x_k' each cluster stays a free
    generating set of ZZ(u_1, ..., u_n), so no two entries are equal.
    """
    keys = [f.sort_key() for f in seed.cluster]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return (
        tuple(keys[i] for i in order),
        seed.matrix.permuted(tuple(order)),
    )


@dataclass(frozen=True)
class ClosureResult:
    """Breadth-first closure of a seed under all mutations."""

    variables: frozenset
    cap_reached: bool
    seed_count: int


def enumerate_cluster_variables(M0: ExchangeMatrix, cap: int = 10000) -> ClosureResult:
    """All cluster variables reachable from the initial seed of ``M0``.

    Seeds are deduplicated as unordered clusters with compatibly permuted
    matrices.  If more than ``cap`` seeds appear the search stops and the
    result carries ``cap_reached=True`` instead of failing.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    M0.validate()
    start = initial_seed(M0)
    seen = {_canonical_seed_key(start)}
    queue = deque([start])
    found: set[LaurentFraction] = set(start.cluster)
    cap_reached = False
    while queue:
        seed = queue.popleft()
        for k in range(1, M0.n + 1):
            nxt = mutate_seed(seed, k)
            key = _canonical_seed_key(nxt)
            if key in seen:
                continue
            if len(seen) >= cap:
                cap_reached = True
                queue.clear()
                break
            seen.add(key)
            found.update(nxt.cluster)
            queue.append(nxt)
    return ClosureResult(
        variables=frozenset(found), cap_reached=cap_reached, seed_count=len(seen)
    )


def counting_check(n: int) -> bool:
    """Compare the type-A_n variable count with the diagonal count of an (n+3)-gon.

    Both sides are computed independently: breadth-first mutation closure
    on one side, the diagonal quiver of the polygon on the other.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > 6:
        raise ValueError("counting check is a desk-scale operation (n <= 6)")
    closure = enumerate_cluster_variables(a_path_matrix(n))
    if closure.cap_reached:
        return False
    return len(closure.variables) == len(gamma(n + 1, 1).vertices)
