"""Seeds, matrix mutation, and cluster-variable enumeration.

A seed couples a tuple of reduced rational expressions in u_1..u_n (the
cluster) with a square integer exchange matrix whose (i, j) and (j, i)
entries carry opposite signs.  Mutation in direction k replaces the k-th
cluster entry via the exchange relation

    x_k * x_k' = prod_{M[i,k] > 0} x_i^M[i,k] + prod_{M[i,k] < 0} x_i^-M[i,k]

(empty products are 1, so a rank-1 seed mutates to 2/x_1) and transforms
the matrix entrywise.  Directions are 1-based throughout, matching the
usual u_1..u_n numbering.

Sign-skew-symmetry is *not* enforced on mutation output: it is genuinely
not preserved for arbitrary sign-skew-symmetric matrices (only e.g. for
skew-symmetrizable ones), and the involution property holds regardless.
Use :meth:`ExchangeMatrix.validate` where the invariant is required.

Rational expressions are kept fully reduced by exact polynomial gcd
(delegated to sympy); equality, hashing and rendering all use the
canonical reduced form with a positive denominator leading coefficient
in graded-lexicographic order.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
import sympy as sp


def variables(n: int) -> tuple[sp.Symbol, ...]:
    """The ambient symbols u_1 .. u_n."""
    return tuple(sp.Symbol(f"u_{i}") for i in range(1, n + 1))


def _grlex_terms(poly: sp.Poly) -> list[tuple[tuple[int, ...], int]]:
    """Terms sorted graded-lexicographically, largest first, u_1 heaviest."""
    terms = [(monom, int(coeff)) for monom, coeff in poly.terms()]
    terms.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return terms


def _poly_str(poly: sp.Poly) -> str:
    terms = _grlex_terms(poly)
    if not terms:
        return "0"
    pieces: list[str] = []
    for monom, coeff in terms:
        factors = []
        for g, e in zip(poly.gens, monom):
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
    return " ".join(pieces)


class LaurentFraction:
    """A reduced ratio of integer polynomials in u_1..u_n.

    Construct via :meth:`from_expr` or :func:`initial_cluster`; arithmetic
    works on the polynomial pairs with exact gcd reduction, so equal
    values always compare (and hash) equal.
    """

    __slots__ = ("_num", "_den", "_nvars")

    def __init__(self, num: sp.Poly, den: sp.Poly, nvars: int):
        self._num = num
        self._den = den
        self._nvars = nvars

    @classmethod
    def _reduced(cls, num: sp.Poly, den: sp.Poly, nvars: int) -> "LaurentFraction":
        """Canonical form: coprime over ZZ, positive grlex-leading denominator."""
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            one = sp.Poly(1, num.gens, domain="ZZ")
            return cls(sp.Poly(0, num.gens, domain="ZZ"), one, nvars)
        g = num.gcd(den)
        num = num.exquo(g)
        den = den.exquo(g)
        if _grlex_terms(den)[0][1] < 0:
            num, den = -num, -den
        return cls(num, den, nvars)

    @classmethod
    def from_expr(cls, expr, nvars: int) -> "LaurentFraction":
        gens = variables(nvars)
        num, den = sp.fraction(sp.together(sp.sympify(expr)))
        num_q = sp.Poly(num, gens, domain="QQ")
        den_q = sp.Poly(den, gens, domain="QQ")
        if den_q.is_zero:
            raise ZeroDivisionError("zero denominator")
        cn, num_z = num_q.clear_denoms(convert=True)
        cd, den_z = den_q.clear_denoms(convert=True)
        # original value = (num_z / cn) / (den_z / cd)
        return cls._reduced(num_z * int(cd), den_z * int(cn), nvars)

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def numerator(self) -> sp.Poly:
        return self._num

    @property
    def denominator(self) -> sp.Poly:
        return self._den

    def as_expr(self) -> sp.Expr:
        return self._num.as_expr() / self._den.as_expr()

    def _coerce(self, other) -> "LaurentFraction":
        if isinstance(other, LaurentFraction):
            if other._nvars != self._nvars:
                raise ValueError("mixed numbers of variables")
            return other
        if isinstance(other, int):
            return LaurentFraction.from_expr(sp.Integer(other), self._nvars)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFraction._reduced(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
            self._nvars,
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFraction._reduced(
            self._num * other._num, self._den * other._den, self._nvars
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._num.is_zero:
            raise ZeroDivisionError("division by the zero fraction")
        return LaurentFraction._reduced(
            self._num * other._den, self._den * other._num, self._nvars
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers")
        return LaurentFraction._reduced(
            self._num**exponent, self._den**exponent, self._nvars
        )

    def is_laurent(self) -> bool:
        """True iff the reduced denominator is plus or minus one monomial."""
        terms = self._den.terms()
        return len(terms) == 1 and abs(int(terms[0][1])) == 1

    def sort_key(self):
        return (
            tuple(sorted(self._den.terms())),
            tuple(sorted(self._num.terms())),
        )

    def render(self) -> str:
        """Canonical string, e.g. ``(u_1 + u_2 + 1) / u_1*u_2``."""
        num_terms = _grlex_terms(self._num)
        num_str = _poly_str(self._num)
        if self._den == sp.Poly(1, self._num.gens, domain="ZZ"):
            return num_str
        if len(num_terms) > 1:
            num_str = f"({num_str})"
        den_str = _poly_str(self._den)
        if len(_grlex_terms(self._den)) > 1:
            den_str = f"({den_str})"
        return f"{num_str} / {den_str}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return (
            self._nvars == other._nvars
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self._nvars, self._num, self._den))

    def __repr__(self) -> str:
        return f"LaurentFraction({self.render()})"


def initial_cluster(n: int) -> tuple[LaurentFraction, ...]:
    """The fractions u_1, ..., u_n."""
    return tuple(LaurentFraction.from_expr(g, n) for g in variables(n))


def is_laurent(x: LaurentFraction) -> bool:
    """Whether the reduced denominator is a (signed) monomial."""
    return x.is_laurent()


class ExchangeMatrix:
    """Square integer matrix driving the exchange relation.

    Entries must be integers within int64, else ``ValueError``.
    Construction does not require sign-skew-symmetry (mutation can leave
    that class); call :meth:`validate` to enforce it at boundaries.
    """

    __slots__ = ("_m",)

    def __init__(self, rows):
        # Floats, ints beyond int64 and non-numbers infer a float, object
        # or string dtype; casting those to int64 would truncate or raise.
        a = np.array(rows)
        if a.dtype.kind != "i":
            raise ValueError("exchange matrix entries must be integers within int64")
        a = a.astype(np.int64, copy=False)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("exchange matrix must be square")
        a.setflags(write=False)
        self._m = a

    @property
    def n(self) -> int:
        return self._m.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self._m

    def rows(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self._m]

    def is_sign_skew_symmetric(self) -> bool:
        return bool((np.sign(self._m) == -np.sign(self._m.T)).all())

    def validate(self) -> "ExchangeMatrix":
        if not self.is_sign_skew_symmetric():
            raise ValueError(
                "matrix is not sign-skew-symmetric: "
                "some (i,j)/(j,i) entries do not have opposite signs"
            )
        return self

    def permuted(self, perm: tuple[int, ...]) -> "ExchangeMatrix":
        idx = np.array(perm)
        return ExchangeMatrix(self._m[np.ix_(idx, idx)])

    def key(self) -> bytes:
        return self._m.tobytes()

    def __getitem__(self, ij) -> int:
        return int(self._m[ij])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.n == other.n and (self._m == other._m).all()

    def __hash__(self) -> int:
        return hash((self.n, self.key()))

    def __repr__(self) -> str:
        return f"ExchangeMatrix({self.rows()!r})"


def a_path_matrix(n: int) -> ExchangeMatrix:
    """Exchange matrix of the linearly oriented path on n vertices."""
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i, i + 1] = 1
        m[i + 1, i] = -1
    return ExchangeMatrix(m)


def mutate_matrix(M: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based); an involution.

    Entries in row/column k flip sign; any other entry picks up
    (|M[i,k]| * M[k,j] + M[i,k] * |M[k,j]|) / 2, which is an exact
    integer (each summand pair is equal or cancels).  The arithmetic runs
    on Python integers, so it cannot wrap; a result entry outside int64
    raises ``ValueError``.
    """
    if not 1 <= k <= M.n:
        raise IndexError(f"direction {k} out of range 1..{M.n}")
    a = M.array.astype(object)
    i = k - 1
    col = a[:, i]
    row = a[i, :]
    bump = np.abs(col)[:, None] * row[None, :] + col[:, None] * np.abs(row)[None, :]
    assert not (bump % 2).any(), "mutation increment must be even"
    b = a + bump // 2
    b[i, :] = -a[i, :]
    b[:, i] = -a[:, i]
    return ExchangeMatrix(b.tolist())


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

    one = LaurentFraction.from_expr(1, n)
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
    """Key identifying seeds up to simultaneous cluster/matrix permutation."""
    keys = [f.sort_key() for f in seed.cluster]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    sorted_keys = tuple(keys[i] for i in order)

    groups: list[list[int]] = []
    for pos, i in enumerate(order):
        if pos > 0 and keys[i] == keys[order[pos - 1]]:
            groups[-1].append(i)
        else:
            groups.append([i])
    if all(len(g) == 1 for g in groups):
        matrix_key = seed.matrix.permuted(tuple(order)).key()
    else:
        # Duplicate cluster entries: canonicalize ties by brute force.
        matrix_key = min(
            seed.matrix.permuted(tuple(itertools.chain.from_iterable(choice))).key()
            for choice in itertools.product(
                *[list(itertools.permutations(g)) for g in groups]
            )
        )
    return (sorted_keys, matrix_key)


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
    if n > 5:
        raise ValueError("counting check is a desk-scale operation (n <= 5)")
    from .polygon import gamma as _gamma

    closure = enumerate_cluster_variables(a_path_matrix(n))
    if closure.cap_reached:
        return False
    return len(closure.variables) == len(_gamma(n + 1, 1).vertices)
