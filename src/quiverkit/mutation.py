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
rendering all see one form.  The exchange relation builds its two
products and their sum from numerators and denominators in
ZZ[u_1, ..., u_n], left uncancelled, and puts the sum in canonical form
once, in the division by x_k.  Every cluster variable of a
skew-symmetrizable seed is a Laurent polynomial f / u^d (Fomin-Zelevinsky's
Laurent phenomenon), so there the sum's denominator is a monomial and the
division is exact division in ZZ[u_1, ..., u_n] with monomial bookkeeping:
a Laurent exchange runs no gcd.  Any other exchange, including those of the
non-Laurent entries that other sign-skew-symmetric seeds reach, runs one,
in the field's cancelling division.  sympy is imported when a field is
first built (:func:`variables`, ``_field``), not when this module loads,
so only ``mutate`` and the ``verify`` checks that mutate load it.

:func:`enumerate_cluster_variables` walks the exchange graph breadth
first, for a skew-symmetrizable B (positive d_i with d_i b_ij =
-d_j b_ji) only.  The walk carries integers: B, the seed's g-vectors and
its c-vector matrix C, which start as the identity (principal
coefficients) and mutate by Fomin-Zelevinsky, *Cluster algebras IV*
(2007), and Nakanishi-Zelevinsky (2012).  With eps the sign of c-vector
k (column k of C), mutation at k sets

    g_k' = -g_k + sum_i max(-eps * b_ik, 0) * g_i

and mutates C as the lower half of the extended matrix [B; C].  This
relies on sign coherence: every c-vector is nonzero with all entries of
one sign, a theorem for skew-symmetrizable B (Gross-Hacking-Keel-
Kontsevich 2018).  A seed is keyed by the set of its g-vectors.  For
such B, cluster variables are determined by their g-vectors (same
source), so the key fixes the cluster.  The cluster fixes the seed: C
starts as the identity and mutation keeps the rank of [B; C], so the
extended matrix has full rank throughout, and a seed whose extended
matrix has full rank is determined by its cluster (Gekhtman-Shapiro-
Vainshtein 2008).  The exchange graph does not depend on the
coefficients (Cao-Huang-Li 2020), so this key identifies exactly the
seeds that the fractions do.  A step builds the new g-vectors only; B
and C are mutated when a seed is admitted.  A fraction is computed only
when an admitted seed brings a g-vector not met before, by one exchange
relation in the seed it was reached from: a closure does (variables - n)
exchanges.  Mutation is an involution, so the step at the direction a
seed was reached by leads back to its parent; the walk skips it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

from .config import DEFAULT_SEED_CAP
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
    """``poly`` in grlex order by sympy's printer, e.g. ``u_1^2 - 2*u_2 + 1``."""
    from sympy.printing.precedence import PRECEDENCE
    from sympy.printing.str import StrPrinter

    return poly.str(StrPrinter(), PRECEDENCE, "%s^%s", "*")


def _split_monomial(poly: PolyElement) -> tuple[tuple[int, ...], PolyElement]:
    """``(e, q)`` with ``poly = u^e * q`` and no u_i dividing ``q``; poly is nonzero."""
    e = tuple(map(min, zip(*poly)))
    if not any(e):
        return e, poly
    return e, poly.new([(tuple(a - b for a, b in zip(m, e)), c) for m, c in poly.items()])


def _laurent_quotient(f: FracElement, g: FracElement) -> FracElement | None:
    """``f / g`` in canonical form without a gcd, or None if this path cannot decide it.

    It decides it when f is nonzero and both denominators are monomials
    u^a with coefficient 1, as every Laurent cluster variable's is, and as
    the uncancelled sum that :func:`_exchange` passes as f then has; neither
    argument need be in canonical form.  Writing f = p / u^a and
    g = u^c * r / u^b with no u_i dividing r, the quotient
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
    equal; the one exception is the uncancelled dividend that
    :func:`_exchange` builds and divides at once.  Addition,
    multiplication and powers are the field's own.  Division of two
    Laurent polynomials (monomial denominators) is exact division of
    polynomials with the monomial parts moved into the exponents, and runs
    no gcd; any other division, and one whose exact division fails (the
    result is then not Laurent), is the field's cancelling division.
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

    def is_skew_symmetrizable(self) -> bool:
        """True iff some positive d_1..d_n have d_i M[i,j] = -d_j M[j,i] for all i, j.

        Fixes d = 1 at one vertex of each component of the graph of
        nonzero entries, derives d along its edges, and checks every entry
        against it.
        """
        from fractions import Fraction

        m, d = self._m, [None] * len(self._m)
        for root in range(len(m)):
            if d[root] is not None:
                continue
            d[root], stack = Fraction(1), [root]
            while stack:
                i = stack.pop()
                for j, b in enumerate(m[i]):
                    if not b:
                        continue
                    if b * m[j][i] >= 0:
                        return False
                    dj = -d[i] * b / m[j][i]
                    if d[j] is None:
                        d[j] = dj
                        stack.append(j)
                    elif d[j] != dj:
                        return False
        return True

    def validate(self) -> "ExchangeMatrix":
        if not self.is_sign_skew_symmetric():
            raise ValueError(
                "matrix is not sign-skew-symmetric: "
                "some (i,j)/(j,i) entries do not have opposite signs"
            )
        return self

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


def _mutate_rows(rows, pivot, c: int, p: int = -1) -> tuple[tuple[int, ...], ...]:
    """Rows of an extended exchange matrix [B; C] mutated in column c (0-based).

    ``pivot`` is row c of B.  Row ``p`` (row c itself, when ``rows`` is B)
    and column c flip sign; any other entry r[j] picks up
    sgn(r[c]) * max(r[c] * pivot[j], 0) (Fomin-Zelevinsky), so a row with
    r[c] = 0 comes back as it is.  The arithmetic runs on Python integers,
    so it cannot wrap; a changed row with an entry outside int64 raises
    ``ValueError``.
    """
    pos = [(j, y) for j, y in enumerate(pivot) if y > 0 and j != c]
    neg = [(j, y) for j, y in enumerate(pivot) if y < 0 and j != c]
    out = []
    for i, r in enumerate(rows):
        a = r[c]
        if i == p:
            row = [-x for x in r]
        elif not a:
            out.append(r)
            continue
        else:
            row = list(r)
            row[c] = -a
            for j, y in pos if a > 0 else neg:
                row[j] += abs(a) * y
        if min(row) < _INT64.start or max(row) >= _INT64.stop:
            raise ValueError("exchange matrix entries must be integers within int64")
        out.append(tuple(row))
    return tuple(out)


def mutate_matrix(M: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based); an involution.

    Entries in row/column k flip sign; any other entry M[i,j] picks up
    sgn(M[i,k]) * max(M[i,k] * M[k,j], 0) (Fomin-Zelevinsky).  A result
    entry outside int64 raises ``ValueError``.
    """
    if not 1 <= k <= M.n:
        raise IndexError(f"direction {k} out of range 1..{M.n}")
    c = k - 1
    return ExchangeMatrix._from_rows(_mutate_rows(M._m, M._m[c], c, c))


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


def _exchange(cluster: tuple[LaurentFraction, ...], rows, c: int) -> LaurentFraction:
    """The entry replacing ``cluster[c]`` (0-based) by the exchange relation on column c.

    Both products and their sum are built uncancelled in ZZ[u_1, ..., u_n];
    the division by ``cluster[c]`` alone puts the result in canonical form,
    with no gcd when every entry is Laurent (module docstring).  A zero
    ``cluster[c]`` raises ``ZeroDivisionError`` from that division.
    """
    xk = cluster[c]
    field = _field(len(cluster))
    pn = pd = nn = nd = field.ring.one
    for x, row in zip(cluster, rows):
        e = row[c]
        if e > 0:
            pn, pd = pn * x.numerator**e, pd * x.denominator**e
        elif e < 0:
            nn, nd = nn * x.numerator ** (-e), nd * x.denominator ** (-e)
    return LaurentFraction(field.raw_new(pn * nd + nn * pd, pd * nd)) / xk


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k (1-based); an involution."""
    matrix = mutate_matrix(seed.matrix, k)
    cluster = list(seed.cluster)
    cluster[k - 1] = _exchange(seed.cluster, seed.matrix._m, k - 1)
    return Seed(cluster=tuple(cluster), matrix=matrix)


@dataclass(frozen=True)
class ClosureResult:
    """Breadth-first closure of a seed under all mutations."""

    variables: frozenset
    cap_reached: bool
    seed_count: int


class _GVectorSeeds:
    """Closure seeds as integer triples (B, G, C), keyed by their g-vectors.

    G is the tuple of the seed's g-vectors and C its c-vector matrix
    (c-vector j is column j), both the identity at the initial seed.  A
    step builds G' only, as its set is the seed's key (module docstring);
    B', C' and, for a g-vector not met before, its fraction are built when
    the seed is admitted.  ``fractions`` maps every g-vector met to its
    cluster variable.
    """

    def __init__(self, M0: ExchangeMatrix):
        eye = tuple(tuple(int(i == j) for j in range(M0.n)) for i in range(M0.n))
        self.start = (M0._m, eye, eye)
        self.start_key = frozenset(eye)
        self.fractions = dict(zip(eye, initial_cluster(M0.n)))

    @staticmethod
    def key(G) -> frozenset:
        """The set of the g-vectors ``G``, which fixes the seed."""
        return frozenset(G)

    def step(self, seed, c: int):
        B, G, C = seed
        # Sign coherence: column c of C is nonzero, its entries of one sign.
        eps = 1 if any(r[c] > 0 for r in C) else -1
        g = [-x for x in G[c]]
        for gi, r in zip(G, B):
            a = -eps * r[c]
            if a > 0:
                g = [x + a * y for x, y in zip(g, gi)]
        return G[:c] + (tuple(g),) + G[c + 1 :]

    def admit(self, parent, c: int, G2):
        B, G, C = parent
        if G2[c] not in self.fractions:
            cluster = tuple(self.fractions[g] for g in G)
            self.fractions[G2[c]] = _exchange(cluster, B, c)
        return _mutate_rows(B, B[c], c, c), G2, _mutate_rows(C, B[c], c)

    def variables(self) -> frozenset:
        return frozenset(self.fractions.values())


def _closure(M0: ExchangeMatrix, cap: int, kind) -> ClosureResult:
    """Breadth-first closure of ``kind(M0)``'s seeds; at most ``cap`` seeds are admitted.

    ``kind`` is :class:`_GVectorSeeds` in :func:`enumerate_cluster_variables`;
    it is the seam through which tests run oracle closures on the same loop.
    Each queue entry carries the direction it was reached by, and the step
    back along it, to the already seen parent, is skipped: an uncapped
    closure of S seeds makes n + (S-1)(n-1) steps.
    """
    seeds = kind(M0)
    seen = {seeds.start_key}
    queue = deque([(seeds.start, -1)])
    cap_reached = False
    while queue:
        seed, came = queue.popleft()
        for c in range(M0.n):
            if c == came:
                continue
            nxt = seeds.step(seed, c)
            key = seeds.key(nxt)
            if key in seen:
                continue
            if len(seen) >= cap:
                cap_reached = True
                queue.clear()
                break
            seen.add(key)
            queue.append((seeds.admit(seed, c, nxt), c))
    return ClosureResult(
        variables=seeds.variables(), cap_reached=cap_reached, seed_count=len(seen)
    )


def enumerate_cluster_variables(M0: ExchangeMatrix, cap: int = DEFAULT_SEED_CAP) -> ClosureResult:
    """All cluster variables reachable from the initial seed of ``M0``.

    ``M0`` must be skew-symmetrizable: positive d_i with d_i b_ij =
    -d_j b_ji, which implies sign-skew-symmetry.  Any other ``M0``, or
    ``cap <= 0``, raises ``ValueError``.  Seeds are visited breadth first,
    directions 1..n in turn from each, except the direction a seed was
    reached by, which leads back to its parent and is not recomputed.
    Only admitted seeds contribute variables: when a new seed would be the
    (cap + 1)-th, the search stops and the result carries
    ``cap_reached=True`` and ``seed_count == cap`` instead of failing.

    Seeds carry integer B, g-vectors and c-vectors and are keyed by their
    set of g-vectors, which determines the seed because [B; C] keeps full
    rank (C starts as the identity and mutation preserves rank; Gekhtman-
    Shapiro-Vainshtein 2008).  B and C are mutated once per admitted
    seed, and one exchange relation is computed per new cluster variable,
    in the admitted seed's parent, so (variables - n) in all.  The
    g-vector step needs the c-vectors to be sign-coherent, which
    Gross-Hacking-Keel-Kontsevich (2018) prove for skew-symmetrizable B.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if not M0.is_skew_symmetrizable():
        raise ValueError(
            "matrix is not skew-symmetrizable: "
            "no positive d_i with d_i*b_ij = -d_j*b_ji for all i, j"
        )
    return _closure(M0, cap, _GVectorSeeds)


def counting_check(n: int) -> bool:
    """Compare type A_n's cluster variables and clusters with the (n+3)-gon.

    Both sides are computed independently: breadth-first mutation closure
    on one side, the diagonal quiver of the polygon on the other.  The
    variables must match the diagonals and the clusters the triangulations,
    of which there are Catalan(n+1); the closure's seed cap is set to that
    number, so it is reached only if the closure finds more clusters.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    triangulations = comb(2 * n + 2, n + 1) // (n + 2)
    closure = enumerate_cluster_variables(a_path_matrix(n), cap=triangulations)
    return (
        not closure.cap_reached
        and closure.seed_count == triangulations
        and len(closure.variables) == len(gamma(n + 1, 1).vertices)
    )
