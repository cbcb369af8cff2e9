"""Diagonals of polygons and the translation quivers they generate.

Work in a convex polygon with vertices labeled 1..N clockwise.  A
diagonal is an unordered pair at cyclic distance at least 2; it is
stored canonically as ``(i, j)`` with ``i < j``.  Inside an
(n*m + 2)-gon the *m-divisible* diagonals are those cutting the polygon
into an (m*j + 2)-gon and an (m*(n-j) + 2)-gon; their quiver
``gamma(n, m)`` has arrows ``(i,j) -> (i,j+m)`` and ``(i,j) -> (i+m,j)``
whenever the image is again such a diagonal (labels modulo N) and the
translation subtracts m from both coordinates.  One builder makes these
quivers for every step: ``gamma(n, m)`` is a :class:`DiagonalQuiver`
with step m, and :func:`~quiverkit.power.power` turns a diagonal quiver
with step s into the one with step s*k on the same vertices.

Maximal pairwise non-crossing collections of these diagonals are the
(m+2)-angulations of the polygon; for m = 1 they are the triangulations.
They are listed by recursing on the (m+2)-gon cell over a side, the
decomposition that proves their Fuss-Catalan count
``binom((m+1)n, n-1) / n`` (the Catalan numbers for m = 1).

All arithmetic uses representatives 1..N (never 0) so results line up
with hand-labeled pictures.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations_with_replacement, product
from math import comb, gcd

from .config import ANGULATION_WORK_CAP
from .errors import SizeCapError
from .quiver import Quiver, TranslationQuiver

Diagonal = tuple[int, int]


def normalize_pair(pair: tuple[int, int], N: int) -> Diagonal:
    """Canonical form of an unordered vertex pair, labels folded to 1..N."""
    i = (pair[0] - 1) % N + 1
    j = (pair[1] - 1) % N + 1
    return (i, j) if i <= j else (j, i)


def cyclic_gap(d: tuple[int, int], N: int) -> int:
    """Minimal cyclic distance between the endpoints."""
    i, j = normalize_pair(d, N)
    raw = (j - i) % N
    return min(raw, N - raw)


def is_diagonal(d: tuple[int, int], N: int) -> bool:
    return cyclic_gap(d, N) >= 2


def diagonals(N: int) -> list[Diagonal]:
    """All diagonals of the N-gon, canonical and sorted."""
    if N < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {N}")
    return [
        (i, j)
        for i in range(1, N + 1)
        for j in range(i + 1, N + 1)
        if is_diagonal((i, j), N)
    ]


def is_m_diagonal(d: tuple[int, int], n: int, m: int) -> bool:
    """Does ``d`` cut the (n*m+2)-gon into polygons of sizes m*j+2 and m*(n-j)+2?

    Equivalently: some cyclic gap g of ``d`` equals m*j + 1 for an integer
    1 <= j <= n - 1.  (If one gap works so does the other, since the gaps
    sum to n*m + 2.)  With m = 1 every diagonal qualifies.
    """
    N = n * m + 2
    g = cyclic_gap(d, N)
    if g < 2:
        return False
    if (g - 1) % m != 0:
        return False
    j = (g - 1) // m
    return 1 <= j <= n - 1


def m_diagonals(n: int, m: int) -> list[Diagonal]:
    """The m-diagonals ``(i, j)``, sorted: ``j - i = m*t + 1`` with 1 <= t <= n - 1."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    N = n * m + 2
    return [(i, j) for i in range(1, N) for j in range(i + m + 1, min(N, i + N - m - 1) + 1, m)]


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    """Strict interleaving of endpoints around the cycle.

    Expects canonical pairs.  Sharing an endpoint never counts as
    crossing.
    """
    a, b = d1
    c, d = d2
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def row_of(d: tuple[int, int], N: int) -> int:
    """Row index of a diagonal: minimal cyclic gap minus one.

    Rows index the horizontal layers of the diagonal quiver of the
    N-gon; the wrap-around identification means e.g. (1,7) in an octagon
    sits in row 1, not row 5.
    """
    g = cyclic_gap(d, N)
    if g < 2:
        raise ValueError(f"{d} is not a diagonal of the {N}-gon")
    return g - 1


class DiagonalQuiver(TranslationQuiver):
    """A translation quiver of diagonals of the N-gon whose arrows move one end ``step`` on.

    Built only by :func:`gamma`, by :func:`~quiverkit.power.power` of a
    diagonal quiver and by :func:`~quiverkit.quiver.split_components` of
    one; calling the class raises ``TypeError``.  It stores ``N``, ``step``
    and its sorted vertices.  Its arrows and translation are built by
    :func:`_diagonal_listings` the first time anything reads them: the
    arrows, ``tau``/``tau_of``, ``quiver``, ``out``/``into`` and the
    like.  ``vertices``, ``sorted_vertices()``, ``repr``,
    :func:`~quiverkit.power.power` and ``split_components`` build nothing;
    ``vertices`` is a frozenset of the stored vertices, made on its first
    read and then shared with the listed quiver.

    ``==`` builds nothing between two diagonal quivers either, except
    when they have the same vertices but not the same ``N`` and ``step``.
    Two on different vertex sets differ, and two with the same ``N``,
    ``step`` and vertices are equal, as their listings are one function
    of those three.  Any other comparison, and any with a plain
    :class:`~quiverkit.quiver.TranslationQuiver`, compares the listings;
    the hash is the listings' too.

    Name a diagonal by a start x and a clockwise gap g, 2 <= g <= N - 2;
    ``(i, j)`` has the two names ``(i, j-i)`` and ``(j, N-j+i)``.  With
    s = ``step`` and d = gcd(s, N), its *key class* is (x mod d, g mod s).
    The vertex set is a union of whole key classes: ``gamma(n, m)`` takes
    every gap 1 mod m, a power keeps the vertices and multiplies s, which
    makes s and d multiples of what they were and so refines the classes,
    and a part is a union of classes.

    That makes the split a closed form (:meth:`_split`).  The arrows
    (x, g) -> (x, g+s) and (x, g) -> (x+s, g-s) and the translation
    (x-s, g) keep the key class, so a component lies inside the classes
    of its diagonals' two names.  Within a whole class the translation
    reaches every start x' = x mod d, as s generates dZ/NZ, and the first
    arrow walks g through every gap of the class.  So the components are
    exactly the orbits of the key (c, a) = ((j-i) mod s, i mod d) of
    ``(i, j)`` under the renaming (c, a) -> ((N-c) mod s, (a+c) mod d).
    """

    __slots__ = ("N", "step", "_verts", "_vertex_set")

    def __init__(self, *args, **kwargs):
        raise TypeError("a DiagonalQuiver is built by gamma(), power() or split_components()")

    def __getattr__(self, name: str):
        # Runs only while a slot is unset: the first read of _vertex_set makes
        # the set, the first read of _quiver or _tau builds both listings.
        # Threads racing on it build equal sets and equal listings.
        if name == "_vertex_set":
            self._vertex_set = frozenset(self._verts)
        elif name in ("_quiver", "_tau"):
            arrows, self._tau = _diagonal_listings(self.N, self.step, self._verts)
            self._quiver = Quiver._listed(self._verts, arrows, self.vertices)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, name)

    @property
    def vertices(self) -> frozenset:
        return self._vertex_set

    def sorted_vertices(self) -> list[Diagonal]:
        return list(self._verts)

    def __eq__(self, other) -> bool:
        if isinstance(other, DiagonalQuiver):
            if self.vertices != other.vertices:
                return False
            if self.N == other.N and self.step == other.step:
                return True
        return super().__eq__(other)

    __hash__ = TranslationQuiver.__hash__

    def __repr__(self) -> str:
        return f"DiagonalQuiver(N={self.N}, step={self.step}, {len(self._verts)} vertices)"

    def _split(self) -> list[DiagonalQuiver]:
        """The components, in :func:`~quiverkit.quiver.split_components` order.

        Each key (c, a) that occurs, numbered c*d + a, gets its orbit once, and each vertex
        goes to its key's orbit; orbits come in order of their least vertex, sorted stably by size.
        """
        N, s = self.N, self.step
        d = gcd(s, N)
        keys = [(j - i) % s * d + i % d for i, j in self._verts]
        orbit = {
            x: min((c, a), ((N - c) % s, (a + c) % d)) for x in set(keys) for c, a in [divmod(x, d)]
        }
        parts: dict[tuple[int, int], list[Diagonal]] = {}
        for v, x in zip(self._verts, keys):
            parts.setdefault(orbit[x], []).append(v)
        return [_diagonal_quiver(N, s, p) for p in sorted(parts.values(), key=len, reverse=True)]


def _diagonal_quiver(N: int, step: int, verts: list[Diagonal]) -> DiagonalQuiver:
    """The diagonal quiver with ``step`` on ``verts``, in vertex_key order; nothing listed yet."""
    dq = DiagonalQuiver.__new__(DiagonalQuiver)
    dq.N, dq.step, dq._verts = N, step, tuple(verts)
    return dq


def _diagonal_listings(N: int, step: int, verts: tuple[Diagonal, ...]) -> tuple[list, dict]:
    """Arrows ``(i,j) -> (i,j+step)`` and ``(i,j) -> (i+step,j)`` on ``verts``, tau back by step.

    The first arrow exists iff ``j - i + step <= N - 2`` (folded to
    ``(j+step-N, i)`` past N), the second iff ``j - i >= step + 2``.  Tau
    is ``(i-step, j-step)`` with both ends folded into 1..N, then ordered.
    ``verts`` come in :func:`~quiverkit.quiver.vertex_key` order; each
    source's first target sorts before its second, so the arrows come in
    that order too, and tau is listed along ``verts``.
    """
    arrows = []
    tau = {}
    for d in verts:
        i, j = d
        if j - i + step <= N - 2:
            arrows.append((d, (i, j + step) if j + step <= N else (j + step - N, i)))
        if j - i >= step + 2:
            arrows.append((d, (i + step, j)))
        a, b = (i - step - 1) % N + 1, (j - step - 1) % N + 1
        tau[d] = (a, b) if a < b else (b, a)
    return arrows, tau


def gamma(n: int, m: int = 1) -> DiagonalQuiver:
    """The stable translation quiver of m-divisible diagonals of the (n*m+2)-gon.

    Arrows go ``(i,j) -> (i,j+m)`` and ``(i,j) -> (i+m,j)`` whenever the image
    is a vertex, and tau sends ``(i,j)`` to ``(i-m,j-m)``, labels modulo N.  With
    ``j - i = m*t + 1`` the first image is one iff t <= n - 2 (it wraps around
    to ``(j+m-N, i)`` when ``j + m > N``), the second iff t >= 2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return _diagonal_quiver(n * m + 2, m, m_diagonals(n, m))


def _angulation_count(n: int, m: int) -> int:
    """The Fuss-Catalan count; ``SizeCapError`` when it times ``n + m`` is over the work cap."""
    # The count is at least max(2^(n-1), m+1), and 2^(bit length of the cap) is over
    # the cap, so a huge n or m is refused without a huge power or binomial.
    least = max(1 << min(n - 1, ANGULATION_WORK_CAP.bit_length()), m + 1)
    count = comb((m + 1) * n, n - 1) // n if least * (n + m) <= ANGULATION_WORK_CAP else None
    if count is None or count * (n + m) > ANGULATION_WORK_CAP:
        raise SizeCapError(
            f"angulation enumeration capped at count * (n + m) <= {ANGULATION_WORK_CAP}: the "
            f"{n * m + 2}-gon has {count or f'at least {least}'} {m + 2}-angulations "
            f"and n + m = {n + m}"
        )
    return count


def enumerate_angulations(n: int, m: int = 1) -> list[tuple[Diagonal, ...]]:
    """All maximal sets of pairwise non-crossing m-divisible diagonals.

    Each result is a sorted tuple of diagonals; the list is sorted
    lexicographically.  The results are built by the recursion that
    proves the Fuss-Catalan count: in the sub-polygon on labels ``i..j``
    (with ``j - i = 1 mod m``) the cell over the base ``(i, j)`` is an
    (m+2)-gon with corners ``i = a_0 < ... < a_{m+1} = j`` whose gaps are
    ``1 mod m``.  A gap of one is a side; a longer gap is the m-diagonal
    ``(a_t, a_{t+1})`` together with an angulation of the sub-polygon
    behind it.  The whole polygon is the sub-polygon over its side
    ``(1, N)``, and sub-polygons are filled smallest first.

    Each angulation is sorted as it is built.  Every diagonal ``(x, y)``
    in a filling of the gap ``(a, b)`` has ``a <= x < y <= b``, so the
    fillings of a cell's gaps, joined in corner order, are sorted, and a
    filling's own m-diagonal ``(a, b)`` goes in after its diagonals
    ``(a, y)``, the only ones that sort before it.  Each list is merged from
    sorted runs: all fillings of a gap have one length, so for fixed corners
    ``product`` gives lexicographic order, and adding the common base keeps it.

    Raises :class:`~quiverkit.errors.SizeCapError`, before listing any, when
    the count times ``n + m`` exceeds :data:`~quiverkit.config.ANGULATION_WORK_CAP`.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    _angulation_count(n, m)
    N = n * m + 2

    # (a, b) -> the ways to fill a cell gap a..b, each sorted: a side is left
    # empty, an m-diagonal comes with each angulation of the sub-polygon behind it.
    gap_fillings: dict[Diagonal, list[tuple[Diagonal, ...]]] = {}

    def angulate(i: int, j: int) -> list[tuple[Diagonal, ...]]:
        """Sorted angulations of the sub-polygon on labels i..j, its base (i, j) left out."""
        found = []
        # The sub-polygon has (j - i - 1) // m cells; the corners of the one
        # over the base are a_t = i + t + m*x_t for non-decreasing x_t below that.
        for xs in combinations_with_replacement(range((j - i - 1) // m), m):
            corners = (i, *(i + t + m * x for t, x in enumerate(xs, 1)), j)
            parts = [gap_fillings[gap] for gap in zip(corners, corners[1:])]
            found.extend(sum(combo, ()) for combo in product(*parts))
        found.sort()
        return found

    for a in range(1, N):
        gap_fillings[a, a + 1] = [()]
    for width in range(m + 1, N - 1, m):
        for a in range(1, N - width + 1):
            base = (a, a + width)
            fillings = gap_fillings[base] = []
            for inner in angulate(*base):
                # Past the diagonals (a, y) with y < a + width, before all others.
                k = bisect(inner, base)
                fillings.append(inner[:k] + (base,) + inner[k:])

    return angulate(1, N)
