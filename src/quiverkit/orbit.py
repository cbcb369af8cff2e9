"""The infinite strip ZA_k, its shift, and finite orbit quotients.

The strip has vertices ``(p, i)`` with ``p`` any integer and row
``1 <= i <= k``; for the linear orientation 1 -> 2 -> ... -> k its arrows
are ``(p, i) -> (p, i+1)`` and ``(p, i+1) -> (p+1, i)``, and the
translation is ``tau(p, i) = (p-1, i)``.  The shift automorphism
``[1](p, i) = (p + i, k + 1 - i)`` moves each vertex to the matching spot
in the next triangular fundamental region and satisfies
``[1]∘[1] = tau^-(k+1)``.

Quotients of the strip by an automorphism ``g = tau^-s ∘ [r]`` are finite
stable translation quivers.  Every such ``g`` strictly increases the
slice index ``p``, so the action is free and each g-orbit contains
exactly one vertex ``v`` with ``v.p >= 0`` and ``g^-1(v).p < 0``; those
vertices are the canonical representatives.

Because ``[1]∘[1] = tau^-(k+1)``, every ``g`` has the normal form
``tau^-S ∘ [rho]`` with ``S = s + (k+1)*(r // 2)`` and ``rho = r % 2``.
For ``rho = 0`` the representatives are ``0 <= p < S`` in every row and
``v`` folds to ``(p mod S, i)``.  For ``rho = 1``, ``g(p, i) =
(p + i + S, k + 1 - i)`` and ``g∘g = tau^-(2S + k + 1)``; row ``i`` has
the representatives ``0 <= p < S + k + 1 - i``, and ``v`` folds to
``p' = p mod (2S + k + 1)`` in its own row unless ``p'`` lies past them,
in which case it is ``g`` of ``(p' - S - (k + 1 - i), k + 1 - i)``.
The quotient has ``N = k*S`` vertices for ``rho = 0`` and
``N = k(k+1)/2 + k*S`` for ``rho = 1``.  For ``k >= 2`` its ``B``
vertices of in-degree 1 are the orbits of rows 1 and k, ``B = 2S`` or
``B = 2S + k + 1``, so ``k = 2N/B``; the tau-orbit of such a vertex has
length ``S`` for ``rho = 0`` and ``B`` for ``rho = 1``.  For ``k = 1``
the shift is ``tau^-1`` and the quotient is an arrowless tau-cycle of
``s + r`` vertices.

The quotient ``ZA_k / tau^-1 [m]`` is the diagonal quiver
``gamma(k+1, m)`` of the ((k+1)m+2)-gon, label for label under

    φ(p, i) = normalize_pair((1 + m*p, 2 + m*(p + i)), (k+1)*m + 2),

which sends slice ``p`` to the m-diagonals from vertex ``1 + m*p`` and
row ``i`` to the diagonals that cut off an (i*m + 2)-gon.
``check_orbit_model_pinning`` in :mod:`quiverkit.verify` confirms φ with
:func:`~quiverkit.iso.check_iso` instead of searching for an isomorphism.

:func:`classify_components` splits the m-th power of the diagonal quiver
of an (n*m+2)-gon with :func:`~quiverkit.quiver.split_components`,
compares the principal component with ``gamma(n, m)`` for equality (see
:mod:`quiverkit.power`), reads the normal form of every other component
off these invariants and confirms it with one isomorphism test.
:func:`_component_law` gives the same normal forms in closed form, one
law for every m; it is the independent oracle that ``quiverkit verify``
and the tests hold the classification to, not a step of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .iso import iso_translation_quivers
from .polygon import gamma, normalize_pair
from .power import _gamma_power_components
from .quiver import Quiver, TranslationQuiver, tau_orbits

ZAVertex = tuple[int, int]


@dataclass(frozen=True)
class ZARule:
    """Arrow/translation/shift rules of the strip with k rows."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1, got k={self.k}")

    def arrows_from(self, v: ZAVertex) -> tuple[ZAVertex, ...]:
        p, i = v
        out = []
        if i < self.k:
            out.append((p, i + 1))
        if i > 1:
            out.append((p + 1, i - 1))
        return tuple(out)

    def arrows_into(self, v: ZAVertex) -> tuple[ZAVertex, ...]:
        p, i = v
        into = []
        if i > 1:
            into.append((p, i - 1))
        if i < self.k:
            into.append((p - 1, i + 1))
        return tuple(into)

    def tau(self, v: ZAVertex) -> ZAVertex:
        return (v[0] - 1, v[1])

    def shift(self, v: ZAVertex) -> ZAVertex:
        p, i = v
        return (p + i, self.k + 1 - i)

    def window(self, lo: int, hi: int) -> TranslationQuiver:
        """Finite restriction to slices ``lo <= p <= hi``.

        The translation is kept where its image stays inside, which
        preserves the mesh axiom on the truncation.
        """
        verts = [(p, i) for p in range(lo, hi + 1) for i in range(1, self.k + 1)]
        vset = set(verts)
        arrows = [
            (v, w) for v in verts for w in self.arrows_from(v) if w in vset
        ]
        tau = {v: self.tau(v) for v in verts if self.tau(v) in vset}
        return TranslationQuiver(Quiver(verts, arrows), tau)


@dataclass(frozen=True)
class OrbitQuiver:
    """Finite quotient of the strip by tau^-s ∘ [r]."""

    k: int
    quotient: TranslationQuiver

    @property
    def vertex_count(self) -> int:
        return len(self.quotient.vertices)


def orbit_quiver(k: int, s: int, r: int) -> OrbitQuiver:
    """Quotient of the k-row strip by tau^-s ∘ [r] (s, r >= 0, not both zero).

    Vertices are labeled by canonical orbit representatives ``(p, i)``
    with ``p >= 0`` minimal along the orbit, computed in closed form from
    the normal form ``tau^-S ∘ [rho]`` (see the module docstring); arrows
    and the translation are induced from the strip.  The representatives
    are listed in :func:`~quiverkit.quiver.vertex_key` order (slice ``p``,
    then row ``i``), which on these integer pairs is plain tuple order, so
    ``sorted`` orders each one's (at most two) arrow targets, and the
    listings go to ``TranslationQuiver._listed`` as they are.
    """
    rule = ZARule(k)
    if s < 0 or r < 0:
        raise ValueError("s and r must be non-negative")
    if s == 0 and r == 0:
        raise ValueError("(s, r) = (0, 0) is the identity, not admissible")
    S, rho = s + (k + 1) * (r // 2), r % 2
    period = S + rho * (S + k + 1)  # g^(1 + rho) = tau^-period

    def normalize(v: ZAVertex) -> ZAVertex:
        p, i = v[0] % period, v[1]
        q = p - S - rho * (k + 1 - i)  # >= 0 only for rho = 1
        return (q, k + 1 - i) if q >= 0 else (p, i)

    # Row i holds p < S + rho*(k+1-i): each slice p < S holds every row, and
    # for rho = 1 each slice p >= S the rows i <= S + k - p.
    reps = [(p, i) for p in range(S + rho * k) for i in range(1, min(k, S + k - p) + 1)]
    arrows = []
    tau = {}
    for c in reps:
        ends = [normalize(t) for t in rule.arrows_from(c)]
        arrows += [(c, t) for t in sorted(ends)]
        tau[c] = normalize(rule.tau(c))

    return OrbitQuiver(k=k, quotient=TranslationQuiver._listed(reps, arrows, tau))


def _diagonal_labels(oq: OrbitQuiver, m: int) -> dict[ZAVertex, tuple[int, int]]:
    """φ of the module docstring, on the vertices of ``oq = orbit_quiver(k, 1, m)``.

    Maps each vertex of the quotient to the m-diagonal that labels it in
    ``gamma(k+1, m)``.
    """
    N = (oq.k + 1) * m + 2
    return {
        (p, i): normalize_pair((1 + m * p, 2 + m * (p + i)), N)
        for p, i in oq.quotient.sorted_vertices()
    }


@dataclass(frozen=True)
class ComponentMatch:
    """A non-principal power component and its orbit-quiver matches."""

    size: int
    match: tuple[int, int, int] | None  # lexicographically least (k, s, r)
    all_matches: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ComponentReport:
    """Outcome of decomposing power(gamma(n*m,1), m) and matching components."""

    n: int
    m: int
    principal_size: int
    principal_is_gamma: bool
    others: tuple[ComponentMatch, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": "quiverkit/1",
            "n": self.n,
            "m": self.m,
            "principal": {"size": self.principal_size, "iso_gamma": self.principal_is_gamma},
            "others": [
                {"size": c.size, "match": c.match and dict(zip("ksr", c.match))}
                for c in self.others
            ],
        }


def _component_law(n: int, m: int) -> list[tuple[int, int, int]]:
    """The normal forms (k, S, rho) of the non-principal components, in component order.

    For ``power(gamma(n*m, 1), m)``, N = n*m + 2: (m-1)/2 copies of
    (n, N, 0) for odd m; m-1 copies of (n, N/2, 0) for m = 0 mod 4; m-2
    copies of (n, N/2, 0), then two of (n, n(m-2)/4, 1), for m = 2 mod 4.
    The counts come from the gap j - i of a diagonal (i, j): the power's
    arrows keep it modulo m, folding past N = 2 mod m takes the class c to
    2 - c, class 1 is the principal component, and for even m the parity
    of the ends splits some of the rest.  The quotient parameters are not
    derived: the law is the oracle :func:`classify_components` is checked
    against.
    """
    N = n * m + 2
    if m % 2:
        return [(n, N, 0)] * ((m - 1) // 2)
    if m % 4 == 0:
        return [(n, N // 2, 0)] * (m - 1)
    return [(n, N // 2, 0)] * (m - 2) + [(n, n * (m - 2) // 4, 1)] * 2


def _normal_forms(comp: TranslationQuiver) -> list[tuple[int, int, int]]:
    """The normal forms (k, S, rho) that could give ``comp`` as a strip quotient.

    Read off the vertex count, the in-degree-1 vertices and one boundary
    tau-orbit as in the module docstring.  An arrowless component has
    k = 1, where both parities of rho describe the same automorphism.
    Empty when the invariants fit no quotient.
    """
    q = comp.quiver
    N = len(q)
    if not q.arrows:
        return [(1, N, 0), (1, N - 1, 1)]
    boundary = [v for v in comp.sorted_vertices() if q.in_degree(v) == 1]
    B = len(boundary)
    if not B or 2 * N % B:
        return []
    k = 2 * N // B
    orbit = next(o for o in tau_orbits(comp) if boundary[0] in o)
    rho = int(len(orbit) == B)
    rest = N - rho * k * (k + 1) // 2
    return [] if rest % k else [(k, rest // k, rho)]


def _match_component(
    comp: TranslationQuiver, n: int, m: int, cap: int | None
) -> ComponentMatch:
    """Match ``comp`` to orbit_quiver(k, s, r) with 1 <= r <= m and k < n*m.

    The triples of one normal form (k, S, rho) are (k, S - (k+1)q, 2q + rho)
    with s >= 0; they all give the same automorphism, so one isomorphism
    test against the least of them decides every match.
    """
    triples = sorted(
        (k, S - (k + 1) * q, 2 * q + rho)
        for k, S, rho in _normal_forms(comp)
        if k < n * m
        for q in range((m - rho) // 2 + 1)
        if 2 * q + rho >= 1 and S - (k + 1) * q >= 0
    )
    if triples and iso_translation_quivers(
        orbit_quiver(*triples[0]).quotient, comp, cap=cap
    ) is None:
        triples = []
    return ComponentMatch(
        size=len(comp.vertices),
        match=triples[0] if triples else None,
        all_matches=tuple(triples),
    )


def classify_components(n: int, m: int, cap: int | None = None) -> ComponentReport:
    """Decompose the m-th power of the diagonal quiver and tag each component.

    The component through (1, m+2) is compared with gamma(n, m) for
    equality (see :func:`~quiverkit.power.principal_component`); every
    other component is matched by its strip normal form and one
    isomorphism test (see the module docstring).  ``all_matches`` lists
    every (k, s, r) with 1 <= r <= m, s >= 0 and k < n*m that gives the
    component's automorphism, least first.

    The odd-m formula (r_f, s_f) = ((m-1)/2, (m-1)(n-1)/2 + 1) matches no
    component: the least match is (n, s_f + n + 1, 2*r_f), which is
    ``tau^-s_f ∘ [m+1]`` as ``[1]∘[1] = tau^-(n+1)`` on ZA_n, and r_f
    counts the components.  This held on (n, m) = (2,3), (3,3), (4,3),
    (5,3), (6,3), (2,5), (3,5) and (2,7) and follows from
    :func:`_component_law`.  ``PAPER.md`` holds only the abstract, so
    whether the formula has a slip or another (s, r) convention is open.
    """
    principal, rest = _gamma_power_components(n, m, cap)
    return ComponentReport(
        n=n,
        m=m,
        principal_size=len(principal.vertices),
        principal_is_gamma=principal == gamma(n, m),
        others=tuple(_match_component(c, n, m, cap) for c in rest),
    )
