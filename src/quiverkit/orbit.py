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
``N = k(k+1)/2 + k*S`` for ``rho = 1``; the ends of a representative's arrows
and translate need folding only where they cross the seam.  For ``k = 1`` the
shift is ``tau^-1`` and the quotient an arrowless tau-cycle of ``s + r`` vertices.

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
:mod:`quiverkit.power`), takes the normal form of every other component
from the closed-form :func:`_component_law` and confirms it with one
isomorphism test, so a wrong form leaves its component unmatched and
never gives a wrong match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .export import SCHEMA
from .iso import iso_translation_quivers
from .polygon import gamma, normalize_pair
from .power import _gamma_power_components
from .quiver import TranslationQuiver

ZAVertex = tuple[int, int]


@dataclass(frozen=True)
class OrbitQuiver:
    """Finite quotient of the strip by tau^-s ∘ [r]."""

    k: int
    quotient: TranslationQuiver

    # Not called in the package; perfbench's orbit_quiver span reads it.
    @property
    def vertex_count(self) -> int:
        return len(self.quotient.vertices)


def orbit_quiver(k: int, s: int, r: int) -> OrbitQuiver:
    """Quotient of the k-row strip by tau^-s ∘ [r] (k >= 1; s, r >= 0, not both zero).

    Vertices are labeled by canonical orbit representatives ``(p, i)``
    with ``p >= 0`` minimal along the orbit, computed in closed form from
    the normal form ``tau^-S ∘ [rho]`` (see the module docstring).  Each one
    lists the strip's arrows to ``(p, i+1)`` if ``i < k`` and to ``(p+1, i-1)``
    if ``i > 1``, and its translate ``(p-1, i)``; only ends past the seam, up
    from ``p = S+k-i`` (rho = 1), down from ``p = S-1`` (rho = 0) and tau from
    ``p = 0``, are folded.  They come in :func:`~quiverkit.quiver.vertex_key`
    order, so one tuple comparison orders each one's two arrow targets.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if s < 0 or r < 0:
        raise ValueError("s and r must be non-negative")
    if s == 0 and r == 0:
        raise ValueError("(s, r) = (0, 0) is the identity, not admissible")
    S, rho = s + (k + 1) * (r // 2), r % 2
    period = S + rho * (S + k + 1)  # g^(1 + rho) = tau^-period

    def fold(p: int, i: int) -> ZAVertex:
        p %= period
        q = p - S - rho * (k + 1 - i)  # >= 0 only for rho = 1
        return (q, k + 1 - i) if q >= 0 else (p, i)

    # Row i holds p < S + rho*(k+1-i): each slice p < S holds every row, and
    # for rho = 1 each slice p >= S the rows i <= S + k - p.
    reps = [(p, i) for p in range(S + rho * k) for i in range(1, min(k, S + k - p) + 1)]
    arrows = []
    tau = {}
    for c in reps:
        p, i = c
        up = ((c, (p, i + 1) if p < S + rho * (k - i) else fold(p, i + 1)),) if i < k else ()
        down = ((c, (p + 1, i - 1) if rho or p + 1 < S else fold(p + 1, i - 1)),) if i > 1 else ()
        arrows += up + down if up < down else down + up
        tau[c] = (p - 1, i) if p else fold(-1, i)

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
            "schema": SCHEMA,
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

    Give the diagonal (i, j) the key (c, a) = ((j-i) mod m, i mod d), with
    d = gcd(m, N), 1 for odd m and 2 for even m.  Arrows and tau keep it,
    and folding past N applies the involution (c, a) ↦ ((2-c) mod m,
    (a+c) mod d), as N = 2 mod m; a component is one orbit of keys, and
    (1, m+2) has c = 1.  Odd m: class 1 is fixed and principal, and the
    other m-1 classes pair up into (m-1)/2 parts.  Even m: the keys with
    c = 1 swap into the principal part; a key is fixed iff 2c = 2 mod m
    and c is even, i.e. c = 1 + m/2 with m = 2 mod 4, the two rho = 1
    parts; for m = 0 mod 4 the keys of class 1 + m/2 form one part; any
    other pair {c, 2-c} gives the orbits of (c, 0) and (c, 1).
    Sizes: the gaps 2..N-2 hold n of each class but class 1 (n - 1), and
    N - g diagonals have gap g; a part's gaps are closed under g ↦ N - g,
    so G of them carry G*N/2 diagonals: nN for a pair of classes, nN/2
    for class 1 + m/2, halved by each even-m split (i ↦ i + 1 swaps a).
    With k = n, S follows from the size k*S + rho*k(k+1)/2.  That each
    orbit is connected is derived with the closed-form split of
    :class:`~quiverkit.polygon.DiagonalQuiver`, which these components come
    from.  That k = n and that rho = 1 exactly on fixed keys are not:
    :func:`classify_components` confirms each form with an isomorphism test.
    """
    N = n * m + 2
    if m % 2:
        return [(n, N, 0)] * ((m - 1) // 2)
    if m % 4 == 0:
        return [(n, N // 2, 0)] * (m - 1)
    return [(n, N // 2, 0)] * (m - 2) + [(n, n * (m - 2) // 4, 1)] * 2


def _match_component(
    comp: TranslationQuiver, form: tuple[int, int, int], n: int, m: int
) -> ComponentMatch:
    """Match ``comp`` to orbit_quiver(k, s, r) of the normal form ``form`` = (k, S, rho).

    The triples of the form with 1 <= r <= m, s >= 0 and k < n*m are
    (k, S - (k+1)q, 2q + rho); they all give the same automorphism, so one
    isomorphism test against the least of them decides every match.
    """
    k, S, rho = form
    triples = sorted(
        (k, S - (k + 1) * q, 2 * q + rho)
        for q in range((m - rho) // 2 + 1)
        if k < n * m and 2 * q + rho >= 1 and S - (k + 1) * q >= 0
    )
    if triples and iso_translation_quivers(orbit_quiver(*triples[0]).quotient, comp) is None:
        triples = []
    return ComponentMatch(
        size=len(comp.vertices),
        match=triples[0] if triples else None,
        all_matches=tuple(triples),
    )


def classify_components(n: int, m: int) -> ComponentReport:
    """Decompose the m-th power of the diagonal quiver and tag each component.

    The component through (1, m+2) is compared with gamma(n, m) for
    equality, as verify's power-theorem sweep does (see
    :mod:`~quiverkit.power`); every other component takes its strip
    normal form from :func:`_component_law`, in component order, and one
    isomorphism test confirms it (see the module docstring).
    ``all_matches`` lists every (k, s, r) with 1 <= r <= m, s >= 0 and
    k < n*m that gives the component's automorphism, least first;
    ``match`` is None when the test fails.  A law with more or fewer forms than components raises
    ``ValueError``.  An (n, m) whose ``gamma(n*m, 1)`` exceeds the vertex
    cap raises :class:`~quiverkit.errors.SizeCapError`; only
    ``QUIVERKIT_CAP`` sets that cap.

    The odd-m formula (r_f, s_f) = ((m-1)/2, (m-1)(n-1)/2 + 1) matches no
    component: the least match is (n, s_f + n + 1, 2*r_f), which is
    ``tau^-s_f ∘ [m+1]`` as ``[1]∘[1] = tau^-(n+1)`` on ZA_n, and r_f
    counts the components.  This held on (n, m) = (2,3), (3,3), (4,3),
    (5,3), (6,3), (2,5), (3,5) and (2,7) and follows from
    :func:`_component_law`.  ``PAPER.md`` holds only the abstract, so
    whether the formula has a slip or another (s, r) convention is open.
    """
    principal, rest = _gamma_power_components(n, m)
    return ComponentReport(
        n=n,
        m=m,
        principal_size=len(principal.vertices),
        principal_is_gamma=principal == gamma(n, m),
        others=tuple(
            _match_component(c, form, n, m)
            for c, form in zip(rest, _component_law(n, m), strict=True)
        ),
    )
