"""Isomorphism search for translation quivers.

An isomorphism is a vertex bijection preserving arrow multiplicities in
both directions and commuting with the translation maps (including
where they are defined).  The search is individualization-refinement
(McKay & Piperno, *Practical graph isomorphism II*, 2014), with joint
color refinement of both quivers as its only propagation step: refine;
drop the coloring if the two sides' class sizes differ; if it is
discrete, return the bijection it reads as when :func:`check_iso`
accepts it; else give the least ``a``-vertex of the smallest
non-singleton class and, in turn, each ``b``-vertex of that class a
fresh color.  Branches live on an explicit stack, not the call stack.
Vertices are ordered by :func:`~quiverkit.quiver.vertex_key`, so the
bijection is deterministic, and whether one is found does not depend
on the argument order.
"""

from __future__ import annotations

from collections import Counter

from .config import _vertex_cap
from .errors import SizeCapError
from .quiver import TranslationQuiver, vertex_key


def _adjacency(tq: TranslationQuiver, offset: int) -> tuple[list, list]:
    """The vertices of ``tq`` in vertex_key order and one row per vertex.

    Vertex i has joint index ``offset + i``.  Its row lists its
    (neighbor, tag) pairs: tag ``2c`` for an arrow of multiplicity c out,
    ``-2c`` for one in, ``1`` to its tau image and ``-1`` from each tau
    preimage.  Arrow tags are even and tau tags odd, so they never meet.
    """
    order = tq.sorted_vertices()
    idx = {v: offset + i for i, v in enumerate(order)}
    q = tq.quiver
    rows = {
        v: [(idx[w], 2 * c) for w, c in q.out(v)] + [(idx[w], -2 * c) for w, c in q.into(v)]
        for v in order
    }
    for y, ty in tq.tau.items():
        rows[y].append((idx[ty], 1))
        rows[ty].append((idx[y], -1))
    return order, list(rows.values())


def _refine(rows: list, color: list[int]) -> list[int]:
    """Joint color refinement of the rows of both quivers, from ``color``.

    Each round colors a vertex by its color and the sorted (tag, color)
    pairs of its row, until no class splits.  Colors are numbered by
    sorted signature, so vertices that can correspond under an
    isomorphism respecting the starting colors always share a color.
    """
    ncolors = len(set(color))
    while True:
        sig = [
            (color[v], tuple(sorted((tag, color[w]) for w, tag in row)))
            for v, row in enumerate(rows)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        color = [palette[s] for s in sig]
        if len(palette) == ncolors:
            return color
        ncolors = len(palette)


def _require_vertex_ends(*tqs: TranslationQuiver) -> None:
    """Raise ``ValueError`` naming an arrow or tau end that no vertex bijection can map."""
    for tq in tqs:
        stray = tq.vertices.union(*tq.arrows, *tq.tau.items()) - tq.vertices
        if stray:
            raise ValueError(f"arrow or tau end {min(stray, key=vertex_key)!r} is not a vertex")


def check_iso(a: TranslationQuiver, b: TranslationQuiver, phi: dict) -> bool:
    """Verify that ``phi`` really is a translation-quiver isomorphism.

    Raises ``ValueError`` if an arrow or tau end is not a vertex.
    """
    _require_vertex_ends(a, b)
    return _is_iso(a, b, phi)


def _is_iso(a: TranslationQuiver, b: TranslationQuiver, phi: dict) -> bool:
    """:func:`check_iso` on quivers whose arrow and tau ends are vertices."""
    if set(phi) != set(a.vertices) or set(phi.values()) != set(b.vertices):
        return False
    if len(set(phi.values())) != len(phi):
        return False
    cnt_a = Counter(a.arrows)
    cnt_b = Counter(b.arrows)
    if Counter((phi[s], phi[t]) for (s, t) in cnt_a.elements()) != cnt_b:
        return False
    for y in a.vertices:
        ty = a.tau_of(y)
        tb = b.tau_of(phi[y])
        if (ty is None) != (tb is None):
            return False
        if ty is not None and phi[ty] != tb:
            return False
    return True


def iso_translation_quivers(
    a: TranslationQuiver, b: TranslationQuiver, cap: int | None = None
) -> dict | None:
    """A vertex bijection a -> b respecting arrows and tau, or ``None``.

    Raises :class:`SizeCapError` when either side exceeds the vertex cap
    (default 5000, overridable via ``QUIVERKIT_CAP``), and ``ValueError``
    if an arrow or tau end of either side is not a vertex.
    """
    cap = _vertex_cap(cap)
    if len(a.vertices) > cap or len(b.vertices) > cap:
        raise SizeCapError(
            f"isomorphism search capped at {cap} vertices "
            f"(got {len(a.vertices)} and {len(b.vertices)})"
        )
    _require_vertex_ends(a, b)
    if len(a.vertices) != len(b.vertices):
        return None
    if len(a.arrows) != len(b.arrows) or len(a.tau) != len(b.tau):
        return None

    n = len(a.vertices)
    order_a, rows_a = _adjacency(a, 0)
    order_b, rows_b = _adjacency(b, n)
    rows = rows_a + rows_b
    # Each frame: a refined coloring, the a-vertex individualized below
    # it and its untried b-candidates, last in vertex_key order first.
    frames: list[tuple[list[int], int, list[int]]] = []
    color: list[int] | None = [0] * (2 * n)
    while color is not None:
        color = _refine(rows, color)
        sizes = Counter(color[:n])
        if sizes == Counter(color[n:]):
            if len(sizes) == n:
                at = dict(zip(color[n:], order_b))
                phi = {x: at[c] for x, c in zip(order_a, color)}
                if _is_iso(a, b, phi):
                    return phi
            else:
                target = min((size, c) for c, size in sizes.items() if size > 1)[1]
                ys = [y for y in range(2 * n - 1, n - 1, -1) if color[y] == target]
                frames.append((color, color.index(target), ys))
        color = None
        while frames and color is None:
            parent, x, ys = frames[-1]
            if ys:
                color = parent.copy()
                color[x] = color[ys.pop()] = max(parent) + 1
            else:
                frames.pop()
    return None
