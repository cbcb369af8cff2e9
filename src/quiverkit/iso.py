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
Colors are class ids that stay put: refinement re-signs only the
vertices next to a class that split, keeps the largest part of each
split under the old id and gives the other parts fresh ids (Berkholz,
Bonsma & Grohe, *Tight lower and upper bounds for the complexity of
canonical colour refinement*, 2017).  So a round costs the rows of the
vertices it touches, a vertex moves O(log V) times and memory is
O(V + E).  Vertices are ordered by :func:`~quiverkit.quiver.vertex_key`,
so the bijection is deterministic, and whether one is found does not
depend on the argument order.  Every arrow and tau end is a vertex (the
:mod:`~quiverkit.quiver` constructors enforce it), so neither the search
nor :func:`check_iso` checks for others.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection

from .config import default_vertex_cap
from .errors import SizeCapError
from .quiver import TranslationQuiver


def _adjacency(tq: TranslationQuiver, offset: int) -> tuple[list, list]:
    """The vertices of ``tq`` in vertex_key order and one row per vertex.

    Vertex i has joint index ``offset + i``.  Its row lists its
    (neighbor, tag) pairs: tag ``2c`` for an arrow of multiplicity c out,
    ``-2c`` for one in, ``1`` to its tau image and ``-1`` from each tau
    preimage.  Arrow tags are even and tau tags odd, so they never meet.
    """
    order = tq.sorted_vertices()
    at = {v: i for i, v in enumerate(order)}
    rows: list[list] = [[] for _ in order]
    links = [(s, t, 2 * c) for (s, t), c in Counter(tq.arrows).items()]
    for s, t, tag in links + [(y, ty, 1) for y, ty in tq.tau.items()]:
        i, j = at[s], at[t]
        rows[i].append((offset + j, tag))
        rows[j].append((offset + i, -tag))
    return order, rows


def _refine(rows: list, color: list[int], changed: Collection[int]) -> list[int]:
    """Joint color refinement of the rows of both quivers, from ``color``.

    ``color`` holds class ids, small non-negative ints.  Returns the
    partition that refinement by rounds returns: each round splits every
    class by the sorted (tag, class id) pairs of its members' rows, until
    no class splits.  ``changed`` must hold every vertex whose color
    differs from a stable coloring: all of them at the root, the
    individualized pair below it.  A round re-signs only the *touched*
    vertices (``changed`` and its neighbors, then the neighbors of the
    vertices that left their class) and one untouched member per class,
    whose signature the others share, as none of their neighbors moved;
    so a round costs the rows of the touched vertices, not the number of
    classes.  Class ids stay put: a split's largest child keeps the id,
    and the other children take the next free ids.  The ids are returned
    as they are.
    """
    cls = list(color)
    members: list[set[int]] = [set() for _ in range(max(cls, default=-1) + 1)]
    for v, c in enumerate(cls):
        members[c].add(v)

    def sign(v: int) -> tuple:
        return tuple(sorted((tag, cls[w]) for w, tag in rows[v]))

    touched = {w for v in changed for w, _ in rows[v]}.union(changed)
    while touched:
        by_class: dict[int, list[int]] = {}
        for v in touched:
            by_class.setdefault(cls[v], []).append(v)
        moves: list[tuple[int, list[int]]] = []  # made once every class is signed
        for c, vs in by_class.items():
            groups: dict[tuple, list[int]] = {}
            for v in vs:
                groups.setdefault(sign(v), []).append(v)
            rest, rest_sig = len(members[c]) - len(vs), None
            if rest:
                rest_sig = sign(next(u for u in members[c] if u not in touched))
                groups.setdefault(rest_sig, [])
            if len(groups) == 1:
                continue
            keep = max(groups, key=lambda s: len(groups[s]) + rest * (s == rest_sig))
            if rest and rest_sig != keep:
                groups[rest_sig] += [u for u in members[c] if u not in touched]
            moves += [(c, part) for s, part in groups.items() if s != keep]
        for c, part in moves:
            members[c].difference_update(part)
            for v in part:
                cls[v] = len(members)
            members.append(set(part))
        touched = {w for _, part in moves for v in part for w, _ in rows[v]}
    return cls


def check_iso(a: TranslationQuiver, b: TranslationQuiver, phi: dict) -> bool:
    """Verify that ``phi`` really is a translation-quiver isomorphism."""
    if set(phi) != set(a.vertices) or set(phi.values()) != set(b.vertices):
        return False
    if len(set(phi.values())) != len(phi):
        return False
    if Counter((phi[s], phi[t]) for s, t in a.arrows) != Counter(b.arrows):
        return False
    return {phi[y]: phi[ty] for y, ty in a.tau.items()} == b.tau


def iso_translation_quivers(a: TranslationQuiver, b: TranslationQuiver) -> dict | None:
    """A vertex bijection a -> b respecting arrows and tau, or ``None``.

    The bijection is deterministic, but which one is returned when there
    are several is not specified beyond that.

    Raises :class:`SizeCapError` when either side exceeds
    :func:`~quiverkit.config.default_vertex_cap` (5000 unless
    ``QUIVERKIT_CAP`` sets it, the only way to set it).
    """
    cap = default_vertex_cap()
    if len(a.vertices) > cap or len(b.vertices) > cap:
        raise SizeCapError(
            f"isomorphism search capped at {cap} vertices "
            f"(got {len(a.vertices)} and {len(b.vertices)})"
        )
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
    changed: Collection[int] = range(2 * n)
    while color is not None:
        color = _refine(rows, color, changed)
        sizes = Counter(color[:n])
        if sizes == Counter(color[n:]):
            if len(sizes) == n:
                at = dict(zip(color[n:], order_b))
                phi = {x: at[c] for x, c in zip(order_a, color)}
                if check_iso(a, b, phi):
                    return phi
            else:
                target = min((size, c) for c, size in sizes.items() if size > 1)[1]
                ys = [y for y in range(2 * n - 1, n - 1, -1) if color[y] == target]
                frames.append((color, color.index(target), ys))
        color = None
        while frames and color is None:
            parent, x, ys = frames[-1]
            if ys:
                color, changed = parent.copy(), (x, ys.pop())
                color[x] = color[changed[1]] = max(parent) + 1
            else:
                frames.pop()
    return None
