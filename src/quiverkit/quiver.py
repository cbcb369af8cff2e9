"""Directed multigraphs with a partial translation map.

A translation quiver is a quiver together with an injective map ``tau``
from a subset of the vertices to the vertices such that for all vertices
``x, y`` with ``tau(y)`` defined, the number of arrows ``x -> y`` equals
the number of arrows ``tau(y) -> x`` (the mesh arrow-count axiom).  When
``tau`` is defined everywhere on a finite vertex set it is bijective and
the translation quiver is called *stable*.  Every function of the package
takes a :class:`TranslationQuiver`; a :class:`Quiver` is the arrow
container inside one, and ``TranslationQuiver(q, {})`` wraps a plain
quiver ``q``.

Vertices are arbitrary hashable objects.  Every arrow end and every
``tau`` key and image is a vertex object: the public constructors raise
``ValueError`` otherwise and store the vertex an end equals (``1.0`` for
``1``), and the builders make no other kind, so no code downstream
checks for ends outside the vertex set or labels an end apart from its
vertex.  The builders in this package use tuples of integers such as
``(1, 4)``; :func:`vertex_key` gives those their natural order so that
every listing in the package is deterministic.  All structures are immutable after construction, so they
are safe to share between threads.

``sorted_vertices()``, ``arrows`` and the pairs of ``out``/``into``
follow :func:`vertex_key` (arrows by source, then target), and ``tau``
the order of its domain.  One rule keeps that order: the public
constructors sort by :func:`vertex_key`; the builders (``gamma``,
``power``, ``orbit_quiver`` and :func:`split_components`) hand
``_listed`` listings already in that order; nothing else sorts.
Downstream code reads these listings as they are.  Indexes
behind ``arrow_count`` and ``out``/``into`` are built on first use, and
so are the listings of a diagonal quiver
(:class:`~quiverkit.polygon.DiagonalQuiver`), which holds only ``N``,
its step and its sorted vertices until something reads its arrows,
``tau``, ``quiver`` or ``out``/``into``.  Its ``vertices`` and
``sorted_vertices()``, ``power`` and :func:`split_components` of it
list nothing, nor does ``==`` with another diagonal quiver unless the
two have the same vertices but not the same ``N`` and step.  Threads
racing on a first call build equal indexes and equal listings, so
sharing stays safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

Vertex = Hashable
Arrow = tuple[Vertex, Vertex]


def vertex_key(v: Vertex):
    """Deterministic sort key; integer tuples sort numerically.

    Integer tuples sort by length, then entries; an int ``v`` sorts
    right after the 1-tuple ``(v,)``; other vertices come last, by
    ``repr``.
    """
    if isinstance(v, tuple) and all(isinstance(c, int) for c in v):
        return (0, len(v), v, 0)
    if isinstance(v, int):
        return (0, 1, (v,), 1)
    return (1, 0, (), repr(v))


def vertex_label(v: Vertex) -> str:
    """Render a vertex for DOT/JSON output, e.g. ``(1,4)``."""
    if isinstance(v, tuple):
        return "(" + ",".join(map(str, v)) + ")"
    return str(v)


def _as_vertices(vertices: frozenset, pairs: Iterable[tuple]) -> list[tuple]:
    """``pairs`` with each end the vertex it equals; ``ValueError`` names the least stray end."""
    own = {v: v for v in vertices}
    try:
        return [(own[a], own[b]) for a, b in pairs]
    except KeyError:
        stray = vertices.union(*pairs) - vertices
        raise ValueError(f"arrow or tau end {min(stray, key=vertex_key)!r} is not a vertex") from None


class Quiver:
    """A finite directed multigraph.

    ``arrows`` is a multiset: repeated ``(source, target)`` pairs mean
    parallel arrows, given in any order.  Raises ``ValueError`` if an
    arrow end is not a vertex.  Vertices and arrows are ordered here,
    once (see the module docstring).
    """

    __slots__ = ("_vertices", "_sorted", "_arrows", "_index")

    def __init__(self, vertices: Iterable[Vertex], arrows: Iterable[Arrow] = ()):
        vertices = frozenset(vertices)
        arrows = _as_vertices(vertices, list(arrows))
        self._sorted = tuple(sorted(vertices, key=vertex_key))
        rank = {v: i for i, v in enumerate(self._sorted)}
        self._vertices, self._index = vertices, None
        self._arrows = tuple(sorted(arrows, key=lambda a: (rank[a[0]], rank[a[1]])))

    @classmethod
    def _listed(
        cls, vertices: list[Vertex], arrows: list[Arrow], vertex_set: frozenset | None = None
    ) -> Quiver:
        """A quiver on listings in vertex_key order, unchecked; ``vertex_set`` is theirs if made."""
        q = cls.__new__(cls)
        q._vertices = frozenset(vertices) if vertex_set is None else vertex_set
        q._sorted, q._index = tuple(vertices), None
        q._arrows = tuple(arrows)
        return q

    def _indexes(self) -> tuple[Counter, dict, dict]:
        """Arrow counts and ``out``/``into`` pairs, built on the first query."""
        if self._index is None:
            counts = Counter(self._arrows)
            out: dict[Vertex, list] = {}
            inn: dict[Vertex, list] = {}
            for (s, t), c in counts.items():
                out.setdefault(s, []).append((t, c))
                inn.setdefault(t, []).append((s, c))
            self._index = (counts, *({v: tuple(ps) for v, ps in d.items()} for d in (out, inn)))
        return self._index

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self._arrows

    def sorted_vertices(self) -> list[Vertex]:
        return list(self._sorted)

    def arrow_count(self, source: Vertex, target: Vertex) -> int:
        return self._indexes()[0].get((source, target), 0)

    def out(self, v: Vertex) -> tuple[tuple[Vertex, int], ...]:
        """Outgoing ``(target, multiplicity)`` pairs of ``v``."""
        return self._indexes()[1].get(v, ())

    def into(self, v: Vertex) -> tuple[tuple[Vertex, int], ...]:
        """Incoming ``(source, multiplicity)`` pairs of ``v``."""
        return self._indexes()[2].get(v, ())

    def out_degree(self, v: Vertex) -> int:
        return sum(c for _, c in self.out(v))

    def in_degree(self, v: Vertex) -> int:
        return sum(c for _, c in self.into(v))

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self._vertices == other._vertices and self._arrows == other._arrows

    def __hash__(self) -> int:
        return hash((self._vertices, self._arrows))

    def __repr__(self) -> str:
        return f"Quiver({len(self._vertices)} vertices, {len(self._arrows)} arrows)"


class TranslationQuiver:
    """A :class:`Quiver` plus a partial translation map ``tau``.

    Raises ``ValueError`` if a ``tau`` key or image is not a vertex.
    ``tau`` need not be injective, nor satisfy the mesh axiom:
    :func:`validate_translation_quiver` reports those defects as data.
    """

    __slots__ = ("_quiver", "_tau")

    def __init__(self, quiver: Quiver, tau: Mapping[Vertex, Vertex]):
        pairs = _as_vertices(quiver.vertices, tau.items())
        self._quiver = quiver
        self._tau = dict(sorted(pairs, key=lambda p: vertex_key(p[0])))

    @classmethod
    def _listed(cls, vertices: list[Vertex], arrows: list[Arrow], tau: dict) -> TranslationQuiver:
        """A translation quiver on listings in vertex_key order: unchecked, ``tau`` not copied."""
        tq = cls.__new__(cls)
        tq._quiver, tq._tau = Quiver._listed(vertices, arrows), tau
        return tq

    @property
    def quiver(self) -> Quiver:
        return self._quiver

    @property
    def tau(self) -> Mapping[Vertex, Vertex]:
        return MappingProxyType(self._tau)

    @property
    def vertices(self) -> frozenset:
        return self._quiver.vertices

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self._quiver.arrows

    def sorted_vertices(self) -> list[Vertex]:
        return self._quiver.sorted_vertices()

    def tau_of(self, v: Vertex, default=None):
        return self._tau.get(v, default)

    @property
    def is_stable(self) -> bool:
        """True iff tau is total and surjective on the vertices."""
        vs = self._quiver.vertices
        return set(self._tau) == vs and set(self._tau.values()) == vs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TranslationQuiver):
            return NotImplemented
        return self._quiver == other._quiver and self._tau == other._tau

    def __hash__(self) -> int:
        return hash((self._quiver, tuple(self._tau.items())))

    def __repr__(self) -> str:
        kind = "stable " if self.is_stable else ""
        return (
            f"TranslationQuiver({len(self._quiver)} vertices, "
            f"{len(self._quiver.arrows)} arrows, {kind}tau on {len(self._tau)})"
        )


@dataclass(frozen=True)
class Violation:
    """One defect found by validation.

    For mesh defects ``pair`` is ``(x, y)`` and ``counts`` is
    ``(#arrows x->y, #arrows tau(y)->x)``.
    """

    kind: str
    message: str
    pair: tuple | None = None
    counts: tuple[int, int] | None = None


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    stable: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def validate_translation_quiver(tq: TranslationQuiver) -> ValidationResult:
    """Check the translation-quiver axioms; violations are data, not errors.

    Checks, in order: no self-loops, tau is injective, and the mesh axiom
    ``#(x -> y) == #(tau(y) -> x)`` for every y in the domain of tau.  That
    every arrow and tau end is a vertex needs no check: the constructors
    enforce it.
    """
    q = tq.quiver
    violations: list[Violation] = []

    for s, t in dict.fromkeys(q.arrows):
        if s == t:
            violations.append(
                Violation("self-loop", f"self-loop at {vertex_label(s)}", pair=(s, t))
            )

    tau = dict(tq.tau)
    images = Counter(tau.values())
    for w in sorted((w for w, c in images.items() if c > 1), key=vertex_key):
        clashing = tuple(y for y in tau if tau[y] == w)
        violations.append(
            Violation(
                "tau-injectivity",
                f"tau maps {len(clashing)} vertices to {vertex_label(w)}",
                pair=clashing,
            )
        )

    for y, ty in tau.items():
        sources = {x for x, _ in q.into(y)} | {x for x, _ in q.out(ty)}
        for x in sorted(sources, key=vertex_key):
            c_in = q.arrow_count(x, y)
            c_mesh = q.arrow_count(ty, x)
            if c_in != c_mesh:
                violations.append(
                    Violation(
                        "mesh",
                        f"mesh at {vertex_label(y)}: arrows "
                        f"{vertex_label(x)}->{vertex_label(y)} = {c_in} but "
                        f"{vertex_label(ty)}->{vertex_label(x)} = {c_mesh}",
                        pair=(x, y),
                        counts=(c_in, c_mesh),
                    )
                )

    return ValidationResult(ok=not violations, stable=tq.is_stable, violations=tuple(violations))


def split_components(tq: TranslationQuiver) -> list[TranslationQuiver]:
    """One translation quiver per weakly connected component.

    Components follow arrows and translation links, taken as undirected
    edges, so arrow-less vertex classes tied together by the translation
    (the diagonals of a square) stay in one piece, and tau never leaves a
    component.  Parts come by size descending, then least vertex.  A
    plain quiver ``q`` splits by its arrows alone as
    ``TranslationQuiver(q, {})``.

    A walk over those edges, started at each unvisited vertex in sorted
    order, labels the parts; each gets its listings in the parent's
    :func:`vertex_key` order, which go to ``TranslationQuiver._listed``
    unsorted.  A diagonal quiver skips the walk: its ``_split`` groups the
    sorted vertices by a closed-form key (see
    :class:`~quiverkit.polygon.DiagonalQuiver`) into parts in the same
    order, each a diagonal quiver that has not built its listings.
    """
    split = getattr(tq, "_split", None)
    if split is not None:
        return split()
    quiver, tau = tq.quiver, tq._tau
    near: dict[Vertex, list[Vertex]] = {v: [] for v in quiver._sorted}
    for s, t in (*quiver._arrows, *tau.items()):
        near[s].append(t)
        near[t].append(s)
    part: dict[Vertex, int] = {}
    members: list[list[Vertex]] = []
    for v in quiver._sorted:
        if v not in part:
            part[v] = len(members)
            members.append([])
            stack = [v]
            while stack:
                for w in near[stack.pop()]:
                    if w not in part:
                        part[w] = part[v]
                        stack.append(w)
        members[part[v]].append(v)
    arrows: list[list[Arrow]] = [[] for _ in members]
    taus: list[dict] = [{} for _ in members]
    for s, t in quiver._arrows:
        arrows[part[s]].append((s, t))
    for y, ty in tau.items():
        taus[part[y]][y] = ty
    parts = [TranslationQuiver._listed(*listings) for listings in zip(members, arrows, taus)]
    # Parts come in order of their least vertex; the sort by size is stable.
    parts.sort(key=lambda p: len(p.vertices), reverse=True)
    return parts


def tau_orbits(tq: TranslationQuiver) -> list[tuple[Vertex, ...]]:
    """Cycles/chains of the translation map, mostly useful for display.

    The vertices outside the image of tau start the first orbits, in
    vertex order; the vertices left over then start the others, in the
    same order.
    """
    succ = dict(tq.tau)
    images = set(succ.values())
    order = tq.sorted_vertices()
    orbits = []
    visited: set = set()
    for start in [v for v in order if v not in images] + order:
        if start in visited:
            continue
        orbit = [start]
        visited.add(start)
        v = start
        while v in succ and succ[v] not in visited:
            v = succ[v]
            orbit.append(v)
            visited.add(v)
        orbits.append(tuple(orbit))
    return orbits
