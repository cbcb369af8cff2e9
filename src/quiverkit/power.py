"""Sectional paths and powers of translation quivers.

A path ``x_0 -> x_1 -> ... -> x_L`` is *sectional* if at every interior
step ``tau(x_{i+1}) != x_{i-1}`` (checked only where tau is defined).
The m-th power of a translation quiver keeps the vertices, takes the
sectional paths of length m as arrows (with multiplicity the number of
such paths) and composes the translation with itself m times.  A
diagonal quiver takes the closed form below; any other input has its
paths counted per last arrow, not listed (:func:`sectional_paths` lists
them).  Powers of a connected quiver are usually disconnected;
:func:`~quiverkit.quiver.split_components` splits them into component
translation quivers.

A diagonal quiver of an N-gon with step s (``gamma(n, s)``, or a power
or a part of one) has the arrows ``(i, j) -> (i, j+s)`` and
``(i, j) -> (i+s, j)`` and the translation ``(i-s, j-s)``, labels
modulo N.  A path that moves one end and then the other,
``(i, j) -> (i, j+s) -> (i+s, j+s)``, ends at a vertex whose translate
is its start, so the sectional paths are the straight ones: a
sectional path of length k from ``(i, j)`` ends at ``(i, j+s*k)`` or
``(i+s*k, j)``, and the k-th power is the diagonal quiver with step
``s*k`` on the same vertices.  :func:`power` builds it in that closed
form and lists nothing: the power lists its arrows and tau when they
are first read.  :func:`~quiverkit.quiver.split_components`
splits a diagonal quiver into diagonal quivers by a closed-form key, so
the powers of those parts take the closed form too.  Orbit quotients and
hand-built quivers take the path count, which stays the oracle for the
closed form.  In particular the m-th power of ``gamma(N-2, 1)`` has the
arrows and the translation of ``gamma(n, m)`` on the m-diagonals when
``N = n*m + 2``, so its component that holds them is ``gamma(n, m)``
label for label.  :func:`_gamma_power_components` is the one place that
builds and splits that power; ``classify_components`` and verify's
power-theorem sweep check the equality, not by an isomorphism search.
The two sides are diagonal quivers with the same ``N`` and step, so
``==`` answers from their vertex sets and lists nothing.  That is no
weaker than comparing the listings: both sides are listed by the same
:func:`~quiverkit.polygon._diagonal_listings` from ``N``, the step and
the vertices.
Both forms walk the base's sorted vertices, so a power lists in
:func:`~quiverkit.quiver.vertex_key` order; the count sorts only targets.
"""

from __future__ import annotations

from .config import default_vertex_cap
from .errors import SizeCapError
# Not called here.  perfbench's tracer test lists this module among the
# holders of the search that its tracer rebinds; drop this import together
# with "power" from that list.
from .iso import iso_translation_quivers  # noqa: F401
from .polygon import DiagonalQuiver, _diagonal_quiver, gamma
from .quiver import TranslationQuiver, Vertex, split_components, vertex_key

Path = tuple[Vertex, ...]

# Stand-ins that equal no vertex, so a vertex named None is an ordinary
# vertex: the image of a vertex where tau is undefined, and the vertex
# before the first arrow of a path.
_NO_TAU = object()
_NO_PREV = object()


def is_sectional(path: Path, tq: TranslationQuiver) -> bool:
    """Whether a path avoids doubling back through the translation.

    Raises ``ValueError`` if consecutive entries are not arrows of the
    quiver.  Paths of length 0 or 1 are trivially sectional.
    """
    for s, t in zip(path, path[1:]):
        if tq.quiver.arrow_count(s, t) == 0:
            raise ValueError(f"{s!r} -> {t!r} is not an arrow")
    for i in range(1, len(path) - 1):
        if tq.tau_of(path[i + 1], _NO_TAU) == path[i - 1]:
            return False
    return True


def sectional_paths(tq: TranslationQuiver, length: int) -> list[Path]:
    """All sectional paths of the given arrow length, in vertex order.

    Parallel arrows multiply path counts, so the result is a multiset
    when the quiver has arrow multiplicities above one.  The paths grow
    one arrow per layer from the sorted vertices: each path in turn gives
    way to its extensions by its end's ``out`` targets, in order and with
    multiplicity, that pass :func:`_count_sectional`'s test.  That is
    depth-first order, reached with no recursion limit on the length.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    out, tau_of = tq.quiver.out, tq.tau_of
    paths: list[Path] = [(v,) for v in tq.sorted_vertices()]
    for _ in range(length):
        paths = [
            (*path, t)
            for path in paths
            for t, k in out(path[-1])
            if len(path) < 2 or tau_of(t, _NO_TAU) != path[-2]
            for _ in range(k)
        ]
    return paths


def compose_tau(tq: TranslationQuiver, times: int) -> dict:
    """The translation composed with itself ``times`` times (partial)."""
    step = tq.tau
    tau = {v: v for v in tq.sorted_vertices()}
    for _ in range(times):
        tau = {v: step[w] for v, w in tau.items() if w in step}
    return tau


def power(tq: TranslationQuiver, m: int) -> TranslationQuiver:
    """The m-th power: same vertices, sectional length-m paths as arrows.

    Arrow multiplicity equals the number of sectional paths between the
    endpoints; the translation is the m-fold composite.  For a stable
    input the result is stable again.  A diagonal quiver (built by
    :func:`~quiverkit.polygon.gamma`, or by a power or a split of one)
    takes the closed form of the module docstring and gives a diagonal
    quiver again; every other input takes the path count.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if isinstance(tq, DiagonalQuiver):
        return _diagonal_quiver(tq.N, tq.step * m, tq.sorted_vertices())
    return _count_sectional(tq, m)


def _count_sectional(tq: TranslationQuiver, m: int) -> TranslationQuiver:
    """The m-th power of any translation quiver, by counting sectional paths per last arrow."""
    q = tq.quiver
    out, tau_of = q.out, tq.tau_of
    arrows: list[tuple[Vertex, Vertex]] = []
    for start in q.sorted_vertices():
        # (prev, cur) -> number of sectional paths from start ending in the arrow
        # prev -> cur, with prev = _NO_PREV before the first arrow.
        ends: dict[tuple, int] = {(_NO_PREV, start): 1}
        for _ in range(m):
            step: dict[tuple, int] = {}
            for (prev, cur), count in ends.items():
                for nxt, mult in out(cur):
                    if tau_of(nxt, _NO_TAU) != prev:
                        step[cur, nxt] = step.get((cur, nxt), 0) + count * mult
            ends = step
        paths: dict[Vertex, int] = {}
        for (_, end), count in ends.items():
            paths[end] = paths.get(end, 0) + count
        arrows += [(start, end) for end in sorted(paths, key=vertex_key) for _ in range(paths[end])]
    return TranslationQuiver._listed(q.sorted_vertices(), arrows, compose_tau(tq, m))


def _gamma_power_components(n: int, m: int) -> tuple[TranslationQuiver, list[TranslationQuiver]]:
    """Components of ``power(gamma(n*m, 1), m)``: the one through (1, m+2), then the rest.

    Raises :class:`SizeCapError` when ``gamma(n*m, 1)`` has more vertices
    than :func:`~quiverkit.config.default_vertex_cap`, which only
    ``QUIVERKIT_CAP`` sets.
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    N = n * m + 2
    cap = default_vertex_cap()
    base_size = N * (N - 3) // 2
    if base_size > cap:
        raise SizeCapError(
            f"power decomposition capped at {cap} vertices "
            f"(gamma({n * m},1) has {base_size})"
        )
    seed = (1, m + 2)
    comps = split_components(power(gamma(n * m, 1), m))
    principal = next(c for c in comps if seed in c.vertices)
    return principal, [c for c in comps if c is not principal]
