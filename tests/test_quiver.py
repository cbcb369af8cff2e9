"""Core quiver/translation-quiver structures, validation and isomorphism."""

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from enum import IntEnum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx import MultiDiGraph, weakly_connected_components
from networkx.algorithms.isomorphism import MultiDiGraphMatcher

from quiverkit import (
    Quiver,
    SizeCapError,
    TranslationQuiver,
    check_iso,
    classify_components,
    gamma,
    iso_translation_quivers,
    orbit_quiver,
    power,
    quiver_json_dict,
    split_components,
    tau_orbits,
    to_dot,
    to_json,
    validate_translation_quiver,
    vertex_key,
    vertex_label,
)
from quiverkit.cli import main
from quiverkit.polygon import DiagonalQuiver
from quiverkit.power import _gamma_power_components
from quiverkit.export import angulations_json, components_json
from quiverkit.iso import _adjacency, _refine


def brute_mesh_violations(tq):
    """Independent mesh recount over every vertex pair."""
    cnt = {}
    for a in tq.arrows:
        cnt[a] = cnt.get(a, 0) + 1
    out = []
    for y in tq.sorted_vertices():
        ty = tq.tau_of(y)
        if ty is None:
            continue
        for x in tq.sorted_vertices():
            c1 = cnt.get((x, y), 0)
            c2 = cnt.get((ty, x), 0)
            if c1 != c2:
                out.append((x, y, c1, c2))
    return out


def directed_cycle(n, tau_step):
    verts = [f"v{i}" for i in range(n)]
    arrows = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    tau = {f"v{i}": f"v{(i - tau_step) % n}" for i in range(n)}
    return TranslationQuiver(Quiver(verts, arrows), tau)


class TestValidation:
    def test_hexagon_quiver_is_valid_and_stable(self):
        res = validate_translation_quiver(gamma(4, 1))
        assert res.ok and res.stable and not res.violations
        assert res
        assert (1, 3) in gamma(4, 1).quiver

    def test_single_vertex_empty_tau(self):
        res = validate_translation_quiver(TranslationQuiver(Quiver(["x"]), {}))
        assert res.ok
        assert not res.stable

    def test_deleting_one_arrow_breaks_two_meshes(self):
        g = gamma(4, 1)
        arrows = [a for a in g.arrows if a != ((1, 3), (1, 4))]
        broken = TranslationQuiver(Quiver(g.vertices, arrows), dict(g.tau))
        res = validate_translation_quiver(broken)
        assert not res.ok
        assert not res
        mesh = {(v.pair, v.counts) for v in res.violations if v.kind == "mesh"}
        # The deleted arrow participates in the meshes ending at (1,4) and
        # at (2,4); both recounts disagree, matching the brute-force oracle.
        assert mesh == {
            (((1, 3), (1, 4)), (0, 1)),
            (((1, 4), (2, 4)), (1, 0)),
        }
        oracle = {((x, y), (c1, c2)) for x, y, c1, c2 in brute_mesh_violations(broken)}
        assert mesh == oracle

    def test_mesh_violations_match_brute_force_on_builders(self):
        for tq in (gamma(4, 1), gamma(3, 2), gamma(5, 1)):
            assert brute_mesh_violations(tq) == []
            assert validate_translation_quiver(tq).ok

    def test_non_injective_tau_is_flagged(self):
        tq = TranslationQuiver(Quiver(["a", "b", "c"]), {"a": "c", "b": "c"})
        res = validate_translation_quiver(tq)
        assert not res.ok
        assert any(v.kind == "tau-injectivity" for v in res.violations)

    def test_stray_arrow_endpoint_is_flagged(self):
        # A stray end is flagged when the quiver is built, so no quiver
        # that reaches validation has one.
        with pytest.raises(ValueError, match="'ghost' is not a vertex"):
            Quiver(["a"], [("a", "ghost")])

    def test_self_loop_is_flagged(self):
        tq = TranslationQuiver(Quiver(["a"], [("a", "a")]), {})
        assert any(
            v.kind == "self-loop"
            for v in validate_translation_quiver(tq).violations
        )

    def test_tau_image_outside_vertices_is_flagged(self):
        with pytest.raises(ValueError, match="'ghost' is not a vertex"):
            TranslationQuiver(Quiver(["a"]), {"a": "ghost"})


def _component_sets(tq):
    """The vertex sets of ``split_components(tq)``."""
    return [p.vertices for p in split_components(tq)]


class TestComponents:
    def test_hexagon_is_one_component_of_nine(self):
        comps = _component_sets(TranslationQuiver(gamma(4, 1).quiver, {}))
        assert [len(c) for c in comps] == [9]

    def test_two_isolated_vertices(self):
        comps = _component_sets(TranslationQuiver(Quiver(["a", "b"]), {}))
        assert [sorted(c) for c in comps] == [["a"], ["b"]]

    def test_octagon_square_underlying_quiver_splits_8_6_6(self):
        sq = power(gamma(6, 1), 2)
        comps = _component_sets(TranslationQuiver(sq.quiver, {}))
        assert [len(c) for c in comps] == [8, 6, 6]

    def test_component_list_order_is_size_then_least_label(self):
        q = Quiver([1, 2, 3, 4, 5], [(4, 5)])
        comps = _component_sets(TranslationQuiver(q, {}))
        assert [sorted(c) for c in comps] == [[4, 5], [1], [2], [3]]

    @given(
        n=st.integers(2, 8),
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_components_partition_the_vertices(self, n, edges):
        arrows = [(a % n, b % n) for a, b in edges if a % n != b % n]
        q = Quiver(range(n), arrows)
        comps = _component_sets(TranslationQuiver(q, {}))
        assert all(comps)
        union = set()
        for c in comps:
            assert not (union & c)
            union |= c
        assert union == set(range(n))

    def test_translation_links_merge_arrowless_classes(self):
        square = gamma(2, 1)
        assert len(square.arrows) == 0
        assert [len(c) for c in _component_sets(TranslationQuiver(square.quiver, {}))] == [1, 1]
        assert [len(c) for c in _component_sets(square)] == [2]

    def test_restriction_of_component_passes_validation(self):
        for comp in split_components(power(gamma(6, 1), 2)):
            res = validate_translation_quiver(comp)
            assert res.ok and res.stable


MIXED_VERTICES = st.one_of(
    st.integers(-3, 4),
    st.lists(st.integers(-2, 4), min_size=1, max_size=3).map(tuple),
    st.sampled_from(["a", "b", "x1", "ghost"]),
)


# Vertices whose labels collide ((3,) and "(3)", 3 and "3"), are not
# ASCII, or hold characters that JSON escapes, and pairs, whose labels the
# writers make directly when both entries are exactly int.
LABEL_VERTICES = st.one_of(
    st.integers(2, 4),
    st.tuples(st.integers(2, 4)),
    st.tuples(st.integers(-1, 2) | st.booleans(), st.integers(2, 3)),
    st.sampled_from(["3", "(3)", "(2)", 'say "hi"', "back\\slash", "ünï", "日本", "\t\n", ""]),
    st.text(max_size=3),
)


@st.composite
def mixed_translation_quivers(draw, vertex_strategy=MIXED_VERTICES):
    """Shuffled vertices, arrows and tau over mixed vertex types.

    Arrow and tau ends are vertices; arrows repeat (parallel arrows) and
    may be self-loops, and tau may be partial and non-injective.
    """
    vertices = draw(st.lists(vertex_strategy, max_size=10, unique=True))
    if not vertices:
        return vertices, [], {}
    ends = st.sampled_from(vertices)
    arrows = draw(st.lists(st.tuples(ends, ends), max_size=20))
    arrows = draw(st.permutations(arrows + arrows[: draw(st.integers(0, 3))]))
    tau = dict(draw(st.lists(st.tuples(ends, ends), max_size=8)))
    return vertices, arrows, tau


def _arrow_key(a):
    return (vertex_key(a[0]), vertex_key(a[1]))


def _reference_components(tq):
    """networkx's weakly connected components, ordered by (size descending, least vertex).

    The graph has the vertices and every arrow and tau pair, so the
    partition does not come from the package.
    """
    g = MultiDiGraph()
    g.add_nodes_from(tq.vertices)
    g.add_edges_from([*tq.arrows, *tq.tau.items()])
    return sorted(
        map(frozenset, weakly_connected_components(g)),
        key=lambda c: (-len(c), min(vertex_key(v) for v in c)),
    )


DOT_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"'}
# A DOT double-quoted ID; the group is its text with the escapes left in.
DOT_ID = r'"((?:[^"\\]|\\.)*)"'


def _reference_dot(vertices, arrows, tau):
    def q(v):
        return '"' + vertex_label(v).translate(DOT_ESCAPES) + '"'

    lines = ["digraph quiver {"]
    lines += [f"  {q(v)};" for v in vertices]
    lines += [f"  {q(s)} -> {q(t)};" for s, t in arrows]
    lines += [f'  {q(y)} -> {q(ty)} [style=dashed, label="tau"];' for y, ty in tau]
    return "\n".join(lines + ["}"]) + "\n"


def _reference_json(vertices, arrows, tau):
    payload = {
        "vertices": [vertex_label(v) for v in vertices],
        "arrows": [[vertex_label(s), vertex_label(t)] for s, t in arrows],
        "tau": {vertex_label(y): vertex_label(ty) for y, ty in tau},
    }
    return json.dumps(payload, indent=2) + "\n"


class TestVertexOrder:
    """Quiver and TranslationQuiver sort once; everything else reads their order."""

    @given(mixed_translation_quivers())
    @settings(max_examples=200, deadline=None)
    def test_listings_follow_vertex_key(self, data):
        # The reference sorts with vertex_key on every call, as the
        # package did before the order was fixed at construction.
        vertices, arrows, tau = data
        q = Quiver(vertices, arrows)
        tq = TranslationQuiver(q, tau)
        no_tau = TranslationQuiver(q, {})
        ref_vertices = sorted(set(vertices), key=vertex_key)
        ref_arrows = sorted(arrows, key=_arrow_key)
        counts = sorted(Counter(arrows).items(), key=lambda it: _arrow_key(it[0]))
        ref_tau = [(y, tau[y]) for y in sorted(tau, key=vertex_key)]

        assert q.arrows == tuple(ref_arrows)
        assert q.sorted_vertices() == tq.sorted_vertices() == ref_vertices
        for v in vertices:
            assert q.out(v) == tuple((t, c) for (s, t), c in counts if s == v)
            assert q.into(v) == tuple((s, c) for (s, t), c in counts if t == v)
        assert list(tq.tau.items()) == ref_tau
        assert _component_sets(no_tau) == _reference_components(no_tau)
        assert _component_sets(tq) == _reference_components(tq)
        assert to_dot(no_tau) == _reference_dot(ref_vertices, ref_arrows, [])
        assert to_dot(tq) == _reference_dot(ref_vertices, ref_arrows, ref_tau)
        assert to_json(no_tau) == _reference_json(ref_vertices, ref_arrows, [])
        assert to_json(tq) == _reference_json(ref_vertices, ref_arrows, ref_tau)

    def test_int_and_one_tuple_have_distinct_keys(self):
        assert vertex_key(3) != vertex_key((3,))
        assert Quiver([3, (3,), (2,), 4]).sorted_vertices() == [(2,), (3,), 3, 4]

    def test_listing_does_not_depend_on_the_hash_seed(self):
        # String hashing changes with PYTHONHASHSEED and with it set
        # iteration order; the listing must not.  The child loads only
        # quiverkit.quiver (standard library imports only), not the package.
        package = Path(sys.modules["quiverkit"].__file__).parent
        code = (
            "import sys, types\n"
            "pkg = types.ModuleType('quiverkit')\n"
            f"pkg.__path__ = [{str(package)!r}]\n"
            "sys.modules['quiverkit'] = pkg\n"
            "from quiverkit.quiver import Quiver, TranslationQuiver\n"
            "q = Quiver(['ghost', 3, (3,), 'x1'])\n"
            "tq = TranslationQuiver(q, {v: v for v in q.vertices})\n"
            "print(q.sorted_vertices(), list(tq.tau))\n"
        )
        listings = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)}, timeout=60, check=True,
            ).stdout
            for seed in range(16)
        }
        assert len(listings) == 1, listings


def _listings(tq):
    return tq.sorted_vertices(), tq.arrows, list(tq.tau.items())


def _rebuilt(tq):
    """``tq`` built again through the public constructors, from its own listings."""
    vs, arrows, tau = _listings(tq)
    return TranslationQuiver(Quiver(set(vs), list(arrows)), dict(tau))


class TestInheritedOrder:
    """Powers and parts list in vertex_key order without a sort, as a fresh build would."""

    @given(mixed_translation_quivers(MIXED_VERTICES | LABEL_VERTICES))
    @settings(max_examples=200, deadline=None)
    def test_derived_quivers_list_as_if_built_afresh(self, data):
        vertices, arrows, tau = data
        tq = TranslationQuiver(Quiver(vertices, arrows), tau)
        for d in [power(tq, m) for m in (1, 2, 3)] + split_components(tq):
            # __eq__ ignores the order of tau, so compare the listings too.
            assert _listings(d) == _listings(_rebuilt(d))


def _restricted(tq, keep):
    """Brute-force part of ``tq`` on ``keep``: a fresh build from the pairs with both ends kept."""
    arrows = [(s, t) for s, t in tq.arrows if s in keep and t in keep]
    tau = {y: ty for y, ty in tq.tau.items() if y in keep and ty in keep}
    return TranslationQuiver(Quiver(keep, arrows), tau)


class TestSplitComponents:
    # Parallel arrows 1 => 2, arrow-less "a", "b", (3,) tied to each other
    # by tau only, and "c" fixed by tau.
    @example(([1, 2, "a", "b", "c", (3,)], [(1, 2), (1, 2)], {"a": "b", "b": (3,), "c": "c"}))
    @given(mixed_translation_quivers(MIXED_VERTICES | LABEL_VERTICES))
    @settings(max_examples=200, deadline=None)
    def test_parts_equal_brute_force_restrictions(self, data):
        vertices, arrows, tau = data
        tq = TranslationQuiver(Quiver(vertices, arrows), tau)
        parts = split_components(tq)
        assert [p.vertices for p in parts] == _reference_components(tq)
        order = [(-len(p.vertices), vertex_key(p.sorted_vertices()[0])) for p in parts]
        assert order == sorted(order)
        for part in parts:
            ref = _restricted(tq, part.vertices)
            # __eq__ ignores the order of tau, so compare the listings too.
            assert part == ref and _listings(part) == _listings(ref)

    def test_diagonal_quivers_split_as_their_plain_copies(self):
        # The closed-form key split against the walk on a plain copy:
        # every power(gamma(n, m), k) of a polygon with n <= 11, m <= 5, and
        # powers 2 and 3 of its two largest parts (4913 cases, about 1 s).
        def agree(dq):
            plain = TranslationQuiver(dq.quiver, dq.tau)
            parts = split_components(dq)
            assert all(isinstance(p, DiagonalQuiver) for p in parts)
            return [_listings(p) for p in parts] == [_listings(p) for p in split_components(plain)]

        cases = 0
        for n in range(2, 12):
            for m in range(1, 6):
                g = gamma(n, m)
                for k in range(1, n * m + 2):
                    pw = power(g, k)
                    quivers = [pw] + [power(p, j) for p in split_components(pw)[:2] for j in (2, 3)]
                    for i, dq in enumerate(quivers):
                        assert agree(dq), (n, m, k, i)
                    cases += len(quivers)
        assert cases == 4913


class TestLazyIndexes:
    QUERIES = ["arrow_count", "out", "into", "out_degree", "in_degree"]

    @given(mixed_translation_quivers(), st.permutations(QUERIES))
    @settings(max_examples=100, deadline=None)
    def test_queries_match_brute_force_in_any_first_call_order(self, data, order):
        vertices, arrows, _ = data
        q = Quiver(vertices, arrows)
        ends = sorted({*vertices, *(e for a in arrows for e in a), "absent"}, key=vertex_key)
        counts = Counter(arrows)
        expected = {
            "out": lambda v: tuple((t, counts[v, t]) for t in ends if counts[v, t]),
            "into": lambda v: tuple((s, counts[s, v]) for s in ends if counts[s, v]),
            "out_degree": lambda v: sum(c for (s, _), c in counts.items() if s == v),
            "in_degree": lambda v: sum(c for (_, t), c in counts.items() if t == v),
        }
        for name in order:
            for v in ends:
                if name == "arrow_count":
                    assert [q.arrow_count(v, w) for w in ends] == [counts[v, w] for w in ends]
                else:
                    assert getattr(q, name)(v) == expected[name](v), (name, v)


PATH = TranslationQuiver(Quiver([1, 2], [(1, 2)]), {})


class TestIsomorphism:
    def test_identity_on_octagon_quiver(self):
        a = gamma(3, 2)
        phi = iso_translation_quivers(a, a)
        assert phi is not None
        assert check_iso(a, a, phi)

    def test_power_component_matches_octagon_quiver(self):
        comps = split_components(power(gamma(6, 1), 2))
        big = next(c for c in comps if (1, 4) in c.vertices)
        phi = iso_translation_quivers(gamma(3, 2), big)
        assert phi is not None

    def test_cycle_with_one_step_translation_is_not_octagon_quiver(self):
        # Both are directed 8-cycles (identical degree sequences); the
        # one-step shift fails the mesh axiom and tau-equivariance.
        cyc = directed_cycle(8, 1)
        assert not validate_translation_quiver(cyc).ok
        assert iso_translation_quivers(gamma(3, 2), cyc) is None

    def test_cycle_with_two_step_translation_is_octagon_quiver(self):
        cyc = directed_cycle(8, 2)
        assert validate_translation_quiver(cyc).ok
        assert iso_translation_quivers(gamma(3, 2), cyc) is not None

    def test_found_bijection_inverts(self):
        a = gamma(3, 2)
        b = directed_cycle(8, 2)
        phi = iso_translation_quivers(a, b)
        inv = {w: v for v, w in phi.items()}
        assert check_iso(b, a, inv)

    def test_relabeled_quiver_is_isomorphic(self):
        g = gamma(4, 1)
        ren = {v: f"x{i}" for i, v in enumerate(g.sorted_vertices())}
        other = TranslationQuiver(
            Quiver(ren.values(), [(ren[s], ren[t]) for s, t in g.arrows]),
            {ren[y]: ren[t] for y, t in g.tau.items()},
        )
        phi = iso_translation_quivers(g, other)
        assert phi is not None and check_iso(g, other, phi)

    def test_different_tau_breaks_isomorphism(self):
        g = gamma(4, 1)
        no_tau = TranslationQuiver(g.quiver, {})
        assert iso_translation_quivers(g, no_tau) is None

    def test_different_sizes_and_multiplicities(self):
        a = TranslationQuiver(Quiver([1, 2], [(1, 2)]), {})
        b = TranslationQuiver(Quiver([1, 2], [(1, 2), (1, 2)]), {})
        assert iso_translation_quivers(a, b) is None

    @pytest.mark.parametrize(
        "build, end",
        [
            (lambda: TranslationQuiver(Quiver([1, 2]), {1: 3}), 3),
            (lambda: TranslationQuiver(Quiver([1, 2]), {3: 1}), 3),
            (lambda: Quiver([1, 2], [(1, "x")]), "x"),
            # Several stray ends: the least by vertex_key is named.
            (lambda: Quiver([1], [(1, "x"), (5, 1), (1, (0,))]), (0,)),
            (lambda: TranslationQuiver(Quiver([1]), {1: "b", "a": 1, (2, 0): 1}), (2, 0)),
        ],
        ids=["tau-image", "tau-key", "arrow-end", "least-arrow-end", "least-tau-end"],
    )
    def test_stray_ends_are_value_errors(self, build, end):
        # The constructors reject what no vertex bijection could map, so
        # the search and check_iso need no check of their own.
        with pytest.raises(ValueError, match=re.escape(f"arrow or tau end {end!r} is not a vertex")):
            build()

    @pytest.mark.parametrize(
        "a, b, phi",
        [
            (PATH, PATH, {1: 1}),
            (PATH, PATH, {1: 1, 2: 3}),
            (TranslationQuiver(Quiver([1, 2]), {}), TranslationQuiver(Quiver([1]), {}), {1: 1, 2: 1}),
            (PATH, PATH, {1: 2, 2: 1}),
            (TranslationQuiver(Quiver([1, 2]), {1: 2}), TranslationQuiver(Quiver([1, 2]), {}), None),
            (TranslationQuiver(Quiver([1, 2]), {}), TranslationQuiver(Quiver([1, 2]), {1: 2}), None),
            (TranslationQuiver(Quiver([1, 2]), {1: 2}), TranslationQuiver(Quiver([1, 2]), {1: 1}), None),
            # None is a vertex here, not a missing tau image.
            (TranslationQuiver(Quiver([None, 1]), {1: None}), TranslationQuiver(Quiver([None, 1]), {}), None),
        ],
        ids=[
            "keys", "values", "not-injective", "arrows",
            "tau-only-in-a", "tau-only-in-b", "tau-image", "tau-to-vertex-none",
        ],
    )
    def test_check_iso_rejections(self, a, b, phi):
        phi = phi or {v: v for v in a.vertices}
        assert not check_iso(a, b, phi)
        assert check_iso(a, a, {v: v for v in a.vertices})

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("QUIVERKIT_CAP", "3")
        a = gamma(4, 1)
        with pytest.raises(SizeCapError):
            iso_translation_quivers(a, a)

    def test_env_var_overrides_default_cap(self, monkeypatch):
        monkeypatch.setenv("QUIVERKIT_CAP", "4")
        a = gamma(4, 1)
        with pytest.raises(SizeCapError):
            iso_translation_quivers(a, a)
        monkeypatch.setenv("QUIVERKIT_CAP", "100")
        assert iso_translation_quivers(a, a) is not None

    def test_deterministic_result(self):
        a = gamma(5, 1)
        b = gamma(5, 1)
        assert iso_translation_quivers(a, b) == iso_translation_quivers(a, b)

    def test_tau_fixed_points_are_respected(self):
        # Both are directed 6-cycles; tau is the identity on one and a
        # two-step rotation on the other, so no bijection commutes with tau.
        fixed, rotated = directed_cycle(6, 0), directed_cycle(6, 2)
        assert iso_translation_quivers(fixed, rotated) is None
        assert iso_translation_quivers(rotated, fixed) is None

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self, tmp_path):
        # gamma(45, 1) has 1034 vertices, more than the default recursion
        # limit allows frames.
        assert sys.getrecursionlimit() < 1034
        g = gamma(45, 1)
        other = _relabeled(g, [f"x{i}" for i in range(len(g.vertices))])
        phi = iso_translation_quivers(g, other)
        assert len(g.vertices) == 1034
        assert phi is not None and check_iso(g, other, phi)
        out = tmp_path / "classify.json"
        argv = ["classify", "--n", "45", "--m", "1", "--report", "json", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["principal"] == {"size": 1034, "iso_gamma": True}

    def test_argument_order_does_not_matter(self):
        # classify_components lists the other components in split order.
        match = classify_components(3, 7).others[0]
        _, [comp, *_] = _gamma_power_components(3, 7)
        assert len(comp.vertices) == match.size
        quotient = orbit_quiver(*match.match).quotient
        phi = iso_translation_quivers(quotient, comp)
        psi = iso_translation_quivers(comp, quotient)
        assert phi is not None and check_iso(quotient, comp, phi)
        assert psi is not None and check_iso(comp, quotient, psi)


def _relabeled(tq, labels):
    ren = dict(zip(tq.sorted_vertices(), labels))
    return TranslationQuiver(
        Quiver(ren.values(), [(ren[s], ren[t]) for s, t in tq.arrows]),
        {ren[y]: ren[t] for y, t in tq.tau.items()},
    )


def _disjoint_union(*parts):
    return TranslationQuiver(
        Quiver(
            [(i, v) for i, tq in enumerate(parts) for v in tq.vertices],
            [((i, s), (i, t)) for i, tq in enumerate(parts) for s, t in tq.arrows],
        ),
        {(i, y): (i, t) for i, tq in enumerate(parts) for y, t in tq.tau.items()},
    )


def _doubled(tq, sources):
    """``tq`` with every arrow out of ``sources`` drawn twice."""
    extra = [(s, t) for s, t in tq.arrows if s in sources]
    return TranslationQuiver(Quiver(tq.vertices, [*tq.arrows, *extra]), dict(tq.tau))


def _oracle_bases():
    """gamma and strip-quotient instances of at most 30 vertices, copies
    of gamma(n, 1) with parallel arrows, and disjoint unions of two of
    them, by size.  Color refinement cannot tell the parts of a union
    apart when they look alike locally, so unions make the search
    backtrack."""
    bases = [gamma(n, m) for n in range(2, 8) for m in range(1, 4)]
    bases += [
        orbit_quiver(k, s, r).quotient
        for k in range(1, 5)
        for s in range(5)
        for r in range(3)
        if (s, r) != (0, 0)
    ]
    bases = [tq for tq in bases if len(tq.vertices) <= 30]
    for n in range(2, 6):
        g = gamma(n, 1)
        bases += [_doubled(g, g.vertices), _doubled(g, g.sorted_vertices()[:1])]
    bases += [
        _disjoint_union(p, q)
        for i, p in enumerate(bases)
        for q in bases[i:]
        if len(p.vertices) + len(q.vertices) <= 30
    ]
    by_size = {}
    for tq in bases:
        by_size.setdefault(len(tq.vertices), []).append(tq)
    return by_size


ORACLE_BASES = _oracle_bases()


@st.composite
def oracle_pairs(draw):
    """Two relabeled instances of one size; the second may have one
    arrow end or one tau value moved to another vertex."""
    size = draw(st.sampled_from(sorted(ORACLE_BASES)))
    a, b = (draw(st.sampled_from(ORACLE_BASES[size])) for _ in range(2))
    verts = b.sorted_vertices()
    arrows, tau = list(b.arrows), dict(b.tau)
    move = draw(st.sampled_from(["none", "arrow", "tau"]))
    if move == "arrow" and arrows:
        i = draw(st.integers(0, len(arrows) - 1))
        end = draw(st.integers(0, 1))
        moved = list(arrows[i])
        moved[end] = draw(st.sampled_from(verts))
        arrows[i] = tuple(moved)
    elif move == "tau" and tau:
        tau[draw(st.sampled_from(list(tau)))] = draw(st.sampled_from(verts))
    b = TranslationQuiver(Quiver(verts, arrows), tau)
    labels = [f"x{i}" for i in range(size)]
    return (
        _relabeled(a, draw(st.permutations(labels))),
        _relabeled(b, draw(st.permutations(labels))),
    )


def _networkx_isomorphic(a, b):
    """Independent oracle: arrows and tau as kind-tagged multigraph edges."""

    def graph(tq):
        g = MultiDiGraph()
        g.add_nodes_from(tq.vertices)
        g.add_edges_from(tq.arrows, kind="arrow")
        g.add_edges_from(tq.tau.items(), kind="tau")
        return g

    def same_kinds(edges_a, edges_b):
        kinds = lambda edges: Counter(d["kind"] for d in edges.values())
        return kinds(edges_a) == kinds(edges_b)

    return MultiDiGraphMatcher(graph(a), graph(b), edge_match=same_kinds).is_isomorphic()


class TestIsomorphismOracle:
    @given(pair=oracle_pairs())
    # The same arrows with other multiplicities: not isomorphic.
    @example(
        pair=(
            TranslationQuiver(Quiver([1, 2, 3], [(1, 2), (1, 2), (1, 3), (2, 3)]), {}),
            TranslationQuiver(Quiver([1, 2, 3], [(1, 2), (1, 3), (1, 3), (2, 3)]), {}),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_networkx(self, pair):
        # Every _refine call of both searches, failing ones too, must
        # return the partition of refinement by rounds.
        a, b = pair
        with mock.patch("quiverkit.iso._refine", _checked_refine):
            phi = iso_translation_quivers(a, b)
            assert (phi is not None) == _networkx_isomorphic(a, b)
            assert phi is None or check_iso(a, b, phi)
            assert (iso_translation_quivers(b, a) is None) == (phi is None)


def _refine_by_rounds(rows, color):
    """Refinement by rounds, the reference for the touched-vertex ``_refine``:
    every round re-signs every vertex by its color and the sorted (tag,
    color) pairs of its row, numbered by sorted signature."""
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


def _partition(color):
    """``color`` with its colors renumbered by first occurrence: equal
    exactly when two colorings have the same classes."""
    first = {}
    return [first.setdefault(c, len(first)) for c in color]


def _checked_refine(rows, color, changed):
    got = _refine(rows, color, changed)
    assert _partition(got) == _partition(_refine_by_rounds(rows, color))
    return got


def _joint_rows(a, b):
    return _adjacency(a, 0)[1] + _adjacency(b, len(a.vertices))[1]


def _directed_path(n, reverse=False):
    arrows = [(i + 1, i) if reverse else (i, i + 1) for i in range(n - 1)]
    return TranslationQuiver(Quiver(range(n), arrows), {})


class TestRefinementByRounds:
    @given(pair=oracle_pairs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_root_and_one_branch_equal_the_rounds(self, pair, data):
        a, b = pair
        rows = _joint_rows(*pair)
        n = len(a.vertices)
        root = [0] * (2 * n)
        stable = _refine(rows, root, range(2 * n))
        assert _partition(stable) == _partition(_refine_by_rounds(rows, root))
        classes = {}
        for v, c in enumerate(stable):
            classes.setdefault(c, []).append(v)
        mixed = [vs for vs in classes.values() if vs[0] < n <= vs[-1]]
        if mixed:
            # The search's branch: the least a-vertex of the smallest class
            # with both sides, and one of that class's b-vertices.
            vs = min(mixed, key=lambda vs: (len(vs), stable[vs[0]]))
            x, y = vs[0], data.draw(st.sampled_from([v for v in vs if v >= n]))
            color = stable.copy()
            color[x] = color[y] = max(stable) + 1
            got = _refine(rows, color, (x, y))
            assert _partition(got) == _partition(_refine_by_rounds(rows, color))

    @given(pair=oracle_pairs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_classes_that_do_not_split_keep_their_color(self, pair, data):
        # Colors are class ids: only the parts split off a class get new ones.
        a, _ = pair
        rows = _joint_rows(*pair)
        n = len(a.vertices)
        stable = _refine(rows, [0] * (2 * n), range(2 * n))
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(n, 2 * n - 1))
        color = stable.copy()
        color[x] = color[y] = max(stable) + 1
        got = _refine(rows, color, (x, y))
        classes = {}
        for v, c in enumerate(color):
            classes.setdefault(c, set()).add(got[v])
        for c, colors in classes.items():
            assert len(colors) > 1 or colors == {c}

    def test_directed_path_against_its_reverse(self):
        # Each round splits off one more vertex from each end of both
        # paths, so refinement runs about 150 rounds deep.
        n = 300
        rows = _joint_rows(_directed_path(n), _directed_path(n, reverse=True))
        root = [0] * (2 * n)
        stable = _refine(rows, root, range(2 * n))
        assert _partition(stable) == _partition(_refine_by_rounds(rows, root))
        assert len(set(stable)) == n

    def test_path_against_its_reverse_at_the_cap(self):
        # About n/2 rounds, each splitting a constant number of classes:
        # a round's cost follows the vertices it touches, not the number
        # of classes, so 4 times the vertices takes far less than 16 times
        # the time.
        def best_of_3(n):
            a, b = _directed_path(n), _directed_path(n, reverse=True)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                phi = iso_translation_quivers(a, b)
                best = min(best, time.perf_counter() - t0)
            assert phi == {i: n - 1 - i for i in range(n)}
            return best

        assert best_of_3(5000) / best_of_3(1250) < 8


class TestTauOrbits:
    def test_hexagon_orbit_sizes(self):
        orbits = tau_orbits(gamma(4, 1))
        assert sorted(len(o) for o in orbits) == [3, 6]
        covered = {v for o in orbits for v in o}
        assert covered == gamma(4, 1).vertices

    def test_octagon_quiver_orbit_sizes(self):
        assert sorted(len(o) for o in tau_orbits(gamma(3, 2))) == [4, 4]

    def test_partial_tau_orbits_are_pinned(self):
        # Chain 3 -> 1 -> 2, cycle 4 -> 5 -> 6 -> 4, fixed point 8, 7 and 9
        # without tau, and the chain 10 -> 11: chains from vertices outside
        # tau's image first.
        tq = TranslationQuiver(
            Quiver(range(1, 12), [(1, 4), (7, 8)]),
            {3: 1, 1: 2, 4: 5, 5: 6, 6: 4, 8: 8, 10: 11},
        )
        assert tau_orbits(tq) == [(3, 1, 2), (7,), (9,), (10, 11), (4, 5, 6), (8,)]
        mixed = TranslationQuiver(
            Quiver(["a", "b", (1,), (2,), 3]), {(2,): (1,), (1,): "a", "a": (2,), "b": 3}
        )
        assert tau_orbits(mixed) == [("b", 3), ((1,), "a", (2,))]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
# Extra keys may equal the keys the writers add, or their parameters' names.
WRITER_KEYS = ["vertices", "arrows", "tau", "components", "angulations", "tq", "parts", "found"]
EXTRAS = st.dictionaries(
    st.sampled_from(["schema", "n", "count", *WRITER_KEYS]) | st.text(max_size=3),
    JSON_VALUES,
    max_size=4,
)
ANGULATION_LISTS = st.lists(
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=4).map(tuple), max_size=4
)


def _dumped(payload):
    return json.dumps(payload, indent=2) + "\n"


class Side(IntEnum):
    """An int subclass whose str is not its int's."""

    LEFT = 1
    RIGHT = 2

    def __str__(self):
        return self.name


class TestExport:
    @given(st.lists(mixed_translation_quivers(LABEL_VERTICES), max_size=3), EXTRAS, ANGULATION_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_writers_equal_json_dumps_of_the_dict_form(self, quivers, extra, found):
        parts = [TranslationQuiver(Quiver(vs, arrows), tau) for vs, arrows, tau in quivers]
        for tq in parts + [TranslationQuiver(p.quiver, {}) for p in parts]:
            assert to_json(tq, **extra) == _dumped({**extra, **quiver_json_dict(tq)})
            assert to_dot(tq) == _reference_dot(tq.sorted_vertices(), tq.arrows, tq.tau.items())
        components = [quiver_json_dict(p) for p in parts]
        assert components_json(parts, **extra) == _dumped({**extra, "components": components})
        angulations = [[list(d) for d in coll] for coll in found]
        assert angulations_json(found, **extra) == _dumped({**extra, "angulations": angulations})

    @given(mixed_translation_quivers(LABEL_VERTICES))
    @settings(max_examples=200, deadline=None)
    def test_dot_ids_are_quoted_and_escaped(self, data):
        vertices, arrows, tau = data
        tq = TranslationQuiver(Quiver(vertices, arrows), tau)
        lines = [f"  {DOT_ID};" for _ in tq.sorted_vertices()]
        lines += [f"  {DOT_ID} -> {DOT_ID};" for _ in tq.arrows]
        lines += [rf'  {DOT_ID} -> {DOT_ID} \[style=dashed, label="tau"\];' for _ in tq.tau]
        pattern = "\n".join(["digraph quiver \\{", *lines, "\\}"]) + "\n"
        match = re.fullmatch(pattern, to_dot(tq), re.DOTALL)
        assert match is not None
        ends = [*tq.sorted_vertices(), *(e for a in tq.arrows for e in a)]
        ends += [e for pair in tq.tau.items() for e in pair]
        unescaped = [re.sub(r"\\(.)", r"\1", g, flags=re.DOTALL) for g in match.groups()]
        assert unescaped == [vertex_label(v) for v in ends]

    def test_dot_escapes_quotes_and_backslashes(self):
        q = Quiver(['say "hi"', "back\\slash"], [('say "hi"', "back\\slash")])
        text = to_dot(TranslationQuiver(q, {}))
        assert text == (
            "digraph quiver {\n"
            '  "back\\\\slash";\n'
            '  "say \\"hi\\"";\n'
            '  "say \\"hi\\"" -> "back\\\\slash";\n'
            "}\n"
        )

    def test_colliding_tau_labels_collapse_as_in_the_dict_form(self):
        # (3,) and "(3)" both render as "(3)": the dict form keeps the first
        # key's place and the last value, and so must the writer.
        tq = TranslationQuiver(Quiver([(3,), "(3)", 2, 4]), {(3,): 2, "(3)": 4})
        text = to_json(tq)
        assert text == _dumped(quiver_json_dict(tq))
        assert json.loads(text)["tau"] == {"(3)": "4"}
        assert text.count('"(3)": ') == 1

    @pytest.mark.parametrize(
        "vertices, ends, tau",
        [
            ([(True, 2), (2, 3)], None, {(2, 3): (True, 2)}),
            ([(1, 2.0), (2, 3)], None, {(2, 3): (1, 2.0)}),
            ([(Side.LEFT, Side.RIGHT), (1, 3)], None, {(1, 3): (Side.LEFT, Side.RIGHT)}),
            ([(-3, 4), (4, -3)], None, {(4, -3): (-3, 4)}),
            ([(1, 2, 3), (1, 2)], None, {(1, 2, 3): (1, 2)}),
            # Both render as "(1,2)": the writer collapses them as the dict form does.
            ([(1, 2), "(1,2)", 3, 4], None, {(1, 2): 3, "(1,2)": 4}),
            # Ends equal to a vertex but printed apart from it are stored as the vertex.
            ([1.0, 2], (1, 2), {2: 1, 1: 2}),
            ([(1, 2.0), (2, 3)], ((1, 2), (2, 3.0)), {(2.0, 3): (1, 2), (1, 2): (2, 3)}),
        ],
        ids=["bool", "float", "int-enum", "negative", "triple", "string", "float-end", "pair-end"],
    )
    def test_int_pair_labels_equal_the_generic_labels(self, vertices, ends, tau):
        # Only a pair of exact ints takes the writers' direct label; each case
        # must write as vertex_label and json.dumps would.
        tq = TranslationQuiver(Quiver(vertices, [ends or (vertices[0], vertices[1])]), tau)
        assert to_json(tq) == _dumped(quiver_json_dict(tq))
        assert to_dot(tq) == _reference_dot(tq.sorted_vertices(), tq.arrows, tq.tau.items())

    def test_json_shape_and_stability(self):
        tq = gamma(4, 1)
        d = quiver_json_dict(tq)
        assert set(d) == {"vertices", "arrows", "tau"}
        assert len(d["vertices"]) == 9
        assert ["(1,3)", "(1,4)"] in d["arrows"]
        assert d["tau"]["(2,4)"] == "(1,3)"
        assert to_json(tq) == to_json(tq)

    def test_dot_contains_solid_and_dashed_edges(self):
        text = to_dot(gamma(4, 1))
        assert text.startswith("digraph quiver {")
        assert '"(1,3)" -> "(1,4)";' in text
        assert '"(2,4)" -> "(1,3)" [style=dashed, label="tau"];' in text
        assert to_dot(gamma(4, 1)) == text
