"""Sectional paths, quiver powers and their decomposition."""

import importlib
import json
import os
import subprocess
import sys
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quiver import _listings, _rebuilt, mixed_translation_quivers

import quiverkit
from quiverkit import (
    Quiver,
    SizeCapError,
    TranslationQuiver,
    classify_components,
    compose_tau,
    gamma,
    is_sectional,
    iso_translation_quivers,
    orbit_quiver,
    power,
    sectional_paths,
    split_components,
    validate_translation_quiver,
)
from quiverkit.cli import main
from quiverkit.polygon import DiagonalQuiver
from quiverkit.power import _gamma_power_components
from quiverkit.verify import _theorem_pairs, check_power_theorem_sweep


def brute_sectional_count(tq, src, tgt, length):
    """Independent DFS counter over the raw arrow list."""
    out = {}
    for s, t in tq.arrows:
        out.setdefault(s, []).append(t)

    def walk(path):
        if len(path) == length + 1:
            return 1 if path[-1] == tgt else 0
        total = 0
        for nxt in out.get(path[-1], ()):
            if len(path) >= 2 and nxt in tq.tau and tq.tau[nxt] == path[-2]:
                continue
            total += walk(path + [nxt])
        return total

    return walk([src])


def recursive_sectional_paths(tq, length):
    """Reference enumeration: a recursive depth-first walk, arrows in listing order."""
    paths = []

    def walk(path):
        if len(path) == length + 1:
            paths.append(tuple(path))
            return
        for nxt in (t for s, t in tq.arrows if s == path[-1]):
            if len(path) >= 2 and nxt in tq.tau and tq.tau[nxt] == path[-2]:
                continue
            walk(path + [nxt])

    for start in tq.sorted_vertices():
        walk([start])
    return paths


class TestSectional:
    def test_straight_slice_is_sectional(self):
        g = gamma(6, 1)
        assert is_sectional(((1, 3), (1, 4), (1, 5)), g)

    def test_hook_through_translate_is_not(self):
        g = gamma(6, 1)
        # tau(2,4) = (1,3) = the start, so the path doubles back.
        assert g.tau_of((2, 4)) == (1, 3)
        assert not is_sectional(((1, 3), (1, 4), (2, 4)), g)

    def test_single_arrow_paths_are_sectional(self):
        g = gamma(6, 1)
        for s, t in g.arrows:
            assert is_sectional((s, t), g)

    def test_non_path_raises(self):
        g = gamma(6, 1)
        with pytest.raises(ValueError):
            is_sectional(((1, 3), (1, 5)), g)

    @pytest.mark.parametrize("name", [None, "a"])
    @pytest.mark.parametrize("tau_at_2, sectional", [(True, False), (False, True)])
    def test_a_vertex_named_none_is_an_ordinary_vertex(self, name, tau_at_2, sectional):
        # name -> 1 -> 2 doubles back exactly when tau(2) = name.
        tau = {2: name} if tau_at_2 else {}
        tq = TranslationQuiver(Quiver([name, 1, 2], [(name, 1), (1, 2)]), tau)
        path = (name, 1, 2)
        assert is_sectional(path, tq) is sectional
        assert sectional_paths(tq, 2) == recursive_sectional_paths(tq, 2) == [path] * sectional
        assert power(tq, 2).arrows == ((name, 2),) * sectional
        assert brute_sectional_count(tq, name, 2, 2) == sectional

    def test_enumeration_agrees_with_is_sectional(self):
        g = gamma(5, 1)
        for p in sectional_paths(g, 3):
            assert is_sectional(p, g)
        with pytest.raises(ValueError, match="non-negative"):
            sectional_paths(g, -1)

    @given(mixed_translation_quivers(), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_order_matches_a_recursive_walk(self, data, length):
        vertices, arrows, tau = data
        tq = TranslationQuiver(Quiver(vertices, arrows), tau)
        assert sectional_paths(tq, length) == recursive_sectional_paths(tq, length)

    def test_paths_longer_than_the_recursion_limit(self):
        # A directed 3-cycle without tau: one sectional path from each vertex.
        cycle = TranslationQuiver(Quiver([0, 1, 2], [(0, 1), (1, 2), (2, 0)]), {})
        length = sys.getrecursionlimit() + 500
        assert sectional_paths(cycle, length) == [
            tuple((start + i) % 3 for i in range(length + 1)) for start in range(3)
        ]


class TestPower:
    def test_first_power_keeps_arrows(self):
        for n, m in ((4, 1), (3, 2)):
            base = gamma(n, m)
            assert power(base, 1).arrows == base.arrows

    def test_octagon_square_contains_long_arrow(self):
        sq = power(gamma(6, 1), 2)
        assert sq.quiver.arrow_count((1, 4), (1, 6)) == 1

    def test_octagon_square_has_three_components(self):
        comps = split_components(power(gamma(6, 1), 2))
        assert [len(c.vertices) for c in comps] == [8, 6, 6]
        assert (1, 4) in comps[0].vertices
        assert (1, 3) in comps[1].vertices
        assert (2, 4) in comps[2].vertices

    def test_vertices_are_preserved(self):
        base = gamma(7, 1)
        for m in range(1, 5):
            assert power(base, m).vertices == base.vertices

    def test_powers_stay_stable(self):
        for n in range(2, 9):
            base = gamma(n, 1)
            for m in range(1, 4):
                res = validate_translation_quiver(power(base, m))
                assert res.ok and res.stable, (n, m)

    def test_translation_is_m_fold_composite(self):
        base = gamma(6, 1)
        sq = power(base, 2)
        for v in base.sorted_vertices():
            assert sq.tau_of(v) == base.tau_of(base.tau_of(v))
        assert compose_tau(base, 2) == dict(sq.tau)

    def test_multiplicities_match_brute_force(self):
        for n, m in ((6, 2), (5, 3), (8, 2)):
            base = gamma(n, 1)
            pw = power(base, m)
            for src in base.sorted_vertices():
                for tgt in base.sorted_vertices():
                    assert pw.quiver.arrow_count(src, tgt) == brute_sectional_count(
                        base, src, tgt, m
                    ), (n, m, src, tgt)

    @given(mixed_translation_quivers(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_counted_multiplicities_match_the_enumerated_paths(self, data, m):
        # Parallel arrows, self-loops and partial, non-injective tau.
        vertices, arrows, tau = data
        tq = TranslationQuiver(Quiver(vertices, arrows), tau)
        pw = power(tq, m)
        assert Counter(pw.arrows) == Counter((p[0], p[-1]) for p in sectional_paths(tq, m))
        ends = tq.sorted_vertices()
        for src in tq.sorted_vertices():
            got = [pw.quiver.arrow_count(src, tgt) for tgt in ends]
            assert got == [brute_sectional_count(tq, src, tgt, m) for tgt in ends]

    def test_power_multiplicities_at_most_one_on_these_instances(self):
        for n, m in ((6, 2), (6, 3), (10, 2)):
            pw = power(gamma(n, 1), m)
            assert len(set(pw.arrows)) == len(pw.arrows)


class TestClosedForm:
    """Powers of diagonal quivers in closed form, against the path count on a plain copy."""

    def test_equals_the_path_count_on_a_plain_copy(self):
        # Every gamma(n, s) of a polygon with at most 40 vertices.
        for s in range(1, 20):
            for n in range(2, 38 // s + 1):
                g = gamma(n, s)
                plain = TranslationQuiver(g.quiver, g.tau)
                for k in range(1, 9):
                    # __eq__ ignores the order of tau, so compare the listings.
                    assert _listings(power(g, k)) == _listings(power(plain, k)), (n, s, k)

    def test_power_is_a_diagonal_quiver_with_the_product_step(self):
        for n, s, k in ((5, 1, 3), (4, 3, 2), (12, 2, 7)):
            pw = power(gamma(n, s), k)
            assert isinstance(pw, DiagonalQuiver)
            assert (pw.N, pw.step) == (n * s + 2, s * k)
            again = power(pw, 2)
            assert isinstance(again, DiagonalQuiver) and again.step == 2 * s * k
            plain = TranslationQuiver(pw.quiver, pw.tau)
            assert _listings(again) == _listings(power(plain, 2))

    def test_translation_folds_both_ends_past_the_step(self):
        # The step 5 exceeds both ends of (1,3) in the 11-gon: tau^5 of gamma(9,1).
        pw = power(gamma(9, 1), 5)
        assert pw.tau_of((1, 3)) == (7, 9) == compose_tau(gamma(9, 1), 5)[1, 3]

    def test_other_inputs_take_the_path_count(self, monkeypatch):
        module = importlib.import_module("quiverkit.power")
        count, walked = module._count_sectional, []

        def spy(tq, m):
            walked.append(tq)
            return count(tq, m)

        monkeypatch.setattr(module, "_count_sectional", spy)
        power(gamma(6, 1), 2)
        assert walked == []
        quotient = orbit_quiver(3, 2, 1).quotient
        hand_built = TranslationQuiver(gamma(5, 1).quiver, gamma(5, 1).tau)
        for tq in (quotient, hand_built):
            pw = power(tq, 2)
            assert not isinstance(pw, DiagonalQuiver)
            assert Counter(pw.arrows) == Counter((p[0], p[-1]) for p in sectional_paths(tq, 2))
        assert walked == [quotient, hand_built]

    def test_split_parts_take_the_closed_form(self):
        # A part of a diagonal power is a diagonal quiver, so its powers are too.
        for part in split_components(power(gamma(6, 1), 2)):
            plain = TranslationQuiver(part.quiver, part.tau)
            for k in range(1, 5):
                pw = power(part, k)
                assert isinstance(pw, DiagonalQuiver)
                assert _listings(pw) == _listings(power(plain, k)), (len(part.vertices), k)


@pytest.fixture
def listing_builds(monkeypatch):
    """(N, step, vertex count) of each call of the diagonal-quiver listing builder."""
    module = importlib.import_module("quiverkit.polygon")
    build, calls = module._diagonal_listings, []

    def spy(N, step, verts):
        calls.append((N, step, len(verts)))
        return build(N, step, verts)

    monkeypatch.setattr(module, "_diagonal_listings", spy)
    return calls


class TestLazyListings:
    """Diagonal quivers build their arrows and tau on the first read, once."""

    def test_lazy_quivers_list_as_rebuilt(self, listing_builds):
        g = gamma(7, 2)
        pw = power(g, 3)
        parts = split_components(power(gamma(10, 1), 4))
        assert listing_builds == []
        for dq in [g, pw, *parts]:
            assert _listings(dq) == _listings(_rebuilt(dq))
            assert dq == _rebuilt(dq)
        sizes = [len(p.vertices) for p in parts]
        assert listing_builds == [(16, 2, 48), (16, 6, 48)] + [(12, 4, size) for size in sizes]

    def test_power_components_build_each_part_once(self, listing_builds, tmp_path):
        out = tmp_path / "parts.json"
        argv = ["power", "--n", "96", "--m", "2", "--components", "--out", str(out)]
        assert main(argv) == 0
        sizes = [len(c["vertices"]) for c in json.loads(out.read_text())["components"]]
        # Neither gamma(96, 1) (step 1) nor the whole power (all 4655 diagonals) is listed.
        assert listing_builds == [(98, 2, size) for size in sizes]
        assert len(sizes) == 3 and sum(sizes) == 98 * 95 // 2

    def test_vertices_and_equality_build_nothing(self, listing_builds):
        g = gamma(6, 2)
        principal, rest = _gamma_power_components(6, 2)
        assert (1, 4) in g.vertices and len(g.vertices) == 14 * 5 // 2
        assert g.vertices is g.vertices and set(g.sorted_vertices()) == g.vertices
        assert principal == g and g == principal
        assert principal != rest[0] and rest[0] != rest[1]
        assert listing_builds == []
        # The listed quiver takes the vertex set already made.
        assert g.quiver.vertices is g.vertices
        assert listing_builds == [(14, 2, 35)]

    def test_repr_builds_nothing(self, listing_builds):
        # Pytest reprs the operands of a failing assert, so a repr that listed
        # would report builds that the code under test never made.
        g = gamma(5, 2)
        part = split_components(power(gamma(10, 1), 4))[0]
        assert repr(g) == "DiagonalQuiver(N=12, step=2, 24 vertices)"
        assert repr(power(g, 2)) == "DiagonalQuiver(N=12, step=4, 24 vertices)"
        assert repr(part) == f"DiagonalQuiver(N=12, step=4, {len(part.vertices)} vertices)"
        assert listing_builds == []
        plain = TranslationQuiver(g.quiver, g.tau)
        assert repr(plain) == "TranslationQuiver(24 vertices, 36 arrows, stable tau on 24)"

    @pytest.mark.parametrize("n", [40, 46])
    def test_classify_lists_no_part_when_all_are_principal(self, listing_builds, n):
        report = classify_components(n, 1)
        assert report.principal_is_gamma and report.others == ()
        assert report.principal_size == (n + 2) * (n - 1) // 2
        assert listing_builds == []

    def test_classify_command_lists_nothing_for_46_1(self, listing_builds, tmp_path):
        out = tmp_path / "report.json"
        assert main(["classify", "--n", "46", "--m", "1", "--report", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["principal"] == {"size": 1080, "iso_gamma": True}
        assert listing_builds == []

    def test_classify_lists_only_the_searched_part(self, listing_builds):
        report = classify_components(6, 3)
        assert report.principal_is_gamma and [c.match is not None for c in report.others] == [True]
        assert listing_builds == [(20, 3, report.others[0].size)]


class TestDiagonalEquality:
    """``==`` between diagonal quivers answers from (N, step, vertices) as the listings would."""

    def test_equality_agrees_with_the_listings(self):
        quivers = []
        for n in range(2, 9):
            for m in range(1, 5):
                g = gamma(n, m)
                quivers.append(g)
                for k in range(1, 4):
                    pw = power(g, k)
                    quivers += [pw, *split_components(pw)]
        # Compared first, while the quivers are unlisted (but for pairs on the same
        # vertices with another N or step), then against the oracle.
        equal = [[a == b for b in quivers] for a in quivers]
        unequal = [[a != b for b in quivers] for a in quivers]
        plain = [_rebuilt(a) for a in quivers]
        hashes = [hash(a) for a in quivers]
        for a, pa, ha, row, urow in zip(quivers, plain, hashes, equal, unequal):
            assert a == pa and pa == a
            for pb, hb, eq, ne in zip(plain, hashes, row, urow):
                assert eq is (pa == pb)
                assert ne is not eq
                assert hb == ha or not eq

    def test_same_vertices_other_step_differ(self):
        for n, m in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            base = gamma(n * m, 1)
            pw = power(base, m)
            assert base.vertices == pw.vertices
            assert base != pw and pw != base
            assert _rebuilt(base) != _rebuilt(pw)

    def test_other_objects_are_not_compared(self):
        g = gamma(4, 1)
        assert g.__eq__(g.vertices) is NotImplemented
        assert g != g.vertices and g != g.quiver
        assert hash(g) == hash(_rebuilt(g))


class TestModuleName:
    def test_package_attribute_power_is_the_function(self):
        # quiverkit re-exports the function under its submodule's name, so
        # ``import quiverkit.power as p`` binds the function; importlib
        # reaches the module, whose ``power`` is that same function.
        import quiverkit.power as p

        module = importlib.import_module("quiverkit.power")
        assert p is quiverkit.power is power
        assert isinstance(module, types.ModuleType) and module.__name__ == "quiverkit.power"
        assert module.power is quiverkit.power


class TestDecompose:
    def test_first_power_of_connected_quiver_is_one_piece(self):
        comps = split_components(power(gamma(4, 1), 1))
        assert [len(c.vertices) for c in comps] == [9]

    def test_components_pass_validation(self):
        for comp in split_components(power(gamma(6, 1), 2)):
            res = validate_translation_quiver(comp)
            assert res.ok and res.stable

    def test_component_through_1_4_is_octagon_quiver(self):
        comps = split_components(power(gamma(6, 1), 2))
        big = next(c for c in comps if (1, 4) in c.vertices)
        assert iso_translation_quivers(big, gamma(3, 2)) is not None

    def test_square_diagonals_stay_together(self):
        # gamma(2,1) has no arrows; the translation alone ties its two
        # vertices into one component.
        comps = split_components(power(gamma(2, 1), 1))
        assert [len(c.vertices) for c in comps] == [2]


class TestPrincipalComponent:
    def test_octagon_case(self):
        comp = _gamma_power_components(3, 2)[0]
        assert iso_translation_quivers(comp, gamma(3, 2)) is not None

    def test_three_divisible_diagonals_of_the_octagon(self):
        comp = _gamma_power_components(2, 3)[0]
        assert sorted(comp.vertices) == [(1, 5), (2, 6), (3, 7), (4, 8)]

    def test_first_power_returns_the_quiver_itself(self):
        comp = _gamma_power_components(4, 1)[0]
        assert comp.vertices == gamma(4, 1).vertices
        assert comp.arrows == gamma(4, 1).arrows

    def test_theorem_sweep_small(self):
        # Sectional paths in gamma(n*m, 1) are straight, so the principal
        # component is gamma(n, m) itself, not merely a copy of it.
        pairs = _theorem_pairs() + [(40, 1), (46, 1)]
        assert len(pairs) == 25
        for n, m in pairs:
            assert _gamma_power_components(n, m)[0] == gamma(n, m), (n, m)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("QUIVERKIT_CAP", "50")
        with pytest.raises(SizeCapError):
            _gamma_power_components(10, 2)

    def test_failed_iso_fails_the_sweep_under_optimize(self):
        # ``python -O`` strips asserts; a principal component that is not
        # gamma(n, m) must still fail the verify sweep there.  The stub
        # moves one tau pair of the largest power component, which for
        # (n, m) = (2, 1) is the principal one.
        code = (
            "import importlib\n"
            "from quiverkit.quiver import TranslationQuiver, split_components\n"
            "power = importlib.import_module('quiverkit.power')\n"
            "def moved_tau(tq):\n"
            "    comps = split_components(tq)\n"
            "    v = comps[0].sorted_vertices()[0]\n"
            "    moved = TranslationQuiver(comps[0].quiver, {**comps[0].tau, v: v})\n"
            "    return [moved] + comps[1:]\n"
            "power.split_components = moved_tau\n"
            "from quiverkit.verify import check_power_theorem_sweep\n"
            "print(*check_power_theorem_sweep())\n"
        )
        src = os.path.dirname(os.path.dirname(quiverkit.__file__))
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert proc.stdout.startswith("False failed at (n,m)=(2,1): component"), proc.stdout

    def test_sweep_compares_the_closed_form_with_the_path_count(self, monkeypatch):
        module = importlib.import_module("quiverkit.power")
        closed_form = module._diagonal_quiver

        def fixed_first_vertex(N, step, verts):
            tq = closed_form(N, step, verts)
            return TranslationQuiver(tq.quiver, {**tq.tau, verts[0]: verts[0]})

        monkeypatch.setattr(module, "_diagonal_quiver", fixed_first_vertex)
        ok, detail = check_power_theorem_sweep()
        assert not ok
        assert detail == "power(gamma(2,1), 1) differs from its sectional-path count"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            _gamma_power_components(1, 1)
        with pytest.raises(ValueError):
            power(gamma(4, 1), 0)
