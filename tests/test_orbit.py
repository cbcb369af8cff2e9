"""The infinite strip model, orbit quotients and component classification."""

import pytest

import quiverkit.iso
import quiverkit.orbit
import quiverkit.verify
from quiverkit import (
    Quiver,
    SizeCapError,
    TranslationQuiver,
    check_iso,
    classify_components,
    gamma,
    iso_translation_quivers,
    normalize_pair,
    orbit_quiver,
    power,
    split_components,
    validate_translation_quiver,
    vertex_key,
)
from quiverkit.orbit import _component_law, _diagonal_labels, _match_component
from quiverkit.verify import _pinning_pairs, check_orbit_model_pinning


def strip_arrows(k, v):
    """The arrows of the k-row strip out of ``v = (p, i)``: to (p, i+1) and (p+1, i-1)."""
    p, i = v
    return [w for w in ((p, i + 1), (p + 1, i - 1)) if 1 <= w[1] <= k]


def strip_tau(v):
    """The strip's translation tau(p, i) = (p-1, i)."""
    return (v[0] - 1, v[1])


def strip_shift(k, v):
    """The shift [1](p, i) = (p + i, k + 1 - i) of the k-row strip."""
    p, i = v
    return (p + i, k + 1 - i)


def window_orbit_count(k, s, r):
    """Brute-force orbit count: union-find over a finite window.

    Every orbit crosses the core strip and forms a single chain inside
    the window, so counting classes that meet the core is exact.
    """
    def act(v):
        for _ in range(r):
            v = strip_shift(k, v)
        return (v[0] + s, v[1])

    step = max(act((0, i))[0] for i in range(1, k + 1))
    core = 2 * step + 2
    width = core + 3 * step + 3

    verts = [(p, i) for p in range(-width, width + 1) for i in range(1, k + 1)]
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in verts:
        w = act(v)
        if w in parent:
            ra, rb = find(v), find(w)
            if ra != rb:
                parent[ra] = rb

    classes = {}
    for v in verts:
        classes.setdefault(find(v), []).append(v)
    return sum(
        1 for cls in classes.values() if any(0 <= p <= core for p, _ in cls)
    )


def walked_orbit_quiver(k, s, r):
    """Reference quotient: apply g = tau^-s ∘ [r] one step at a time.

    The representatives are the vertices v with v.p >= 0 and
    g^-1(v).p < 0, and every strip vertex is folded onto one by walking
    g, the construction ``orbit_quiver`` replaced by its closed form.
    """
    def act(v):
        for _ in range(r):
            v = strip_shift(k, v)
        return (v[0] + s, v[1])

    def act_inv(v):
        p, i = v[0] - s, v[1]
        for _ in range(r):
            p, i = p - (k + 1) + i, k + 1 - i
        return (p, i)

    reps = []
    for i in range(1, k + 1):
        p = 0
        while act_inv((p, i))[0] < 0:
            reps.append((p, i))
            p += 1

    def normalize(v):
        while v[0] < 0:
            v = act(v)
        while act_inv(v)[0] >= 0:
            v = act_inv(v)
        return v

    arrows = []
    tau = {}
    for c in sorted(reps, key=vertex_key):
        for t in strip_arrows(k, c):
            arrows.append((c, normalize(t)))
        tau[c] = normalize(strip_tau(c))
    return TranslationQuiver(Quiver(set(reps), arrows), tau)


def searched_matches(comp, n, m):
    """Reference matcher: every (k, s, r) with orbit_quiver(k, s, r) ~ comp.

    k ranges over 1..n*m-1 and r over 1..m; for fixed (k, r) the quotient
    size grows strictly with s, so s is scanned until the sizes pass the
    component size.  All size-matching triples are iso-tested.
    """
    size = len(comp.vertices)
    matches = []
    for k in range(1, n * m):
        for r in range(1, m + 1):
            s = 0
            while True:
                oq = orbit_quiver(k, s, r)
                if oq.vertex_count > size:
                    break
                if oq.vertex_count == size and iso_translation_quivers(
                    comp, oq.quotient
                ):
                    matches.append((k, s, r))
                s += 1
    return tuple(sorted(matches))


def non_principal_components(n, m):
    comps = split_components(power(gamma(n * m, 1), m))
    return [c for c in comps if (1, m + 2) not in c.vertices]


def zd_quotient(n, period):
    """ZD_n / tau^-period: a stable translation quiver of tree class D_n."""
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    verts = [(p, i) for p in range(period) for i in range(1, n + 1)]
    arrows = [
        arrow
        for p in range(period)
        for i, j in edges
        for arrow in (((p, i), (p, j)), ((p, j), ((p + 1) % period, i)))
    ]
    tau = {(p, i): ((p - 1) % period, i) for p, i in verts}
    return TranslationQuiver(Quiver(verts, arrows), tau)


def normal_form(k, s, r):
    """(k, S, rho) with tau^-s ∘ [r] = tau^-S ∘ [rho] on the k-row strip."""
    return (k, s + (k + 1) * (r // 2), r % 2)


class TestShift:
    """The strip rule of the tests' oracle, checked against the strip's own facts."""

    def test_moves_to_next_triangle(self):
        assert strip_shift(3, (0, 1)) == (1, 3)
        assert strip_shift(3, strip_shift(3, (0, 1))) == (4, 1)

    def test_single_row_shift_is_inverse_translation(self):
        for p in range(-3, 4):
            assert strip_shift(1, (p, 1)) == (p + 1, 1)

    def test_double_shift_is_inverse_translation_power(self):
        for k in range(1, 9):
            width = 3 * (k + 1)
            for p in range(-width, width):
                for i in range(1, k + 1):
                    assert strip_shift(k, strip_shift(k, (p, i))) == (p + k + 1, i)

    def test_shift_commutes_with_translation(self):
        for p in range(-6, 7):
            for i in range(1, 5):
                v = (p, i)
                assert strip_shift(4, strip_tau(v)) == strip_tau(strip_shift(4, v))

    def test_shift_preserves_arrows(self):
        for k in (2, 3, 5):
            for p in range(-5, 6):
                for i in range(1, k + 1):
                    v = (p, i)
                    for w in strip_arrows(k, v):
                        assert strip_shift(k, w) in strip_arrows(k, strip_shift(k, v))


class TestOrbitQuiver:
    def test_six_vertex_quotient(self):
        assert orbit_quiver(3, 0, 1).vertex_count == 6

    def test_rank_one_cluster_case(self):
        oq = orbit_quiver(1, 1, 1)
        assert oq.vertex_count == 2
        assert oq.quotient.arrows == ()

    def test_almost_positive_root_counts(self):
        for k in range(1, 7):
            oq = orbit_quiver(k, 1, 1)
            assert oq.vertex_count == k * (k + 3) // 2
            assert oq.vertex_count == len(gamma(k + 1, 1).vertices)

    def test_quotients_are_stable_translation_quivers(self):
        for k, s, r in ((3, 0, 1), (2, 1, 2), (4, 2, 1), (1, 3, 0), (3, 1, 3)):
            res = validate_translation_quiver(orbit_quiver(k, s, r).quotient)
            assert res.ok and res.stable, (k, s, r)

    def test_counts_match_window_union_find_oracle(self):
        for k in range(1, 5):
            for s in range(0, 4):
                for r in range(0, 4):
                    if (s, r) == (0, 0):
                        continue
                    assert orbit_quiver(k, s, r).vertex_count == window_orbit_count(
                        k, s, r
                    ), (k, s, r)

    def test_closed_form_agrees_with_walking_the_action(self):
        # The walked quotient sorts through the public constructors, so equal
        # listings pin the order in which orbit_quiver lists without sorting.
        # r <= 8 takes S = s + (k+1)*(r // 2) up to r // 2 = 4; (60, 70, 2)
        # folds down at the seam (rho = 0), (60, 0, 1) has S = 0 and (1, 70, 1)
        # one row.
        grid = [
            (k, s, r)
            for k in range(1, 9)
            for s in range(0, 6)
            for r in range(0, 9)
            if (s, r) != (0, 0)
        ]
        for k, s, r in grid + [(12, 5, 1), (60, 70, 1), (60, 70, 2), (60, 0, 1), (1, 70, 1)]:
            got = orbit_quiver(k, s, r).quotient
            expected = walked_orbit_quiver(k, s, r)
            assert got.sorted_vertices() == expected.sorted_vertices(), (k, s, r)
            assert got.arrows == expected.arrows, (k, s, r)
            assert list(got.tau.items()) == list(expected.tau.items()), (k, s, r)

    def test_pinning_against_diagonal_quivers(self):
        # The search stays the oracle for the closed-form map φ.
        for k, m in _pinning_pairs():
            quotient, target = orbit_quiver(k, 1, m).quotient, gamma(k + 1, m)
            phi = iso_translation_quivers(quotient, target)
            assert phi is not None and check_iso(quotient, target, phi), (k, m)

    def test_closed_form_map_is_an_isomorphism(self):
        pairs = [(k, m) for m in range(1, 31) for k in range(1, 60) if (k + 1) * m <= 60]
        assert len(pairs) == 201
        for k, m in pairs:
            oq = orbit_quiver(k, 1, m)
            assert check_iso(oq.quotient, gamma(k + 1, m), _diagonal_labels(oq, m)), (k, m)

    def test_closed_form_map_off_by_one_is_rejected(self, monkeypatch):
        def shifted(oq, m):
            # φ with its second endpoint one vertex further round.
            N = (oq.k + 1) * m + 2
            return {
                (p, i): normalize_pair((1 + m * p, 3 + m * (p + i)), N)
                for p, i in oq.quotient.sorted_vertices()
            }

        for k, m in _pinning_pairs():
            oq = orbit_quiver(k, 1, m)
            assert not check_iso(oq.quotient, gamma(k + 1, m), shifted(oq, m)), (k, m)
        monkeypatch.setattr(quiverkit.verify, "_diagonal_labels", shifted)
        assert check_orbit_model_pinning() == (
            False, "orbit_quiver(1,1,1) is not gamma(2,1)"
        )

    def test_pure_translation_quotient_is_a_tube(self):
        oq = orbit_quiver(2, 3, 0)  # tau^-3 on two rows: directed 6-cycle
        assert oq.vertex_count == 6
        q = oq.quotient.quiver
        assert all(q.out_degree(v) == 1 and q.in_degree(v) == 1 for v in q.vertices)

    def test_identity_action_is_rejected(self):
        with pytest.raises(ValueError):
            orbit_quiver(3, 0, 0)
        with pytest.raises(ValueError):
            orbit_quiver(3, -1, 1)
        # Checked before s and r: without it, k = 0 would give an empty quotient.
        with pytest.raises(ValueError, match=r"^need k >= 1, got k=0$"):
            orbit_quiver(0, 1, 1)

    def test_construction_is_deterministic(self):
        a = orbit_quiver(3, 2, 1).quotient
        b = orbit_quiver(3, 2, 1).quotient
        assert a == b


class TestClassification:
    def test_octagon_square_case(self):
        report = classify_components(3, 2)
        assert report.principal_size == 8 and report.principal_is_gamma
        assert [c.size for c in report.others] == [6, 6]
        for comp in report.others:
            assert comp.match == (3, 0, 1)
        assert _component_law(3, 2) == [(3, 0, 1), (3, 0, 1)]

    def test_first_power_has_no_other_components(self):
        report = classify_components(4, 1)
        assert report.principal_size == 9 and report.principal_is_gamma
        assert report.others == ()

    def test_cube_of_the_octagon_diagonals(self):
        report = classify_components(2, 3)
        assert report.principal_size == 4 and report.principal_is_gamma
        assert [c.size for c in report.others] == [16]
        assert report.others[0].match == (2, 5, 2)
        # The odd-m formula's (r, s) = (1, 2) gives no 16-vertex quotient;
        # (2, 5, 2) is tau^-2 ∘ [4], i.e. (s, r) = (s_f, m + 1).
        assert normal_form(*report.others[0].match) == normal_form(2, 2, 4) == (2, 8, 0)

    def test_every_odd_m_component_is_matched(self):
        for n, m in ((2, 3), (3, 3), (2, 5)):
            report = classify_components(n, m)
            assert report.principal_is_gamma
            assert all(c.match is not None for c in report.others), (n, m)

    def test_json_report_shape(self):
        d = classify_components(3, 2).to_json_dict()
        assert d["schema"] == "quiverkit/1"
        assert list(d) == ["schema", "n", "m", "principal", "others"]
        assert (d["n"], d["m"]) == (3, 2)
        assert d["principal"] == {"size": 8, "iso_gamma": True}
        assert d["others"] == [
            {"size": 6, "match": {"k": 3, "s": 0, "r": 1}},
            {"size": 6, "match": {"k": 3, "s": 0, "r": 1}},
        ]

    def test_odd_json_report_shape(self):
        d = classify_components(2, 3).to_json_dict()
        assert list(d) == ["schema", "n", "m", "principal", "others"]
        assert d["principal"] == {"size": 4, "iso_gamma": True}
        assert d["others"] == [{"size": 16, "match": {"k": 2, "s": 5, "r": 2}}]

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("QUIVERKIT_CAP", "20")
        with pytest.raises(SizeCapError):
            classify_components(4, 3)


class TestNormalFormMatcher:
    def assert_agrees_with_search(self, comp, form, n, m):
        got = _match_component(comp, form, n, m)
        expected = searched_matches(comp, n, m)
        assert got.all_matches == expected
        assert got.match == (expected[0] if expected else None)

    def test_orbit_quotient_grid_agrees_with_search(self):
        # From k = 2: an arrowless (k = 1) quotient has two normal forms,
        # (1, S, 0) and (1, S - 1, 1), so one form cannot list all its
        # matches.  No power component is arrowless, as the law's k is n >= 2.
        for k in range(2, 5):
            for s in range(0, 4):
                for r in range(0, 4):
                    if (s, r) == (0, 0):
                        continue
                    comp = orbit_quiver(k, s, r).quotient
                    for n, m in ((2, 1), (2, 2), (2, 3)):
                        self.assert_agrees_with_search(comp, normal_form(k, s, r), n, m)

    def test_classify_components_agree_with_search(self):
        for n, m in ((2, 3), (3, 2), (2, 4), (3, 3), (2, 5)):
            report = classify_components(n, m)
            comps = non_principal_components(n, m)
            assert [c.size for c in report.others] == [len(c.vertices) for c in comps]
            for got, comp in zip(report.others, comps):
                expected = searched_matches(comp, n, m)
                assert got.all_matches == expected, (n, m)
                assert got.match == expected[0], (n, m)

    def test_one_quotient_and_one_iso_per_component(self, monkeypatch):
        calls = {"orbit": 0, "iso": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            quiverkit.orbit, "orbit_quiver", counting("orbit", orbit_quiver)
        )
        monkeypatch.setattr(
            quiverkit.orbit,
            "iso_translation_quivers",
            counting("iso", iso_translation_quivers),
        )
        report = classify_components(2, 6)
        assert len(report.others) == 6
        # None for the principal, which is compared with gamma(2, 6) by equality.
        assert calls == {"orbit": 6, "iso": 6}

    @pytest.mark.parametrize(
        "n, m, expected",
        [(4, 3, 2), (6, 3, 2), (5, 3, 3), (2, 5, 4), (6, 2, 4), (2, 3, 2), (3, 2, 6)],
    )
    def test_refinement_calls_per_classify(self, monkeypatch, n, m, expected):
        # Pins the search effort: a weaker refinement (say, one that drops
        # the tags or the tau links from the rows) still finds every match,
        # but only after more individualizations, each one more _refine call.
        calls = 0
        refine = quiverkit.iso._refine

        def counting(*args):
            nonlocal calls
            calls += 1
            return refine(*args)

        monkeypatch.setattr(quiverkit.iso, "_refine", counting)
        classify_components(n, m)
        assert calls == expected

    def test_duplicate_matches_of_one_automorphism(self):
        # tau^-9 ∘ [4] and tau^-13 ∘ [2] are both tau^-17 on three rows.
        report = classify_components(3, 5)
        assert len(report.others) == 2
        for comp in report.others:
            assert comp.all_matches == ((3, 9, 4), (3, 13, 2))

    def test_unmatched_component(self):
        # ZD_6 / tau^-4 has the strip invariants of ZA_4 / tau^-6 (24
        # vertices, 12 of in-degree 1) but a vertex of in-degree 3, so the
        # one iso test fails.
        comp = zd_quotient(6, 4)
        assert validate_translation_quiver(comp).stable
        self.assert_agrees_with_search(comp, (4, 6, 0), 3, 2)
        assert _match_component(comp, (4, 6, 0), 3, 2).match is None

    def test_classify_certifies_the_law(self, monkeypatch):
        # classify takes its forms from the law, and the iso test must
        # reject a wrong one rather than report it.
        law = quiverkit.orbit._component_law
        monkeypatch.setattr(
            quiverkit.orbit,
            "_component_law",
            lambda n, m: [(k, S + 1, rho) for k, S, rho in law(n, m)],
        )
        for n, m in ((2, 3), (3, 2), (2, 4), (2, 6)):
            others = classify_components(n, m).others
            assert others and all(c.match is None for c in others), (n, m)
        ok, detail = quiverkit.verify.check_classification_hypothesis()
        assert not ok and "None" in detail

        # A law with one form too few must raise, not drop a component.
        monkeypatch.setattr(quiverkit.orbit, "_component_law", lambda n, m: law(n, m)[:-1])
        with pytest.raises(ValueError, match="shorter"):
            classify_components(2, 4)


def law_pairs(max_ngon):
    """Every (n, m) with n >= 2, m >= 1 and n*m + 2 <= max_ngon."""
    return [(n, m) for m in range(1, max_ngon) for n in range(2, max_ngon) if n * m + 2 <= max_ngon]


class TestComponentLaw:
    def test_classification_follows_the_law(self):
        # Every residue of m mod 4; CI runs the same comparison up to 60-gons.
        pairs = law_pairs(26)
        assert len(pairs) == 60
        for n, m in pairs:
            report = classify_components(n, m)
            assert report.principal_is_gamma, (n, m)
            forms = [normal_form(*c.match) for c in report.others]
            assert forms == _component_law(n, m), (n, m)
            if m % 2:
                # The least match is (n, s_f + n + 1, 2 r_f) for the odd-m
                # formula's (r_f, s_f), i.e. tau^-s_f ∘ [m + 1].
                r_f, s_f = (m - 1) // 2, (m - 1) * (n - 1) // 2 + 1
                assert len(report.others) == r_f, (n, m)
                for comp in report.others:
                    assert comp.match == (n, s_f + n + 1, 2 * r_f), (n, m)
                    assert normal_form(*comp.match) == normal_form(n, s_f, m + 1), (n, m)

    def test_law_in_each_residue(self):
        assert _component_law(4, 1) == []
        assert _component_law(2, 3) == [(2, 8, 0)]
        assert _component_law(2, 5) == [(2, 12, 0)] * 2
        assert _component_law(3, 2) == [(3, 0, 1)] * 2
        assert _component_law(2, 4) == [(2, 5, 0)] * 3
        assert _component_law(2, 6) == [(2, 7, 0)] * 4 + [(2, 2, 1)] * 2
