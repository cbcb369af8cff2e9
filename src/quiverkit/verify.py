"""Named end-to-end checks over the whole package.

Each check re-derives a hand-checkable fixture or sweeps a family of
instances.  ``run_checks`` executes them in declaration order and the
command line prints one pass/fail line per check, and every check gates
the exit code.  ``classification-hypothesis`` checks that the isomorphism
test confirms the closed-form component law on every classified power
component, for one (n, m) in each residue of m modulo 4.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from .iso import check_iso, iso_translation_quivers
from .mutation import (
    ExchangeMatrix,
    LaurentFraction,
    a_path_matrix,
    counting_check,
    enumerate_cluster_variables,
    initial_seed,
    mutate_matrix,
    mutate_seed,
)
from .orbit import _component_law, _diagonal_labels, classify_components, orbit_quiver
from .polygon import enumerate_angulations, gamma, row_of
from .power import _count_sectional, _gamma_power_components, power
from .quiver import validate_translation_quiver

# The diagonal quiver of the hexagon, frozen from the drawn picture:
# 9 diagonals, 12 arrows, translation (i,j) -> (i-1,j-1).
HEXAGON_VERTICES = frozenset(
    [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]
)
HEXAGON_ARROWS = frozenset(
    [
        ((1, 3), (1, 4)),
        ((1, 4), (1, 5)),
        ((1, 4), (2, 4)),
        ((1, 5), (2, 5)),
        ((2, 4), (2, 5)),
        ((2, 5), (2, 6)),
        ((2, 5), (3, 5)),
        ((2, 6), (3, 6)),
        ((3, 5), (3, 6)),
        ((3, 6), (1, 3)),
        ((3, 6), (4, 6)),
        ((4, 6), (1, 4)),
    ]
)
HEXAGON_TAU = {
    (1, 3): (2, 6),
    (1, 4): (3, 6),
    (1, 5): (4, 6),
    (2, 4): (1, 3),
    (2, 5): (1, 4),
    (2, 6): (1, 5),
    (3, 5): (2, 4),
    (3, 6): (2, 5),
    (4, 6): (3, 5),
}

OCTAGON_VERTICES = frozenset(
    [(1, 4), (3, 6), (5, 8), (2, 7), (1, 6), (3, 8), (2, 5), (4, 7)]
)

CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


def check_hexagon_quiver() -> tuple[bool, str]:
    tq = gamma(4, 1)
    ok = (
        tq.vertices == HEXAGON_VERTICES
        and frozenset(tq.arrows) == HEXAGON_ARROWS
        and len(tq.arrows) == len(HEXAGON_ARROWS)
        and dict(tq.tau) == {v: HEXAGON_TAU[v] for v in HEXAGON_TAU}
        and tq.quiver.arrow_count((1, 3), (1, 4)) == 1
        and tq.quiver.arrow_count((1, 4), (1, 5)) == 1
        and tq.quiver.arrow_count((1, 5), (2, 5)) == 1
        and tq.tau_of((2, 4)) == (1, 3)
        and tq.tau_of((2, 6)) == (1, 5)
    )
    res = validate_translation_quiver(tq)
    ok = ok and res.ok and res.stable
    return ok, f"{len(tq.vertices)} vertices, {len(tq.arrows)} arrows, exact match"


def check_octagon_vertices() -> tuple[bool, str]:
    tq = gamma(3, 2)
    ok = tq.vertices == OCTAGON_VERTICES
    return ok, f"vertex set of gamma(3,2) = {sorted(tq.vertices)}"


def check_octagon_power_components() -> tuple[bool, str]:
    big, rest = _gamma_power_components(3, 2)
    sizes = [len(c.vertices) for c in (big, *rest)]
    ok = sizes == [8, 6, 6] and big == gamma(3, 2)
    if ok:
        reference = orbit_quiver(3, 0, 1).quotient
        ok = all(iso_translation_quivers(small, reference) is not None for small in rest)
    return ok, f"component sizes {sizes}; (1,4)-component is gamma(3,2)"


def _theorem_pairs() -> list[tuple[int, int]]:
    return [(n, m) for n in range(2, 13) for m in range(1, 13) if n * m + 2 <= 14]


def check_power_theorem_sweep() -> tuple[bool, str]:
    pairs = _theorem_pairs()
    for n, m in pairs:
        # power() of a diagonal quiver is a closed form; the sectional-path
        # count is the independent oracle for it.
        base = gamma(n * m, 1)
        if power(base, m) != _count_sectional(base, m):
            return False, f"power(gamma({n * m},1), {m}) differs from its sectional-path count"
        # Two diagonal quivers: == answers from N, step and vertices and
        # lists nothing.  Their listings are one function of those three, so
        # the answer is the one their listings would give.
        if _gamma_power_components(n, m)[0] != gamma(n, m):
            return False, (
                f"failed at (n,m)=({n},{m}): component through (1, {m + 2}) of the "
                f"{m}-th power of gamma({n * m},1) is not gamma({n},{m})"
            )
    return True, (
        f"{len(pairs)} pairs (n,m) with n*m+2 <= 14, all equal to gamma(n,m); "
        "closed-form powers equal the sectional-path count"
    )


def check_power_stability_sweep() -> tuple[bool, str]:
    tried = 0
    for n in range(2, 11):
        base = gamma(n, 1)
        for m in range(1, 5):
            res = validate_translation_quiver(power(base, m))
            if not (res.ok and res.stable):
                return False, f"power(gamma({n},1),{m}) is not a stable translation quiver"
            tried += 1
    return True, f"{tried} powers validated, all stable"


def _pinning_pairs() -> list[tuple[int, int]]:
    return [(k, m) for k in range(1, 12) for m in range(1, 13) if (k + 1) * m <= 12]


def check_orbit_model_pinning() -> tuple[bool, str]:
    pairs = _pinning_pairs()
    for k, m in pairs:
        oq = orbit_quiver(k, 1, m)
        if not check_iso(oq.quotient, gamma(k + 1, m), _diagonal_labels(oq, m)):
            return False, f"orbit_quiver({k},1,{m}) is not gamma({k + 1},{m})"
    return True, f"{len(pairs)} quotients match gamma(k+1,m), incl. (3,1,1) and (2,1,2)"


def random_sign_skew_matrix(rng: random.Random, n: int) -> ExchangeMatrix:
    """Random sign-skew-symmetric integer matrix with entries up to 4.

    ``rng`` is a ``random.Random``, which ``verify --seed`` seeds; the
    check's result and detail text do not depend on the seed.
    """
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                continue
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            if rng.random() < 0.5:
                m[i][j], m[j][i] = a, -b
            else:
                m[i][j], m[j][i] = -a, b
    return ExchangeMatrix(m)


def check_mutation_involution(seed: int = 2024) -> tuple[bool, str]:
    rng = random.Random(seed)
    for trial in range(200):
        n = rng.randint(1, 6)
        M = random_sign_skew_matrix(rng, n)
        for k in range(1, n + 1):
            if mutate_matrix(mutate_matrix(M, k), k) != M:
                return False, f"matrix involution failed at trial {trial}, k={k}"
    for n in range(1, 4):
        s0 = initial_seed(a_path_matrix(n))
        for k in range(1, n + 1):
            once = mutate_seed(s0, k)
            if mutate_seed(once, k) != s0:
                return False, f"seed involution failed for A_{n}, k={k}"
            for k2 in range(1, n + 1):
                deeper = mutate_seed(once, k2)
                if mutate_seed(deeper, k2) != once:
                    return False, f"seed involution failed for A_{n}, path ({k},{k2})"
    return True, "200 random matrices and all A_1..A_3 seeds involutive"


def check_mutation_closure() -> tuple[bool, str]:
    res2 = enumerate_cluster_variables(ExchangeMatrix([[0, 1], [-1, 0]]))
    expected = {
        LaurentFraction.from_expr(e, 2)
        for e in ("u_1", "u_2", "(1+u_2)/u_1", "(1+u_1)/u_2", "(1+u_1+u_2)/(u_1*u_2)")
    }
    ok = res2.variables == frozenset(expected) and not res2.cap_reached
    res3 = enumerate_cluster_variables(a_path_matrix(3))
    ok = ok and len(res3.variables) == 9 and not res3.cap_reached
    laurent = all(x.is_laurent() for x in res2.variables | res3.variables)
    ok = ok and laurent
    return ok, (
        f"A_2 -> {len(res2.variables)} variables, A_3 -> {len(res3.variables)}, "
        f"all Laurent: {laurent}"
    )


def check_counting() -> tuple[bool, str]:
    results = {n: counting_check(n) for n in range(1, 5)}
    return all(results.values()), (
        "variable and cluster counts equal diagonal and triangulation counts for n in 1..4"
    )


def check_angulations() -> tuple[bool, str]:
    for n in range(2, 7):
        found = enumerate_angulations(n, 1)
        if len(found) != CATALAN[n]:
            return False, f"{len(found)} triangulations of the {n + 2}-gon, expected {CATALAN[n]}"
        if any(len(t) != n - 1 for t in found):
            return False, f"a triangulation of the {n + 2}-gon is not of size {n - 1}"
    quads = enumerate_angulations(3, 2)
    if len(quads) != 12 or any(len(t) != 2 for t in quads):
        return False, f"{len(quads)} quadrangulations of the octagon, expected 12"
    return True, "Catalan counts 2,5,14,42,132 and 12 octagon quadrangulations"


def check_row_property() -> tuple[bool, str]:
    for n, m in ((2, 3), (3, 3)):
        N = n * m + 2
        principal, rest = _gamma_power_components(n, m)
        rows: dict[int, set[int]] = {}
        for idx, comp in enumerate((principal, *rest)):
            for v in comp.vertices:
                rows.setdefault(row_of(v, N), set()).add(idx)
        bad = {r: c for r, c in rows.items() if len(c) != 1}
        if bad:
            return False, f"(n,m)=({n},{m}): rows split across components: {bad}"
    return True, "each row of gamma(n*m,1) sits in one component for (2,3) and (3,3)"


def check_classification_hypothesis() -> tuple[bool, str]:
    """Classified power components against ``orbit._component_law``.

    ``classify_components`` takes each normal form from the law, so this
    passes iff the principal component is gamma(n, m) and the isomorphism
    test confirms every form: each component has a match, and the normal
    forms (k, s + (k+1)(r//2), r % 2) of the matches are the law's, in
    component order.
    """
    notes = []
    for n, m in ((2, 3), (4, 3), (2, 5), (3, 2), (2, 4)):
        report = classify_components(n, m)
        matches = [c.match for c in report.others]
        forms = None if None in matches else [
            (k, s + (k + 1) * (r // 2), r % 2) for k, s, r in matches
        ]
        law = _component_law(n, m)
        if not report.principal_is_gamma or forms != law:
            return False, (
                f"(n,m)=({n},{m}): principal is gamma: {report.principal_is_gamma}, "
                f"normal forms {forms}, law {law}"
            )
        matched = ", ".join("%d->(k=%d,s=%d,r=%d)" % (c.size, *c.match) for c in report.others)
        notes.append(f"(n,m)=({n},{m}): {matched}")
    return True, "principal = gamma(n,m), the others follow the component law: " + "; ".join(notes)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


_CHECKS: list[tuple[str, Callable[..., tuple[bool, str]]]] = [
    ("hexagon-quiver", check_hexagon_quiver),
    ("octagon-vertices", check_octagon_vertices),
    ("octagon-power-components", check_octagon_power_components),
    ("power-theorem-sweep", check_power_theorem_sweep),
    ("power-stability-sweep", check_power_stability_sweep),
    ("orbit-model-pinning", check_orbit_model_pinning),
    ("mutation-involution", check_mutation_involution),
    ("mutation-closure", check_mutation_closure),
    ("counting", check_counting),
    ("angulations", check_angulations),
    ("row-property", check_row_property),
    ("classification-hypothesis", check_classification_hypothesis),
]


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_checks(only: str | None = None, seed: int = 2024) -> list[CheckResult]:
    """Run the named checks (all, or those whose name contains ``only``)."""
    results = []
    for name, fn in _CHECKS:
        if only is not None and only not in name:
            continue
        t0 = time.perf_counter()
        try:
            if fn is check_mutation_involution:
                ok, detail = fn(seed=seed)
            else:
                ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
    return results
