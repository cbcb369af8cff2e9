"""Acceptance suite: every named verify check, the stated runtime budgets
and the package's public names.

The checks come from verify's own table, so a check added there is
asserted here too.  Budgets are asserted on warm in-process timings.
"""

import time
import types

import pytest

import quiverkit
from quiverkit import (
    check_names,
    gamma,
    iso_translation_quivers,
    power,
    run_checks,
    split_components,
)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def timed(fn, repeats=3):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_check(name):
    [result] = run_checks(only=name)
    return result


@pytest.mark.parametrize("name", check_names())
def test_check(name):
    # Includes the classification check: the principal component is
    # gamma(n, m), and the isomorphism test confirms the closed-form
    # component law on every other component.
    result = run_check(name)
    report(name, result.ok, result.detail)


def test_a_raising_check_is_a_failure(monkeypatch):
    def broken():
        raise KeyError("x")

    monkeypatch.setattr(quiverkit.verify, "_CHECKS", [("broken", broken)])
    [result] = run_checks()
    assert (result.name, result.ok) == ("broken", False)
    assert result.detail.startswith("raised KeyError:")


def test_01_hexagon_fixture():
    elapsed = timed(lambda: gamma(4, 1))
    report("hexagon fixture", elapsed < 0.001, f"{elapsed * 1e6:.0f}us")


def test_03_power_decomposition_fixture():
    def work():
        comps = split_components(power(gamma(6, 1), 2))
        big = next(c for c in comps if (1, 4) in c.vertices)
        iso_translation_quivers(big, gamma(3, 2))

    elapsed = timed(work)
    report("octagon power decomposition", elapsed < 0.050, f"{elapsed * 1e3:.1f}ms")


def test_04_theorem_sweep():
    elapsed = run_check("power-theorem-sweep").seconds
    report("theorem sweep", elapsed < 10.0, f"{elapsed:.2f}s")


def test_07_mutation():
    names = ("mutation-involution", "mutation-closure", "counting")
    elapsed = sum(run_check(name).seconds for name in names)
    report("mutation", elapsed < 5.0, f"{elapsed:.2f}s")


def test_all_lists_the_public_names():
    # Sorted with no repeats, and exactly the package attributes that are
    # public and not submodules.
    names = quiverkit.__all__
    assert names == sorted(set(names))
    public = {
        name for name, value in vars(quiverkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
