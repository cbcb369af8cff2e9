"""In-memory spans around quiverkit's layer boundaries, installed from outside.

:class:`Rebinder` swaps a function for a replacement at *every* binding
in the loaded ``quiverkit`` modules (a name imported into four modules
is four bindings; a class attribute aliased under two names is two), and
puts the originals back on exit.  :class:`Tracer` uses it to wrap the
public functions of every module and a few methods, recording for each
call a span ``[name, start, end, parent, job, status, size, info]``.
:func:`layer_metrics` turns the spans of one pass into the per-layer
metrics listed in ``BENCHMARK.json``.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import sys
from bisect import bisect
from collections import defaultdict
from itertools import accumulate
from time import perf_counter

LAYERS = ("quiver", "polygon", "power", "iso", "orbit", "mutation", "export", "verify", "cli")

# Per-element helpers called hundreds of thousands of times per job from
# inside the layers' loops.  A span each would cost more than their work,
# and they are not layer boundaries.
HOT = {
    "quiver.vertex_key", "quiver.vertex_label", "quiver.arrow_key",
    "polygon.normalize_pair", "polygon.cyclic_gap", "polygon.is_diagonal",
    "polygon.is_m_diagonal", "polygon.crossing",
}

# Methods wrapped by (module, class, attribute) -> span name.  Every
# class attribute bound to the same function gets the wrapper, so the
# aliases __radd__ and __rmul__ are covered.
METHODS = {
    ("quiver", "Quiver", "__init__"): "quiver.Quiver",
    ("mutation", "LaurentFraction", "__add__"): "mutation.fraction_ops",
    ("mutation", "LaurentFraction", "__mul__"): "mutation.fraction_ops",
    ("mutation", "LaurentFraction", "__truediv__"): "mutation.fraction_ops",
    ("mutation", "LaurentFraction", "__pow__"): "mutation.fraction_ops",
    ("mutation", "LaurentFraction", "render"): "mutation.render",
}

# verify's check functions are not wrapped: verify._CHECKS holds them
# too and run_checks compares one by identity, so a wrapper would change
# what runs.  Their times come from CheckResult.seconds.
CHECK_NAMES = (
    "hexagon-quiver", "octagon-vertices", "octagon-power-components",
    "power-theorem-sweep", "power-stability-sweep", "orbit-model-pinning",
    "mutation-involution", "mutation-closure", "counting", "angulations",
    "row-property", "classification-hypothesis",
)

NAME, START, END, PARENT, JOB, STATUS, SIZE, INFO = range(8)


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "quiverkit" or n.startswith("quiverkit.")]


class Rebinder:
    """Replace functions at every binding in quiverkit; restore on exit."""

    def __init__(self, replacements: dict):
        self._repl = {id(f): (f, r) for f, r in replacements.items()}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for holder in _modules() + [c for m in _modules() for c in vars(m).values() if inspect.isclass(c)]:
            for attr, val in list(vars(holder).items()):
                hit = self._repl.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((holder, attr, val))
                    setattr(holder, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for holder, attr, val in reversed(self._undo):
            setattr(holder, attr, val)
        self._undo.clear()
        return False


def _size_of(name: str):
    """What a span records about its call: (status, size, info) from args and result."""
    if name == "iso.iso_translation_quivers":
        return lambda a, k, r: ("ok" if r is not None else "fail", len(a[0].vertices), None)
    if name == "orbit.orbit_quiver":
        return lambda a, k, r: ("ok", r.vertex_count, None)
    if name in ("power.sectional_paths", "quiver.split_components", "polygon.enumerate_angulations"):
        return lambda a, k, r: ("ok", len(r), None)
    if name == "mutation.enumerate_cluster_variables":
        return lambda a, k, r: ("ok", r.seed_count, None)
    if name == "orbit.classify_components":
        return lambda a, k, r: (
            "ok", int(r.principal_is_gamma) + sum(c.match is not None for c in r.others), None)
    if name == "verify.run_checks":
        return lambda a, k, r: ("ok", len(r), {c.name: c.seconds for c in r})
    return None


class Tracer:
    """Records spans of wrapped quiverkit calls; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._rebinder = Rebinder(self._wrappers())

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, _size_of(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, "ok", 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                span[STATUS] = "error"
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if measure is not None:
                try:
                    span[STATUS], span[SIZE], span[INFO] = measure(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    span[STATUS] = "unmeasured"  # the call's shape changed; never fail the job
            return result

        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        traced.__module__, traced.__doc__, traced.__wrapped__ = fn.__module__, fn.__doc__, fn
        return traced

    def _wrappers(self) -> dict:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"quiverkit.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") or name in HOT
                        or (layer == "verify" and attr.startswith("check_"))):
                    continue
                wrappers[fn] = self._wrap(name, fn)
        for (layer, cls, attr), name in METHODS.items():
            fn = vars(getattr(sys.modules[f"quiverkit.{layer}"], cls))[attr]
            wrappers[fn] = self._wrap(name, fn)
        return wrappers

    def __enter__(self):
        self.spans.clear()
        self._rebinder.__enter__()
        return self

    def __exit__(self, *exc):
        return self._rebinder.__exit__(*exc)


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def layer_metrics(spans: list[list], output_bytes: int,
                  pauses: list[tuple[float, float]] = ()) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``.calls`` counts spans; ``.s`` sums durations of spans not nested in
    a span of the same name (so recursion and an operator calling another
    are not counted twice); ``.self_s`` is duration minus the time covered
    by direct child spans.  Durations leave out ``pauses``, sorted
    (start, end) intervals that the benchmark spent on its own work
    inside the pass; each lies wholly inside or outside any span.
    """
    ends = [end for _, end in pauses]
    paused = list(accumulate((end - start for start, end in pauses), initial=0.0))

    def duration(s) -> float:
        return s[END] - s[START] - (paused[bisect(ends, s[END])] - paused[bisect(ends, s[START])])

    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    child: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration(s)

    iso_in_classify = mutate_in_closure = 0
    checks: dict[str, float] = {}
    for i, s in enumerate(spans):
        name, dur = s[NAME], duration(s)
        ancestors = {spans[p][NAME] for p in _ancestors(spans, i)}
        keys = {name, f"{name}.{s[STATUS]}"} if name == "iso.iso_translation_quivers" else {name}
        for k in keys:
            calls[k] += 1
            size[k] += s[SIZE]
            if name not in ancestors:
                secs[k] += dur
        self_s[name] += dur - child[i]
        if name.startswith("export.") and not any(a.startswith("export.") for a in ancestors):
            calls["export"] += 1
            secs["export"] += dur
        if name == "iso.iso_translation_quivers" and "orbit.classify_components" in ancestors:
            iso_in_classify += 1
        if name == "mutation.mutate_seed" and "mutation.enumerate_cluster_variables" in ancestors:
            mutate_in_closure += 1
        if s[INFO] and name == "verify.run_checks":
            checks.update(s[INFO])

    iso = "iso.iso_translation_quivers"
    closures = "mutation.enumerate_cluster_variables"
    out = {
        "iso.ok.calls": calls[f"{iso}.ok"], "iso.ok.s": secs[f"{iso}.ok"],
        "iso.fail.calls": calls[f"{iso}.fail"], "iso.fail.s": secs[f"{iso}.fail"],
        "iso.error.calls": calls[f"{iso}.error"], "iso.error.s": secs[f"{iso}.error"],
        "iso.vertices": size[iso],
        "iso.ok_ratio": calls[f"{iso}.ok"] / calls[iso] if calls[iso] else 0.0,
        "orbit.orbit_quiver.calls": calls["orbit.orbit_quiver"],
        "orbit.orbit_quiver.s": secs["orbit.orbit_quiver"],
        "orbit.orbit_quiver.vertices": size["orbit.orbit_quiver"],
        "orbit.classify.self_s": self_s["orbit.classify_components"],
        "orbit.iso_per_match": (
            iso_in_classify / size["orbit.classify_components"]
            if size["orbit.classify_components"] else 0.0),
        "mutation.mutate_seed.calls": calls["mutation.mutate_seed"],
        "mutation.mutate_seed.s": secs["mutation.mutate_seed"],
        "mutation.fraction_ops.calls": calls["mutation.fraction_ops"],
        "mutation.fraction_ops.s": secs["mutation.fraction_ops"],
        "mutation.render.s": secs["mutation.render"],
        "mutation.closure.self_s": self_s[closures],
        "mutation.seeds": size[closures],
        "mutation.new_seed_ratio": (
            (size[closures] - calls[closures]) / mutate_in_closure if mutate_in_closure else 0.0),
        "quiver.Quiver.calls": calls["quiver.Quiver"],
        "quiver.Quiver.s": secs["quiver.Quiver"],
        "quiver.validate.calls": calls["quiver.validate_translation_quiver"],
        "quiver.validate.s": secs["quiver.validate_translation_quiver"],
        "quiver.split_components.s": secs["quiver.split_components"],
        "quiver.components": size["quiver.split_components"],
        "power.sectional_paths.calls": calls["power.sectional_paths"],
        "power.sectional_paths.s": secs["power.sectional_paths"],
        "power.sectional_paths.paths": size["power.sectional_paths"],
        "power.power.self_s": self_s["power.power"],
        "power.decompose.s": secs["power.decompose"],
        "power.principal_component.s": secs["power.principal_component"],
        "polygon.gamma.calls": calls["polygon.gamma"],
        "polygon.gamma.s": secs["polygon.gamma"],
        "polygon.angulations.s": secs["polygon.enumerate_angulations"],
        "polygon.angulations.results": size["polygon.enumerate_angulations"],
        "export.calls": calls["export"],
        "export.s": secs["export"],
        "export.bytes": output_bytes,
        "cli.self_s": self_s["cli.main"],
        "verify.run_checks.s": secs["verify.run_checks"],
    }
    for name in CHECK_NAMES:
        out[f"verify.check.{name}.s"] = checks.get(name, 0.0)
    out["trace.spans"] = len(spans)
    return out


# Metrics that count work; they must repeat exactly between traced passes.
COUNTS = tuple(
    k for k in layer_metrics([], 0)
    if k.endswith((".calls", ".vertices", ".paths", ".results", ".components", ".seeds", ".bytes",
                   "_ratio", ".iso_per_match", ".spans"))
)
