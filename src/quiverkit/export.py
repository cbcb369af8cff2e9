"""Deterministic DOT and JSON rendering of translation quivers.

Each JSON writer returns exactly ``json.dumps(<dict form>, indent=2) + "\\n"``,
the dict form of a quiver being :func:`quiver_json_dict` after any extra keys.
As indenting keeps ``json`` off its C encoder, the writers join the lists from
labels rendered and escaped once per quiver.  Each writer renders the labels of
the sorted vertices in one pass, then looks up arrow and tau ends, which are
vertices (the :mod:`~quiverkit.quiver` constructors enforce it).  Extra values
are dumped and indented one level, which is exact: ``json`` puts no raw newline
in a string.  The writers take translation quivers only; a plain quiver ``q``
writes as ``TranslationQuiver(q, {})``, with an empty ``"tau"``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode

from .quiver import TranslationQuiver, vertex_label

SCHEMA = "quiverkit/1"


def quiver_json_dict(tq: TranslationQuiver) -> dict:
    """``{"vertices": [...], "arrows": [[src, tgt], ...], "tau": {...}}``.

    Labels follow the package-wide vertex order that the quiver already
    holds, so equal quivers serialize to identical bytes.
    """
    return {
        "vertices": [vertex_label(v) for v in tq.sorted_vertices()],
        "arrows": [[vertex_label(s), vertex_label(t)] for s, t in tq.arrows],
        "tau": {vertex_label(y): vertex_label(ty) for y, ty in tq.tau.items()},
    }


def _dump(payload: dict) -> str:
    """The package's JSON text: two-space indent and a final newline."""
    return json.dumps(payload, indent=2) + "\n"


class _Rendered(dict):
    """Key -> text, rendered at the first lookup of the key."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        return self.setdefault(key, self.render(key))


def _labels(tq: TranslationQuiver, render) -> dict:
    """``render`` of each vertex, entered in sorted order."""
    vertices = tq.sorted_vertices()
    return dict(zip(vertices, map(render, vertices)))


def _join(items: list[str] | dict[str, str], depth: int) -> str:
    """A JSON array of rendered items, or object of encoded keys and rendered values."""
    brackets = "[]"
    if isinstance(items, dict):
        brackets, items = "{}", [k + ": " + v for k, v in items.items()]
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _document(extra: dict, members: dict[str, str]) -> str:
    """JSON text of ``extra`` updated (as by ``dict.update``) by rendered ``members``."""
    head = {_encode(k): json.dumps(v, indent=2).replace("\n", "\n  ") for k, v in extra.items()}
    return _join(head | members, 0) + "\n"


def _quiver_members(tq: TranslationQuiver, depth: int) -> dict[str, str]:
    """The rendered members of :func:`quiver_json_dict` in an object at ``depth``."""
    lab = _labels(tq, lambda v: _encode(vertex_label(v)))
    arrow = _join(["%s", "%s"], depth + 2)
    return {
        '"vertices"': _join(list(lab.values()), depth + 1),
        '"arrows"': _join([arrow % (lab[s], lab[t]) for s, t in tq.arrows], depth + 1),
        # A dict first, so that equal labels collapse as in the dict form.
        '"tau"': _join({lab[y]: lab[ty] for y, ty in tq.tau.items()}, depth + 1),
    }


def to_json(tq: TranslationQuiver, /, **extra) -> str:
    """JSON text with optional extra top-level keys placed first."""
    return _document(extra, _quiver_members(tq, 0))


def components_json(parts: list[TranslationQuiver], /, **extra) -> str:
    """JSON text of the extra keys and ``"components"``, one quiver object each."""
    quivers = [_join(_quiver_members(p, 2), 2) for p in parts]
    return _document(extra, {'"components"': _join(quivers, 1)})


def angulations_json(found: list[tuple[tuple[int, int], ...]], /, **extra) -> str:
    """JSON text of the extra keys and ``"angulations"``, each a list of ``[i, j]``."""
    diagonal = _Rendered(lambda d: _join([json.dumps(i) for i in d], 3))
    # _join(..., 2) of each angulation, its pads made once.
    open_, sep, close = "[\n      ", ",\n      ", "\n    ]"
    angulations = [
        open_ + sep.join(map(diagonal.__getitem__, coll)) + close if coll else "[]"
        for coll in found
    ]
    return _document(extra, {'"angulations"': _join(angulations, 1)})


def _dot_id(v) -> str:
    """A vertex label as a DOT double-quoted ID, ``\\`` and ``"`` escaped."""
    return '"' + vertex_label(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(tq: TranslationQuiver, name: str = "quiver") -> str:
    """One digraph; solid arrows, dashed ``tau`` edges from y to tau(y)."""
    lab = _labels(tq, _dot_id)
    lines = [f"digraph {name} {{"]
    lines += [f"  {v};" for v in lab.values()]
    lines += [f"  {lab[s]} -> {lab[t]};" for s, t in tq.arrows]
    lines += [f'  {lab[y]} -> {lab[ty]} [style=dashed, label="tau"];' for y, ty in tq.tau.items()]
    return "\n".join(lines) + "\n}\n"


def components_dot(parts: list[TranslationQuiver]) -> str:
    return "".join(to_dot(p, name=f"component_{i}") for i, p in enumerate(parts))
