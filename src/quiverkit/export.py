"""Deterministic DOT and JSON rendering of translation quivers.

Each JSON writer returns exactly ``json.dumps(<dict form>, indent=2) + "\\n"``,
the dict form of a quiver being :func:`quiver_json_dict` after any extra keys.
As indenting keeps ``json`` off its C encoder, the writers join the lists from
labels rendered and escaped once per quiver.  Each writer renders the labels of
the sorted vertices in one pass, then looks up arrow and tau ends, which are
vertices (the :mod:`~quiverkit.quiver` constructors enforce it).  A vertex that
is a pair of ``int`` (exactly, not a ``bool`` or other subclass) renders
directly as ``"(i,j)"``, which is both its JSON string and its DOT ID, as it
holds nothing to escape; any other vertex goes through :func:`vertex_label`.
Extra values are dumped and indented one level, which is exact: ``json`` puts
no raw newline in a string.  The writers take translation quivers only; a
plain quiver ``q`` writes as ``TranslationQuiver(q, {})``, with an empty
``"tau"``.

Each document is joined once.  An array of rendered items is one
``sep.join`` of them, and an array or object of nested values is a list
of pieces, so that the final ``"".join`` of a document's pieces, or the
``"\\n".join`` of its DOT lines, is the only copy of its full text.  The
``"arrows"`` and ``"angulations"`` arrays are each one ``%`` format of their
items' templates (one per arrow, one per angulation size) over all labels.
"""

from __future__ import annotations

import json
from itertools import chain
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
    """The quoted label of each vertex, entered in sorted order: ``render`` unless an int pair."""
    return {
        v: '"(%d,%d)"' % v
        if type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is int
        else render(v)
        for v in tq.sorted_vertices()
    }


def _join(items: list[str], depth: int, brackets: str = "[]") -> list[str]:
    """The pieces of a JSON array (or object, with ``"{}"``) of rendered items at ``depth``."""
    if not items:
        return [brackets]
    pad = "\n" + "  " * (depth + 1)
    return [brackets[0] + pad, ("," + pad).join(items), "\n" + "  " * depth + brackets[1]]


def _filled(templates: list[str], depth: int, label: dict, items: list[tuple]) -> list[str]:
    """The pieces of a JSON array of ``templates`` at ``depth``, filled by labels of ``items``."""
    return ["".join(_join(templates, depth)) % tuple(map(label.__getitem__, chain(*items)))]


def _nest(values: list[list[str]], depth: int, brackets: str = "[]") -> list[str]:
    """The pieces of a JSON array (or object) of values given as pieces, at ``depth``."""
    if not values:
        return [brackets]
    pad = "\n" + "  " * (depth + 1)
    pieces = [brackets[0] + pad]
    for value in values:
        pieces += value
        pieces.append("," + pad)
    pieces[-1] = "\n" + "  " * depth + brackets[1]
    return pieces


def _object(members: dict[str, list[str]], depth: int) -> list[str]:
    """The pieces of a JSON object of encoded keys and values given as pieces."""
    return _nest([[k + ": ", *v] for k, v in members.items()], depth, "{}")


def _document(extra: dict, members: dict[str, list[str]]) -> str:
    """JSON text of ``extra`` updated (as by ``dict.update``) by the pieces of ``members``."""
    head = {_encode(k): [json.dumps(v, indent=2).replace("\n", "\n  ")] for k, v in extra.items()}
    pieces = _object(head | members, 0)
    pieces.append("\n")
    return "".join(pieces)


def _quiver_members(tq: TranslationQuiver, depth: int) -> dict[str, list[str]]:
    """The pieces of each member of :func:`quiver_json_dict` in an object at ``depth``."""
    lab = _labels(tq, lambda v: _encode(vertex_label(v)))
    arrow = "".join(_join(["%s", "%s"], depth + 2))
    # A dict first, so that equal labels collapse as in the dict form.
    tau = {lab[y]: lab[ty] for y, ty in tq.tau.items()}
    return {
        '"vertices"': _join(list(lab.values()), depth + 1),
        '"arrows"': _filled([arrow] * len(tq.arrows), depth + 1, lab, tq.arrows),
        '"tau"': _join([k + ": " + v for k, v in tau.items()], depth + 1, "{}"),
    }


def to_json(tq: TranslationQuiver, /, **extra) -> str:
    """JSON text with optional extra top-level keys placed first."""
    return _document(extra, _quiver_members(tq, 0))


def components_json(parts: list[TranslationQuiver], /, **extra) -> str:
    """JSON text of the extra keys and ``"components"``, one quiver object each."""
    quivers = [_object(_quiver_members(p, 2), 2) for p in parts]
    return _document(extra, {'"components"': _nest(quivers, 1)})


def angulations_json(found: list[tuple[tuple[int, int], ...]], /, **extra) -> str:
    """JSON text of the extra keys and ``"angulations"``, each a list of ``[i, j]``."""
    diagonal = _Rendered(lambda d: "".join(_join([json.dumps(i) for i in d], 3)))
    # One template per angulation size, "[]" for size 0, filled by one format.
    template = _Rendered(lambda size: "".join(_join(["%s"] * size, 2)))
    array = _filled([template[len(c)] for c in found], 1, diagonal, found)
    return _document(extra, {'"angulations"': array})


def _dot_id(v) -> str:
    """A vertex label as a DOT double-quoted ID, ``\\`` and ``"`` escaped."""
    return '"' + vertex_label(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(tq: TranslationQuiver, name: str) -> list[str]:
    """The lines of one digraph, its closing ``}`` last."""
    lab = _labels(tq, _dot_id)
    lines = [f"digraph {name} {{"]
    lines += [f"  {v};" for v in lab.values()]
    lines += [f"  {lab[s]} -> {lab[t]};" for s, t in tq.arrows]
    lines += [f'  {lab[y]} -> {lab[ty]} [style=dashed, label="tau"];' for y, ty in tq.tau.items()]
    lines.append("}")
    return lines


def to_dot(tq: TranslationQuiver, name: str = "quiver") -> str:
    """One digraph; solid arrows, dashed ``tau`` edges from y to tau(y)."""
    lines = _dot_lines(tq, name)
    lines.append("")
    return "\n".join(lines)


def components_dot(parts: list[TranslationQuiver]) -> str:
    """One digraph per part, named ``component_<i>``, one after the other."""
    lines = []
    for i, p in enumerate(parts):
        lines += _dot_lines(p, f"component_{i}")
    lines.append("")
    return "\n".join(lines)
