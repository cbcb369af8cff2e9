"""Deterministic DOT and JSON rendering of (translation) quivers."""

from __future__ import annotations

import json

from .quiver import Quiver, TranslationQuiver, vertex_label


def quiver_json_dict(tq: TranslationQuiver | Quiver) -> dict:
    """``{"vertices": [...], "arrows": [[src, tgt], ...], "tau": {...}}``.

    Labels follow the package-wide vertex order that the quiver already
    holds, so equal quivers serialize to identical bytes.
    """
    q, tau = (tq, {}) if isinstance(tq, Quiver) else (tq.quiver, tq.tau)
    return {
        "vertices": [vertex_label(v) for v in q.sorted_vertices()],
        "arrows": [[vertex_label(s), vertex_label(t)] for s, t in q.arrows],
        "tau": {vertex_label(y): vertex_label(ty) for y, ty in tau.items()},
    }


def _dump(payload: dict) -> str:
    """The package's JSON text: two-space indent and a final newline."""
    return json.dumps(payload, indent=2) + "\n"


def to_json(tq: TranslationQuiver | Quiver, **extra) -> str:
    """JSON text with optional extra top-level keys placed first."""
    payload = dict(extra)
    payload.update(quiver_json_dict(tq))
    return _dump(payload)


def to_dot(tq: TranslationQuiver | Quiver, name: str = "quiver") -> str:
    """One digraph; solid arrows, dashed ``tau`` edges from y to tau(y)."""
    q, tau = (tq, {}) if isinstance(tq, Quiver) else (tq.quiver, tq.tau)
    lines = [f"digraph {name} {{"]
    for v in q.sorted_vertices():
        lines.append(f'  "{vertex_label(v)}";')
    for s, t in q.arrows:
        lines.append(f'  "{vertex_label(s)}" -> "{vertex_label(t)}";')
    for y, ty in tau.items():
        lines.append(
            f'  "{vertex_label(y)}" -> "{vertex_label(ty)}"'
            ' [style=dashed, label="tau"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def components_json_dict(parts: list[TranslationQuiver], **extra) -> dict:
    payload = dict(extra)
    payload["components"] = [quiver_json_dict(p) for p in parts]
    return payload


def components_dot(parts: list[TranslationQuiver]) -> str:
    return "".join(to_dot(p, name=f"component_{i}") for i, p in enumerate(parts))
