"""Size caps.

The default vertex cap (5000) guards the isomorphism search and bounds
the split of ``power(gamma(n*m, 1), m)`` that ``classify_components``
and verify's power checks run on outside input: they refuse an (n, m)
before building ``gamma(n*m, 1)`` when it would have more vertices than
the cap.  ``QUIVERKIT_CAP`` in the environment overrides it, and is
the only way to set it, for library calls as well as the command line:
no function takes a vertex cap argument.  The builders ``gamma``,
``power`` and ``orbit_quiver`` are not capped.
Angulation enumeration refuses, before it lists any, an (n, m) whose
Fuss-Catalan count times ``n + m`` exceeds ``ANGULATION_WORK_CAP``
(3000000), which nothing overrides: that product tracks the time of the
listing, and below it no input has more angulations than the 246675 of
the 20-gon's quadrangulations, so memory stays near the 208012
triangulations of the 14-gon (about 320 MB).  The mutation closure stops
at its seed cap (10000 seeds by default, ``mutate --cap``).  Every cap
must be positive: a cap below 1 is a ``ValueError``, which the command
line reports as a usage error.
"""

from __future__ import annotations

import os

DEFAULT_VERTEX_CAP = 5000
ANGULATION_WORK_CAP = 3_000_000
DEFAULT_SEED_CAP = 10000


def default_vertex_cap() -> int:
    """Vertex cap from ``QUIVERKIT_CAP``, else 5000.

    Raises ``ValueError`` naming the variable when it is not a positive
    integer.
    """
    raw = os.environ.get("QUIVERKIT_CAP")
    if raw is None or not raw.strip():
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"QUIVERKIT_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"QUIVERKIT_CAP must be positive, got {raw!r}")
    return cap
