"""Combinatorics of translation quivers at desk scale.

Diagonal quivers of polygons, their powers via sectional paths, finite
orbit quotients of the infinite strip, and cluster-algebra mutation,
with deterministic DOT/JSON output and a named verification suite.

The package attribute ``power`` is the function, not the submodule of
the same name: callers and tests write ``from quiverkit import power``,
so the name stays the function.  Reach the module, e.g. to patch its
globals, with ``importlib.import_module("quiverkit.power")``.
"""

from .config import default_vertex_cap
from .errors import QuiverkitError, SizeCapError
from .export import quiver_json_dict, to_dot, to_json
from .iso import check_iso, iso_translation_quivers
from .mutation import (
    ClosureResult,
    ExchangeMatrix,
    LaurentFraction,
    Seed,
    a_path_matrix,
    counting_check,
    enumerate_cluster_variables,
    initial_cluster,
    initial_seed,
    mutate_matrix,
    mutate_seed,
    variables,
)
from .orbit import (
    ComponentMatch,
    ComponentReport,
    OrbitQuiver,
    classify_components,
    orbit_quiver,
)
from .polygon import (
    crossing,
    cyclic_gap,
    diagonals,
    enumerate_angulations,
    gamma,
    is_diagonal,
    is_m_diagonal,
    m_diagonals,
    normalize_pair,
    row_of,
)
from .power import compose_tau, is_sectional, power, sectional_paths
from .quiver import (
    Quiver,
    TranslationQuiver,
    ValidationResult,
    Violation,
    split_components,
    tau_orbits,
    validate_translation_quiver,
    vertex_key,
    vertex_label,
)
from .verify import CheckResult, check_names, run_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ClosureResult",
    "ComponentMatch",
    "ComponentReport",
    "ExchangeMatrix",
    "LaurentFraction",
    "OrbitQuiver",
    "Quiver",
    "QuiverkitError",
    "Seed",
    "SizeCapError",
    "TranslationQuiver",
    "ValidationResult",
    "Violation",
    "a_path_matrix",
    "check_iso",
    "check_names",
    "classify_components",
    "compose_tau",
    "counting_check",
    "crossing",
    "cyclic_gap",
    "default_vertex_cap",
    "diagonals",
    "enumerate_angulations",
    "enumerate_cluster_variables",
    "gamma",
    "initial_cluster",
    "initial_seed",
    "is_diagonal",
    "is_m_diagonal",
    "is_sectional",
    "iso_translation_quivers",
    "m_diagonals",
    "mutate_matrix",
    "mutate_seed",
    "normalize_pair",
    "orbit_quiver",
    "power",
    "quiver_json_dict",
    "row_of",
    "run_checks",
    "sectional_paths",
    "split_components",
    "tau_orbits",
    "to_dot",
    "to_json",
    "validate_translation_quiver",
    "variables",
    "vertex_key",
    "vertex_label",
]
