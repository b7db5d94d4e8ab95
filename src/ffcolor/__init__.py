"""ffcolor: deterministic finitary colorings of lattices with verified locality.

The package builds proper colorings of Z^d windows (and bounded-degree graphs)
where every output color is a pure function of iid site labels in a finite
neighborhood, records exactly which labels each query touched, and ships the
audits that check properness, net geometry, tiling invariants, and empirical
coding-radius tails.
"""

from .field import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    LabelField,
    PerturbedField,
    TrackedEvaluation,
    TrackedField,
    Tracker,
    tracked,
)
from .lattice import FiniteGraph, LatticeSpec, Window, WindowGraph
from .covfree import (
    ColorSequence,
    SetFamily,
    color_sequence,
    cover_free_constant,
)
from .reduction import (
    MNet,
    NetQuery,
    NetWindow,
    TowerQuery,
    TowerWindow,
    almost_coloring,
    net_window,
    tower_color_at,
    tower_coloring,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "LabelField",
    "PerturbedField",
    "TrackedEvaluation",
    "TrackedField",
    "Tracker",
    "tracked",
    "FiniteGraph",
    "LatticeSpec",
    "Window",
    "WindowGraph",
    "ColorSequence",
    "SetFamily",
    "color_sequence",
    "cover_free_constant",
    "MNet",
    "NetQuery",
    "NetWindow",
    "TowerQuery",
    "TowerWindow",
    "almost_coloring",
    "net_window",
    "tower_color_at",
    "tower_coloring",
]

__version__ = "0.1.0"
