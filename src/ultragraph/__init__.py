"""Sequences of transfinite graphs, their nonstandard limits, and
hyperreal operating points of the resistive networks living on them.

The pieces, bottom up:

* :mod:`ultragraph.indexsets` — decidable algebra of finite/cofinite,
  eventually periodic, and sampled subsets of the naturals;
* :mod:`ultragraph.oracle` — a deterministic stand-in for one
  nonprincipal ultrafilter, with pinning and an audit trail;
* :mod:`ultragraph.sequences` — eventually periodic and rule-generated
  sequence descriptors, agreement sets, trait certificates;
* :mod:`ultragraph.hyperreal` — sequence classes as hyperreal and
  hypernatural numbers;
* :mod:`ultragraph.graphs` — standard transfinite graphs up to rank
  omega, validation, truncation, extremities;
* :mod:`ultragraph.ultrapower` — graph families, nonstandard extremities
  and nodes, whole nonstandard graphs;
* :mod:`ultragraph.network` — resistive networks, nodal analysis,
  nonstandard operating points, circuit-law verification;
* :mod:`ultragraph.project` / :mod:`ultragraph.cli` — the project file
  format and the command line driver.

:mod:`ultragraph.network` loads on first use: reading it, or one of its
names below, from the package imports it, so building and classifying
never do (and numpy loads only when a network is solved).
"""

from .errors import (
    BeyondHorizon,
    DivisionByZeroClass,
    DuplicateId,
    EmptyNetwork,
    IncompatibleTower,
    InconsistentPin,
    InvariantBreach,
    NoCertificate,
    NotAnExtremity,
    NotAPartition,
    NumericalFailure,
    ProjectError,
    ProjectSyntaxError,
    RankTooHigh,
    SolverFailure,
    TraitViolated,
    UltragraphError,
    Undecidable,
    UnresolvedReference,
)
from .indexsets import IndexSet
from .oracle import FilterOracle, Membership
from .sequences import (
    INJECTIVE_BEYOND,
    MONOTONE,
    UNBOUNDED,
    GeneratedSeq,
    PeriodicSeq,
    agreement_set,
    constant,
    generated,
    named_generator,
    periodic,
    trait_check,
)
from .hyperreal import Hypernatural, Hyperreal, MagnitudeClass, hr_eq
from .graphs import (
    OMEGA,
    OMEGA_ARROW,
    Extremity,
    StandardGraph,
    StandardNode,
    TowerScheme,
    ValidationReport,
    extremities,
    shorted_std,
    truncate,
    validate,
)
from .ultrapower import (
    ExtremityClass,
    GraphFamily,
    NsExtremity,
    NsGraph,
    NsLayer,
    NsNode,
    build_ns_graph,
    build_ns_nodes,
    classify,
    constant_extremity,
    ns_extremity,
    ns_shorted,
    omega_exceptional_query,
    omega_tip_query,
)
from .project import Project, parse_project, serialize

__version__ = "0.1.0"

_NETWORK_NAMES = (
    "Branch",
    "LawReport",
    "NsNetwork",
    "OperatingPoint",
    "StandardNetwork",
    "StandardSolution",
    "operating_point",
    "solve_standard",
    "verify_laws",
)


def __getattr__(name: str):
    """The network module and its public names, imported on first use."""
    if name == "network" or name in _NETWORK_NAMES:
        from importlib import import_module

        network = import_module(".network", __name__)
        return network if name == "network" else getattr(network, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | {"network", *_NETWORK_NAMES}
)
