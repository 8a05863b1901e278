"""repro — Gracefully Degradable Pipeline Networks.

A complete reproduction of Cypher & Laing, *Gracefully Degradable Pipeline
Networks* (IPPS 1997): the node-labeled graph model, every construction
(``G(1,k)``, ``G(2,k)``, ``G(3,k)``, the Lemma 3.6 extension operator, the
special solutions, the Section 3.4 asymptotic circulant construction), the
degree lower bounds, exhaustive/sampled verification, constructive
reconfiguration, related-work baselines, and a fault-injecting
discrete-event pipeline simulator.

Quickstart::

    import repro

    net = repro.build(22, 4)                  # G(22,4), Figure 14
    pl = repro.reconfigure(net, ["c3", "ti2"])  # route around two faults
    assert pl.length == len(net.processors) - 1

    cert = repro.verify_exhaustive_parallel(repro.build(6, 2))
    assert cert.is_proof                      # machine proof of 2-GD
"""

from .core.bounds import (
    check_necessary_conditions,
    degree_lower_bound,
    is_degree_optimal,
)
from .core.constructions import (
    build,
    build_asymptotic,
    build_clique_chain,
    build_g1k,
    build_g2k,
    build_g3k,
    build_special,
    construction_plan,
    extend,
    extend_iterated,
    merge_terminals,
)
from .core.edge_faults import (
    find_pipeline_with_edge_faults,
    reduce_mixed_faults,
    verify_reduced_edge_model_exhaustive,
)
from .core.hamilton import SolvePolicy, find_pipeline, has_pipeline
from .core.model import NodeKind, PipelineNetwork
from .core.pipeline import Pipeline, is_pipeline
from .core.reconfigure import reconfigure
from .core.session import ReconfigurationSession
from .core.witnesses import disprove_gd, find_fatal_witness
from .core.verify import (
    VerificationCertificate,
    verify_exhaustive,
    verify_sampled,
)
from .errors import (
    BudgetExceededError,
    ConstructionUnavailableError,
    InvalidParameterError,
    NotStandardError,
    ReconfigurationError,
    ReproError,
    ServiceOverloadError,
    SimulationError,
    VerificationError,
)
from .service import (
    ControlPlane,
    ControlPlaneConfig,
    MetricsSnapshot,
    PipelineAnswer,
    TieredWitnessCache,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "NodeKind",
    "PipelineNetwork",
    "Pipeline",
    "is_pipeline",
    # constructions
    "build",
    "construction_plan",
    "build_g1k",
    "build_g2k",
    "build_g3k",
    "build_special",
    "build_asymptotic",
    "build_clique_chain",
    "extend",
    "extend_iterated",
    "merge_terminals",
    # bounds
    "degree_lower_bound",
    "is_degree_optimal",
    "check_necessary_conditions",
    # solving / verification / reconfiguration
    "SolvePolicy",
    "find_pipeline",
    "has_pipeline",
    "reconfigure",
    "ReconfigurationSession",
    "verify_exhaustive",
    "verify_exhaustive_parallel",
    "verify_sampled",
    "VerificationCertificate",
    # edge faults & witnesses
    "reduce_mixed_faults",
    "find_pipeline_with_edge_faults",
    "verify_reduced_edge_model_exhaustive",
    "find_fatal_witness",
    "disprove_gd",
    # control plane
    "ControlPlane",
    "ControlPlaneConfig",
    "PipelineAnswer",
    "MetricsSnapshot",
    "TieredWitnessCache",
    # errors
    "ReproError",
    "InvalidParameterError",
    "ConstructionUnavailableError",
    "NotStandardError",
    "BudgetExceededError",
    "VerificationError",
    "ReconfigurationError",
    "SimulationError",
    "ServiceOverloadError",
]


def __getattr__(name: str):
    # the numpy-backed engine loads on first use, so ``import repro``
    # (every serving process) stays numpy-free
    if name == "verify_exhaustive_parallel":
        from .core.verify import verify_exhaustive_parallel

        return verify_exhaustive_parallel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
