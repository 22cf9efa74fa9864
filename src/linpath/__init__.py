"""linpath: a laboratory for linear paths in 3-uniform hypergraphs.

Exact degree-threshold constructions, an exhaustive search oracle, a
rotation-extension path finder, and a verification harness around them.
"""

from .constructions import (
    g_bound,
    gen_complete,
    gen_core,
    gen_star,
    gen_star_plus,
    star_min_degree,
    star_plus_min_degree,
    theorem_threshold,
)
from .errors import LinpathError
from .finder import (
    extend,
    find_guaranteed,
    improve_via_codegree,
    rotate,
    unfold_cycle_plus,
)
from .harness import (
    ExperimentConfig,
    check_lemma_bounds,
    exhaustive_check,
    lemma_sweep,
    random_min_degree_graph,
    run_trials,
    verify_construction,
)
from .hypergraph import Hypergraph, build, parse, serialize
from .oracle import (
    enumerate_hypergraphs,
    find_cycle,
    find_cycle_plus,
    find_path,
    longest_path,
)
from .paths import CyclePlusWitness, LinearCycle, LinearPath, PathContext, make_context
from .report import VerificationReport, ViolationReport

__all__ = [
    "CyclePlusWitness",
    "ExperimentConfig",
    "Hypergraph",
    "LinearCycle",
    "LinearPath",
    "LinpathError",
    "PathContext",
    "VerificationReport",
    "ViolationReport",
    "build",
    "check_lemma_bounds",
    "enumerate_hypergraphs",
    "exhaustive_check",
    "extend",
    "find_cycle",
    "find_cycle_plus",
    "find_guaranteed",
    "find_path",
    "g_bound",
    "gen_complete",
    "gen_core",
    "gen_star",
    "gen_star_plus",
    "improve_via_codegree",
    "lemma_sweep",
    "longest_path",
    "make_context",
    "parse",
    "random_min_degree_graph",
    "rotate",
    "run_trials",
    "serialize",
    "star_min_degree",
    "star_plus_min_degree",
    "theorem_threshold",
    "unfold_cycle_plus",
    "verify_construction",
]

__version__ = "0.1.0"
