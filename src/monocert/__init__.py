"""Verifiable certificates for monochromatic trees and matchings.

Edge-color a graph with high chromatic number and something monochromatic
survives: with two colors, a component (hence a spanning tree) on at least
chi(G) vertices; with t colors and targets n_1 >= ... >= n_t, a matching of
n_i edges in some color i once chi(G) >= n_1 + 1 + sum(n_i - 1). This
package builds those objects explicitly, re-checks them independently, and
hunts for counterexamples to sharper conjectures on acyclic patterns.
"""

from .graphs import (
    EdgeColoring,
    Graph,
    GraphParseError,
    InternalInconsistencyError,
    check_partition,
    complete_graph,
    complete_multipartite,
    connected_components,
    parse_edge_coloring,
    parse_graph,
    path_graph,
    star_graph,
    write_graph,
)
from .chromatic import ChiResult, chi_exact, greedy_upper
from .tree_cert import TreeCertificate, edge_color_dual, mono_tree_certificate
from .matching import (
    MatchingCertificate,
    MatchingTargets,
    ReducedInstance,
    find_mono_matching,
    find_mono_matching_kiraly,
    kiraly_reduce,
    lift_matching,
    maximum_matching,
    miss_witness,
    ramsey_matching_number,
)
from .hunter import (
    AcyclicPattern,
    ArrowingResult,
    HuntReport,
    contains_forest,
    generate_candidates,
    hunt,
    kneser_graph,
    matching_pattern,
    mycielskian,
    path_pattern,
    ramsey_bruteforce,
    star_pattern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
