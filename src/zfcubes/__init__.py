"""Zero forcing on twisted hypercubes.

Construct hypercubes and twisted hypercubes over bit-string vertices, run
the zero forcing process, analyse forcing arc sets through chain twists,
build the minority-cube family, and compute exact zero forcing numbers by
exhaustive search.
"""

from .errors import (ArcStructureError, DocumentError, MatchingError,
                     ResourceLimitError)
from .graphs import (Graph, TwistSpec, bitstrings, build_hypercube,
                     build_twisted, cartesian_product, complete_graph,
                     cycle_graph, hamming_distance, identity_matching,
                     path_graph, transposition_matching, twin, twisted_edges,
                     vertex_id)
from .arcsets import (ArcSet, ChainDecomposition, decompose, find_chain_twist,
                      is_chain_twist, is_chain_twist_path, is_forcing_arc_set,
                      product_arcset, validate_arcset)
from .forcing import (ForcingTrace, closure, is_zero_forcing_set, replay_trace,
                      trace_to_arcset)
from .minority import (MinorityCube, bridge_arc_at, build_closed_form,
                       build_minority_cube, classify, closed_form_arc_pairs,
                       has_in_arc, has_out_arc, isolated_vertices,
                       minority_twist_spec, minority_zero_forcing_set)
from .solver import SolveResult, lower_bound, solve_exact, upper_bound
from .serialize import (GraphDocument, dumps_json_document, from_dot,
                        from_json_document, json_document_chunks, to_dot)

__version__ = "0.1.0"

__all__ = [
    "ArcSet", "ArcStructureError", "ChainDecomposition", "DocumentError",
    "ForcingTrace", "Graph", "GraphDocument", "MatchingError", "MinorityCube",
    "ResourceLimitError", "SolveResult", "TwistSpec", "bitstrings",
    "bridge_arc_at", "build_closed_form", "build_hypercube",
    "build_minority_cube", "build_twisted", "cartesian_product", "classify",
    "closed_form_arc_pairs", "closure", "complete_graph", "cycle_graph",
    "decompose", "dumps_json_document", "find_chain_twist", "from_dot",
    "from_json_document", "hamming_distance", "has_in_arc", "has_out_arc",
    "identity_matching", "is_chain_twist", "is_chain_twist_path",
    "is_forcing_arc_set", "is_zero_forcing_set", "isolated_vertices",
    "json_document_chunks", "lower_bound", "minority_twist_spec",
    "minority_zero_forcing_set", "path_graph", "product_arcset",
    "replay_trace", "solve_exact", "to_dot", "trace_to_arcset",
    "transposition_matching", "twin", "twisted_edges", "upper_bound",
    "validate_arcset", "vertex_id",
]
