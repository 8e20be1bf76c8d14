"""Library refusals that other tests do not reach, each pinned by its message."""

import re

import pytest

from zfcubes import (ArcSet, Graph, MatchingError, ResourceLimitError, TwistSpec,
                     bitstrings, build_hypercube, cartesian_product, complete_graph,
                     cycle_graph, find_chain_twist, hamming_distance, is_chain_twist,
                     is_chain_twist_path, path_graph, solve_exact,
                     transposition_matching, twin)
from zfcubes.graphs import PRODUCT_SIZE_LIMIT

EMPTY = Graph([], [])
PATH3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
TRIANGLE = ArcSet(Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]), [("a", "b")])
LEAF = TwistSpec.leaf()


@pytest.mark.parametrize("call, error, message", [
    (lambda: bitstrings(-1), ValueError, "length must be non-negative"),
    (lambda: hamming_distance("01", "011"), ValueError,
     "hamming distance needs equal-length strings"),
    (lambda: EMPTY.min_degree(), ValueError, "empty graph has no degrees"),
    (lambda: solve_exact(EMPTY), ValueError, "empty graph"),
    (lambda: PATH3.relabel({"a": 0, "b": 1, "c": 0}), ValueError,
     "relabelling is not injective"),
    (lambda: TwistSpec(LEAF, LEAF), ValueError,
     "provide left, right and matching together, or none of them"),
    (lambda: TwistSpec(LEAF, TwistSpec.identity(1), {"": ""}), MatchingError,
     "child plans must have equal dimension"),
    (lambda: transposition_matching(3, "00", "00"), MatchingError,
     "cannot transpose '00' and '00' at dimension 3"),
    (lambda: twin(Graph(["00", "10"], [("00", "10")]), "00"), ValueError,
     "vertex '00' has 0 neighbours differing in the final bit; "
     "the graph is not a twisted hypercube"),
    (lambda: twin(path_graph(2), 0), ValueError,
     "twins are defined for non-empty bit-string vertices"),
    (lambda: cartesian_product(PATH3, EMPTY), ValueError,
     "cartesian product needs nonempty factors"),
    (lambda: cartesian_product(build_hypercube(8), build_hypercube(9)), ResourceLimitError,
     f"product would have {1 << 17} vertices (limit {PRODUCT_SIZE_LIMIT})"),
    (lambda: path_graph(0), ValueError, "path needs at least one vertex"),
    (lambda: cycle_graph(2), ValueError, "cycle needs at least three vertices"),
    (lambda: complete_graph(0), ValueError, "complete graph needs at least one vertex"),
    (lambda: is_chain_twist_path(TRIANGLE, []), ValueError, "empty path"),
    (lambda: is_chain_twist(TRIANGLE, ["a", "b", "a"]), ValueError,
     "cycle vertices must be distinct"),
    (lambda: is_chain_twist(TRIANGLE, ["a", "b", "d"]), ValueError,
     "'d' is not a vertex of the host"),
    (lambda: find_chain_twist(TRIANGLE, method="x"), ValueError, "unknown method 'x'"),
])
def test_refusals_keep_their_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
