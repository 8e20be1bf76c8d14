"""The minority-cube family: one twist and one bridge arc per level.

Dimension 3 is the plain cube with four arcs forming two chains of two arcs
each plus two untouched vertices. Each doubling step appends the copy bit,
replaces the standard matching by a single transposition (producing exactly
two twisted edges), and adds one *bridge arc* between two vertices that were
untouched in their copies. The arc set that accumulates this way is a forcing
arc set whose chain-initial vertices form a zero forcing set of size
2^(n-1) - 2^(n-3) + 1.

Two constructions are provided: the recursive one above (the source of
truth) and a closed form that lists every arc directly from vertex labels;
they agree exactly and the test suite pins that equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arcsets import ArcSet, decompose
from .errors import ResourceLimitError
from .graphs import Graph, TwistSpec, bitstrings, build_twisted, twisted_edges, \
    vertex_id

MIN_DIMENSION = 3
MAX_DIMENSION = 12

_BASE_ARCS = (("000", "100"), ("100", "110"), ("001", "101"), ("101", "111"))


@dataclass(frozen=True)
class MinorityCube:
    """A minority cube with its standard forcing arc set.

    ``bridge_arc`` is the top-level bridge arc (None at the base dimension);
    ``twisted_edges`` collects the twisted edges of every level.
    """

    n: int
    graph: Graph
    arcs: ArcSet
    bridge_arc: tuple | None

    @cached_property
    def twisted_edges(self) -> tuple:
        """Twisted edges of the graph, computed on first use."""
        return tuple(twisted_edges(self.graph))

    @cached_property
    def top_level_twisted_edges(self) -> tuple:
        """The twisted edges introduced at the top level: the ones crossing
        the final matching, so their endpoints differ in the final bit."""
        return tuple((u, v) for u, v in self.twisted_edges if u[-1] != v[-1])

    def zero_forcing_set(self) -> tuple:
        """Chain-initial vertices of the arc set, sorted by id."""
        return decompose(self.arcs).initials


def _check_dimension(n: int) -> None:
    if n < MIN_DIMENSION:
        raise ValueError(f"minority cubes start at dimension {MIN_DIMENSION}, got {n}")
    if n > MAX_DIMENSION:
        raise ResourceLimitError(
            f"dimension {n} exceeds the minority-cube limit {MAX_DIMENSION}")


def minority_twist_spec(n: int) -> TwistSpec:
    """Assembly plan of the minority cube's underlying graph.

    Levels up to 3 use the standard matching; every level m >= 4 swaps the
    two (m-1)-bit labels 01 0...0 0 and 10 0...0 1, ids ``1 << (m - 3)`` and
    ``1 << (m - 2) | 1``, which yields the two twisted edges of that level.
    """
    _check_dimension(n)
    perms = []
    for m in range(1, n + 1):
        perm = list(range(1 << (m - 1)))
        if m >= 4:
            first, second = 1 << (m - 3), 1 << (m - 2) | 1
            perm[first], perm[second] = second, first
        perms.append(perm)
    return TwistSpec.from_level_perms(perms)


def bridge_arc_at(level: int) -> tuple[str, str]:
    """The bridge arc added when doubling up to the given level (>= 4)."""
    if level < 4:
        raise ValueError("bridge arcs exist from dimension 4 upward")
    zeros = "0" * (level - 4)
    return ("01" + zeros + "10", "01" + zeros + "11")


def build_minority_cube(n: int) -> MinorityCube:
    """Recursive construction: copy the arcs of both halves, add the bridge arc.

    It runs over vertex ids: the copy bit is appended at the right, so the
    arc (a, b) of one level becomes (2a, 2b) and (2a + 1, 2b + 1) at the next.
    """
    _check_dimension(n)
    arcs = [(vertex_id(u), vertex_id(v)) for u, v in _BASE_ARCS]
    for level in range(4, n + 1):
        arcs = ([(2 * a, 2 * b) for a, b in arcs]
                + [(2 * a + 1, 2 * b + 1) for a, b in arcs]
                + [tuple(map(vertex_id, bridge_arc_at(level)))])
    graph = build_twisted(minority_twist_spec(n))
    return MinorityCube(
        n=n,
        graph=graph,
        arcs=ArcSet._from_ids(graph, arcs),
        bridge_arc=bridge_arc_at(n) if n >= 4 else None,
    )


def closed_form_arc_pairs(n: int) -> set[tuple[str, str]]:
    """Every arc of the dimension-n minority cube, listed directly.

    Two families:
      * 00a -> 10a and 10a -> 11a for every (n-2)-bit string a: the chains of
        two arcs copied up from the base dimension.
      * 01 0^k 10 b -> 01 0^k 11 b for 0 <= k <= n-4 and every (n-k-4)-bit
        string b: the bridge arc of level n-k carried through later copies.
        Each is a chain of a single arc.
    Totals 2^(n-1) + 2^(n-3) - 1 arcs.
    """
    _check_dimension(n)
    arcs: set[tuple[str, str]] = set()
    for a in bitstrings(n - 2):
        arcs.add(("00" + a, "10" + a))
        arcs.add(("10" + a, "11" + a))
    for k in range(0, n - 3):
        zeros = "0" * k
        for b in bitstrings(n - k - 4):
            arcs.add(("01" + zeros + "10" + b, "01" + zeros + "11" + b))
    return arcs


def build_closed_form(n: int, graph: Graph | None = None) -> ArcSet:
    """The minority cube's arc set from the closed form, on the given graph
    (built fresh when omitted). Equals the recursive construction exactly."""
    if graph is None:
        graph = build_twisted(minority_twist_spec(n))
    return ArcSet(graph, closed_form_arc_pairs(n))


def classify(v: str) -> str:
    """Vertex class: the two leftmost bits."""
    if len(v) < 2:
        raise ValueError("classification needs at least two bits")
    return v[:2]


def has_out_arc(v: str) -> bool:
    """Is this vertex the tail of an arc? Decided from the label alone.

    00- and 10-vertices always are, 11-vertices never are; a 01-vertex is a
    tail exactly when its bridge bit is 0.
    """
    cls = classify(v)
    return cls in ("00", "10") or cls != "11" and _bridge_bit(v) == "0"


def has_in_arc(v: str) -> bool:
    """Is this vertex the head of an arc? Decided from the label alone."""
    cls = classify(v)
    return cls in ("10", "11") or cls != "00" and _bridge_bit(v) == "1"


def _bridge_bit(v: str) -> str:
    """The bit after the first 1 past the class bits ("" if none): 0 at a
    bridge arc's tail, 1 at its head."""
    i = v.find("1", 2)
    return v[i + 1:i + 2] if i != -1 else ""


def isolated_vertices(n: int) -> tuple[str, str]:
    """The two vertices untouched by any arc: 01 0...0 0 and 01 0...0 1."""
    _check_dimension(n)
    zeros = "0" * (n - 3)
    return ("01" + zeros + "0", "01" + zeros + "1")


def minority_zero_forcing_set(n: int) -> tuple[str, ...]:
    """Chain-initial vertices from the closed form, without building the cube.

    Size is exactly 2^(n-1) - 2^(n-3) + 1.
    """
    _check_dimension(n)
    return tuple(v for v in bitstrings(n) if not has_in_arc(v))
