"""Bit-string labelled graphs: hypercubes, twisted hypercubes, and products.

Cube-like graphs use plain strings of ``'0'``/``'1'`` characters as vertex
labels. The leftmost character is the most significant bit of the vertex id,
and the copy bit added by a doubling construction goes at the rightmost
position. Graphs are immutable after construction and safe to share across
threads; all algorithms in the package break ties by position in the graph's
canonical vertex order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping

from .errors import MatchingError, ResourceLimitError

Vertex = Hashable
Edge = tuple

# 2^20 adjacency sets stay memory-safe; larger cubes have no desk-scale value.
CONSTRUCTION_DIMENSION_LIMIT = 20
PRODUCT_SIZE_LIMIT = 1 << 16


def bitstrings(length: int) -> list[str]:
    """All bit strings of the given length, ordered by integer value."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return [""]
    return [format(value, f"0{length}b") for value in range(1 << length)]


def vertex_id(bits: str) -> int:
    """Integer id of a bit-string vertex; the empty string has id 0."""
    return int(bits, 2) if bits else 0


def hamming_distance(u: str, v: str) -> int:
    if len(u) != len(v):
        raise ValueError("hamming distance needs equal-length strings")
    return sum(a != b for a, b in zip(u, v))


class Graph:
    """An undirected simple graph with hashable vertex labels.

    The vertex tuple fixes a canonical order (for bit-string graphs this is
    id order). Equality is labelled equality: same vertex set and same edge
    set; no isomorphism testing is attempted.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge],
                 dimension: int | None = None):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.dimension = dimension
        adjacency: dict[Vertex, set] = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in adjacency or v not in adjacency:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.adjacency = adjacency

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v) -> bool:
        return v in self.index

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (set(self.vertices) == set(other.vertices)
                and self.edge_keys == other.edge_keys)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        dim = f", dimension={self.dimension}" if self.dimension is not None else ""
        return f"Graph({len(self)} vertices, {self.edge_count} edges{dim})"

    @cached_property
    def edge_keys(self) -> frozenset:
        """Edges as unordered frozenset pairs, for order-free comparison."""
        return frozenset(frozenset((u, v))
                         for u, nbrs in self.adjacency.items() for v in nbrs)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def edges(self) -> list[tuple]:
        """Edges as (u, v) tuples with u before v in canonical order."""
        verts = self.vertices
        return [(verts[a], verts[b])
                for a, nbrs in enumerate(self.neighbor_ids) for b in nbrs if b > a]

    def neighbors(self, v) -> list:
        return sorted(self.adjacency[v], key=self.index.__getitem__)

    def degree(self, v) -> int:
        return len(self.adjacency[v])

    def min_degree(self) -> int:
        if not self.vertices:
            raise ValueError("empty graph has no degrees")
        return min(len(s) for s in self.adjacency.values())

    @cached_property
    def neighbor_ids(self) -> tuple:
        idx = self.index
        return tuple(tuple(sorted(idx[w] for w in self.adjacency[v]))
                     for v in self.vertices)

    @cached_property
    def neighbor_masks(self) -> tuple:
        """Per-vertex neighbour sets as integer bitmasks over vertex ids."""
        out = []
        for nbrs in self.neighbor_ids:
            mask = 0
            for w in nbrs:
                mask |= 1 << w
            out.append(mask)
        return tuple(out)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return len(seen) == len(self.vertices)

    def relabel(self, mapping: Mapping | Callable, dimension: int | None = None) -> "Graph":
        """New graph with vertices renamed by a mapping or callable.

        The renaming must be injective on the vertex set.
        """
        fn = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
        new_vertices = [fn(v) for v in self.vertices]
        if len(set(new_vertices)) != len(new_vertices):
            raise ValueError("relabelling is not injective")
        new_edges = [(fn(u), fn(v)) for u, v in self.edges()]
        return Graph(new_vertices, new_edges, dimension=dimension)


class TwistSpec:
    """Assembly plan for a twisted hypercube.

    Either the trivial 0-dimensional plan (a single vertex labelled by the
    empty string) or a pair of (n-1)-dimensional plans joined by a matching:
    a bijection on (n-1)-bit strings stored as an explicit table. Building
    appends ``'0'`` to every vertex of the left child, ``'1'`` to every
    vertex of the right child, and joins each left vertex ``a0`` to
    ``matching[a]1``. The identity matching at every level reproduces the
    standard hypercube; children may differ, so non-uniform families are
    expressible.
    """

    __slots__ = ("left", "right", "matching", "dimension")

    def __init__(self, left: "TwistSpec | None" = None,
                 right: "TwistSpec | None" = None,
                 matching: Mapping[str, str] | None = None):
        parts = (left, right, matching)
        if any(p is None for p in parts) and any(p is not None for p in parts):
            raise ValueError("provide left, right and matching together, or none of them")
        self.left = left
        self.right = right
        if left is None:
            self.matching = None
            self.dimension = 0
            return
        if left.dimension != right.dimension:
            raise MatchingError("child plans must have equal dimension")
        sub = left.dimension
        labels = set(bitstrings(sub))
        table = dict(matching)
        if set(table) != labels or set(table.values()) != labels:
            raise MatchingError(
                f"matching must be a bijection on the {2 ** sub} strings of length {sub}")
        self.matching = table
        self.dimension = sub + 1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return f"TwistSpec(dimension={self.dimension})"

    @classmethod
    def leaf(cls) -> "TwistSpec":
        return cls()

    @classmethod
    def identity(cls, dimension: int) -> "TwistSpec":
        """Plan whose matchings are all standard; builds the hypercube."""
        return cls.from_level_matchings(
            [identity_matching(level) for level in range(1, dimension + 1)])

    @classmethod
    def from_level_matchings(cls, matchings: Iterable[Mapping[str, str]]) -> "TwistSpec":
        """Uniform plan: one matching per level, shared by all nodes of that level.

        ``matchings[i]`` joins the two copies at dimension ``i + 1`` and must
        be a bijection on ``i``-bit strings.
        """
        spec = cls.leaf()
        for matching in matchings:
            spec = cls(spec, spec, matching)
        return spec

    @classmethod
    def random(cls, dimension: int, rng) -> "TwistSpec":
        """Fully random plan; children are drawn independently."""
        if dimension == 0:
            return cls.leaf()
        labels = bitstrings(dimension - 1)
        values = list(labels)
        rng.shuffle(values)
        return cls(cls.random(dimension - 1, rng),
                   cls.random(dimension - 1, rng),
                   dict(zip(labels, values)))


def identity_matching(dimension: int) -> dict[str, str]:
    """The standard matching joining copies at the given level."""
    return {bits: bits for bits in bitstrings(dimension - 1)}


def transposition_matching(dimension: int, first: str, second: str) -> dict[str, str]:
    """Standard matching with one pair of labels swapped."""
    table = identity_matching(dimension)
    if first not in table or second not in table or first == second:
        raise MatchingError(f"cannot transpose {first!r} and {second!r} at dimension {dimension}")
    table[first], table[second] = second, first
    return table


def build_hypercube(n: int) -> Graph:
    """The n-dimensional hypercube: bit strings adjacent iff they differ in one position."""
    _check_dimension(n)
    if n == 0:
        return Graph([""], [], dimension=0)
    verts = bitstrings(n)
    edges = []
    for i in range(1 << n):
        for b in range(n):
            j = i ^ (1 << b)
            if j > i:
                edges.append((verts[i], verts[j]))
    return Graph(verts, edges, dimension=n)


def build_twisted(spec: TwistSpec) -> Graph:
    """Build the twisted hypercube described by a plan.

    The result is ``spec.dimension``-regular and connected, with vertices
    ordered by id.
    """
    _check_dimension(spec.dimension)
    memo: dict[int, tuple[list[str], list[tuple[str, str]]]] = {}

    def build(node: TwistSpec) -> tuple[list[str], list[tuple[str, str]]]:
        key = id(node)
        if key in memo:
            return memo[key]
        if node.is_leaf:
            result = ([""], [])
        else:
            left_verts, left_edges = build(node.left)
            right_verts, right_edges = build(node.right)
            verts = [v + "0" for v in left_verts] + [v + "1" for v in right_verts]
            edges = [(a + "0", b + "0") for a, b in left_edges]
            edges += [(a + "1", b + "1") for a, b in right_edges]
            edges += [(a + "0", node.matching[a] + "1") for a in left_verts]
            result = (verts, edges)
        memo[key] = result
        return result

    verts, edges = build(spec)
    verts = sorted(verts, key=vertex_id)
    return Graph(verts, edges, dimension=spec.dimension)


def twin(graph: Graph, v: str) -> str:
    """The unique neighbour of ``v`` that differs in the final bit.

    In a twisted hypercube this is the vertex matched to ``v`` at the top
    level; it may differ from ``v`` in more positions than the final one.
    """
    if v not in graph:
        raise ValueError(f"vertex {v!r} not in graph")
    if not isinstance(v, str) or not v:
        raise ValueError("twins are defined for non-empty bit-string vertices")
    mates = [u for u in graph.neighbors(v) if u[-1] != v[-1]]
    if len(mates) != 1:
        raise ValueError(
            f"vertex {v!r} has {len(mates)} neighbours differing in the final bit; "
            "the graph is not a twisted hypercube")
    return mates[0]


def twisted_edges(graph: Graph) -> list[tuple[str, str]]:
    """Edges between equal-length bit strings that differ in more than one position.

    These are exactly the matching edges, at any level of the construction,
    that deviate from the standard matching. Edges with an endpoint that is
    not a bit string, or with endpoints of unequal length, are never twisted.
    """
    verts = graph.vertices
    if not all(isinstance(v, str) for v in verts):
        raise ValueError("twisted edges are defined for bit-string labelled graphs")
    lengths = [-1 if v.strip("01") else len(v) for v in verts]  # -1: not bits
    ids = [vertex_id(v) if n >= 0 else 0 for v, n in zip(verts, lengths)]
    return [(verts[a], verts[b]) for a, nbrs in enumerate(graph.neighbor_ids)
            for b in nbrs if b > a and lengths[b] == lengths[a] >= 0
            and (x := ids[a] ^ ids[b]) & (x - 1)]


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u, x) ~ (v, y) iff u ~ v and x = y, or u = v and x ~ y."""
    if len(g) == 0 or len(h) == 0:
        raise ValueError("cartesian product needs nonempty factors")
    if len(g) * len(h) > PRODUCT_SIZE_LIMIT:
        raise ResourceLimitError(
            f"product would have {len(g) * len(h)} vertices (limit {PRODUCT_SIZE_LIMIT})")
    verts = [(u, x) for u in g.vertices for x in h.vertices]
    edges = [((u, x), (v, x)) for u, v in g.edges() for x in h.vertices]
    edges += [((u, x), (u, y)) for u in g.vertices for x, y in h.edges()]
    return Graph(verts, edges)


def path_graph(length: int) -> Graph:
    """Path on ``length`` vertices labelled 0..length-1."""
    if length < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(range(length), [(i, i + 1) for i in range(length - 1)])


def cycle_graph(length: int) -> Graph:
    """Cycle on ``length`` >= 3 vertices labelled 0..length-1."""
    if length < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(range(length),
                 [(i, (i + 1) % length) for i in range(length)])


def complete_graph(size: int) -> Graph:
    """Complete graph on ``size`` vertices labelled 0..size-1."""
    if size < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(range(size),
                 [(i, j) for i in range(size) for j in range(i + 1, size)])


def _check_dimension(n: int) -> None:
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n > CONSTRUCTION_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"dimension {n} exceeds the construction limit {CONSTRUCTION_DIMENSION_LIMIT}")
