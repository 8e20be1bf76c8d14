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
from itertools import chain
from operator import eq
from typing import Callable, Hashable, Iterable, Mapping

from .errors import MatchingError, ResourceLimitError

Vertex = Hashable
Edge = tuple

# build_hypercube(18) peaks at 170 MB in 1.8 s (2-vCPU VM, Python 3.11), and
# both grow about 2.1x per dimension: about 0.7 GB and 8 s at dimension 20.
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

    The vertex tuple fixes a canonical order of ids (for bit-string graphs
    this is id order); ``index`` maps labels to ids and ``neighbor_ids``
    holds each vertex's sorted neighbour ids. ``adjacency`` and ``edge_keys``
    are label views and ``upper_ids`` holds each edge once; all three are
    built on first use. Equality is labelled equality: same vertex set and
    same edge set; no isomorphism testing is attempted.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge],
                 dimension: int | None = None):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.dimension = dimension
        get = self.index.get
        rows: list[list[int]] = [[] for _ in self.vertices]
        for u, v in edges:
            a, b = get(u), get(v)
            if a is None or b is None or a == b:
                if u == v or (a is not None and a == b):
                    raise ValueError(f"loop at {u!r}")
                raise ValueError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            rows[a].append(b)
            rows[b].append(a)
        for row in rows:
            row.sort()
        # A repeated edge leaves two equal ids side by side in a sorted row.
        # The scan over the rows laid end to end can also pair the ends of
        # two rows; either way each row then goes through a set, which is
        # always right.
        ids, following = chain.from_iterable(rows), chain.from_iterable(rows)
        next(following, None)
        if any(map(eq, ids, following)):
            rows = map(sorted, map(set, rows))
        self.neighbor_ids = tuple(map(tuple, rows))

    @classmethod
    def _from_ids(cls, vertices: list, rows: list, dimension: int | None) -> "Graph":
        """Graph from rows of neighbour ids without repeats or loops, unchecked."""
        graph = cls.__new__(cls)
        graph.vertices = tuple(vertices)
        graph.index = {v: i for i, v in enumerate(graph.vertices)}
        graph.dimension = dimension
        graph.neighbor_ids = tuple(map(tuple, map(sorted, rows)))
        return graph

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
    def adjacency(self) -> dict:
        """Label view: each vertex's neighbours as a frozenset of labels."""
        verts = self.vertices
        return {v: frozenset(map(verts.__getitem__, nbrs))
                for v, nbrs in zip(verts, self.neighbor_ids)}

    @cached_property
    def edge_keys(self) -> frozenset:
        """Edges as unordered frozenset pairs, for order-free comparison."""
        return frozenset(map(frozenset, self.edges()))

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.neighbor_ids)) // 2

    @cached_property
    def upper_ids(self) -> list[list[int]]:
        """For each vertex id ``a``, its ascending neighbour ids above ``a``:
        every edge once, from its lower end."""
        return [[b for b in nbrs if b > a] for a, nbrs in enumerate(self.neighbor_ids)]

    def edges(self) -> list[tuple]:
        """Edges as (u, v) tuples with u before v in canonical order."""
        verts = self.vertices
        return [(verts[a], verts[b]) for a, row in enumerate(self.upper_ids) for b in row]

    def neighbors(self, v) -> list:
        return list(map(self.vertices.__getitem__, self.neighbor_ids[self.index[v]]))

    def degree(self, v) -> int:
        return len(self.neighbor_ids[self.index[v]])

    def min_degree(self) -> int:
        if not self.vertices:
            raise ValueError("empty graph has no degrees")
        return min(map(len, self.neighbor_ids))

    @cached_property
    def neighbor_masks(self) -> tuple:
        """Per-vertex neighbour sets as integer bitmasks over vertex ids."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self.neighbor_ids)

    def is_connected(self) -> bool:
        nbr = self.neighbor_ids
        reached = [0] if nbr else []
        seen = set(reached)
        for u in reached:
            fresh = set(nbr[u]) - seen
            seen |= fresh
            reached += fresh
        return len(seen) == len(nbr)

    def relabel(self, mapping: Mapping | Callable, dimension: int | None = None) -> "Graph":
        """New graph with vertices renamed by a mapping or callable.

        The renaming must be injective on the vertex set.
        """
        fn = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
        new_vertices = [fn(v) for v in self.vertices]
        if len(set(new_vertices)) != len(new_vertices):
            raise ValueError("relabelling is not injective")
        return Graph._from_ids(new_vertices, self.neighbor_ids, dimension)


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
        self._join(dict(matching), bitstrings(left.dimension))

    def _join(self, table: dict, labels: list) -> None:
        # labels: the strings of length self.left.dimension, in any order
        domain = set(labels)
        if table.keys() != domain or set(table.values()) != domain:
            sub = self.left.dimension
            raise MatchingError(
                f"matching must be a bijection on the {2 ** sub} strings of length {sub}")
        self.matching = table
        self.dimension = self.left.dimension + 1

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
        return cls.from_level_tables((bitstrings(i), dict(m)) for i, m in enumerate(matchings))

    @classmethod
    def from_level_tables(cls, levels: Iterable[tuple[list, dict]]) -> "TwistSpec":
        """:meth:`from_level_matchings` over ``(labels, table)`` pairs, where
        ``labels`` lists the strings that ``table`` must map bijectively, in
        any order. The plan takes each table over without a copy; a caller
        that formatted the labels to build the table passes them here, so they
        are not formatted again for the check."""
        spec = cls.leaf()
        for labels, table in levels:
            node = cls.__new__(cls)
            node.left = node.right = spec
            node._join(table, labels)
            spec = node
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
    labels = bitstrings(dimension - 1)
    return dict(zip(labels, labels))


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
    ids = list(range(1 << n))
    bits = [1 << b for b in range(n)]
    rows = [[ids[i ^ bit] for bit in bits] for i in ids]
    return Graph._from_ids(bitstrings(n), rows, n)


def build_twisted(spec: TwistSpec) -> Graph:
    """Build the twisted hypercube described by a plan.

    The result is ``spec.dimension``-regular and connected, with vertices
    ordered by id. The copy bit of a dimension-m node is id bit n-m, so the
    node's copies are fixed by the n-m bits below it, and its matching joins
    ``a 0 s`` to ``matching[a] 1 s`` in the copy with trailing bits ``s``.
    """
    _check_dimension(spec.dimension)
    n = spec.dimension
    ids = list(range(1 << n))
    rows: list[list[int]] = [[] for _ in ids]
    # The nodes of one dimension by identity, each with its copies. Rows take
    # their ints from ids, so that all rows share one int object per vertex.
    level = {id(spec): (spec, [0])}
    for shift in range(n):
        labels = bitstrings(n - shift - 1)
        position = {a: i for i, a in enumerate(labels)}
        below: dict[int, tuple[TwistSpec, list[int]]] = {}
        for node, copies in level.values():
            perm = map(position.__getitem__, map(node.matching.__getitem__, labels))
            for a, b in enumerate(perm):
                u = a << (shift + 1)
                v = (b << (shift + 1)) | (1 << shift)
                for s in copies:
                    x, y = ids[u | s], ids[v | s]
                    rows[x].append(y)
                    rows[y].append(x)
            for child, bit in ((node.left, 0), (node.right, 1 << shift)):
                below.setdefault(id(child), (child, []))[1].extend(s | bit for s in copies)
        level = below
    return Graph._from_ids(bitstrings(n), rows, n)


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
    return [(verts[a], verts[b]) for a, row in enumerate(twisted_rows(graph)) for b in row]


def twisted_rows(graph: Graph) -> list[list[int]]:
    """For each vertex id ``a``, the ascending ids ``b > a`` of its twisted
    neighbours: the rule of :func:`twisted_edges`, over vertex ids."""
    verts = graph.vertices
    if not all(isinstance(v, str) for v in verts):
        raise ValueError("twisted edges are defined for bit-string labelled graphs")
    lengths = [-1 if v.strip("01") else len(v) for v in verts]  # -1: not bits
    ids = [vertex_id(v) if n >= 0 else 0 for v, n in zip(verts, lengths)]
    return [[b for b in row if lengths[b] == lengths[a] >= 0 and (y := ids[a] ^ ids[b]) & (y - 1)]
            for a, row in enumerate(graph.upper_ids)]


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
