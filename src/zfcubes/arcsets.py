"""Arc sets over undirected graphs: chains, chain twists, and forcing checks.

An arc set orients a subset of the host's edges, at most one direction per
edge. When every vertex has in-degree and out-degree at most one and there is
no directed cycle, the arcs split the vertex set into *chains*: maximal
directed paths, with untouched vertices counting as single-vertex chains.

A *chain twist* is a cycle, traversed in a fixed direction, in which no two
consecutive steps are both non-arcs; a step against an arc's direction counts
as a non-arc. An arc set can be realised as the complete force record of a
successful zero forcing run exactly when it contains no chain twist, which is
what :func:`is_forcing_arc_set` checks by greedy execution and
:func:`find_chain_twist` checks by cycle search: exhaustive, or a walk that
decides and extracts a witness in one O(|A| * Delta) pass over the graph whose
nodes are the arcs, when no vertex has two outgoing arcs.

:func:`_color_change` is the colour-change kernel over neighbour-id rows:
the closure of a blue set (``forcing.closure``) and the execution of an arc
set (:func:`is_forcing_arc_set`) both run it. The solver has the one other,
``solver._close_from``, over neighbour bitmasks, since it closes sets of the
same graph many times over. Each is faster at its own job: on minority-12
(2 vCPUs, Python 3.11.7) the bitmask closure ran :func:`is_forcing_arc_set`
in 10.1 ms against 4.3 ms here, after 8.2 ms to build the masks. Every
function here reads :attr:`ArcSet.ids`, the arcs as vertex-id pairs,
resolved when the set is made, and :func:`decompose` builds its chains as
id tuples. Labels are built only for results and messages: ``ArcSet.arcs``
and the chains, initials and isolated vertices of a
:class:`ChainDecomposition` are label views.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import ArcStructureError, ResourceLimitError
from .graphs import Graph, cartesian_product

Arc = tuple

# Exhaustive cycle enumeration is exponential. It met every simple cycle of
# twist-free force records of 100 random twisted 4-cubes (16 vertices, 32
# edges) in a median of 66 ms, at most 161 ms, and of 200 random connected
# 16-vertex, 32-edge hosts with one arc in at most 103 ms. Dense hosts leave
# that regime: K_n with one arc took 1.2 s at n=10, and `verify twist` 11 s at
# n=11 (2 vCPUs, Python 3.11.7). exhaustive_fits is the one rule: the
# exhaustive detector refuses any other host, and `verify twist` walks it.
EXHAUSTIVE_VERTEX_LIMIT = 16
EXHAUSTIVE_EDGE_LIMIT = 32


def exhaustive_fits(host: Graph) -> bool:
    """Is the host within both measured limits of the exhaustive scan?"""
    return len(host) <= EXHAUSTIVE_VERTEX_LIMIT and host.edge_count <= EXHAUSTIVE_EDGE_LIMIT


class ArcSet:
    """A set of directed edges over a host graph, held as ``ids``: the distinct
    (tail id, head id) pairs, sorted, which every arc consumer reads. An arc
    with an endpoint outside the host is refused here; ``arcs`` and
    :meth:`sorted_arcs` are label views.
    """

    __slots__ = ("host", "ids", "_arcs", "_chains")

    def __init__(self, host: Graph, arcs: Iterable[Arc]):
        self.host = host
        index = host.index
        pairs = set()
        for u, v in arcs:
            if u not in index or v not in index:
                raise ValueError(f"arc {u!r}->{v!r}: endpoint is not a vertex of the host")
            pairs.add((index[u], index[v]))
        self.ids = tuple(sorted(pairs))
        self._arcs = self._chains = None

    @classmethod
    def _from_ids(cls, host: Graph, pairs: Iterable[tuple]) -> "ArcSet":
        """Arc set from (tail id, head id) pairs of the host, unchecked."""
        arcset = cls.__new__(cls)
        arcset.host, arcset.ids = host, tuple(sorted(set(pairs)))
        arcset._arcs = arcset._chains = None
        return arcset

    @property
    def arcs(self) -> frozenset:
        """The (tail, head) label pairs, built on first read."""
        if self._arcs is None:
            self._arcs = frozenset(self.sorted_arcs())
        return self._arcs

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, arc) -> bool:
        return arc in self.arcs

    def __iter__(self):
        return iter(self.sorted_arcs())

    def __eq__(self, other):
        if not isinstance(other, ArcSet):
            return NotImplemented
        return self.host == other.host and self.arcs == other.arcs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ArcSet({len(self.ids)} arcs on {self.host!r})"

    def sorted_arcs(self) -> list[Arc]:
        """The (tail, head) label pairs in ``ids`` order."""
        verts = self.host.vertices
        return [(verts[a], verts[b]) for a, b in self.ids]


@dataclass(frozen=True)
class ChainDecomposition:
    """Partition of the host's vertices into maximal directed paths.

    ``ids`` holds each chain as a tuple of vertex ids, in order of its first
    id; ``vertices`` is the host's vertex tuple. ``chains``, ``initials`` and
    ``isolated`` are label views of ``ids``, built on each read.
    """

    ids: tuple
    vertices: tuple

    @property
    def chains(self) -> tuple:
        """Each chain as a tuple of vertex labels."""
        verts = self.vertices
        return tuple(tuple(map(verts.__getitem__, chain)) for chain in self.ids)

    @property
    def chain_count(self) -> int:
        return len(self.ids)

    @property
    def initials(self) -> tuple:
        """First vertex of each chain; the corresponding initial blue set."""
        return tuple(self.vertices[chain[0]] for chain in self.ids)

    @property
    def isolated(self) -> tuple:
        """Vertices untouched by any arc (chains with zero arcs)."""
        return tuple(self.vertices[chain[0]] for chain in self.ids if len(chain) == 1)

    def arc_length_census(self) -> dict[int, int]:
        """How many chains contain 0, 1, 2, ... arcs."""
        census: dict[int, int] = {}
        for chain in self.ids:
            census[len(chain) - 1] = census.get(len(chain) - 1, 0) + 1
        return census


def validate_arcset(arcset: ArcSet) -> list[str]:
    """Report every arc off the host's edges, or whose reverse arc is also present.

    Faults come in id order; an opposite pair is reported once, at its lower
    tail. An empty list means the arc set is well formed.
    """
    ids = set(arcset.ids)
    verts, nbr = arcset.host.vertices, arcset.host.neighbor_ids
    problems = []
    for a, b in arcset.ids:
        u, v = verts[a], verts[b]
        if b not in nbr[a]:
            problems.append(f"arc {u!r}->{v!r}: {u!r}-{v!r} is not an edge of the host")
        if a < b and (b, a) in ids:
            problems.append(f"arc {u!r}->{v!r}: the reverse arc is also present")
    return problems


def decompose(arcset: ArcSet) -> ChainDecomposition:
    """Split the host's vertices into the maximal directed paths of the arc set.

    Requires in-degree and out-degree at most one at every vertex and no
    directed cycle; the number of chains always equals |V| - |arcs|. The
    chains are walked over vertex ids, and the result is computed once per
    arc set and then reused.
    """
    if arcset._chains is not None:
        return arcset._chains
    problems = validate_arcset(arcset)
    if problems:
        raise ValueError(problems[0])
    verts = arcset.host.vertices
    out_arc: dict = {}
    entered = set()
    for a, b in arcset.ids:
        if a in out_arc:
            raise ArcStructureError(f"vertex {verts[a]!r} has two outgoing arcs", vertex=verts[a])
        if b in entered:
            raise ArcStructureError(f"vertex {verts[b]!r} has two incoming arcs", vertex=verts[b])
        out_arc[a] = b
        entered.add(b)
    chains = []
    following = out_arc.get
    for start in range(len(verts)):
        if start not in entered:
            chain = [start]
            v = following(start)
            while v is not None:
                chain.append(v)
                v = following(v)
            chains.append(tuple(chain))
    # chains from distinct starts are disjoint; an arc on a cycle is on none
    if sum(map(len, chains)) != len(verts):
        covered = set().union(*chains)
        leftover = verts[next(v for v in range(len(verts)) if v not in covered)]
        raise ArcStructureError(
            f"arcs through vertex {leftover!r} form a directed cycle", vertex=leftover)
    arcset._chains = ChainDecomposition(tuple(chains), verts)
    return arcset._chains


def is_chain_twist(arcset: ArcSet, cycle: Sequence) -> bool:
    """Does this cycle, traversed as given, have no two consecutive non-arcs?"""
    cyc = list(cycle)
    if len(cyc) < 3:
        raise ValueError("a chain twist needs at least three vertices")
    return _twisted_sequence(arcset, cyc, cyclic=True)


def is_chain_twist_path(arcset: ArcSet, path: Sequence) -> bool:
    """Does this path have no two consecutive non-arc steps?

    Single vertices and single edges are trivially chain twist paths: the
    condition only constrains consecutive step pairs.
    """
    seq = list(path)
    if not seq:
        raise ValueError("empty path")
    return _twisted_sequence(arcset, seq, cyclic=False)


def _twisted_sequence(arcset: ArcSet, seq: list, cyclic: bool) -> bool:
    """Has the sequence no two consecutive non-arc steps, a step against an
    arc being a non-arc, with ``cyclic`` around its closing step too? A
    sequence is refused unless it is a path of the host, or a cycle with
    ``cyclic``: distinct vertices of the host, each step an edge."""
    kind = "cycle" if cyclic else "path"
    if len(set(seq)) != len(seq):
        raise ValueError(f"{kind} vertices must be distinct")
    idx, nbr = arcset.host.index, arcset.host.neighbor_ids
    for v in seq:
        if v not in idx:
            raise ValueError(f"{v!r} is not a vertex of the host")
    pairs = list(zip(seq, [*seq[1:], *seq[:1]] if cyclic else seq[1:]))
    for a, b in pairs:
        if idx[b] not in nbr[idx[a]]:
            raise ValueError(f"{a!r}-{b!r} is not an edge of the host; not a {kind}")
    steps = [pair in arcset.arcs for pair in pairs]
    following = steps[1:] + steps[:1] if cyclic else steps[1:]
    return all(a or b for a, b in zip(steps, following))


def _exhaustive_twist(arcset: ArcSet) -> Optional[list]:
    """Test every simple cycle of the host over vertex ids; return the first
    chain twist met, or None.

    A depth-first search from each root in ascending id order extends paths
    by ascending neighbour ids above the root. A path of at least three ids
    closes into a cycle when the root neighbours its last id and its second
    id is below its last, so each simple cycle is met once. Its forward
    traversal is tested first, then the backward one, [root] + the rest
    reversed.

    Each depth keeps four facts: whether the step into it is an arc forwards,
    whether it is an arc backwards, and whether each direction already has
    two consecutive non-arcs. A traversal is a chain twist when it has no
    such pair yet and its closing step is an arc, or the steps on both sides
    of that step are. So each cycle is decided in O(1), and labels are built
    only for the witness. Every extension is made, dead directions or not:
    the scan visits every simple cycle.
    """
    g = arcset.host
    nbr = g.neighbor_ids
    n = len(g)
    heads = [0] * n  # heads[u]: bitmask of the ids that the arcs leaving u enter
    for u, v in arcset.ids:
        heads[u] |= 1 << v
    adjacent = g.neighbor_masks
    on_path = [False] * n
    for root in range(n):
        above = [[w for w in row if w > root] for row in nbr]
        path = [root]
        # (forward arc, backward arc, forward dead, backward dead) per depth;
        # the root's entry makes the step into depth 1 alone never dead.
        facts = [(True, True, False, False)]
        on_path[root] = True
        iters = [iter(above[root])]
        while iters:
            for w in iters[-1]:
                if not on_path[w]:
                    break
            else:
                iters.pop()
                facts.pop()
                on_path[path.pop()] = False
                continue
            u = path[-1]
            f = heads[u] >> w & 1
            b = heads[w] >> u & 1
            pf, pb, dead_f, dead_b = facts[-1]
            dead_f = dead_f or not (f or pf)
            dead_b = dead_b or not (b or pb)
            path.append(w)
            facts.append((f, b, dead_f, dead_b))
            on_path[w] = True
            iters.append(iter(above[w]))
            if adjacent[w] >> root & 1 and len(path) >= 3 and path[1] < w:
                f1, b1 = facts[1][:2]
                if not dead_f and (heads[w] >> root & 1 or f and f1):
                    return [g.vertices[v] for v in path]
                if not dead_b and (heads[root] >> w & 1 or b and b1):
                    return [g.vertices[v] for v in path[:1] + path[:0:-1]]
    return None


def _walk_twist(arcset: ArcSet) -> Optional[list]:
    """Find a chain twist through the arc graph; return a witness cycle or None.

    A chain twist exists exactly when some closed walk without immediate edge
    reversal has a forward arc on each side of every non-arc step: a cycle in
    the graph whose nodes are the arcs, where (u, v) leads to (v, w) for
    w != u, and to (w, x) for x != v and each w in N(v) - {u} with (v, w) not
    an arc. Kahn peeling removes the arcs on no such cycle. Following
    predecessors among the arcs left gives a cycle of arcs; each adds its
    tail to the walk, and its head too when the next arc starts elsewhere.
    The first repeated vertex of the walk closes a simple cycle, a chain
    twist if one of its steps there is an arc. Otherwise both steps of the
    rest of the walk there are arcs, in one direction since an edge carries
    at most one arc; the cycle is cut out and the scan goes on.

    Arcs are numbered in :attr:`ArcSet.ids` order, so the witness
    does not depend on hashing. Time is O(|A| * Delta * D), Delta the host's
    maximum degree and D the largest out-degree. Expects an arc set that
    passes :func:`validate_arcset`.
    """
    g = arcset.host
    nbr = g.neighbor_ids
    tails = [u for u, _ in arcset.ids]
    heads = [v for _, v in arcset.ids]
    outs: list[tuple] = [()] * len(g)  # outs[v]: numbers of the arcs leaving v
    for a, u in enumerate(tails):
        outs[u] += (a,)
    succ = []
    indegree = [0] * len(tails)
    for u, v in zip(tails, heads):
        direct = [heads[b] for b in outs[v]]
        nxt = [b for w in nbr[v] if w != u and w not in direct
               for b in outs[w] if heads[b] != v]
        nxt += outs[v]
        for b in nxt:
            indegree[b] += 1
        succ.append(nxt)
    peeled = [a for a, d in enumerate(indegree) if not d]
    for a in peeled:
        for b in succ[a]:
            indegree[b] -= 1
            if not indegree[b]:
                peeled.append(b)
    if len(peeled) == len(tails):
        return None
    pred = [-1] * len(tails)
    for a, d in enumerate(indegree):
        if d:
            for b in succ[a]:
                if indegree[b] and pred[b] < 0:
                    pred[b] = a
    a = next(a for a, d in enumerate(indegree) if d)
    first_seen: dict = {}
    while a not in first_seen:
        first_seen[a] = len(first_seen)
        a = pred[a]
    cycle = list(first_seen)[first_seen[a]:][::-1]  # each arc leads to the next
    walk = []  # (vertex, is the step leaving it an arc?)
    for i, a in enumerate(cycle):
        walk.append((tails[a], True))
        if tails[cycle[(i + 1) % len(cycle)]] != heads[a]:
            walk.append((heads[a], False))
    stack: list[int] = []    # the walk so far, with each closed cycle cut out
    arc_out: list[bool] = []  # is the step leaving stack[i] an arc?
    at: dict = {}
    for v, is_arc in walk:
        p = at.get(v)
        if p is None:
            at[v] = len(stack)
            stack.append(v)
        else:
            if arc_out[-1] or arc_out[p]:
                return [g.vertices[w] for w in stack[p:]]
            for w in stack[p + 1:]:
                del at[w]
            del stack[p + 1:], arc_out[p:]
        arc_out.append(is_arc)
    return [g.vertices[w] for w in stack]


def find_chain_twist(arcset: ArcSet, method: str = "exhaustive") -> Optional[list]:
    """Search for a chain twist; return a witness cycle or None.

    ``method="exhaustive"`` visits every simple cycle of the host in one
    depth-first scan over vertex ids, in a fixed order, and decides each
    one, forward then backward, in O(1) (see :func:`_exhaustive_twist`). The
    witness, orientation included, is the first twisted traversal in that
    order. Cycles are exponentially many, so it refuses a host outside
    :func:`exhaustive_fits` with :class:`ResourceLimitError`.

    ``method="walk"`` decides and extracts a witness in one pass over the
    graph whose nodes are the arcs (see :func:`_walk_twist`): a chain twist
    exists exactly when that graph has a cycle, and the witness is read off
    the arcs Kahn peeling leaves. It takes O(|A| * Delta) time, Delta being
    the host's maximum degree, for arc sets without two arcs leaving one
    vertex, and O(|A| * Delta * D) with D the largest out-degree otherwise.
    """
    problems = validate_arcset(arcset)
    if problems:
        raise ValueError(problems[0])
    host = arcset.host
    if method == "exhaustive":
        if not exhaustive_fits(host):
            raise ResourceLimitError(
                f"host has {len(host)} vertices and {host.edge_count} edges; exhaustive search "
                f"takes at most {EXHAUSTIVE_VERTEX_LIMIT} and {EXHAUSTIVE_EDGE_LIMIT}, "
                "pass method='walk' instead")
        return _exhaustive_twist(arcset)
    if method == "walk":
        return _walk_twist(arcset)
    raise ValueError(f"unknown method {method!r}")


def _color_change(nbr, blue: bytearray, target: Optional[dict] = None) -> list:
    """Run the colour change rule over vertex ids to its fixed point.

    ``nbr`` lists each vertex's neighbour ids and ``blue`` holds 1 for a
    blue vertex and 0 for a white one; it is updated in place. A blue vertex
    with exactly one white neighbour forces it, the smallest ready forcer id
    first. With ``target`` (tail id -> head id), the arcs of a dipath forest
    whose chain-initial vertices are the blue ones, only tails force. A ready
    tail's one white neighbour is then its head, because only that tail can
    force the head.
    Returns the (forcer, forced) id pairs in execution order.

    The white counts are filled from the rows of the smaller colour class:
    each vertex's degree less its blue neighbours, or its white neighbours.
    """
    n = len(nbr)
    blues = list(compress(range(n), blue))
    if 2 * len(blues) <= n:
        white_count, rows, step = list(map(len, nbr)), blues, -1
    else:
        white_count, rows, step = [0] * n, [v for v in range(n) if not blue[v]], 1
    for v in rows:
        for w in nbr[v]:
            white_count[w] += step
    heap = [v for v in blues if white_count[v] == 1]  # ascending: a heap
    forces = []
    while heap:
        u = heapq.heappop(heap)
        if white_count[u] != 1:
            continue
        if target is None:
            t = next(w for w in nbr[u] if not blue[w])
        else:
            t = target.get(u)
            if t is None:
                continue
        blue[t] = 1
        forces.append((u, t))
        for w in nbr[t]:
            white_count[w] -= 1
            if blue[w] and white_count[w] == 1:
                heapq.heappush(heap, w)
        if white_count[t] == 1:
            heapq.heappush(heap, t)
    return forces


def is_forcing_arc_set(arcset: ArcSet) -> bool:
    """Can the arcs be executed as a complete zero forcing run?

    Starting from the chain-initial vertices coloured blue, repeatedly
    perform any arc whose tail is blue with the head its only white
    neighbour. Because each vertex has at most one incoming arc, a
    performable arc stays performable, so greedy execution (lowest tail id
    first) is complete: it performs every arc exactly when some schedule
    does.
    """
    decompose(arcset)  # refuses arcs that are not vertex-disjoint directed paths
    nbr = arcset.host.neighbor_ids
    blue = bytearray(b"\x01") * len(nbr)
    for _, v in arcset.ids:
        blue[v] = 0
    return len(_color_change(nbr, blue, dict(arcset.ids))) == len(arcset.ids)


def product_arcset(arcset: ArcSet, other: Graph) -> ArcSet:
    """Lift a forcing arc set onto the cartesian product with another graph.

    A copy of the arcs is laid into each fibre of the first factor, giving
    |arcs| * |V(other)| arcs that again form a forcing arc set.
    """
    if not is_forcing_arc_set(arcset):
        raise ValueError("arc set must be forcing to lift over a product")
    product = cartesian_product(arcset.host, other)
    return ArcSet(product, [((u, x), (v, x)) for u, v in arcset for x in other.vertices])
