"""Shared test oracles and random-instance generators.

The oracles here deliberately avoid the library's engine code paths: the
naive closure rescans every vertex until nothing changes, and the reference
solver enumerates subsets with itertools and the naive closure only.
"""

from __future__ import annotations

import itertools

from zfcubes import Graph


def naive_closure(graph, initial, rng=None):
    """Fixed point of the colour change rule by repeated full scans.

    When ``rng`` is given the scan order is shuffled each round, exercising
    arbitrary force schedules.
    """
    blue = set(initial)
    changed = True
    while changed:
        changed = False
        order = list(graph.vertices)
        if rng is not None:
            rng.shuffle(order)
        for u in order:
            if u not in blue:
                continue
            whites = [w for w in graph.adjacency[u] if w not in blue]
            if len(whites) == 1:
                blue.add(whites[0])
                changed = True
    return frozenset(blue)


def reference_is_forcing_arc_set(arcset):
    """Execute the arcs by repeated full scans over labels and sets.

    Starting from the vertices no arc enters, any unperformed arc (u, v)
    whose tail u is blue with v as its only white neighbour is performed,
    until nothing changes. True when every arc was performed.
    """
    graph = arcset.host
    blue = set(graph.vertices) - {v for _, v in arcset.arcs}
    pending = set(arcset.arcs)
    changed = True
    while changed:
        changed = False
        for u, v in list(pending):
            whites = [w for w in graph.adjacency[u] if w not in blue]
            if u in blue and whites == [v]:
                blue.add(v)
                pending.discard((u, v))
                changed = True
    return not pending


def reference_zero_forcing_number(graph):
    """Unpruned brute force: smallest k whose lexicographically first
    forcing k-subset exists; returns (z, witness)."""
    verts = list(graph.vertices)
    for k in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, k):
            if len(naive_closure(graph, subset)) == len(verts):
                return k, subset
    raise AssertionError("unreachable: the whole vertex set forces")


def reference_literal_count(graph):
    """Literal exhaustion with itertools and the naive closure: returns
    (z, witness, subsets of sizes max(1, minimum degree) to z up to and
    including the lexicographically first forcing one)."""
    verts = list(graph.vertices)
    start = max(1, min(len(graph.adjacency[v]) for v in verts))
    count = 0
    for k in range(start, len(verts) + 1):
        for subset in itertools.combinations(verts, k):
            count += 1
            if len(naive_closure(graph, subset)) == len(verts):
                return k, subset, count
    raise AssertionError("unreachable: the whole vertex set forces")


def reference_completion_size(graph, initial, limit):
    """Fewest vertices R, at most ``limit``, that make ``initial | R`` force
    the whole graph, found by itertools and the naive closure; None when no
    such R exists."""
    verts = list(graph.vertices)
    for size in range(limit + 1):
        for extra in itertools.combinations(verts, size):
            if len(naive_closure(graph, set(initial) | set(extra))) == len(verts):
                return size
    return None


def reference_adjacency(vertices, edges):
    """Label-set adjacency built from scratch: every vertex maps to the set
    of labels it shares an edge with, whatever the edges' order, direction
    or repetition. Expects edges without loops or unknown endpoints."""
    adjacency = {v: set() for v in vertices}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def reference_is_connected(adjacency):
    """Breadth-first search over label sets."""
    if not adjacency:
        return True
    start = next(iter(adjacency))
    seen, frontier = {start}, [start]
    while frontier:
        found = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    found.append(w)
        frontier = found
    return len(seen) == len(adjacency)


def reference_twisted_cube(spec):
    """(vertices, edges) of a twisted hypercube by the plan's recursion over
    label strings: the left child's labels get '0' appended, the right
    child's '1', and a0 is joined to matching[a]1."""
    if spec.is_leaf:
        return [""], []
    left_verts, left_edges = reference_twisted_cube(spec.left)
    right_verts, right_edges = reference_twisted_cube(spec.right)
    verts = [v + "0" for v in left_verts] + [v + "1" for v in right_verts]
    edges = [(a + "0", b + "0") for a, b in left_edges]
    edges += [(a + "1", b + "1") for a, b in right_edges]
    edges += [(a + "0", spec.matching[a] + "1") for a in left_verts]
    return verts, edges


def reference_document(graph, arcs=None, initial_set=None, extras=None):
    """The JSON document as a dict, from the format alone: the keys
    ``dimension``, ``vertices``, ``edges``, ``arcs`` (None without an arc
    set) and ``twisted_edges`` in that order, then ``set`` and the extras
    sorted by key. Vertices keep ``graph.vertices``' order; an edge is
    written from its earlier end, and pairs are sorted by their ends'
    positions. A twisted edge joins two bit strings of one length that differ
    in more than one position. Reads only ``vertices``, ``dimension``,
    ``neighbors()`` and ``arcs.arcs``."""
    verts = list(graph.vertices)
    position = {v: i for i, v in enumerate(verts)}
    edges = [[u, v] for u in verts for v in sorted(graph.neighbors(u), key=position.get)
             if position[v] > position[u]]

    def twisted(u, v):
        return (len(u) == len(v) and set(u + v) <= {"0", "1"}
                and sum(a != b for a, b in zip(u, v)) > 1)

    doc = {"dimension": graph.dimension, "vertices": verts, "edges": edges,
           "arcs": None if arcs is None else sorted(
               ([u, v] for u, v in arcs.arcs), key=lambda pair: [*map(position.get, pair)]),
           "twisted_edges": [edge for edge in edges if twisted(*edge)]}
    if initial_set is not None:
        doc["set"] = sorted(initial_set, key=position.get)
    for key in sorted(extras or {}):
        doc[key] = extras[key]
    return doc


def random_graph(size, rng, p=0.4):
    """Labelled graph on vertices 0..size-1 with independent edges."""
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < p]
    return Graph(range(size), edges)


def random_connected_graph(size, rng, p=0.4):
    while True:
        g = random_graph(size, rng, p)
        if g.is_connected():
            return g


def all_graphs(size):
    """Every labelled graph on vertices 0..size-1."""
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        yield Graph(range(size), edges)


def all_dipath_arcsets(graph):
    """Every arc set of the host whose arcs form vertex-disjoint directed paths.

    Enumerated by assigning each edge one of {absent, forward, backward}
    subject to in/out-degree at most one and acyclicity.
    """
    edges = graph.edges()
    next_of: dict = {}
    prev_of: dict = {}
    start_of_end = {v: v for v in graph.vertices}
    end_of_start = {v: v for v in graph.vertices}
    chosen: list = []

    def attach(u, v):
        # u must be a chain end, v a chain start, and not the same chain.
        if u in next_of or v in prev_of:
            return None
        su = start_of_end[u]
        if su == v:
            return None  # would close a directed cycle
        ev = end_of_start[v]
        next_of[u] = v
        prev_of[v] = u
        del start_of_end[u]
        del end_of_start[v]
        start_of_end[ev] = su
        end_of_start[su] = ev
        return (u, v, su, ev)

    def detach(token):
        u, v, su, ev = token
        del next_of[u]
        del prev_of[v]
        start_of_end[ev] = v
        end_of_start[su] = u
        start_of_end[u] = su
        end_of_start[v] = ev

    def rec(i):
        if i == len(edges):
            yield list(chosen)
            return
        yield from rec(i + 1)
        u, v = edges[i]
        for arc in ((u, v), (v, u)):
            token = attach(*arc)
            if token is None:
                continue
            chosen.append(arc)
            yield from rec(i + 1)
            chosen.pop()
            detach(token)

    yield from rec(0)


def random_dipath_arcset(graph, rng, keep=0.5):
    """A random dipath-forest arc set, sampled edge by edge."""
    next_of: dict = {}
    prev_of: dict = {}
    start_of_end = {v: v for v in graph.vertices}
    end_of_start = {v: v for v in graph.vertices}
    arcs = []
    edges = graph.edges()
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() > keep:
            continue
        if rng.random() < 0.5:
            u, v = v, u
        if u in next_of or v in prev_of or start_of_end[u] == v:
            continue
        su = start_of_end[u]
        ev = end_of_start[v]
        next_of[u] = v
        prev_of[v] = u
        del start_of_end[u]
        del end_of_start[v]
        start_of_end[ev] = su
        end_of_start[su] = ev
        arcs.append((u, v))
    return arcs


def reference_walk_cycle_exists(arcset):
    """Closed-walk state search over all directed edge traversals.

    States are directed traversals (u, v) of host edges. A step onward from
    v to w != u is allowed along a forward arc always, and along anything
    else only when (u, v) was a forward arc. A directed cycle among these
    states exists exactly when a chain twist does; found here by colouring
    depth-first search over every state.
    """
    g = arcset.host
    nbr = g.neighbor_ids
    idx = g.index
    arc_ids = {(idx[u], idx[v]) for u, v in arcset.arcs
               if u in idx and v in idx}

    def successors(state):
        u, v = state
        forward = (u, v) in arc_ids
        for w in nbr[v]:
            if w == u:
                continue
            if forward or (v, w) in arc_ids:
                yield (v, w)

    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    for a in range(len(g)):
        for b in nbr[a]:
            start = (a, b)
            if color.get(start, WHITE) != WHITE:
                continue
            stack = [(start, successors(start))]
            color[start] = GRAY
            while stack:
                state, succ = stack[-1]
                advanced = False
                for nxt in succ:
                    c = color.get(nxt, WHITE)
                    if c == GRAY:
                        return True
                    if c == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, successors(nxt)))
                        advanced = True
                        break
                if not advanced:
                    color[state] = BLACK
                    stack.pop()
    return False


def random_oriented_arcset(graph, rng, p=0.3):
    """Each edge independently absent or oriented either way: out- and
    in-degrees above one and directed cycles all occur."""
    arcs = []
    for u, v in graph.edges():
        r = rng.random()
        if r < p:
            arcs.append((u, v))
        elif r < 2 * p:
            arcs.append((v, u))
    return arcs


def _simple_cycles(graph):
    """Yield every simple cycle of the graph exactly once, as vertex id lists.

    Each cycle is rooted at its smallest id and oriented so that the second
    id is smaller than the last.
    """
    nbr = graph.neighbor_ids
    n = len(graph)
    on_path = [False] * n
    for root in range(n):
        path = [root]
        on_path[root] = True
        iters = [iter(nbr[root])]
        while iters:
            found = None
            for w in iters[-1]:
                if w == root and len(path) >= 3 and path[1] < path[-1]:
                    yield list(path)
                elif w > root and not on_path[w]:
                    found = w
                    break
            if found is None:
                iters.pop()
                on_path[path.pop()] = False
            else:
                path.append(found)
                on_path[found] = True
                iters.append(iter(nbr[found]))


def reference_is_twisted(arcs, seq, cyclic):
    """The chain-twist rule from its definition, over label pairs: step i
    goes from seq[i] to seq[i + 1] (a cycle also closes from the last vertex
    to the first) and is an arc only when (from, to) is in ``arcs``; a step
    against an arc is a non-arc. True when no two consecutive steps, the last
    and the first of a cycle included, are both non-arcs."""
    count = len(seq) if cyclic else len(seq) - 1
    non_arc = [(seq[i], seq[(i + 1) % len(seq)]) not in arcs for i in range(count)]
    for i in range(count if cyclic else count - 1):
        if non_arc[i] and non_arc[(i + 1) % count]:
            return False
    return True


def reference_find_chain_twist(arcset):
    """Label-level exhaustive scan: every simple cycle from
    :func:`_simple_cycles`, forward then backward, each traversal tested
    step by step against the arc labels. Returns the first chain twist or
    None; ``find_chain_twist(method="exhaustive")`` must return the same."""
    verts = arcset.host.vertices
    arcs = arcset.arcs
    for ids in _simple_cycles(arcset.host):
        cyc = [verts[i] for i in ids]
        if reference_is_twisted(arcs, cyc, cyclic=True):
            return cyc
        rev = [cyc[0]] + cyc[:0:-1]
        if reference_is_twisted(arcs, rev, cyclic=True):
            return rev
    return None
