"""Exact zero forcing number: a wavefront search, and a literal exhaustion.

The default engine (``prune=True``) is the wavefront of Butler and Grout
from the Sage minimum-rank library, surveyed in Brimkov, Fast and Hicks,
"Computational approaches for zero forcing and related problems" (EJOR
2019). It is a Dijkstra search whose states are *closed* blue sets. From a
closed set S, a move picks a vertex v, colours v and all but one of its white
neighbours, and lets v force the last one. That adds |N[v] \\ S| - 1 vertices,
or 1 when v is white and has no white neighbour, and leads to the closure of
S | N[v]. Every move costs at least one vertex, so the states are expanded
from a bucket queue in cost order, and the first bucket that holds the full
vertex set is the zero forcing number. A cheapest path costs exactly Z: its
added vertices form a forcing set, and replaying the forces of a minimum
forcing set in order gives a path that costs no more.

The certificate mode (``prune=False``) enumerates the candidate sets of
each size in one lexicographic pass over vertex ids, from the empty prefix,
and decides every one, so every smaller size is literally exhausted. The
closure of a partial subset is carried down the enumeration and extended
one vertex at a time, which is sound because closure is monotone and
idempotent. Alongside each closed prefix P goes its trigger mask: the white
vertices whose addition can start a force. Adding any other vertex x leaves
P | {x} closed and not full, so such a subset is decided without a closure:
the leaves under a prefix are counted in bulk and only its triggers are
closure-tested.

The same rule decides whole subtrees. An *r-trigger* of a closed set P is a
white vertex with at most r white neighbours, or a white neighbour of a
blue vertex with at most r + 1 white neighbours; the triggers above are the
1-triggers. If P != V is closed and R is a set of at most r vertices, none
of them an r-trigger of P, then P | R is closed and not full. Proof: if a
blue b in P had one white neighbour left, then b had c >= 2 of them in P,
because P is closed, and R took c - 1 <= r of them, so they are r-triggers.
If a w in R had one white neighbour left, it had at most 1 + (r - 1) in P.
If P | R were full, R would hold every white vertex, each with at most
r - 1 white neighbours. So at a prefix with r >= 2 slots left and next
candidate x, the empty prefix (closed, with r = k) included, the white
vertices from x on are scanned from the top down, stopping at the first
r-trigger w: no subset whose next vertex lies past w can force, and those
subsets are counted with one binomial. The scan is skipped when r is at
least the maximum degree, since every white vertex is then an r-trigger.
The wavefront runs one level of this enumeration at k = z to return the
same witness: the lexicographically least forcing set of size z.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ResourceLimitError
from .forcing import closure
from .graphs import Graph

DEFAULT_VERTEX_LIMIT = 32


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    ``status`` is ``"exact"`` when Z is certified and a witness found,
    ``"inconclusive"`` when a budget or ``max_k`` stopped the search first;
    ``bounds`` always brackets the true zero forcing number.
    ``subsets_tested`` counts decided subsets and states: in the wavefront,
    one per successor state plus one per subset of the witness level; in the
    certificate mode, one per subset, whether or not it needed a closure.
    """

    z: Optional[int]
    witness: Optional[tuple]
    subsets_tested: int
    elapsed: float
    status: str
    bounds: tuple[int, int]


def lower_bound(graph: Graph) -> int:
    """Minimum degree: no zero forcing set is smaller (trivial bound)."""
    return graph.min_degree()


def upper_bound(graph: Graph) -> tuple[int, tuple]:
    """Half-set bound for twisted hypercubes.

    The vertices whose final bit is 0 form one of the two glued copies; each
    of them has exactly one neighbour on the other side, so the copy forces
    the rest. Returns (size, witness); the witness is verified by closure.
    """
    n = graph.dimension
    if not isinstance(n, int) or n < 1:
        raise ValueError("upper bound needs a twisted hypercube of dimension >= 1")
    if len(graph) != 1 << n or not all(isinstance(v, str) and len(v) == n
                                       for v in graph.vertices):
        raise ValueError("graph does not look like it was built from a twist plan")
    half = tuple(v for v in graph.vertices if v[-1] == "0")
    if len(closure(graph, half).derived) != len(graph):
        raise ValueError("copy-0 half does not force; not a twisted hypercube")
    return len(half), half


def _close_mask(masks, blue: int, full: int) -> int:
    # Bitmask closure: force whenever a blue vertex sees exactly one white bit.
    while True:
        previous = blue
        scan = blue
        white = full ^ blue
        while scan:
            low = scan & -scan
            scan ^= low
            wn = masks[low.bit_length() - 1] & white
            if wn and not (wn & (wn - 1)):
                blue |= wn
                white ^= wn
        if blue == previous:
            return blue


def _extend_closure(masks, blue: int, new_vertex: int, full: int) -> int:
    # Re-close after adding one vertex to an already closed blue set. Only the
    # new vertex and blue vertices adjacent to a fresh blue vertex can force,
    # so a worklist of those suffices.
    blue |= 1 << new_vertex
    stack = [new_vertex]
    affected = masks[new_vertex] & blue
    while affected:
        low = affected & -affected
        affected ^= low
        stack.append(low.bit_length() - 1)
    while stack:
        v = stack.pop()
        wn = masks[v] & ~blue & full
        if wn and not (wn & (wn - 1)):
            blue |= wn
            w = wn.bit_length() - 1
            stack.append(w)
            affected = masks[w] & blue
            while affected:
                low = affected & -affected
                affected ^= low
                stack.append(low.bit_length() - 1)
    return blue


def _wavefront(masks, full: int, limit: int, deadline: Optional[float],
               cap: Optional[int]):
    """Cheapest cost, at most ``limit``, of a path from the empty set to the
    full mask.

    Returns (z or None, lower, upper, closures evaluated). Without z,
    ``lower`` is proven: every state cheaper than it was expanded, or the
    buckets up to ``limit`` ran dry. ``upper`` is the cost of the full mask
    if a budget stopped the search after reaching it, else None.
    """
    n = len(masks)
    closed = tuple(masks[v] | (1 << v) for v in range(n))
    best = {0: 0}
    buckets = [[] for _ in range(max(limit, 0) + 1)]
    buckets[0].append(0)
    tested = 0
    cost = 0
    while cost <= limit:
        if best.get(full) == cost:
            return cost, cost, cost, tested
        # a move costs at least one, so the bucket at the limit has no
        # successor within it
        for blue in buckets[cost] if cost < limit else ():
            if best[blue] != cost:
                continue  # reached more cheaply after it was queued
            white = full ^ blue
            for v in range(n):
                added = closed[v] & white
                if not added:
                    continue
                reach = cost + (added.bit_count() - 1 or 1)
                if reach > limit:
                    continue
                if cap is not None and tested >= cap:
                    return None, cost + 1, best.get(full), tested
                tested += 1
                if deadline is not None and tested % 512 == 0 and time.monotonic() > deadline:
                    return None, cost + 1, best.get(full), tested
                succ = _close_mask(masks, blue | added, full)
                if succ == full:
                    # no state at or past this cost can beat the path found
                    limit = reach
                elif reach == limit:
                    continue  # only the full set matters at the limit
                if best.get(succ, reach + 1) > reach:
                    best[succ] = reach
                    buckets[reach].append(succ)
        buckets[cost] = ()
        cost += 1
    return None, limit + 1, None, tested


def _triggers(masks, blue: int, full: int, scan: int) -> int:
    # The white vertices, among or next to those in ``scan``, whose addition
    # to the closed set ``blue`` can start a force: a white vertex with at
    # most one white neighbour, and the white neighbours of a blue vertex
    # with exactly two. A blue vertex of a closed set never has exactly one
    # white neighbour, so adding any other white vertex x leaves
    # ``blue | 1 << x`` closed, and not full.
    white = full ^ blue
    trig = 0
    while scan:
        low = scan & -scan
        scan ^= low
        wn = masks[low.bit_length() - 1] & white
        if white & low:
            if not wn & (wn - 1):
                trig |= low
        elif wn.bit_count() == 2:
            trig |= wn
    return trig


def _top_trigger(masks, blue: int, full: int, scan: int, r: int) -> int:
    # The highest r-trigger of the closed set ``blue`` among the vertices of
    # ``scan``, or -1: a white vertex with at most r white neighbours, or a
    # white neighbour of a blue vertex with at most r + 1. Adding at most r
    # vertices, none of them an r-trigger, leaves ``blue`` closed and not
    # full (module docstring). The scan runs from the top down.
    white = full ^ blue
    scan &= white
    while scan:
        w = scan.bit_length() - 1
        scan ^= 1 << w
        if (masks[w] & white).bit_count() <= r:
            return w
        nb = masks[w] & blue
        while nb:
            low = nb & -nb
            nb ^= low
            if (masks[low.bit_length() - 1] & white).bit_count() <= r + 1:
                return w
    return -1


def _search_level(masks, full: int, k: int, degree: int,
                  deadline: Optional[float], cap: Optional[int]):
    """Enumerate the k-subsets of vertex ids, k >= 1, in lexicographic order.

    Returns (witness ids or None, subsets tested, aborted flag). ``degree``
    is the maximum degree. Only the leaves whose last vertex is a trigger of
    the prefix's closure are closed; the others are counted in bulk. A
    prefix with r >= 2 slots left, the empty one included, descends only
    into next vertices up to its highest r-trigger; the subsets past it are
    counted with one binomial.
    """
    n = len(masks)
    tested = 0
    # Level d holds chosen[d], the closure of chosen[1:d + 1], its triggers,
    # and the last next vertex worth visiting. Level 0 is the empty prefix.
    chosen = [0] * (k + 1)
    stack = [0] * (k + 1)
    trig = [_triggers(masks, 0, full, full)] * (k + 1)
    ends = [0] * (k + 1)
    d = x = blue = 0
    while True:
        # a new prefix at level d, closed to blue, whose next vertex is x
        r = k - d
        if r >= 2:
            last = n - r
            # scan only where a cut is possible: more than one subset left,
            # r below the maximum degree (else every white vertex is an
            # r-trigger) and a closure that is not full; with no r-trigger
            # from x on, every subset is past the end
            if x < last and r < degree and blue != full:
                last = min(last, max(x - 1, _top_trigger(
                    masks, blue, full, full >> x << x, r)))
            ends[d] = last
        while True:
            slots = k - d
            if slots == 1:
                # the leaves chosen[1:d + 1] + [y] for y in [x, n), x < n
                if blue == full:
                    if cap is not None and tested >= cap:
                        return None, tested, True
                    return chosen[1:d + 1] + [x], tested + 1, False
                pos = x
                rest = trig[d] >> x << x
                while rest:
                    low = rest & -rest
                    rest ^= low
                    y = low.bit_length() - 1
                    if cap is not None and tested + y - pos >= cap:
                        return None, cap, True
                    tested += y - pos + 1
                    if _extend_closure(masks, blue, y, full) == full:
                        return chosen[1:d + 1] + [y], tested, False
                    pos = y + 1
                if cap is not None and tested + n - pos > cap:
                    return None, cap, True
                tested += n - pos
                if deadline is not None and time.monotonic() > deadline:
                    return None, tested, True
            elif x <= ends[d]:
                blue, t = stack[d], trig[d]
                bit = 1 << x
                if t & bit:
                    blue = _extend_closure(masks, blue, x, full)
                    t = _triggers(masks, blue, full, full)
                elif not blue & bit:
                    # blue | bit stays closed; only x and its neighbours can
                    # become triggers, and no trigger stops being one
                    blue |= bit
                    t |= _triggers(masks, blue, full, masks[x] | bit)
                d += 1
                chosen[d] = x
                stack[d] = blue
                trig[d] = t
                x += 1
                break
            elif ends[d] < n - slots:
                # no subset whose next vertex lies past ends[d] can force
                past = math.comb(n - 1 - ends[d], slots)
                if cap is not None and tested + past > cap:
                    return None, cap, True
                tested += past
                if deadline is not None and time.monotonic() > deadline:
                    return None, tested, True
            if d == 0:
                return None, tested, False
            x = chosen[d] + 1
            d -= 1


def solve_exact(graph: Graph, *, max_k: Optional[int] = None,
                budget_subsets: Optional[int] = None,
                budget_secs: Optional[float] = None,
                prune: bool = True) -> SolveResult:
    """Exact zero forcing number with a certificate.

    The default engine is the wavefront over closed sets (module docstring).
    Once it has found z, one enumeration level at size z returns the
    lexicographically least witness. ``subsets_tested`` counts one per
    successor state and one per subset of that level.

    With ``prune=False`` sizes are tried from max(1, minimum degree) upward
    and every subset of every failing size is decided, giving a literal
    exhaustive certificate; ``subsets_tested`` counts the subsets. Each size
    is one enumeration in lexicographic order, from the empty prefix. A
    subset whose last vertex is no trigger of the closed prefix (module
    docstring) is counted without a closure; the others are closure-tested.
    A prefix with r >= 2 slots left, the empty one included, is extended
    only by next vertices up to its highest r-trigger; the subsets past it
    cannot force and are counted at once.

    Budgets turn the result inconclusive instead of wrong; ``bounds`` then
    reports a proven lower bound and the best known upper bound.
    ``budget_subsets`` caps ``subsets_tested`` exactly, also inside a
    bulk-counted run of subsets. ``budget_secs`` is measured on the
    monotonic clock and read at least once per 512 closures of the wavefront
    and, in the enumeration, once per prefix whose subsets were counted:
    after the leaves of each prefix with one slot left, which at size 1 is
    the empty prefix, and after each bulk count past a highest r-trigger,
    the empty prefix's included. Exhausting every size up to
    ``max_k`` gives the lower bound max_k + 1. When a budget stops the
    wavefront in the bucket of cost c, every cheaper state was expanded and
    none of cost c is full, so the lower bound is c + 1; in the certificate
    mode it is the size being enumerated. No lower bound is below
    max(1, minimum degree). A budget that stops the witness level leaves
    bounds (z, z) and no witness. A negative ``max_k`` or
    ``budget_subsets``, or a ``budget_secs`` that is negative or not
    finite, raises ``ValueError``.
    """
    n = len(graph)
    if n == 0:
        raise ValueError("empty graph")
    if budget_secs is not None and not (math.isfinite(budget_secs) and budget_secs >= 0):
        raise ValueError(f"budget_secs must be finite and at least 0, not {budget_secs}")
    if budget_subsets is not None and budget_subsets < 0:
        raise ValueError(f"budget_subsets must be at least 0, not {budget_subsets}")
    if max_k is not None and max_k < 0:
        raise ValueError(f"max_k must be at least 0, not {max_k}")
    opted_in = max_k is not None or budget_subsets is not None or budget_secs is not None
    if n > DEFAULT_VERTEX_LIMIT and not opted_in:
        raise ResourceLimitError(
            f"{n} vertices exceeds the default limit {DEFAULT_VERTEX_LIMIT}; "
            "pass an explicit budget or max_k to opt in")
    masks = graph.neighbor_masks
    full = (1 << n) - 1
    try:
        upper, _ = upper_bound(graph)
    except ValueError:
        upper = n
    started = time.monotonic()
    deadline = started + budget_secs if budget_secs is not None else None
    tested_total = 0
    k_start = max(1, graph.min_degree())
    k_stop = min(max_k, n) if max_k is not None else n

    def finish(z, witness_ids):
        witness = tuple(graph.vertices[i] for i in witness_ids)
        return SolveResult(z=z, witness=witness, subsets_tested=tested_total,
                           elapsed=time.monotonic() - started, status="exact",
                           bounds=(z, z))

    def inconclusive(low):
        # no set below the minimum degree forces, whatever stopped the search
        low = max(low, k_start)
        return SolveResult(z=None, witness=None, subsets_tested=tested_total,
                           elapsed=time.monotonic() - started, status="inconclusive",
                           bounds=(low, max(upper, low)))

    levels = range(k_start, k_stop + 1)
    degree = max(map(int.bit_count, masks))
    if prune:
        z, low, high, tested_total = _wavefront(
            masks, full, min(k_stop, upper), deadline, budget_subsets)
        if z is None:
            if high is not None:
                upper = min(upper, high)
            return inconclusive(low)
        levels, upper = (z,), z
    for k in levels:
        cap = budget_subsets - tested_total if budget_subsets is not None else None
        witness_ids, tested, aborted = _search_level(masks, full, k, degree, deadline, cap)
        tested_total += tested
        if witness_ids is not None:
            return finish(k, witness_ids)
        if aborted:
            # this size was cut short, so only sizes below k are ruled out
            return inconclusive(k)
    if k_stop < n:
        return inconclusive(k_stop + 1)
    raise AssertionError("unreachable: the full vertex set always forces")
