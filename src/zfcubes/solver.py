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

Two stops end the search as soon as Z is proven. A successor of the bucket
of cost c that is the full set at cost c + 1 ends it at once: every state of
cost at most c was checked and is not full, so no path is cheaper. And
``solve_exact`` already holds a checked forcing set of some size u, the
copy-0 half of a twisted cube or else all n vertices, so it runs the
wavefront only up to cost u - 1. If those buckets drain without the full
set, no set of fewer than u vertices forces, and Z = u.

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

The same rule decides whole subtrees. Let P != V be closed. For a vertex
u, let S_u be its white neighbours but the lowest, with u itself if u is
white. When 1 <= |S_u| <= r, the least vertex of S_u is u's *threshold*,
and every vertex at or below some threshold is an *r-trigger* of P. If R
is a set of at most r vertices, all past the highest r-trigger, then P | R
is closed and not full. Proof: let y be R's least vertex. A force by u in
P | R needs R to hold all of u's white neighbours but one, and u if u is
white; a blue u has at least two, because P is closed. Those are |S_u|
vertices at or past y, and leaving out the lowest neighbour gives the
highest least vertex, so y is at most u's threshold. If P | R were full,
S_w would lie in R for the least white vertex w, with the same result. So
at a prefix with r >= 2 slots left and next candidate x, the empty prefix
(closed, with r = k) included, the highest r-trigger is found by scanning
the white vertices from x on from the top down with their blue neighbours,
since a threshold is at most the vertex's top white neighbour, or the
vertex if it is white. No subset whose next vertex lies past it can force,
and those subsets are counted with one binomial. The scan is skipped when
r is at least the maximum degree, where it was measured to cost more than
it saves.
The wavefront runs one level of this enumeration at k = z to return the
same witness: the lexicographically least forcing set of size z.

The wavefront's argument holds from any closed start S in place of the
empty set: the vertices a path from S colours by choice form a set R, as
large as the path's cost, that makes S | R force, and any such R gives a
path from S that costs at most |R|. So the wavefront from S with limit r
reaches the full set exactly when some r vertices complete S. The witness
level prunes with it. Once the subtree of the first next vertex of a
nonempty prefix P with r >= 2 slots left has failed, the wavefront runs
from the closure of P with limit r, memoised on (closure, r). If it cannot
reach the full set, no completion of P forces, and the rest of P's subsets
are counted with one binomial. The check allows every vertex, not only
those after the prefix, so it cuts only what cannot force and the witness
is unchanged. It waits for the first subtree because witnesses tend to lie
on the leftmost path, where a check would be wasted. Successors of one
bucket often share their pre-closure mask, so each wavefront memoises its
closures per bucket and drops the memo when it moves to the next bucket.

One closure serves every engine. It scans a mask of blue vertices: one with
exactly one white neighbour forces it, and the forced vertex and its blue
neighbours join the scan, since only their white counts changed. Its
precondition is that no blue vertex outside the scan can force. When a set
A joins a closed set, that holds for A and its neighbours: the wavefront
scans them for a successor, and the enumeration for its one new vertex.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ResourceLimitError
from .forcing import is_zero_forcing_set
from .graphs import Graph

# On 2 vCPUs with Python 3.11.7, Q5 (32 vertices) solved in 1.0-1.3 s, and
# minority-6 (64) stayed inconclusive past 30 s.
DEFAULT_VERTEX_LIMIT = 32
# Every solve refuses more, before its V^2/8-byte masks; at the limit,
# minority-12 with a 1 s budget stopped after 1.03 s at a 63 MB peak.
VERTEX_LIMIT = 1 << 12


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    ``status`` is ``"exact"`` when Z is certified and a witness found,
    ``"inconclusive"`` when a budget or ``max_k`` stopped the search first;
    ``bounds`` always brackets the true zero forcing number.
    ``subsets_tested`` counts decided subsets and states. In the default
    mode it counts one per successor state of the wavefront, and one per
    subset of the witness level and per successor state of that level's
    feasibility checks. In the certificate mode it counts one per subset,
    whether or not it needed a closure.

    The other counts stay 0 in the certificate mode. ``wavefront_closures``
    and ``memo_hits`` split the successor states of every wavefront run into
    those that were closed and those whose closure came from the memo.
    ``feasibility_checks`` counts the wavefront runs of the witness level's
    checks, and ``pruned_subsets`` the subsets that failed checks counted
    in bulk, beyond those the r-trigger rule counts.
    """

    z: Optional[int]
    witness: Optional[tuple]
    subsets_tested: int
    elapsed: float
    status: str
    bounds: tuple[int, int]
    wavefront_closures: int = 0
    memo_hits: int = 0
    feasibility_checks: int = 0
    pruned_subsets: int = 0


def lower_bound(graph: Graph) -> int:
    """Minimum degree: no zero forcing set is smaller (trivial bound)."""
    return graph.min_degree()


def upper_bound(graph: Graph) -> tuple[int, tuple]:
    """Half-set bound for twisted hypercubes.

    The vertices whose final bit is 0 form one of the two glued copies; each
    of them has exactly one neighbour on the other side, so the copy forces
    the rest. Returns (size, witness); the witness is checked to force, by
    :func:`~zfcubes.forcing.is_zero_forcing_set` over vertex ids.
    """
    n = graph.dimension
    if not isinstance(n, int) or n < 1:
        raise ValueError("upper bound needs a twisted hypercube of dimension >= 1")
    if len(graph) != 1 << n or not all(isinstance(v, str) and len(v) == n
                                       for v in graph.vertices):
        raise ValueError("graph does not look like it was built from a twist plan")
    half = tuple(v for v in graph.vertices if v[-1] == "0")
    if not is_zero_forcing_set(graph, half):
        raise ValueError("copy-0 half does not force; not a twisted hypercube")
    return len(half), half


def _close_from(masks, blue: int, scan: int, full: int) -> int:
    # The closure of ``blue``, given that no blue vertex outside ``scan`` can
    # force (module docstring).
    white = full ^ blue
    scan &= blue
    while scan:
        low = scan & -scan
        scan ^= low
        wn = masks[low.bit_length() - 1] & white
        if wn and not wn & (wn - 1):
            blue |= wn
            white ^= wn
            scan |= wn | masks[wn.bit_length() - 1] & blue
    return blue


def _wavefront(masks, full: int, start: int, limit: int, deadline: Optional[float],
               cap: Optional[int]):
    """Cheapest cost, at most ``limit``, of a path from the closed mask
    ``start`` to the full mask.

    It returns as soon as a successor of the bucket of cost c is the full
    mask at cost c + 1, since no state of cost at most c is full.

    Returns (z or None, lower, upper, successors, closures). Without z,
    ``lower`` is proven: every state cheaper than it was expanded, or the
    buckets up to ``limit`` ran dry, and then it is ``limit + 1``. ``upper``
    is the cost of the full mask if a budget stopped the search after
    reaching it, else None. ``successors`` counts the successor states
    evaluated; ``closures`` counts those that needed a closure, the rest
    coming from a memo of the current bucket's pre-closure masks.
    """
    n = len(masks)
    closed = tuple(masks[v] | (1 << v) for v in range(n))
    best = {start: 0}
    buckets = [[] for _ in range(limit + 1)]
    buckets[0].append(start)
    # pre-closure mask -> closure, kept for the current bucket only, which
    # bounds its size by one bucket's successors
    memo = {}
    tested = closures = 0
    cost = 0
    while cost <= limit:
        if best.get(full) == cost:
            return cost, cost, cost, tested, closures
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
                if (cap is not None and tested >= cap or deadline is not None
                        and tested % 512 == 511 and time.monotonic() > deadline):
                    return None, cost + 1, best.get(full), tested, closures
                tested += 1
                pre = blue | added
                succ = memo.get(pre)
                if succ is None:
                    seeds = added
                    while added:
                        low = added & -added
                        added ^= low
                        seeds |= masks[low.bit_length() - 1]
                    succ = memo[pre] = _close_from(masks, pre, seeds, full)
                    closures += 1
                if succ == full:
                    if reach == cost + 1:
                        # no state of cost at most ``cost`` is full
                        return reach, reach, reach, tested, closures
                    # no state at or past this cost can beat the path found
                    limit = reach
                elif reach == limit:
                    continue  # only the full set matters at the limit
                if best.get(succ, reach + 1) > reach:
                    best[succ] = reach
                    buckets[reach].append(succ)
        buckets[cost] = ()
        memo.clear()
        cost += 1
    return None, limit + 1, None, tested, closures


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


def _last_next(masks, blue: int, full: int, x: int, r: int) -> int:
    # For x < n - r: the highest r-trigger of the closed set ``blue`` != full,
    # within [x - 1, n - r]; the scan of the module docstring, S_u as bits.
    last = len(masks) - r
    white = full ^ blue
    scan = white >> x << x
    best = x - 1
    while scan:
        w = scan.bit_length() - 1
        if w <= best:
            break
        scan ^= 1 << w
        wn = masks[w] & white
        if wn.bit_count() <= r:
            wn = wn & (wn - 1) | 1 << w
            t = (wn & -wn).bit_length() - 1
            if t > best:
                best = t
        nb = masks[w] & blue
        while nb:
            low = nb & -nb
            nb ^= low
            wn = masks[low.bit_length() - 1] & white
            if wn.bit_count() <= r + 1:
                wn &= wn - 1
                t = (wn & -wn).bit_length() - 1
                if t > best:
                    best = t
        if best >= last:
            return last
    return best


def _search_level(masks, full: int, k: int, degree: int,
                  deadline: Optional[float], cap: Optional[int],
                  stats: Optional[dict] = None):
    """Enumerate the k-subsets of vertex ids, k >= 1, in lexicographic order.

    Precondition: no set of k - 1 vertices forces, so no prefix's closure
    is full; ``solve_exact`` tries sizes upward from ``lower_bound`` to the
    first witness, and runs the witness level at z.

    Returns (witness ids or None, subsets tested, aborted flag). ``degree``
    is the maximum degree. Only the leaves whose last vertex is a trigger of
    the prefix's closure are closed; the others are counted in bulk. A
    prefix with r >= 2 slots left, the empty one included, descends only
    into next vertices up to its highest r-trigger (module docstring); the
    subsets past it are counted with one binomial. A leaf is checked
    against ``cap`` before its closure, and every other count once, before
    its prefix is left. ``deadline`` is read there too, but not as the empty
    prefix is left: that ends the level, which is then counted in full.

    The default engine's witness level passes ``stats``, a dict of counters.
    Then a nonempty prefix with r >= 2 slots left whose first next vertex
    failed is checked before its other next vertices: if the wavefront from
    its closure cannot reach the full set within r, its remaining subsets
    are counted with one binomial (module docstring). The successors of the
    checks count as tested, and ``stats`` receives the checks' closures,
    memo hits, wavefront runs and the subsets they decided.
    """
    n = len(masks)
    tested = 0
    feasible = {}  # (closure, r) -> whether the wavefront reaches the full set
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
            # scan only where a cut is possible and pays: more than one subset
            # left and r below the maximum degree; with no r-trigger from x
            # on, every subset is past the end
            if x < last and r < degree:
                last = _last_next(masks, blue, full, x, r)
            ends[d] = last
        while True:
            slots = k - d
            if slots == 1:
                # the leaves chosen[1:d + 1] + [y] for y in [x, n), x < n
                pos = x
                rest = trig[d] >> x << x
                while rest:
                    low = rest & -rest
                    rest ^= low
                    y = low.bit_length() - 1
                    tested += y - pos + 1
                    if cap is not None and tested > cap:
                        return None, cap, True
                    if _close_from(masks, blue | low, masks[y] | low, full) == full:
                        return chosen[1:d + 1] + [y], tested, False
                    pos = y + 1
                tested += n - pos
            elif x <= ends[d]:
                blue, t = stack[d], trig[d]
                bit = 1 << x
                if t & bit:
                    blue = _close_from(masks, blue | bit, masks[x] | bit, full)
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
                tested += math.comb(n - 1 - ends[d], slots)
            if cap is not None and tested > cap:
                return None, cap, True
            if d == 0:
                return None, tested, False
            if deadline is not None and time.monotonic() > deadline:
                return None, tested, True
            x = chosen[d] + 1
            d -= 1
            # a subtree of a nonempty prefix failed: check the prefix before
            # its next vertex x; the memo answers all but its first check
            if stats is not None and d and x <= ends[d]:
                slots, blue = k - d, stack[d]
                verdict = feasible.get((blue, slots))
                if verdict is None:
                    z, low, _, used, closures = _wavefront(
                        masks, full, blue, slots, deadline,
                        cap - tested if cap is not None else None)
                    tested += used
                    stats["wavefront_closures"] += closures
                    stats["memo_hits"] += used - closures
                    stats["feasibility_checks"] += 1
                    if z is None and low <= slots:
                        return None, tested, True  # a budget stopped the check
                    verdict = feasible[blue, slots] = z is not None
                if not verdict:
                    if cap is not None and tested + math.comb(n - x, slots) > cap:
                        return None, cap, True
                    stats["pruned_subsets"] += (math.comb(n - x, slots)
                                                - math.comb(n - 1 - ends[d], slots))
                    ends[d] = x - 1


def solve_exact(graph: Graph, *, max_k: Optional[int] = None,
                budget_subsets: Optional[int] = None,
                budget_secs: Optional[float] = None,
                prune: bool = True) -> SolveResult:
    """Exact zero forcing number with a certificate.

    The default engine is the wavefront over closed sets (module docstring),
    run up to cost u - 1, where u is the size of the copy-0 half that
    ``upper_bound`` checks, or n when it refuses the graph. If those
    buckets drain and u is at most ``max_k``, z is u: no smaller set
    forces, and one of size u does. Once the wavefront has found z, one
    enumeration level at size z returns the lexicographically least
    witness; it skips the prefixes that a wavefront from their closure
    shows cannot be completed.

    With ``prune=False`` sizes are tried from max(1, minimum degree) upward
    and every subset of every failing size is decided, giving a literal
    exhaustive certificate; ``subsets_tested`` counts the subsets. Each size
    is one enumeration in lexicographic order, from the empty prefix. A
    subset whose last vertex is no trigger of the closed prefix (module
    docstring) is counted without a closure; the others are closure-tested.
    A prefix with r >= 2 slots left, the empty one included, is extended
    only by next vertices up to its highest r-trigger. Past it no vertex
    can get all but one of its white neighbours chosen, and itself if white,
    so the subsets there cannot force and are counted at once.

    Budgets turn the result inconclusive instead of wrong; ``bounds`` then
    reports a proven lower bound and the best known upper bound.
    ``budget_subsets`` caps ``subsets_tested`` exactly, also inside a
    bulk-counted run of subsets: the enumeration checks a leaf against it
    before the leaf's closure, and every other count once, before its
    prefix is left. In the default engine that count is mostly witness-level
    subsets counted in bulk, not work; ``budget_secs`` caps the work. It is
    measured on the monotonic clock and read before every 512th successor
    state of each wavefront run, a feasibility check's included, so a
    stopped run counts only the states it evaluated, and in the enumeration
    as each nonempty prefix is left, so a size counted in full is ruled
    out whatever the clock says. Exhausting every size up to ``max_k``
    gives the lower bound max_k + 1. When a budget stops the wavefront in
    the bucket of cost c, every cheaper state was expanded and none of cost
    c is full, so the lower bound is c + 1; in the certificate mode it is
    the size being enumerated. No lower bound is below max(1, minimum
    degree). A budget that stops the witness level,
    inside a feasibility check too, leaves bounds (z, z) and no witness. A
    negative ``max_k`` or ``budget_subsets``, or a ``budget_secs`` that is
    negative or not finite, raises ``ValueError``. Past ``VERTEX_LIMIT``
    (4,096) vertices every solve raises ``ResourceLimitError`` at once; a 1 s
    budget at that limit stopped minority-12 after 1.03 s at a 63 MB peak.
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
    if n > VERTEX_LIMIT:
        raise ResourceLimitError(f"{n} vertices exceeds the solver's limit {VERTEX_LIMIT}")
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
    k_start = max(1, lower_bound(graph))
    k_stop = min(max_k, n) if max_k is not None else n

    stats = dict.fromkeys(("wavefront_closures", "memo_hits", "feasibility_checks",
                           "pruned_subsets"), 0)

    def finish(z, witness_ids):
        witness = tuple(graph.vertices[i] for i in witness_ids)
        return SolveResult(z=z, witness=witness, subsets_tested=tested_total,
                           elapsed=time.monotonic() - started, status="exact",
                           bounds=(z, z), **stats)

    def inconclusive(low):
        # no set below the minimum degree forces, whatever stopped the search
        low = max(low, k_start)
        return SolveResult(z=None, witness=None, subsets_tested=tested_total,
                           elapsed=time.monotonic() - started, status="inconclusive",
                           bounds=(low, max(upper, low)), **stats)

    levels = range(k_start, k_stop + 1)
    degree = max(map(int.bit_count, masks))
    if prune:
        z, low, high, tested_total, closures = _wavefront(
            masks, full, 0, min(k_stop, upper - 1), deadline, budget_subsets)
        stats["wavefront_closures"] = closures
        stats["memo_hits"] = tested_total - closures
        if z is None and low == upper <= k_stop:
            z = upper  # nothing smaller forces, and a set of size upper does
        if z is None:
            if high is not None:
                upper = min(upper, high)
            return inconclusive(low)
        levels, upper = (z,), z
    for k in levels:
        cap = budget_subsets - tested_total if budget_subsets is not None else None
        witness_ids, tested, aborted = _search_level(
            masks, full, k, degree, deadline, cap, stats if prune else None)
        tested_total += tested
        if witness_ids is not None:
            return finish(k, witness_ids)
        if aborted:
            # this size was cut short, so only sizes below k are ruled out
            return inconclusive(k)
    if k_stop < n:
        return inconclusive(k_stop + 1)
    raise AssertionError("unreachable: the full vertex set always forces")
