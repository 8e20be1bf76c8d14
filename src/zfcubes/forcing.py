"""The zero forcing process: closure computation and force records.

Colour change rule: a blue vertex with exactly one white neighbour turns that
neighbour blue. The closure iterates the rule to its fixed point; the derived
set does not depend on the order in which forces are performed, but the
recorded trace does, so the engine schedules deterministically (smallest
forcer id first). The rule runs in ``arcsets._color_change``, the kernel that
also executes forcing arc sets. :func:`closure` builds a label trace;
:func:`derived_count` and :func:`is_zero_forcing_set` count over vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .arcsets import ArcSet, _color_change
from .graphs import Graph


@dataclass(frozen=True)
class ForcingTrace:
    """Chronological record of a closure run.

    ``initial`` is the starting blue set sorted by vertex id; ``forces`` are
    (forcer, forced) pairs in execution order. At the moment of each force,
    the forcer is blue with exactly one white neighbour, the target; a vertex
    is forced at most once.
    """

    graph: Graph
    initial: tuple
    forces: tuple

    @property
    def derived(self) -> frozenset:
        return frozenset(self.initial).union(v for _, v in self.forces)

    def as_pairs(self) -> list[list]:
        """Forces as a plain list of pairs, ready for JSON."""
        return [[u, v] for u, v in self.forces]


def _closure_ids(graph: Graph, initial: Iterable) -> tuple[list, list]:
    """The initial set's ids, ascending, and the kernel's (forcer, forced) id
    pairs from them; a label that is not a vertex is refused."""
    idx = graph.index
    initial_set = set(initial)
    unknown = [v for v in initial_set if v not in idx]
    if unknown:
        raise ValueError(f"initial set contains unknown vertices: {sorted(map(repr, unknown))}")
    start_ids = sorted(map(idx.__getitem__, initial_set))
    blue = bytearray(len(graph))
    for i in start_ids:
        blue[i] = 1
    return start_ids, _color_change(graph.neighbor_ids, blue)


def closure(graph: Graph, initial: Iterable) -> ForcingTrace:
    """Run the colour change rule to its fixed point.

    Ties between simultaneously ready forcers go to the smallest vertex id,
    making the trace reproducible. An empty initial set derives itself.
    """
    verts = graph.vertices
    start_ids, forces = _closure_ids(graph, initial)
    return ForcingTrace(graph,
                        tuple(verts[i] for i in start_ids),
                        tuple((verts[u], verts[t]) for u, t in forces))


def derived_set(graph: Graph, initial: Iterable) -> frozenset:
    return closure(graph, initial).derived


def derived_count(graph: Graph, initial: Iterable) -> int:
    """The size of the closure of the initial set, counted over vertex ids."""
    start_ids, forces = _closure_ids(graph, initial)
    return len(start_ids) + len(forces)


def is_zero_forcing_set(graph: Graph, initial: Iterable) -> bool:
    """True iff the closure of the initial set is the whole vertex set."""
    return derived_count(graph, initial) == len(graph)


def replay_trace(trace: ForcingTrace) -> frozenset:
    """Re-execute a trace step by step, checking each force is legal.

    Returns the final blue set; raises ValueError at the first step where the
    forcer is not blue or does not have the target as its only white
    neighbour.
    """
    graph = trace.graph
    blue = set(trace.initial)
    for step, (u, v) in enumerate(trace.forces):
        if u not in blue:
            raise ValueError(f"step {step}: forcer {u!r} is not blue")
        whites = [w for w in graph.neighbors(u) if w not in blue]
        if whites != [v]:
            raise ValueError(
                f"step {step}: {u!r} has white neighbours {sorted(map(repr, whites))}, "
                f"cannot force {v!r}")
        blue.add(v)
    return frozenset(blue)


def trace_to_arcset(trace: ForcingTrace) -> ArcSet:
    """The force record as an arc set: one arc per (forcer, forced) pair."""
    return ArcSet(trace.graph, trace.forces)
