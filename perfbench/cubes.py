"""Twisted hypercubes over integer ids, arc sets on them, and their files.

This module does not import ``zfcubes``: the benchmark's inputs and oracles
stay independent of the program they check. The n-bit label of id ``x`` is
``format(x, "0nb")``, leftmost bit most significant, and the copy bit of
level m sits at position m-1 from the left. A level-m matching is a
permutation ``perm`` of the (m-1)-bit prefixes; in every copy fixed by the
n-m trailing bits it joins ``a 0 s`` to ``perm[a] 1 s``. Documents are
written in the package's JSON and DOT formats.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


def label(x: int, n: int) -> str:
    return format(x, f"0{n}b") if n else ""


@dataclass
class Cube:
    """A twisted hypercube over ids 0..2^n-1 with an optional arc set."""

    n: int
    nbr: list          # sorted neighbour ids per vertex
    arcs: list         # (tail, head) id pairs, sorted
    perms: list        # level matchings, perms[m-1] for level m

    @property
    def size(self) -> int:
        return 1 << self.n

    def edges(self) -> list:
        return [(u, v) for u in range(self.size) for v in self.nbr[u] if v > u]

    def labels(self) -> list:
        return [label(x, self.n) for x in range(self.size)]

    def twisted(self) -> list:
        return [(u, v) for u, v in self.edges() if is_twisted(u, v)]

    def heads(self) -> set:
        return {v for _, v in self.arcs}

    def chain_initials(self) -> list:
        heads = self.heads()
        return [x for x in range(self.size) if x not in heads]

    def isolated(self) -> list:
        touched = self.heads() | {u for u, _ in self.arcs}
        return [x for x in range(self.size) if x not in touched]


def is_twisted(u: int, v: int) -> bool:
    """Do the labels differ in more than one position?"""
    return bool((u ^ v) & ((u ^ v) - 1))


def twisted_cube(perms: list) -> Cube:
    """The twisted hypercube whose level-m matching is ``perms[m-1]``."""
    n = len(perms)
    nbr = [[] for _ in range(1 << n)]
    for m, perm in enumerate(perms, start=1):
        shift = n - m
        for s in range(1 << shift):
            for a, b in enumerate(perm):
                u = (a << (shift + 1)) | s
                v = (b << (shift + 1)) | (1 << shift) | s
                nbr[u].append(v)
                nbr[v].append(u)
    for row in nbr:
        row.sort()
    return Cube(n, nbr, [], perms)


def identity(m: int) -> list:
    return list(range(1 << (m - 1)))


def random_perms(n: int, rng: random.Random) -> list:
    perms = []
    for m in range(1, n + 1):
        perm = identity(m)
        rng.shuffle(perm)
        perms.append(perm)
    return perms


def hypercube(n: int) -> Cube:
    return twisted_cube([identity(m) for m in range(1, n + 1)])


def minority_cube(n: int) -> Cube:
    """The dimension-n minority cube with its closed-form arc set.

    Level m >= 4 swaps the prefixes 01 0^(m-4) 0 and 10 0^(m-4) 1. Arcs are
    00a -> 10a and 10a -> 11a for every (n-2)-bit a, plus the carried bridge
    arcs 01 0^k 10 b -> 01 0^k 11 b; 2^(n-1) + 2^(n-3) - 1 in all.
    """
    perms = [identity(m) for m in range(1, n + 1)]
    for m in range(4, n + 1):
        x = int("01" + "0" * (m - 4) + "0", 2)
        y = int("10" + "0" * (m - 4) + "1", 2)
        perms[m - 1][x], perms[m - 1][y] = y, x
    cube = twisted_cube(perms)
    pairs = []
    for a in range(1 << (n - 2)):
        pairs.append((a, (0b10 << (n - 2)) | a))
        pairs.append(((0b10 << (n - 2)) | a, (0b11 << (n - 2)) | a))
    for k in range(n - 3):
        tail_bits = n - k - 4
        prefix = "01" + "0" * k
        for b in range(1 << tail_bits):
            rest = label(b, tail_bits)
            pairs.append((int(prefix + "10" + rest, 2), int(prefix + "11" + rest, 2)))
    cube.arcs = sorted(pairs)
    return cube


def half_trace_arcs(cube: Cube) -> list:
    """Force record from the vertices whose final bit is 0: each one forces
    its only neighbour across the top-level matching."""
    return sorted((u, v) for u in range(0, cube.size, 2) for v in cube.nbr[u] if v & 1)


def random_trace_arcs(cube: Cube, rng: random.Random) -> list:
    """Force record of a random zero forcing set under a random schedule.

    Vertices are added in random order until the closure is everything; the
    closure is then replayed scanning forcers in a fresh random order each
    round. Any complete force record is twist-free.
    """
    order = list(range(cube.size))
    rng.shuffle(order)
    initial = []
    for x in order:
        initial.append(x)
        if len(closure(cube.nbr, initial)) == cube.size:
            break
    blue = set(initial)
    arcs = []
    changed = True
    while changed:
        changed = False
        scan = list(blue)
        rng.shuffle(scan)
        for u in scan:
            whites = [w for w in cube.nbr[u] if w not in blue]
            if len(whites) == 1:
                blue.add(whites[0])
                arcs.append((u, whites[0]))
                changed = True
    return sorted(arcs)


def random_dipath_arcs(cube: Cube, rng: random.Random, keep: float = 0.5) -> list:
    """Random vertex-disjoint directed paths: each edge, in random order, is
    kept with probability ``keep`` in a random direction when that leaves
    in- and out-degree at most one and closes no directed cycle."""
    edges = cube.edges()
    rng.shuffle(edges)
    out_of, in_of = {}, {}
    start_of_end = list(range(cube.size))   # chain end -> chain start
    end_of_start = list(range(cube.size))   # chain start -> chain end
    for u, v in edges:
        if rng.random() > keep:
            continue
        if rng.random() < 0.5:
            u, v = v, u
        if u in out_of or v in in_of or start_of_end[u] == v:
            continue
        su, ev = start_of_end[u], end_of_start[v]
        out_of[u], in_of[v] = v, u
        start_of_end[ev], end_of_start[su] = su, ev
    return sorted(out_of.items())


def closure(nbr, initial) -> set:
    """Fixed point of the colour change rule by repeated full scans.

    ``nbr[v]`` lists the neighbours of v; ids and labels both work.
    """
    blue = set(initial)
    changed = True
    while changed:
        changed = False
        for u in list(blue):
            whites = [w for w in nbr[u] if w not in blue]
            if len(whites) == 1:
                blue.add(whites[0])
                changed = True
    return blue


def is_chain_twist(adjacency: dict, arcs: set, cycle: list) -> bool:
    """A cycle of the host with no two consecutive non-arc steps, a step
    against an arc's direction counting as a non-arc (the definition behind
    ``zfcubes.is_chain_twist``). ``adjacency`` maps each vertex to its
    neighbours."""
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    steps = []
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        if u not in adjacency or v not in adjacency[u]:
            return False
        steps.append((u, v) in arcs)
    return all(steps[i] or steps[(i + 1) % len(steps)] for i in range(len(steps)))


def executes(cube: Cube) -> bool:
    """Do the arcs execute as a complete forcing run from the chain-initial
    vertices? Performs any arc whose tail is blue with the head its only
    white neighbour until none is left."""
    out_of = dict(cube.arcs)
    blue = set(cube.chain_initials())
    changed = True
    while changed:
        changed = False
        for u, v in list(out_of.items()):
            if u in blue and all(w in blue or w == v for w in cube.nbr[u]):
                blue.add(v)
                del out_of[u]
                changed = True
    return not out_of


def document(cube: Cube, with_set: bool = False) -> dict:
    """The package's JSON document for a cube and its arc set."""
    names = cube.labels()
    pair = lambda e: [names[e[0]], names[e[1]]]
    doc = {
        "dimension": cube.n,
        "vertices": names,
        "edges": [pair(e) for e in cube.edges()],
        "arcs": [pair(a) for a in cube.arcs] if cube.arcs else None,
        "twisted_edges": [pair(e) for e in cube.twisted()],
    }
    if with_set:
        doc["set"] = [names[x] for x in cube.chain_initials()]
    return doc


def dot_text(cube: Cube) -> str:
    """The package's DOT rendering: arcs as ``->``, twisted edges in red."""
    names = cube.labels()
    arcs = set(cube.arcs)
    lines = ["graph zfcubes {", f'  dimension="{cube.n}";']
    lines += [f'  "{v}";' for v in names]
    for u, v in cube.edges():
        if (u, v) in arcs:
            stmt = f'"{names[u]}" -> "{names[v]}"'
        elif (v, u) in arcs:
            stmt = f'"{names[v]}" -> "{names[u]}"'
        else:
            stmt = f'"{names[u]}" -- "{names[v]}"'
        if is_twisted(u, v):
            stmt += " [color=red]"
        lines.append(f"  {stmt};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spec_file(cube: Cube) -> dict:
    """Twist plan for ``build twisted-from-spec``: every level as a full table."""
    return {"levels": [{label(a, m - 1): label(b, m - 1) for a, b in enumerate(perm)}
                       for m, perm in enumerate(cube.perms, start=1)]}


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
