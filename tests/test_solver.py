import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from helpers import (naive_closure, random_graph, reference_completion_size,
                     reference_literal_count, reference_zero_forcing_number)
from zfcubes import solver
from zfcubes import (Graph, ResourceLimitError, TwistSpec, build_hypercube,
                     build_minority_cube, build_twisted, complete_graph, cycle_graph,
                     is_zero_forcing_set, lower_bound, path_graph, solve_exact,
                     upper_bound)


# Graphs of maximum degree at most 4 with a vertex of degree at most 1: K1,
# P2-P5, the star K1,4 and P3 beside an isolated vertex. The enumeration
# starts at size 1 on them and often stops at level 0.
LOW_DEGREE_GRAPHS = ([complete_graph(1)] + [path_graph(n) for n in range(2, 6)]
                     + [Graph(range(5), [(0, i) for i in range(1, 5)]),
                        Graph(range(4), [(0, 1), (1, 2)])])


def test_lower_bound_is_minimum_degree():
    assert lower_bound(build_hypercube(4)) == 4
    assert lower_bound(complete_graph(1)) == 0
    rng = random.Random(3)
    for _ in range(5):
        g = build_twisted(TwistSpec.random(5, rng))
        assert lower_bound(g) == 5


def test_upper_bound_takes_the_final_bit_zero_half():
    size, witness = upper_bound(build_hypercube(4))
    assert size == 8
    assert witness == tuple(v for v in build_hypercube(4).vertices if v[-1] == "0")
    size, _ = upper_bound(build_minority_cube(4).graph)
    assert size == 8
    size, witness = upper_bound(build_hypercube(1))
    assert size == 1 and witness == ("0",)
    with pytest.raises(ValueError):
        upper_bound(complete_graph(4))


def test_upper_bound_refuses_graphs_that_are_not_twisted_cubes():
    path = Graph(["0", "1", "2"], [("0", "1"), ("1", "2")], dimension=1)
    with pytest.raises(ValueError) as err:
        upper_bound(path)
    assert str(err.value) == "graph does not look like it was built from a twist plan"
    # the right size and labels, but in the copy-0 half {00, 10} each vertex
    # has both of its neighbours, 01 and 11, white
    square = Graph(["00", "01", "10", "11"],
                   [("00", "01"), ("01", "10"), ("10", "11"), ("11", "00")], dimension=2)
    with pytest.raises(ValueError) as err:
        upper_bound(square)
    assert str(err.value) == "copy-0 half does not force; not a twisted hypercube"
    assert solve_exact(square).z == 2


def test_solve_small_hypercubes():
    assert solve_exact(build_hypercube(2)).z == 2
    assert solve_exact(build_hypercube(3)).z == 4
    result = solve_exact(build_hypercube(3), prune=False)
    assert result.z == 4
    assert result.status == "exact"
    assert result.bounds == (4, 4)
    assert result.witness == ("000", "001", "010", "011")
    assert is_zero_forcing_set(build_hypercube(3), result.witness)


def test_solve_minority_four_certifies_seven():
    result = solve_exact(build_minority_cube(4).graph, prune=False)
    assert result.z == 7
    # every 4-, 5- and 6-subset failed before the first 7-subset succeeded
    assert result.subsets_tested == 1820 + 4368 + 8008 + 1
    assert result.witness == ("0000", "0001", "0010", "0011",
                              "0100", "0101", "0110")


def test_solve_q4_exhausts_below_eight():
    result = solve_exact(build_hypercube(4), prune=False)
    assert result.z == 8
    assert result.subsets_tested == 1820 + 4368 + 8008 + 11440 + 1


def test_prune_changes_nothing():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng.randint(1, 8), rng)
        pruned = solve_exact(g, prune=True)
        plain = solve_exact(g, prune=False)
        assert pruned.z == plain.z
        assert pruned.witness == plain.witness


def test_matches_reference_enumerator():
    rng = random.Random(2024)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), rng)
        z, ref_witness = reference_zero_forcing_number(g)
        result = solve_exact(g)
        assert result.z == z
        assert naive_closure(g, result.witness) == frozenset(g.vertices)
        # both enumerations are lexicographic, so witnesses coincide
        assert result.witness == ref_witness


def test_bounds_for_twisted_hypercubes():
    rng = random.Random(8)
    for _ in range(3):
        g = build_twisted(TwistSpec.random(4, rng))
        result = solve_exact(g)
        assert 4 <= result.z <= 8


def test_budget_yields_inconclusive_with_bounds():
    g = build_hypercube(4)
    result = solve_exact(g, budget_subsets=100)
    assert result.status == "inconclusive"
    assert result.z is None and result.witness is None
    lo, hi = result.bounds
    assert lo <= 8 <= hi
    assert result.subsets_tested <= 100


def test_budget_boundaries_keep_tight_bounds():
    g = build_hypercube(3)  # 56 subsets of size 3, witness on the 57th test
    mid = solve_exact(g, budget_subsets=30, prune=False)
    assert (mid.status, mid.bounds, mid.subsets_tested) == ("inconclusive", (3, 4), 30)
    edge = solve_exact(g, budget_subsets=56, prune=False)
    assert (edge.status, edge.bounds, edge.subsets_tested) == ("inconclusive", (4, 4), 56)
    just = solve_exact(g, budget_subsets=57, prune=False)
    assert (just.status, just.z) == ("exact", 4)


def test_max_k_exhaustion_reports_lower_bound():
    result = solve_exact(build_minority_cube(4).graph, max_k=6, prune=False)
    assert result.status == "inconclusive"
    assert result.bounds == (7, 8)
    assert result.subsets_tested == 1820 + 4368 + 8008


def test_vertex_guard_requires_opt_in():
    g = build_twisted(TwistSpec.identity(6))
    with pytest.raises(ResourceLimitError):
        solve_exact(g)
    result = solve_exact(g, budget_subsets=10)
    assert result.status == "inconclusive"


def test_every_solve_refuses_past_the_vertex_limit(monkeypatch):
    # refused before the masks or the half-set bound are built, opted in or not
    monkeypatch.setattr(Graph, "neighbor_masks", property(lambda g: 1 / 0))
    monkeypatch.setattr(solver, "upper_bound", lambda g: 1 / 0)
    g = Graph(range(solver.VERTEX_LIMIT + 1), [])
    for kwargs in ({}, {"max_k": 1}, {"budget_secs": 1}, {"budget_subsets": 0},
                   {"budget_secs": 1, "prune": False}):
        started = time.monotonic()
        with pytest.raises(ResourceLimitError) as err:
            solve_exact(g, **kwargs)
        assert time.monotonic() - started < 0.1
    assert str(err.value) == "4097 vertices exceeds the solver's limit 4096"


def test_trivial_graphs():
    assert solve_exact(complete_graph(1)).z == 1
    assert solve_exact(build_hypercube(1)).z == 1
    assert solve_exact(complete_graph(4)).z == 3


def test_wavefront_certifies_minority_five():
    started = time.monotonic()
    result = solve_exact(build_minority_cube(5).graph)
    assert time.monotonic() - started < 10.0
    assert (result.z, result.status, result.bounds) == (13, "exact", (13, 13))
    # the lexicographically least witness, the one literal enumeration finds
    assert result.witness == ("00000", "00001", "00010", "00011", "00100",
                              "00101", "00110", "00111", "01000", "01001",
                              "01010", "01100", "01101")


# The lexicographically least zero forcing sets of the random twisted 5-cubes
# build_twisted(TwistSpec.random(5, random.Random(seed))), all of size 13.
TWISTED_FIVE_WITNESSES = {
    0: "00000 00001 00010 00011 00101 00110 01001 01010 01011 01101 10001 10011 10100",
    1: "00000 00001 00010 00011 00101 00111 01000 01001 01011 01101 10111 11000 11011",
    2: "00000 00001 00010 00011 00100 00110 01000 01010 01100 01111 10010 10100 11111",
    3: "00000 00001 00010 00011 00101 00110 01000 01010 01011 01110 10000 10010 10110",
    4: "00000 00001 00010 00011 00100 00101 00110 00111 01000 01011 01101 10000 11101",
    5: "00000 00001 00010 00100 00101 00110 01000 01010 01100 01101 01110 10000 10011",
}


def test_default_engine_solves_random_twisted_five_cubes():
    # The time bound rests on the witness level's feasibility prune: without
    # it, seed 5 counts over 7 million subsets in that level.
    started = time.monotonic()
    for seed, witness in TWISTED_FIVE_WITNESSES.items():
        result = solve_exact(build_twisted(TwistSpec.random(5, random.Random(seed))))
        assert (result.z, result.status, result.bounds, result.witness) == (
            13, "exact", (13, 13), tuple(witness.split())), seed
        assert result.feasibility_checks > 0 and result.pruned_subsets > 0
    assert time.monotonic() - started < 5.0


def test_the_wavefront_stops_below_the_checked_half(monkeypatch):
    # Q4's half forces, so the wavefront runs to cost 7 and no further: a
    # bucket at its limit is not expanded, and once buckets 0 to 7 are
    # drained, z is the half's size, 8
    limits = []
    wavefront = solver._wavefront
    monkeypatch.setattr(solver, "_wavefront",
                        lambda *args: limits.append(args[3]) or wavefront(*args))
    result = solve_exact(build_hypercube(4))
    assert (result.z, result.status, limits) == (8, "exact", [7])
    assert result.wavefront_closures + result.memo_hits == 656


def test_the_wavefront_returns_on_a_full_successor_of_the_least_cost():
    # minority-4 reaches the full set from bucket 6 at cost 7, and its
    # wavefront returns on that successor, not at the end of the bucket
    result = solve_exact(build_minority_cube(4).graph)
    assert (result.z, result.status) == (7, "exact")
    assert result.wavefront_closures + result.memo_hits == 201


def test_a_proof_by_the_checked_half_keeps_the_certificate_witness():
    # Z equals the half's size on Q1-Q4, and n on an edgeless graph, where
    # upper_bound refuses the graph. The wavefront drains every bucket below
    # z, evaluates no state of cost z, and the witness is the certificate's.
    for g in [build_hypercube(n) for n in range(1, 5)] + [Graph(range(4), [])]:
        fast, plain = solve_exact(g), solve_exact(g, prune=False)
        assert (fast.z, fast.witness, fast.status) == (plain.z, plain.witness, "exact")
        assert fast.z == (len(g) // 2 if g.dimension else len(g))
        below = solver._wavefront(g.neighbor_masks, (1 << len(g)) - 1, 0, fast.z - 1,
                                  None, None)
        assert below[:3] == (None, fast.z, None)
        assert fast.wavefront_closures + fast.memo_hits == below[3]


def test_wavefront_from_closed_starts_matches_brute_force():
    # From closure(P), the cheapest path costs the fewest vertices R that make
    # P | R force. The witness level's feasibility check rests on this.
    rng = random.Random(0x5747)
    reached = 0
    for _ in range(400):
        g = random_graph(rng.randint(1, 9), rng, p=rng.uniform(0.1, 0.8))
        start = naive_closure(g, rng.sample(g.vertices, rng.randint(0, len(g) // 2)))
        limit = rng.randint(0, len(g))
        z, low, _, tested, closures = solver._wavefront(
            g.neighbor_masks, (1 << len(g)) - 1, _mask(g, start), limit, None, None)
        assert z == reference_completion_size(g, start, limit), (sorted(start), limit)
        assert low == (limit + 1 if z is None else z)
        assert 0 <= closures <= tested
        reached += z is not None
    assert 100 < reached < 400


def test_close_from_matches_the_naive_closure():
    # Both engines' closure. From a closed set S plus white vertices A, only A
    # and their neighbours can force, so that is the scan; an unclosed start
    # is scanned in full.
    rng = random.Random(0xC105E)
    grew = 0
    for _ in range(500):
        g = random_graph(rng.randint(1, 10), rng, p=rng.uniform(0.1, 0.8))
        masks, full = g.neighbor_masks, (1 << len(g)) - 1
        closed = naive_closure(g, rng.sample(g.vertices, rng.randint(0, len(g))))
        white = [v for v in g.vertices if v not in closed]
        for added in (rng.sample(white, rng.randint(0, len(white))), white[:1]):
            scan = _mask(g, added)
            for v in added:
                scan |= masks[g.index[v]]
            expected = _mask(g, naive_closure(g, closed | set(added)))
            got = solver._close_from(masks, _mask(g, closed) | _mask(g, added), scan, full)
            assert got == expected, (sorted(closed), added)
            grew += expected != _mask(g, closed) | _mask(g, added)
        start = rng.sample(g.vertices, rng.randint(0, len(g)))
        assert solver._close_from(masks, _mask(g, start), full, full) == _mask(
            g, naive_closure(g, start))
    assert grew > 100


def test_a_budget_inside_a_feasibility_check_leaves_z_bounds(monkeypatch):
    g = build_twisted(TwistSpec.random(5, random.Random(4)))
    whole = solve_exact(g)
    calls = []
    wavefront = solver._wavefront

    def spy(*args):
        out = wavefront(*args)
        calls.append((args[-1], out[3]))  # (budget left on entry, successors)
        return out

    monkeypatch.setattr(solver, "_wavefront", spy)
    cap = whole.subsets_tested + 1
    assert solve_exact(g, budget_subsets=cap).witness == whole.witness
    monkeypatch.undo()
    # the first run certifies z; the others are the witness level's checks
    assert len(calls) == 1 + whole.feasibility_checks
    for left, used in calls[1:3] + calls[-1:]:
        stop = cap - left + used // 2
        result = solve_exact(g, budget_subsets=stop)
        assert (result.status, result.witness, result.bounds, result.subsets_tested) == (
            "inconclusive", None, (13, 13), stop)


def test_wavefront_matches_reference_on_random_graphs():
    rng = random.Random(0x3AFE)
    for _ in range(200):
        g = random_graph(rng.randint(1, 9), rng, p=rng.uniform(0.1, 0.8))
        result = solve_exact(g)
        assert (result.z, result.witness) == reference_zero_forcing_number(g)
        assert result.status == "exact" and result.bounds == (result.z, result.z)


def test_inconclusive_results_bracket_z():
    rng = random.Random(41)
    cases = [(build_minority_cube(5).graph, 13, True), (build_hypercube(4), 8, True)]
    for g in [random_graph(rng.randint(6, 9), rng) for _ in range(20)] + LOW_DEGREE_GRAPHS:
        cases.append((g, reference_zero_forcing_number(g)[0], True))
    # the certificate mode, whose leaves are counted in bulk
    cases += [(g, z, False) for g, z, _ in cases[1:]]
    for g, z, prune in cases:
        tested = solve_exact(g, prune=prune).subsets_tested
        runs = [({"max_k": z - 1}, None)]
        # the last budget stops one short of the witness; with the wavefront
        # that is inside the witness level, after it found z
        runs += [({"budget_subsets": cap}, cap)
                 for cap in (0, 1, tested // 3, tested // 2, tested - 1) if cap < tested]
        if tested > 512:  # the deadline is read every 512 closures
            runs.append(({"budget_secs": 0.0}, None))
        for kwargs, cap in runs:
            result = solve_exact(g, prune=prune, **kwargs)
            assert (result.status, result.z, result.witness) == ("inconclusive", None, None)
            lo, hi = result.bounds
            assert lo <= z <= hi, (kwargs, result.bounds, z)
            if cap is not None:
                assert result.subsets_tested <= cap
                # every subset is counted, so a cap stops the count exactly
                assert prune or result.subsets_tested == cap
        assert solve_exact(g, max_k=z - 1, prune=prune).bounds[0] == z
        if prune:
            assert solve_exact(g, budget_subsets=tested - 1).bounds == (z, z)
        else:
            assert solve_exact(g, budget_subsets=tested - 1, prune=False).bounds[0] == z
        assert solve_exact(g, budget_subsets=tested, prune=prune).z == z
    # Q5's first 4-prefix has 28 leaves; these caps fall inside bulk-counted runs
    q5 = build_hypercube(5)
    for cap, bounds in ((1, (5, 16)), (27, (5, 16)), (1000, (5, 16)),
                        (150001, (5, 16)), (201375, (5, 16)), (201376, (6, 16))):
        result = solve_exact(q5, max_k=5, budget_subsets=cap, prune=False)
        assert (result.status, result.subsets_tested, result.bounds) == (
            "inconclusive", cap, bounds)


def test_literal_count_matches_reference():
    rng = random.Random(0x11E)
    graphs = [random_graph(rng.randint(1, 9), rng, p=rng.choice((0.1, 0.2, 0.4, 0.7)))
              for _ in range(300)]
    graphs += [build_twisted(TwistSpec.random(4, rng)) for _ in range(6)]
    # sparse graphs, whose prefixes often have no r-trigger near the top, so
    # subsets are counted in bulk also at levels with two or more slots left
    graphs += [random_graph(rng.randint(10, 11), rng, p=rng.choice((0.15, 0.2, 0.25)))
               for _ in range(150)]
    graphs += LOW_DEGREE_GRAPHS
    for g in graphs:
        result = solve_exact(g, prune=False)
        z, witness, count = reference_literal_count(g)
        assert (result.z, result.witness, result.subsets_tested) == (z, witness, count)


def test_literal_count_of_five_cubes_below_their_minimum():
    cubes = [build_hypercube(5), build_minority_cube(5).graph,
             build_twisted(TwistSpec.random(5, random.Random(5)))]
    for g in cubes:
        result = solve_exact(g, max_k=5, prune=False)
        assert (result.status, result.subsets_tested, result.bounds) == (
            "inconclusive", 201376, (6, 16))  # C(32, 5) subsets


def _mask(graph, labels):
    return sum(1 << graph.index[v] for v in labels)


def test_r_triggers_are_sound_and_match_their_definition():
    # Lemma: at a closed prefix P != V with r >= 2 slots left, no subset
    # whose next vertex y lies past every vertex's threshold can force: for
    # every R of at most r vertices from y on, P | R is closed and not full.
    rng = random.Random(0x7A1)
    graphs = [random_graph(rng.randint(2, 10), rng, p=rng.uniform(0.1, 0.7))
              for _ in range(600)]
    # isolated and degree-1 vertices: a pendant path beside K4 and a loose vertex
    graphs += [Graph(range(8), [(0, 1), (1, 2)] + list(itertools.combinations(range(3, 7), 2)))]
    graphs += LOW_DEGREE_GRAPHS
    checked = 0
    for g in graphs:
        n, masks, full = len(g), g.neighbor_masks, (1 << len(g)) - 1
        degree = max(len(g.adjacency[v]) for v in g.vertices)
        closed = naive_closure(g, rng.sample(g.vertices, rng.randint(0, len(g) // 2)))
        if len(closed) == n:
            continue
        blue = _mask(g, closed)

        def white_neighbours(u):
            return sorted((g.index[w] for w in g.adjacency[u] if w not in closed),
                          reverse=True)

        def threshold(u):
            # the highest next vertex from which u can still start a force: a
            # blue u needs c - 1 of its c white neighbours chosen, a white u
            # itself and c - 1 of them
            wn, c = white_neighbours(u), len(white_neighbours(u))
            if u in closed:
                return wn[c - 2] if 2 <= c <= r + 1 else -1
            if c <= 1:
                return g.index[u]
            return min(g.index[u], wn[c - 2]) if c <= r else -1

        def old_top_trigger(x):
            # the rule it replaced: the highest white vertex from x on with at
            # most r white neighbours, or next to a blue one with at most r + 1
            return max((g.index[w] for w in g.vertices if w not in closed
                        and g.index[w] >= x
                        and (len(white_neighbours(w)) <= r
                             or any(b in closed and len(white_neighbours(b)) <= r + 1
                                    for b in g.adjacency[w]))), default=-1)

        for r in range(2, min(degree + 2, n)):
            top = max(map(threshold, g.vertices))
            # next vertices run up to n - r, where r vertices are left to choose
            for x in range(n - r):
                last = solver._last_next(masks, blue, full, x, r)
                assert last == min(n - r, max(x - 1, top)), (r, x, sorted(closed))
                assert last <= min(n - r, max(x - 1, old_top_trigger(x)))
            # the subsets cut from x = 0 include those cut from any later x
            for y in range(solver._last_next(masks, blue, full, 0, r) + 1, n - r + 1):
                for size in range(min(r, n - y)):
                    for rest in itertools.combinations(g.vertices[y + 1:], size):
                        grown = closed | {g.vertices[y], *rest}
                        assert naive_closure(g, grown) == grown != frozenset(g.vertices)
                        checked += 1
    assert checked > 2000


def test_caps_inside_interior_bulk_counts_stop_exactly():
    # Q5 at size 5 enumerates the subsets that start at vertex 0 first. Each
    # cap lands strictly inside one interior-level bulk count among them,
    # located by hand and by logging the counts:
    # - 154: the closure of {0, 1, 2} has highest 2-trigger 8, the threshold
    #   of 0 (its white neighbours 4, 8, 16 but the lowest), so after the 153
    #   subsets with prefix [0, 1, 2] and fourth vertex <= 8, the
    #   C(23, 2) = 253 with a later fourth vertex are counted at once;
    # - 1461 and 4059: {0, 1} is closed and its highest 3-trigger is 5, the
    #   threshold of 1, so the C(26, 3) = 2600 subsets whose third vertex
    #   lies past 5 close the C(30, 3) = 4060 that start with [0, 1];
    # - 7715: {0, 3} has no 3-trigger past 3 (1 and 2 are the thresholds of
    #   white vertices), so all C(28, 3) = 3276 subsets that start with
    #   [0, 3] are one count, after the 7714 before them;
    # - 30101 and 31464: {0} has highest 4-trigger 16 (its neighbour
    #   10000, all four of whose white neighbours lie above it), so the
    #   C(15, 4) = 1365 subsets whose second vertex lies past 16 are the
    #   last of the C(31, 4) = 31465 that start at 0.
    q5 = build_hypercube(5)
    masks, full = q5.neighbor_masks, (1 << 32) - 1
    assert solver._search_level(masks, full, 5, 5, None, None) == (None, 201376, False)
    for cap in (154, 1461, 4059, 7715, 30101, 31464):
        assert solver._search_level(masks, full, 5, 5, None, cap) == (None, cap, True)
        result = solve_exact(q5, max_k=5, budget_subsets=cap, prune=False)
        assert (result.status, result.subsets_tested, result.bounds) == (
            "inconclusive", cap, (5, 16))


def test_deadline_is_read_in_interior_bulk_counts():
    q5 = build_hypercube(5)
    result = solve_exact(q5, max_k=5, budget_secs=0.0, prune=False)
    assert (result.status, result.bounds) == ("inconclusive", (5, 16))
    # A pendant vertex 0 on K8. For sizes 3 to 6 the only threshold of the
    # empty prefix is 0's own, so its highest k-trigger is 0, and [0], closed
    # to {0, 1}, has no (k - 1)-trigger: 1 keeps seven white neighbours and
    # every white vertex six. So the level is two interior-level counts and
    # no leaf level is reached: the C(8, k - 1) subsets that start with 0,
    # then the C(8, k) that start past it. The deadline is read after the
    # first; a cap stops the second exactly.
    g = Graph(range(9), [(0, 1)] + list(itertools.combinations(range(1, 9), 2)))
    masks, full = g.neighbor_masks, (1 << 9) - 1
    past = time.monotonic() - 1
    for k in range(3, 7):
        under = math.comb(8, k - 1)
        assert solver._search_level(masks, full, k, 8, None, None) == (
            None, math.comb(9, k), False)
        assert solver._search_level(masks, full, k, 8, past, None) == (None, under, True)
        for cap in (under, under + 1, math.comb(9, k) - 1):
            assert solver._search_level(masks, full, k, 8, None, cap) == (None, cap, True)
        # a cap that the whole level reaches does not stop it
        assert solver._search_level(masks, full, k, 8, None, math.comb(9, k)) == (
            None, math.comb(9, k), False)
    # K8 alone: the empty prefix has no k-trigger, so all C(8, k) subsets are
    # one count at level 0, which finishes the level before any deadline read
    k8 = complete_graph(8)
    for k in range(3, 7):
        assert solver._search_level(k8.neighbor_masks, (1 << 8) - 1, k, 7, past, None) == (
            None, math.comb(8, k), False)
    # at size 1 the leaves of the empty prefix are the level; C5 has no
    # trigger, so all five are counted and the level is done
    c5 = cycle_graph(5)
    assert solver._search_level(c5.neighbor_masks, (1 << 5) - 1, 1, 2, past, None) == (
        None, 5, False)
    assert solve_exact(g, prune=False).z == 7
    # size 1 is counted in full, so an expired deadline stops size 2 and
    # size 1 stays ruled out
    result = solve_exact(g, budget_secs=0.0, prune=False)
    assert (result.status, result.bounds) == ("inconclusive", (2, 9))


@pytest.mark.parametrize("kwargs", [
    {"budget_secs": float("nan")}, {"budget_secs": float("inf")}, {"budget_secs": -1.0},
    {"budget_subsets": -1}, {"max_k": -1}])
def test_bad_budgets_raise(kwargs):
    with pytest.raises(ValueError):
        solve_exact(build_hypercube(4), **kwargs)


def test_deadline_ignores_the_wall_clock(monkeypatch):
    wall = itertools.count(0, 1000)
    monkeypatch.setattr(solver, "time", SimpleNamespace(time=lambda: next(wall),
                                                        monotonic=time.monotonic))
    for prune in (True, False):
        assert solve_exact(build_hypercube(4), budget_secs=60, prune=prune).z == 8


def test_a_stopped_wavefront_counts_only_the_states_it_evaluated(monkeypatch):
    # a clock that expires at its first read, which comes before the 512th
    # successor state; that state is neither closed nor counted
    clock = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    result = solve_exact(build_minority_cube(5).graph, budget_secs=0.5)
    assert result.status == "inconclusive"
    assert result.subsets_tested == 511 == result.wavefront_closures + result.memo_hits


def test_lower_bound_is_at_least_the_minimum_degree():
    graphs = [build_hypercube(3), build_hypercube(4), build_minority_cube(4).graph,
              build_twisted(TwistSpec.random(5, random.Random(9)))]
    for g in graphs:
        start = max(1, g.min_degree())
        for max_k in range(g.min_degree()):
            for prune in (True, False):
                result = solve_exact(g, max_k=max_k, prune=prune)
                assert result.status == "inconclusive"
                assert result.bounds[0] == start, (max_k, prune, result.bounds)


@pytest.mark.parametrize("prune", [True, False])
def test_deep_levels_do_not_recurse(prune):
    result = solve_exact(complete_graph(1100), budget_secs=30, prune=prune)
    assert (result.z, result.status) == (1099, "exact")
    assert result.witness == tuple(range(1099))


def test_a_stopped_witness_level_prunes_no_more_subsets_than_it_tested():
    # the stop comes before a failed check's subsets are counted as pruned
    graph = build_twisted(TwistSpec.random(5, random.Random(5)))
    result = solve_exact(graph, budget_subsets=1_000_000)
    assert (result.status, result.bounds, result.subsets_tested) == (
        "inconclusive", (13, 13), 1_000_000)
    assert 0 < result.pruned_subsets <= result.subsets_tested
