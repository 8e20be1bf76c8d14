import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from helpers import (naive_closure, random_graph, reference_literal_count,
                     reference_zero_forcing_number)
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
    # Lemma: if P is closed and no vertex of R is an r-trigger of P, with
    # |R| <= r, then P | R is closed and not the full set.
    rng = random.Random(0x7A1)
    checked = 0
    for _ in range(300):
        g = random_graph(rng.randint(2, 10), rng, p=rng.uniform(0.15, 0.7))
        masks, full = g.neighbor_masks, (1 << len(g)) - 1
        degree = max(len(g.adjacency[v]) for v in g.vertices)
        seed = rng.sample(g.vertices, rng.randint(0, len(g) // 2))
        closed = naive_closure(g, seed)
        if len(closed) == len(g):
            continue
        white = [v for v in g.vertices if v not in closed]
        blue = _mask(g, closed)

        def white_degree(v):
            return sum(w not in closed for w in g.adjacency[v])

        for r in range(1, degree + 1):
            expected = {w for w in white
                        if white_degree(w) <= r
                        or any(b in closed and white_degree(b) <= r + 1
                               for b in g.adjacency[w])}
            found = {w for w in white
                     if solver._top_trigger(masks, blue, full, _mask(g, [w]), r)
                     == g.index[w]}
            assert found == expected, (r, sorted(closed))
            # the top trigger of a range is the highest trigger in it
            for low in range(len(g)):
                in_range = [g.index[w] for w in expected if g.index[w] >= low]
                assert solver._top_trigger(masks, blue, full, full >> low << low, r) == (
                    max(in_range, default=-1))
            others = [v for v in white if v not in expected]
            for size in range(1, min(r, len(others)) + 1):
                for rest in itertools.combinations(others, size):
                    grown = closed | set(rest)
                    assert naive_closure(g, grown) == grown != frozenset(g.vertices)
                    checked += 1
    assert checked > 2000


def test_caps_inside_interior_bulk_counts_stop_exactly():
    # Q5 at size 5 enumerates the subsets that start at vertex 0 first. Each
    # cap lands strictly inside one interior-level bulk count among them,
    # located by hand and by logging the counts:
    # - 302: after the 301 subsets with prefix [0, 1, 2] and fourth vertex
    #   <= 16, the highest 2-trigger of the closure of {0, 1, 2}, the
    #   C(15, 2) = 105 with a later fourth vertex are counted at once;
    # - 3697 and 4059: {0, 1} is closed and its highest 3-trigger is 17
    #   (a white neighbour of 1), so the C(14, 3) = 364 subsets whose third
    #   vertex lies past 17 close the C(30, 3) = 4060 that start with [0, 1];
    # - 7715: {0, 3} has no 3-trigger past 3, so all C(28, 3) = 3276 subsets
    #   that start with [0, 3] are one count, after the 7714 before them;
    # - 30101 and 31464: {0} has highest 4-trigger 16 (its neighbour
    #   10000), so the C(15, 4) = 1365 subsets whose second vertex lies past
    #   16 are the last of the C(31, 4) = 31465 that start at 0.
    q5 = build_hypercube(5)
    masks, full = q5.neighbor_masks, (1 << 32) - 1
    assert solver._search_level(masks, full, 5, 5, None, None) == (None, 201376, False)
    for cap in (302, 3697, 4059, 7715, 30101, 31464):
        assert solver._search_level(masks, full, 5, 5, None, cap) == (None, cap, True)
        result = solve_exact(q5, max_k=5, budget_subsets=cap, prune=False)
        assert (result.status, result.subsets_tested, result.bounds) == (
            "inconclusive", cap, (5, 16))


def test_deadline_is_read_in_interior_bulk_counts():
    q5 = build_hypercube(5)
    result = solve_exact(q5, max_k=5, budget_secs=0.0, prune=False)
    assert (result.status, result.bounds) == ("inconclusive", (5, 16))
    # A pendant vertex 0 on K8. For sizes 3 to 6 the only k-trigger of the
    # empty prefix is 0, and [0] has no (k - 1)-trigger past 0. So the level
    # is two interior-level counts and no leaf level is reached: the C(8, k - 1)
    # subsets that start with 0, then the C(8, k) that start past it. The
    # deadline is read after the first; a cap stops the second exactly.
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
    # one count at level 0, and the deadline is read only after it
    k8 = complete_graph(8)
    for k in range(3, 7):
        assert solver._search_level(k8.neighbor_masks, (1 << 8) - 1, k, 7, past, None) == (
            None, math.comb(8, k), True)
    # at size 1 the leaves of the empty prefix are the level; C5 has no
    # trigger, so all five are counted and the deadline is read after them
    c5 = cycle_graph(5)
    assert solver._search_level(c5.neighbor_masks, (1 << 5) - 1, 1, 2, past, None) == (
        None, 5, True)
    assert solve_exact(g, prune=False).z == 7


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
