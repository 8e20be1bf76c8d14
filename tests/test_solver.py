import random
import time

import pytest

from helpers import naive_closure, random_graph, reference_zero_forcing_number
from zfcubes import (ResourceLimitError, TwistSpec, build_hypercube,
                     build_minority_cube, build_twisted, complete_graph,
                     is_zero_forcing_set, lower_bound, solve_exact, upper_bound)


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
    cases = [(build_minority_cube(5).graph, 13), (build_hypercube(4), 8)]
    for _ in range(20):
        g = random_graph(rng.randint(6, 9), rng)
        cases.append((g, reference_zero_forcing_number(g)[0]))
    for g, z in cases:
        tested = solve_exact(g).subsets_tested
        runs = [({"max_k": z - 1}, None)]
        # the last budget stops the witness level after the wavefront found z
        runs += [({"budget_subsets": cap}, cap)
                 for cap in (0, 1, tested // 3, tested // 2, tested - 1)]
        if tested > 512:  # the deadline is read every 512 closures
            runs.append(({"budget_secs": 0.0}, None))
        for kwargs, cap in runs:
            result = solve_exact(g, **kwargs)
            assert (result.status, result.z, result.witness) == ("inconclusive", None, None)
            lo, hi = result.bounds
            assert lo <= z <= hi, (kwargs, result.bounds, z)
            if cap is not None:
                assert result.subsets_tested <= cap
        assert solve_exact(g, max_k=z - 1).bounds[0] == z
        assert solve_exact(g, budget_subsets=tested - 1).bounds == (z, z)
        assert solve_exact(g, budget_subsets=tested).z == z


@pytest.mark.parametrize("prune", [True, False])
def test_deep_levels_do_not_recurse(prune):
    result = solve_exact(complete_graph(1100), budget_secs=30, prune=prune)
    assert (result.z, result.status) == (1099, "exact")
    assert result.witness == tuple(range(1099))
