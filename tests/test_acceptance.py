"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on a green suite). Runtime limits are asserted where a criterion states one.
The extended dimension-5 solves, and the minority checks from dimension 13
to the construction limit, are opt-in through ZFCUBES_EXTENDED=1.
"""

import os
import random
import time

import pytest

from helpers import all_dipath_arcsets, all_graphs, naive_closure, \
    random_connected_graph, random_dipath_arcset, random_graph
from zfcubes import (ArcSet, TwistSpec, build_closed_form, build_hypercube,
                     build_minority_cube, build_twisted,
                     cartesian_product, closed_form_arc_pairs, closure,
                     decompose, dumps_json_document, find_chain_twist,
                     from_json_document, is_forcing_arc_set,
                     is_zero_forcing_set, isolated_vertices,
                     minority_zero_forcing_set, product_arcset, solve_exact,
                     trace_to_arcset)
from zfcubes.graphs import CONSTRUCTION_DIMENSION_LIMIT
from zfcubes.minority import classify

DIMENSIONS = range(3, 13)
# the lexicographically least zero forcing set of the dimension-5 minority cube
MINORITY_FIVE_WITNESS = ("00000", "00001", "00010", "00011", "00100", "00101", "00110",
                         "00111", "01000", "01001", "01010", "01100", "01101")


# random twisted 5-cubes build_twisted(TwistSpec.random(5, random.Random(seed)))
TWISTED_FIVE_SEEDS = (0, 1)


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_minority_counting():
    started = time.monotonic()
    failures = []
    for n in DIMENSIONS:
        cube = build_minority_cube(n)
        if len(cube.arcs) != 2 ** (n - 1) + 2 ** (n - 3) - 1:
            failures.append(f"n={n} arc count {len(cube.arcs)}")
        decomposition = decompose(cube.arcs)
        if decomposition.isolated != isolated_vertices(n):
            failures.append(f"n={n} isolated {decomposition.isolated}")
        census = decomposition.arc_length_census()
        if census.get(2) != 2 ** (n - 2) or census.get(0) != 2:
            failures.append(f"n={n} census {census}")
        if cube.arcs.arcs != closed_form_arc_pairs(n):
            failures.append(f"n={n} closed form differs")
    elapsed = time.monotonic() - started
    report("criterion 1 (arc counts, isolated positions, census, closed form; n=3..12)",
           not failures and elapsed < 5.0,
           failures[0] if failures else f"{elapsed:.2f}s < 5s")


def test_criterion_2_zero_forcing_set_size_and_closure():
    started = time.monotonic()
    failures = []
    for n in DIMENSIONS:
        cube = build_minority_cube(n)
        initials = cube.zero_forcing_set()
        if len(initials) != 2 ** (n - 1) - 2 ** (n - 3) + 1:
            failures.append(f"n={n} set size {len(initials)}")
        if len(closure(cube.graph, initials).derived) != 2 ** n:
            failures.append(f"n={n} closure incomplete")
    elapsed = time.monotonic() - started
    report("criterion 2 (chain-initial sets force all vertices; n=3..12)",
           not failures and elapsed < 10.0,
           failures[0] if failures else f"{elapsed:.2f}s < 10s")


def test_criterion_3_hypercube_baseline():
    started = time.monotonic()
    failures = []
    # every size from the degree bound up to 2^(n-1)-1 is fully enumerated,
    # then the first subset of the answer size succeeds
    expected_tested = {2: 1, 3: 56 + 1, 4: 1820 + 4368 + 8008 + 11440 + 1}
    for n in (2, 3, 4):
        result = solve_exact(build_hypercube(n), prune=False)
        if result.z != 2 ** (n - 1) or result.status != "exact":
            failures.append(f"Q_{n} -> {result.z} ({result.status})")
        elif result.subsets_tested != expected_tested[n]:
            failures.append(f"Q_{n}: {result.subsets_tested} subsets tested")
    elapsed = time.monotonic() - started
    report("criterion 3 (Z(Q_n) = 2^(n-1) for n=2,3,4, exhaustively certified)",
           not failures and elapsed < 60.0,
           failures[0] if failures else f"{elapsed:.2f}s < 60s")


def test_criterion_4_dimension_four_value_and_dimension_six_witness():
    started = time.monotonic()
    result = solve_exact(build_minority_cube(4).graph, prune=False)
    # all 8008 6-subsets (and all 4- and 5-subsets) fail, then the very first
    # 7-subset forces
    six_subsets_checked = result.subsets_tested == 1820 + 4368 + 8008 + 1
    witness25 = minority_zero_forcing_set(6)
    cube6 = build_minority_cube(6)
    one_sided = (len(witness25) == 25
                 and is_zero_forcing_set(cube6.graph, witness25))
    elapsed = time.monotonic() - started
    ok = (result.z == 7 and result.status == "exact" and six_subsets_checked
          and one_sided and elapsed < 10.0)
    report("criterion 4 (minority n=4 solves to exactly 7; n=6 witness of 25 forces)",
           ok,
           f"z={result.z}, {result.subsets_tested} subsets tested, "
           f"n=6 witness size {len(witness25)}, {elapsed:.2f}s < 10s")


@pytest.mark.skipif(not os.environ.get("ZFCUBES_EXTENDED"),
                    reason="extended dimension-5 certification is opt-in "
                           "(set ZFCUBES_EXTENDED=1)")
def test_criterion_4_extended_dimension_five():
    # A literal certificate, independent of the wavefront: every subset of
    # sizes 5-12 (462,370,084) is decided, then 21 at size 13. It took 701 s
    # on 2 vCPUs under Python 3.11.7; the default budget leaves room for a
    # slower machine.
    budget = float(os.environ.get("ZFCUBES_EXTENDED_BUDGET", "2400"))
    result = solve_exact(build_minority_cube(5).graph, prune=False, budget_secs=budget)
    report("criterion 4 extended (minority n=5, literal exhaustion)",
           (result.status, result.z, result.witness, result.subsets_tested) == (
               "exact", 13, MINORITY_FIVE_WITNESS, 462_370_105),
           f"{result.status}, z={result.z}, bounds {list(result.bounds)}, "
           f"{result.subsets_tested} subsets, {result.elapsed:.0f}s")


@pytest.mark.skipif(not os.environ.get("ZFCUBES_EXTENDED"),
                    reason="the certificate sweep over random twisted 5-cubes is opt-in "
                           "(set ZFCUBES_EXTENDED=1)")
def test_criterion_4_extended_random_twisted_five_cubes():
    # The certificate, independent of the wavefront, decides every subset of
    # sizes 5-12 of each cube, so its lower bound meets the default engine's
    # z = 13. Seeds 0 and 1 took 758 s and 799 s on 2 vCPUs under Python
    # 3.11.7, with other work on the second vCPU; seed 2 passed in 795 s.
    budget = float(os.environ.get("ZFCUBES_EXTENDED_BUDGET", "2400"))
    started = time.monotonic()
    failures, times = [], []
    for seed in TWISTED_FIVE_SEEDS:
        graph = build_twisted(TwistSpec.random(5, random.Random(seed)))
        z = solve_exact(graph).z
        left = max(0.0, budget - (time.monotonic() - started))
        result = solve_exact(graph, prune=False, max_k=z - 1, budget_secs=left)
        times.append(f"{result.elapsed:.0f}s")
        if (z, result.status, result.bounds[0], result.subsets_tested) != (
                13, "inconclusive", 13, 462_370_084):
            failures.append(f"seed {seed}: z={z}, {result.status}, bounds "
                            f"{list(result.bounds)}, {result.subsets_tested} subsets")
    report(f"criterion 4 extended (random twisted n=5, seeds {list(TWISTED_FIVE_SEEDS)}, "
           "literal exhaustion below z)",
           not failures, failures[0] if failures else " + ".join(times))


@pytest.mark.skipif(not os.environ.get("ZFCUBES_EXTENDED"),
                    reason="minority cubes past dimension 12 are opt-in "
                           "(set ZFCUBES_EXTENDED=1)")
def test_criterion_1_2_extended_to_the_construction_limit():
    # 13-20 took 61 s together and peaked at 920 MB (dimension 20) on 2 vCPUs
    # under Python 3.11.7
    failures = []
    for n in range(DIMENSIONS.stop, CONSTRUCTION_DIMENSION_LIMIT + 1):
        cube = build_minority_cube(n)
        if len(cube.arcs) != 2 ** (n - 1) + 2 ** (n - 3) - 1:
            failures.append(f"n={n} arc count {len(cube.arcs)}")
        if not is_forcing_arc_set(cube.arcs):
            failures.append(f"n={n} arcs do not execute")
        if find_chain_twist(cube.arcs, method="walk") is not None:
            failures.append(f"n={n} walk finds a twist")
        initials = cube.zero_forcing_set()
        if (len(initials) != 2 ** (n - 1) - 2 ** (n - 3) + 1
                or initials != minority_zero_forcing_set(n)
                or not is_zero_forcing_set(cube.graph, initials)):
            failures.append(f"n={n} chain-initial set")
        if build_closed_form(n, cube.graph).ids != cube.arcs.ids:
            failures.append(f"n={n} closed form differs")
        del cube, initials  # one cube held at a time
    report(f"criteria 1-2 extended (minority n={DIMENSIONS.stop}.."
           f"{CONSTRUCTION_DIMENSION_LIMIT}: counts, execution, walk, set, closed form)",
           not failures, failures[0] if failures else "0 failures")


def test_criterion_5_twist_freeness_matches_greedy_execution():
    cases = 0
    disagreements = []

    def check(graph, arcs):
        nonlocal cases
        cases += 1
        arcset = ArcSet(graph, arcs)
        twist_free = find_chain_twist(arcset, method="exhaustive") is None
        executes = is_forcing_arc_set(arcset)
        if twist_free != executes:
            disagreements.append((graph, arcs))

    for size in range(1, 6):
        for graph in all_graphs(size):
            for arcs in all_dipath_arcsets(graph):
                check(graph, arcs)
    exhaustive_cases = cases
    rng = random.Random(0xF0CE)
    for _ in range(500):
        graph = random_graph(8, rng, p=rng.uniform(0.2, 0.7))
        check(graph, random_dipath_arcset(graph, rng))
    report("criterion 5 (no twist <=> greedy executes; exhaustive <=5 vertices "
           "plus 500 random 8-vertex cases)",
           not disagreements,
           f"{exhaustive_cases} exhaustive + 500 random cases, "
           f"{len(disagreements)} disagreements")


def test_criterion_6_no_chain_twist_in_small_minority_cubes():
    started = time.monotonic()
    witnesses = [find_chain_twist(build_minority_cube(n).arcs, method="exhaustive")
                 for n in (3, 4)]
    elapsed = time.monotonic() - started
    report("criterion 6 (exhaustive cycle scan of minority n=3,4 finds no twist)",
           all(w is None for w in witnesses) and elapsed < 60.0,
           f"witnesses={witnesses}, {elapsed:.2f}s < 60s")


def test_criterion_7_product_lift():
    rng = random.Random(0x9A9A)
    failures = []
    for case in range(25):
        g = random_connected_graph(rng.randint(2, 8), rng)
        h = random_graph(rng.randint(1, 4), rng)
        zg = solve_exact(g)
        zh = solve_exact(h)
        forcing = trace_to_arcset(closure(g, zg.witness))
        lifted = product_arcset(forcing, h)
        if len(lifted) != len(forcing) * len(h):
            failures.append(f"case {case}: size {len(lifted)}")
            continue
        if not is_forcing_arc_set(lifted):
            failures.append(f"case {case}: lift not forcing")
            continue
        implied = len(lifted.host) - len(lifted)
        if implied != zg.z * len(h):
            failures.append(f"case {case}: implied size {implied}")
            continue
        # exhibit a forcing set of size min(Z(G)|H|, Z(H)|G|) on G square H
        product = cartesian_product(g, h)
        if zg.z * len(h) <= zh.z * len(g):
            initials = decompose(lifted).initials
        else:
            symmetric = product_arcset(trace_to_arcset(closure(h, zh.witness)), g)
            swapped = symmetric.host.relabel(lambda p: (p[1], p[0]))
            initials = [(u, x) for x, u in decompose(symmetric).initials]
            if swapped != product:
                failures.append(f"case {case}: product relabel mismatch")
                continue
        bound = min(zg.z * len(h), zh.z * len(g))
        if len(initials) != bound or not is_zero_forcing_set(product, initials):
            failures.append(f"case {case}: bound witness of size {len(initials)}")
    report("criterion 7 (25 random product lifts: sizes, forcing, product bound)",
           not failures, failures[0] if failures else "25 cases clean")


def test_criterion_8_structural_observations():
    violations = []
    for n in DIMENSIONS:
        cube = build_minority_cube(n)
        isolated = set(isolated_vertices(n))
        for u, v in cube.twisted_edges:
            if {classify(u), classify(v)} != {"10", "01"}:
                violations.append(f"n={n}: twisted edge {u}-{v} classes")
        for u, v in cube.top_level_twisted_edges:
            if u not in isolated and v not in isolated:
                violations.append(f"n={n}: top twisted edge {u}-{v} misses isolated")
        for u, _ in cube.arcs.arcs:
            if classify(u) == "11":
                violations.append(f"n={n}: 11-vertex tail {u}")
    report("criterion 8 (twisted-edge classes, isolated contact, no 11-tails; "
           "n=3..12)", not violations,
           violations[0] if violations else "0 violations")


def test_criterion_9_engine_and_serialization_properties():
    rng = random.Random(0xBEEF)
    failures = []
    for case in range(200):
        g = random_graph(rng.randint(1, 9), rng, p=rng.uniform(0.2, 0.8))
        small = {v for v in g.vertices if rng.random() < 0.4}
        large = small | {v for v in g.vertices if rng.random() < 0.3}
        derived_small = closure(g, small).derived
        derived_large = closure(g, large).derived
        if not derived_small <= derived_large:
            failures.append(f"case {case}: monotonicity")
        if closure(g, derived_small).derived != derived_small:
            failures.append(f"case {case}: idempotence")
        if naive_closure(g, small, rng=rng) != derived_small:
            failures.append(f"case {case}: schedule dependence")
    for case in range(100):
        base = random_graph(rng.randint(1, 10), rng)
        g = base.relabel(lambda i: format(i, "04b"))
        arcs = ArcSet(g, [(format(u, "04b"), format(v, "04b"))
                          for u, v in random_dipath_arcset(base, rng)])
        doc = from_json_document(dumps_json_document(g, arcs))
        if doc.graph != g or doc.arcs.arcs != arcs.arcs:
            failures.append(f"doc case {case}: round trip")
    report("criterion 9 (closure properties x200, serialization round trip x100)",
           not failures, failures[0] if failures else "300 cases clean")
