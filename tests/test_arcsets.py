import random
import time

import pytest

from helpers import (_simple_cycles, naive_closure, random_connected_graph,
                     random_dipath_arcset, random_graph, random_oriented_arcset,
                     reference_adjacency, reference_find_chain_twist,
                     reference_is_forcing_arc_set, reference_is_twisted,
                     reference_walk_cycle_exists)
from zfcubes import (ArcSet, ArcStructureError, Graph, ResourceLimitError, TwistSpec,
                     build_hypercube, build_minority_cube, build_twisted, closure,
                     complete_graph, cycle_graph, decompose, find_chain_twist,
                     is_chain_twist, is_chain_twist_path, is_forcing_arc_set,
                     is_zero_forcing_set, product_arcset, trace_to_arcset,
                     validate_arcset)
from zfcubes.arcsets import _walk_twist

F3_ARCS = [("000", "100"), ("100", "110"), ("001", "101"), ("101", "111")]


def f3():
    return ArcSet(build_hypercube(3), F3_ARCS)


def alternating_cycle():
    return ArcSet(cycle_graph(4), [(0, 1), (2, 3)])


def test_validate_accepts_base_arcs():
    assert validate_arcset(f3()) == []


def test_a_loop_arc_is_reported_once():
    # a loop is its own reverse, so only the edge check can report it
    assert validate_arcset(ArcSet(build_hypercube(2), [("00", "00")])) == [
        "arc '00'->'00': '00'-'00' is not an edge of the host"]


def test_validate_reports_non_edges_and_reversals():
    q3 = build_hypercube(3)
    problems = validate_arcset(ArcSet(q3, [("000", "011")]))
    assert len(problems) == 1 and "not an edge" in problems[0]
    problems = validate_arcset(ArcSet(q3, [("000", "001"), ("001", "000")]))
    assert len(problems) == 1 and "reverse" in problems[0]
    with pytest.raises(ValueError, match="endpoint is not a vertex of the host"):
        ArcSet(q3, [("000", "x")])


def test_validate_reports_faults_in_id_order():
    with pytest.raises(ValueError, match="endpoint is not a vertex of the host"):
        ArcSet(build_hypercube(2), [("00", "11"), ("01", "zz")])
    arcs = ArcSet(build_hypercube(2), [("00", "11"), ("10", "00"), ("00", "10")])
    assert validate_arcset(arcs) == [
        "arc '00'->'10': the reverse arc is also present",
        "arc '00'->'11': '00'-'11' is not an edge of the host"]


def test_an_arcset_is_its_vertex_id_pairs():
    host = Graph(["b", "a", "c"], [("b", "a"), ("a", "c"), ("c", "b")])  # ids b=0, a=1, c=2
    pairs = [("c", "b"), ("a", "c"), ("b", "a"), ("a", "c")]
    arcs = ArcSet(host, pairs)
    assert arcs.ids == ((0, 1), (1, 2), (2, 0)) and len(arcs) == 3  # the repeat collapses
    assert arcs._arcs is None  # the label set is built on first read
    assert arcs.arcs == set(pairs) and ("a", "c") in arcs and ("c", "a") not in arcs
    assert arcs.sorted_arcs() == list(arcs) == [("b", "a"), ("a", "c"), ("c", "b")]
    foreign = [("b", "a"), ("a", "z"), ("z", "b")]
    for given in (foreign, (arc for arc in foreign)):
        with pytest.raises(ValueError) as err:
            ArcSet(host, given)
        assert str(err.value) == "arc 'a'->'z': endpoint is not a vertex of the host"
    with pytest.raises(TypeError):
        ArcSet(host, [("b", "a"), ("a", ["c"])])


def test_arcset_equality_across_a_host_with_reordered_vertices():
    q3 = build_hypercube(3)
    reordered = Graph(q3.vertices[::-1], [(v, u) for u, v in q3.edges()])
    assert reordered == q3 and reordered.vertices != q3.vertices
    assert ArcSet(reordered, F3_ARCS) == ArcSet(q3, F3_ARCS)
    flipped = [("100", "000")] + F3_ARCS[1:]
    assert ArcSet(reordered, flipped) != ArcSet(q3, F3_ARCS)


def test_decompose_base_chains():
    decomposition = decompose(f3())
    assert decomposition.chains == (("000", "100", "110"),
                                    ("001", "101", "111"),
                                    ("010",), ("011",))
    assert decomposition.initials == ("000", "001", "010", "011")
    assert decomposition.isolated == ("010", "011")


def test_decompose_empty_arcset_gives_singletons():
    decomposition = decompose(ArcSet(build_hypercube(3), []))
    assert decomposition.chain_count == 8
    assert all(len(chain) == 1 for chain in decomposition.chains)


def test_decompose_minority_four():
    cube = build_minority_cube(4)
    decomposition = decompose(cube.arcs)
    assert len(cube.arcs) == 9
    assert decomposition.chain_count == 7
    assert len(decomposition.isolated) == 2


def test_decompose_structure_errors_name_the_vertex():
    q2 = build_hypercube(2)
    with pytest.raises(ArcStructureError) as err:
        decompose(ArcSet(q2, [("00", "01"), ("00", "10")]))
    assert err.value.vertex == "00"
    square = ArcSet(q2, [("00", "01"), ("01", "11"), ("11", "10"), ("10", "00")])
    with pytest.raises(ArcStructureError) as err:
        decompose(square)
    assert err.value.vertex == "00"


def test_chain_twist_predicate_on_cycles():
    arcs = alternating_cycle()
    assert is_chain_twist(arcs, [0, 1, 2, 3])
    single = ArcSet(cycle_graph(4), [(0, 1)])
    assert not is_chain_twist(single, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        is_chain_twist(arcs, [0, 1])
    with pytest.raises(ValueError):
        is_chain_twist(arcs, [0, 1, 3])  # 1-3 is not an edge


def test_chain_twist_predicate_is_direction_sensitive():
    tri = complete_graph(3)
    arcs = ArcSet(tri, [(0, 1), (1, 2)])
    assert is_chain_twist(arcs, [0, 1, 2])
    assert not is_chain_twist(arcs, [0, 2, 1])


def test_chain_twist_path_predicate():
    arcs = f3()
    assert is_chain_twist_path(arcs, ["000", "100"])      # a single arc
    assert is_chain_twist_path(arcs, ["010", "000"])      # a single non-arc edge
    # arc, non-arc, arc alternation
    assert is_chain_twist_path(arcs, ["000", "100", "101", "111"])
    # 010 is untouched by arcs, so any path through it fails
    assert not is_chain_twist_path(arcs, ["000", "010", "011"])
    with pytest.raises(ValueError):
        is_chain_twist_path(arcs, ["000", "111"])


def test_paths_through_untouched_interior_vertices_never_twist():
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng.randint(3, 8), rng)
        arcs = ArcSet(g, random_dipath_arcset(g, rng))
        touched = {v for arc in arcs.arcs for v in arc}
        # random walk path of length 3-5
        start = rng.choice(g.vertices)
        path = [start]
        while len(path) < 5:
            options = [w for w in g.adjacency[path[-1]] if w not in path]
            if not options:
                break
            path.append(rng.choice(options))
        if len(path) < 3:
            continue
        if is_chain_twist_path(arcs, path):
            assert all(v in touched for v in path[1:-1])


def _random_simple_path(graph, rng):
    path = [rng.choice(graph.vertices)]
    for _ in range(rng.randint(0, 6)):
        options = [w for w in graph.neighbors(path[-1]) if w not in path]
        if not options:
            break
        path.append(rng.choice(options))
    return path


def test_twist_predicates_match_the_definition_in_both_directions():
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        g = random_connected_graph(rng.randint(3, 8), rng, p=0.5)
        arc_list = random_oriented_arcset(g, rng, p=rng.choice((0.2, 0.35, 0.5)))
        arcs, arc_pairs = ArcSet(g, arc_list), set(arc_list)
        cycles = [[g.vertices[i] for i in ids] for ids in _simple_cycles(g)]
        for cyc in rng.sample(cycles, min(len(cycles), 10)):
            for seq in (cyc, cyc[::-1]):
                expected = reference_is_twisted(arc_pairs, seq, cyclic=True)
                assert is_chain_twist(arcs, seq) is expected, (seq, arc_list)
                verdicts[expected] += 1
        for _ in range(10):
            path = _random_simple_path(g, rng)
            for seq in (path, path[::-1]):
                expected = reference_is_twisted(arc_pairs, seq, cyclic=False)
                assert is_chain_twist_path(arcs, seq) is expected, (seq, arc_list)
                verdicts[expected] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_find_chain_twist_examples():
    assert find_chain_twist(f3()) is None
    witness = find_chain_twist(alternating_cycle())
    assert witness == [0, 1, 2, 3]
    assert is_chain_twist(alternating_cycle(), witness)


def test_find_chain_twist_guard_and_walk_optin():
    cube = build_minority_cube(5)
    with pytest.raises(ResourceLimitError):
        find_chain_twist(cube.arcs, method="exhaustive")
    assert find_chain_twist(cube.arcs, method="walk") is None


def test_exhaustive_takes_only_hosts_within_both_limits():
    # K10 within the vertex limit took about 1.3 s to scan; K16 would take days
    for size in (10, 16):
        arcs = ArcSet(complete_graph(size), [(0, 1)])
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            find_chain_twist(arcs, method="exhaustive")
        assert time.perf_counter() - started < 0.1, size
        assert find_chain_twist(arcs, method="walk") is None
    # 16 vertices and 32 edges are scanned; one edge more is refused
    rng = random.Random(16)
    pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    for _ in range(5):
        edges = rng.sample(pairs, 33)
        host = Graph(range(16), edges[:32])
        arcs = ArcSet(host, random_dipath_arcset(host, rng))
        exhaustive = find_chain_twist(arcs, method="exhaustive")
        assert (exhaustive is None) == (find_chain_twist(arcs, method="walk") is None)
        assert exhaustive is None or is_chain_twist(arcs, exhaustive)
        with pytest.raises(ResourceLimitError):
            find_chain_twist(ArcSet(Graph(range(16), edges), arcs.ids), method="exhaustive")


def test_walk_witnesses_are_real_chain_twists():
    # Dipath forests on random graphs and on random twisted cubes up to n=7;
    # arbitrary orientations (out-degree above one) on both kinds of host.
    rng = random.Random(1234)
    found = {}
    for case in range(600):
        kind = case % 4
        if kind in (0, 2):
            g = random_graph(rng.randint(3, 10), rng, p=rng.choice([0.3, 0.5, 0.8]))
        else:
            g = build_twisted(TwistSpec.random(rng.randint(3, 7 if kind == 1 else 6), rng))
        if kind < 2:
            arcs = ArcSet(g, random_dipath_arcset(g, rng, keep=rng.random()))
        else:
            arcs = ArcSet(g, random_oriented_arcset(g, rng, p=rng.choice([0.05, 0.2, 0.4])))
        witness = find_chain_twist(arcs, method="walk")
        assert (witness is not None) == reference_walk_cycle_exists(arcs)
        if witness is not None:
            found[kind] = found.get(kind, 0) + 1
            assert is_chain_twist(arcs, witness), (case, witness)
    # the corpus must actually exercise the witness path for every kind
    assert min(found.get(kind, 0) for kind in range(4)) > 40, found


def test_walk_witness_on_a_six_cube_forest_takes_under_a_second():
    # verify twist walks every host over 16 vertices, so forests there must not stall.
    g = build_hypercube(6)
    arcs = ArcSet(g, random_dipath_arcset(g, random.Random(1)))
    start = time.perf_counter()
    witness = find_chain_twist(arcs, method="walk")
    assert time.perf_counter() - start < 1.0
    assert witness is not None and is_chain_twist(arcs, witness)


def test_walk_detector_agrees_with_exhaustive_up_to_twelve_vertices():
    rng = random.Random(77)
    for _ in range(150):
        g = random_graph(rng.randint(3, 12), rng)
        arcs = ArcSet(g, random_dipath_arcset(g, rng))
        exhaustive = find_chain_twist(arcs, method="exhaustive")
        walk = find_chain_twist(arcs, method="walk")
        assert (exhaustive is None) == (walk is None)


def test_exhaustive_scan_matches_the_label_level_oracle():
    # Witness and orientation as the label-level scan over every simple cycle:
    # dipath forests and free orientations on random connected graphs, dipath
    # forests and closure force records on random twisted 3- and 4-cubes.
    # Force records are twist-free, so the scan meets every simple cycle of
    # their hosts; the last case is a complete force record on a 4-cube. The
    # first case is twisted both ways round, so it pins forward before backward.
    rng = random.Random(10)
    cases = [ArcSet(cycle_graph(4), [(0, 1), (2, 1), (2, 3), (0, 3)])]
    for case in range(300):
        g = random_connected_graph(rng.randint(3, 10), rng, p=rng.choice([0.25, 0.4, 0.6]))
        arcs = (random_dipath_arcset(g, rng, keep=rng.random()) if case % 2
                else random_oriented_arcset(g, rng, p=rng.choice([0.1, 0.3, 0.5])))
        cases.append(ArcSet(g, arcs))
    for case in range(40):
        g = build_twisted(TwistSpec.random(4 if case % 10 < 2 else 3, rng))
        if case % 2:
            cases.append(ArcSet(g, random_dipath_arcset(g, rng, keep=rng.random())))
        else:
            s = [v for v in g.vertices if rng.random() < 0.4]
            cases.append(trace_to_arcset(closure(g, s)))
    g = build_twisted(TwistSpec.random(4, rng))
    order = list(g.vertices)
    rng.shuffle(order)
    k = next(k for k in range(1, len(g) + 1) if is_zero_forcing_set(g, order[:k]))
    cases.append(trace_to_arcset(closure(g, order[:k])))
    verdicts = {True: 0, False: 0}
    for arcs in cases:
        witness = find_chain_twist(arcs, method="exhaustive")
        assert witness == reference_find_chain_twist(arcs)
        verdicts[witness is None] += 1
        if witness is not None:
            assert is_chain_twist(arcs, witness)
    assert witness is None and len(arcs) == len(g) - k
    assert min(verdicts.values()) > 100, verdicts


def test_greedy_execution_examples():
    assert is_forcing_arc_set(build_minority_cube(4).arcs)
    assert not is_forcing_arc_set(alternating_cycle())
    assert is_forcing_arc_set(ArcSet(build_hypercube(2), []))


def test_greedy_execution_matches_reference_on_cubes():
    # Dipath forests, force records and arbitrary orientations on random
    # twisted cubes; the closures of the same hosts are swept alongside.
    rng = random.Random(33)
    verdicts = set()
    for case in range(300):
        g = build_twisted(TwistSpec.random(rng.randint(3, 7), rng))
        s = {v for v in g.vertices if rng.random() < rng.choice([0.2, 0.4, 0.6])}
        assert closure(g, s).derived == naive_closure(g, s)
        kind = case % 3
        if kind == 0:
            arcs = ArcSet(g, random_dipath_arcset(g, rng, keep=rng.random()))
        elif kind == 1:
            arcs = trace_to_arcset(closure(g, s))
        else:
            arcs = ArcSet(g, random_oriented_arcset(g, rng, p=rng.choice([0.05, 0.2])))
        try:
            decompose(arcs)
        except ArcStructureError:
            with pytest.raises(ArcStructureError):
                is_forcing_arc_set(arcs)
            continue
        verdict = is_forcing_arc_set(arcs)
        assert verdict == reference_is_forcing_arc_set(arcs)
        verdicts.add((kind, verdict))
    assert {(0, True), (0, False), (1, True), (2, True), (2, False)} <= verdicts


def test_forcing_arcsets_yield_zero_forcing_sets():
    rng = random.Random(31)
    checked = 0
    for _ in range(500):
        g = random_graph(rng.randint(2, 8), rng)
        arcs = ArcSet(g, random_dipath_arcset(g, rng))
        if is_forcing_arc_set(arcs):
            checked += 1
            initials = decompose(arcs).initials
            assert is_zero_forcing_set(g, initials)
            assert len(arcs) == len(g) - len(initials)
    assert checked > 50


def test_chain_count_complements_arc_count():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng.randint(1, 9), rng)
        arcs = ArcSet(g, random_dipath_arcset(g, rng))
        assert decompose(arcs).chain_count == len(g) - len(arcs)


def test_product_lift_of_base_arcs():
    k2 = build_hypercube(1)
    lifted = product_arcset(f3(), k2)
    assert len(lifted) == 8
    assert is_forcing_arc_set(lifted)
    assert len(lifted.host) == 16


def test_product_lift_over_single_vertex_copies_arcs():
    k1 = complete_graph(1)
    lifted = product_arcset(f3(), k1)
    assert {(u[0], v[0]) for u, v in lifted.arcs} == set(F3_ARCS)


def test_product_lift_requires_forcing_input():
    with pytest.raises(ValueError):
        product_arcset(alternating_cycle(), complete_graph(2))


def test_lifted_set_size_follows_arc_complement():
    q3 = build_hypercube(3)
    trace = closure(q3, ["000", "010", "001", "011"])
    arcs = trace_to_arcset(trace)
    lifted = product_arcset(arcs, build_hypercube(1))
    initials = decompose(lifted).initials
    assert len(initials) == len(lifted.host) - len(lifted)
    assert len(initials) == 4 * 2
    assert is_zero_forcing_set(lifted.host, initials)


def test_arc_graph_detector_matches_state_search_on_random_orientations():
    # Arbitrary orientations: out- and in-degree above one, steps against
    # arcs, directed cycles. Only the one-direction-per-edge rule holds.
    rng = random.Random(31)
    outcomes = set()
    for _ in range(400):
        g = random_graph(rng.randint(3, 10), rng, p=rng.choice([0.3, 0.5, 0.8]))
        arcs = ArcSet(g, random_oriented_arcset(g, rng, p=rng.choice([0.1, 0.25, 0.4])))
        assert validate_arcset(arcs) == []
        expected = reference_walk_cycle_exists(arcs)
        assert (_walk_twist(arcs) is not None) == expected
        assert (find_chain_twist(arcs, method="walk") is not None) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_arc_graph_detector_matches_state_search_on_cubes():
    # Force records and dipath forests on random twisted cubes up to n=7.
    rng = random.Random(32)
    outcomes = set()
    for case in range(240):
        g = build_twisted(TwistSpec.random(rng.randint(2, 7), rng))
        if case % 2:
            arcs = ArcSet(g, random_dipath_arcset(g, rng, keep=rng.random()))
        else:
            s = {v for v in g.vertices if rng.random() < rng.choice([0.3, 0.5, 0.7])}
            arcs = trace_to_arcset(closure(g, s))
        expected = reference_walk_cycle_exists(arcs)
        assert (_walk_twist(arcs) is not None) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_minority_cubes_are_twist_free_to_dimension_ten():
    for n in range(3, 11):
        arcs = build_minority_cube(n).arcs
        assert _walk_twist(arcs) is None
        assert not reference_walk_cycle_exists(arcs)


def test_sorted_arcs_order_and_unknown_endpoints():
    host = cycle_graph(4)
    arcs = ArcSet(host, [(3, 0), (0, 1), (2, 3)])
    assert arcs.sorted_arcs() == [(0, 1), (2, 3), (3, 0)]
    arcs.sorted_arcs().clear()
    assert list(arcs) == arcs.sorted_arcs() and len(arcs.sorted_arcs()) == 3
    for stray in [(1, "y"), ("z", 0), ("x", 2), ("y", 0), ("w", 0), ("x", 0)]:
        with pytest.raises(ValueError, match="endpoint is not a vertex of the host"):
            ArcSet(host, [(3, 0), (0, 1), (2, 3), stray])


def test_edge_membership_matches_label_sets():
    rng = random.Random(606)
    for _ in range(150):
        base = random_graph(rng.randint(2, 9), rng, p=rng.choice((0.2, 0.5, 0.8)))
        g = base.relabel(lambda i: f"v{i}")
        adj = reference_adjacency(g.vertices, g.edges())
        verts = list(g.vertices)
        pairs = [(u, v) for u in verts for v in verts if u != v and rng.random() < 0.3]
        arcset = ArcSet(g, pairs)
        got = [m for m in validate_arcset(arcset) if "not an edge" in m]
        assert got == [f"arc {u!r}->{v!r}: {u!r}-{v!r} is not an edge of the host"
                       for u, v in arcset.sorted_arcs()
                       if u in adj and v in adj and v not in adj[u]]
        seq = rng.sample(verts, rng.randint(2, len(verts)))
        missing = [(a, b) for a, b in zip(seq, seq[1:]) if b not in adj[a]]
        if missing:
            with pytest.raises(ValueError, match="is not an edge of the host; not a path"):
                is_chain_twist_path(arcset, seq)
        else:
            is_chain_twist_path(arcset, seq)
        if len(seq) >= 3:
            missing = [(a, b) for a, b in zip(seq, seq[1:] + seq[:1]) if b not in adj[a]]
            if missing:
                a, b = missing[0]
                with pytest.raises(ValueError) as err:
                    is_chain_twist(arcset, seq)
                assert str(err.value) == f"{a!r}-{b!r} is not an edge of the host; not a cycle"
            else:
                is_chain_twist(arcset, seq)
