import itertools

import pytest

from zfcubes import (MatchingError, ResourceLimitError, TwistSpec, bitstrings,
                     bridge_arc_at, build_closed_form, build_hypercube,
                     build_minority_cube, classify, closed_form_arc_pairs, closure,
                     decompose, find_chain_twist, has_in_arc, has_out_arc,
                     identity_matching, is_chain_twist_path, is_forcing_arc_set,
                     is_zero_forcing_set, isolated_vertices, minority_twist_spec,
                     minority_zero_forcing_set, transposition_matching, twisted_edges)


def test_dimension_guards():
    with pytest.raises(ValueError):
        build_minority_cube(2)
    with pytest.raises(ResourceLimitError):
        build_minority_cube(13)


def test_base_dimension_is_the_plain_cube():
    cube = build_minority_cube(3)
    assert cube.graph == build_hypercube(3)
    assert cube.arcs.arcs == {("000", "100"), ("100", "110"),
                              ("001", "101"), ("101", "111")}
    assert cube.bridge_arc is None
    assert cube.twisted_edges == ()
    assert decompose(cube.arcs).isolated == ("010", "011")


def test_dimension_four_matches_the_worked_construction():
    cube = build_minority_cube(4)
    assert set(cube.twisted_edges) == {("0100", "1011"), ("0101", "1010")}
    assert cube.bridge_arc == ("0110", "0111")
    assert cube.bridge_arc in cube.arcs
    assert len(cube.arcs) == 9
    assert decompose(cube.arcs).isolated == ("0100", "0101")
    assert set(cube.graph.edges()) >= set(cube.twisted_edges)


def test_twin_across_a_twisted_edge():
    from zfcubes import twin
    cube = build_minority_cube(4)
    assert twin(cube.graph, "0100") == "1011"
    assert twin(cube.graph, "1011") == "0100"
    assert twin(cube.graph, "0110") == "0111"  # the bridge pair is untwisted


def test_dimension_five_counts():
    cube = build_minority_cube(5)
    assert len(cube.arcs) == 19  # doubles the 9 of the previous level, plus one
    assert decompose(cube.arcs).isolated == ("01000", "01001")


def test_recursive_equals_closed_form():
    for n in range(3, 13):
        cube = build_minority_cube(n)
        assert cube.arcs.arcs == closed_form_arc_pairs(n), n
        assert len(cube.arcs) == 2 ** (n - 1) + 2 ** (n - 3) - 1, n


def test_build_closed_form_returns_arcset_on_the_cube():
    arcset = build_closed_form(4)
    cube = build_minority_cube(4)
    assert arcset == cube.arcs


def test_arc_count_recurrence():
    previous = None
    for n in range(3, 13):
        count = len(closed_form_arc_pairs(n))
        if previous is not None:
            assert count == 2 * previous + 1
        previous = count


def test_chain_length_census():
    for n in range(3, 10):
        census = decompose(build_minority_cube(n).arcs).arc_length_census()
        assert census.pop(2) == 2 ** (n - 2)
        assert census.pop(0) == 2
        assert census.pop(1, 0) == 2 ** (n - 3) - 1
        assert not census


def test_isolated_vertex_positions():
    for n in range(3, 10):
        cube = build_minority_cube(n)
        assert decompose(cube.arcs).isolated == isolated_vertices(n)
        zeros = "0" * (n - 3)
        assert isolated_vertices(n) == ("01" + zeros + "0", "01" + zeros + "1")


def test_classify_and_arc_membership_predicates():
    assert classify("1011") == "10"
    assert classify("0010110") == "00"
    with pytest.raises(ValueError):
        classify("0")
    for n in range(3, 9):
        arcs = closed_form_arc_pairs(n)
        tails = {u for u, _ in arcs}
        heads = {v for _, v in arcs}
        for bits in itertools.product("01", repeat=n):
            v = "".join(bits)
            assert has_out_arc(v) == (v in tails), v
            assert has_in_arc(v) == (v in heads), v


def test_structural_observations():
    for n in range(3, 13):
        cube = build_minority_cube(n)
        # twisted edges only ever join a 10-vertex with a 01-vertex
        for u, v in cube.twisted_edges:
            assert {classify(u), classify(v)} == {"10", "01"}, (n, u, v)
        # the top-level twisted edges each touch an untouched vertex
        isolated = set(isolated_vertices(n))
        top = cube.top_level_twisted_edges
        assert len(top) == (2 if n >= 4 else 0)
        for u, v in top:
            assert u in isolated or v in isolated, (n, u, v)
        # no arc leaves a 11-vertex
        assert all(classify(u) != "11" for u, _ in cube.arcs.arcs), n


def test_twisted_edges_match_graph_scan():
    for n in range(3, 8):
        cube = build_minority_cube(n)
        assert list(cube.twisted_edges) == twisted_edges(cube.graph)


def test_zero_forcing_sets():
    assert minority_zero_forcing_set(3) == ("000", "001", "010", "011")
    assert len(minority_zero_forcing_set(4)) == 7
    assert len(minority_zero_forcing_set(6)) == 25
    for n in range(3, 13):
        zfs = minority_zero_forcing_set(n)
        cube = build_minority_cube(n)
        assert zfs == cube.zero_forcing_set()
        assert len(zfs) == 2 ** (n - 1) - 2 ** (n - 3) + 1
        assert len(zfs) == 2 ** n - len(cube.arcs)
    for n in (3, 4, 6):
        cube = build_minority_cube(n)
        assert is_zero_forcing_set(cube.graph, minority_zero_forcing_set(n))


def test_arcs_are_forcing_at_every_dimension():
    for n in range(3, 13):
        assert is_forcing_arc_set(build_minority_cube(n).arcs), n


def test_no_chain_twist_exhaustively_at_small_dimensions():
    for n in (3, 4):
        assert find_chain_twist(build_minority_cube(n).arcs, method="exhaustive") is None


def _paths_from_bridge(cube, max_len):
    """Chain twist paths that start along the bridge arc, grown step by step."""
    graph, arcs = cube.graph, cube.arcs
    stack = [list(cube.bridge_arc)]
    while stack:
        path = stack.pop()
        yield path
        if len(path) == max_len:
            continue
        for w in graph.neighbors(path[-1]):
            if w in path:
                continue
            extended = path + [w]
            if is_chain_twist_path(arcs, extended):
                stack.append(extended)


def test_bridge_crossings_end_quickly():
    # Any chain twist path leaving the bridge arc and crossing the matching
    # again performs at most one further arc.
    for n in (4, 5):
        cube = build_minority_cube(n)
        for path in _paths_from_bridge(cube, max_len=9):
            crossing = None
            for i in range(1, len(path) - 1):
                if path[i][-1] != path[i + 1][-1]:
                    crossing = i
                    break
            if crossing is None:
                continue
            after = sum(1 for i in range(crossing + 1, len(path) - 1)
                        if (path[i], path[i + 1]) in cube.arcs)
            assert after <= 1, (n, path)


def test_bridge_arc_positions():
    assert bridge_arc_at(4) == ("0110", "0111")
    assert bridge_arc_at(6) == ("010010", "010011")
    with pytest.raises(ValueError):
        bridge_arc_at(3)


def test_closure_from_chain_initials_reaches_everything():
    for n in range(3, 13):
        cube = build_minority_cube(n)
        trace = closure(cube.graph, cube.zero_forcing_set())
        assert len(trace.derived) == 2 ** n, n


def test_twist_plans_equal_the_transposition_plans():
    for n in range(3, 13):
        expected = [identity_matching(level) for level in (1, 2, 3)] + [
            transposition_matching(level, "01" + "0" * (level - 4) + "0",
                                   "10" + "0" * (level - 4) + "1")
            for level in range(4, n + 1)]
        spec = minority_twist_spec(n)
        assert spec.dimension == n
        for table in reversed(expected):
            assert spec.left is spec.right
            assert spec.matching == table
            spec = spec.left
        assert spec.is_leaf


def test_level_tables_keep_the_bijection_check():
    labels = bitstrings(2)
    for table in ({"00": "01", "01": "00", "10": "10"},              # a label missing
                  {"00": "01", "01": "01", "10": "10", "11": "11"},  # not injective
                  {"00": "0", "01": "01", "10": "10", "11": "11"}):  # foreign value
        with pytest.raises(MatchingError):
            TwistSpec.from_level_tables([([""], {"": ""}), (["0", "1"], {"0": "0", "1": "1"}),
                                          (labels, dict(table))])
        with pytest.raises(MatchingError):
            TwistSpec(TwistSpec.identity(2), TwistSpec.identity(2), table)
