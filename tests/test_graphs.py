import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (reference_adjacency, reference_is_connected,
                     reference_twisted_cube)
from zfcubes import (Graph, MatchingError, ResourceLimitError, TwistSpec,
                     bitstrings, build_hypercube, build_twisted, cartesian_product,
                     complete_graph, hamming_distance, identity_matching,
                     path_graph, transposition_matching, twin, twisted_edges,
                     vertex_id)
from zfcubes.graphs import twisted_rows
from zfcubes.minority import minority_twist_spec


def test_hypercube_trivial():
    q0 = build_hypercube(0)
    assert len(q0) == 1 and q0.edge_count == 0
    assert q0.vertices == ("",)


def test_hypercube_dimension_three():
    q3 = build_hypercube(3)
    assert len(q3) == 8
    assert q3.edge_count == 12
    assert all(q3.degree(v) == 3 for v in q3)
    assert q3.is_connected()
    for u, v in q3.edges():
        assert hamming_distance(u, v) == 1


def test_hypercube_guard():
    with pytest.raises(ResourceLimitError):
        build_hypercube(21)
    with pytest.raises(ValueError):
        build_hypercube(-1)


def test_identity_spec_reproduces_hypercube():
    for n in (0, 1, 2, 3, 5):
        assert build_twisted(TwistSpec.identity(n)) == build_hypercube(n)


def test_single_transposition_gives_two_twisted_edges():
    spec = TwistSpec.from_level_matchings([
        identity_matching(1), identity_matching(2),
        transposition_matching(3, "00", "01"),
    ])
    g = build_twisted(spec)
    assert len(g) == 8 and g.edge_count == 12
    assert all(g.degree(v) == 3 for v in g)
    assert twisted_edges(g) == [("000", "011"), ("001", "010")]


def test_malformed_matching_rejected():
    with pytest.raises(MatchingError):
        TwistSpec(TwistSpec.leaf(), TwistSpec.leaf(), {"0": "0"})
    base = TwistSpec.identity(1)
    with pytest.raises(MatchingError):
        TwistSpec(base, base, {"0": "0", "1": "0"})  # not injective


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_specs_regular_and_connected(seed):
    rng = random.Random(seed)
    spec = TwistSpec.random(6, rng)
    g = build_twisted(spec)
    assert len(g) == 64
    assert g.edge_count == 192
    assert all(g.degree(v) == 6 for v in g)
    assert g.is_connected()


def test_fifty_random_specs_dimension_six():
    rng = random.Random(0xC0FFEE)
    for _ in range(50):
        g = build_twisted(TwistSpec.random(6, rng))
        assert g.edge_count == 192 and g.is_connected()
        assert all(g.degree(v) == 6 for v in g)


def test_twin_standard_matching():
    q3 = build_hypercube(3)
    assert twin(q3, "010") == "011"
    assert twin(q3, "011") == "010"


def test_twin_unknown_vertex():
    with pytest.raises(ValueError):
        twin(build_hypercube(2), "000")


def test_twin_is_fixed_point_free_involution():
    rng = random.Random(7)
    for _ in range(10):
        g = build_twisted(TwistSpec.random(4, rng))
        for v in g:
            mate = twin(g, v)
            assert mate != v
            assert twin(g, mate) == v


def test_vertex_id_orientation():
    assert vertex_id("100") == 4  # leftmost character most significant
    assert vertex_id("") == 0
    q3 = build_hypercube(3)
    assert q3.index["100"] == 4


def test_product_recovers_next_hypercube():
    q2, k2 = build_hypercube(2), build_hypercube(1)
    labelled = cartesian_product(q2, k2).relabel(lambda p: p[0] + p[1], dimension=3)
    assert labelled == build_hypercube(3)


def test_product_with_single_vertex_is_identity():
    g = path_graph(4)
    prod = cartesian_product(g, complete_graph(1)).relabel(lambda p: p[0])
    assert prod == g


def test_product_counts():
    rng = random.Random(11)
    from helpers import random_graph
    for _ in range(20):
        g = random_graph(rng.randint(1, 6), rng)
        h = random_graph(rng.randint(1, 6), rng)
        prod = cartesian_product(g, h)
        assert len(prod) == len(g) * len(h)
        assert prod.edge_count == g.edge_count * len(h) + len(g) * h.edge_count


def test_graph_rejects_loops_and_unknown_endpoints():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        Graph([0, 0], [])


def test_equality_is_labelled():
    a = Graph("abc", [("a", "b")])
    b = Graph("cba", [("b", "a")])
    assert a == b
    assert a != Graph("abc", [("b", "c")])


def test_repr_and_edge_count_leave_edge_keys_unbuilt():
    g = build_twisted(TwistSpec.random(6, random.Random(3)))
    assert "edge_keys" not in repr(g) and "edge_keys" not in g.__dict__
    assert g.edge_count == len(g.edges()) == 192
    assert "edge_keys" not in g.__dict__
    assert len(g.edge_keys) == g.edge_count


def test_edges_are_in_canonical_order():
    rng = random.Random(5)
    for _ in range(20):
        verts = [f"v{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(verts)
        g = Graph(verts, [(u, v) for u in verts for v in verts
                          if u < v and rng.random() < 0.4])
        pos = g.index
        expected = sorted(((u, v) if pos[u] < pos[v] else (v, u)
                           for u in verts for v in g.adjacency[u] if u < v),
                          key=lambda e: (pos[e[0]], pos[e[1]]))
        assert g.edges() == expected


def test_twisted_edges_skip_labels_that_are_not_comparable_bit_strings():
    g = Graph(["", "0", "11", "00", "ab", "ba", "1"],
              [("", "0"), ("0", "11"), ("11", "00"), ("ab", "ba"), ("00", "ab"),
               ("1", "0"), ("1", "11")])
    assert twisted_edges(g) == [("11", "00")]
    with pytest.raises(ValueError):
        twisted_edges(path_graph(3))


def test_twisted_rule_on_bit_strings_in_and_out_of_id_order():
    rng = random.Random(77)
    for trial in range(120):
        n = rng.randint(0, 5)
        verts = bitstrings(n)
        if trial % 3 == 1:
            rng.shuffle(verts)  # ids are no longer the values
        elif trial % 3 == 2 and len(verts) > 1:
            verts = sorted(rng.sample(verts, rng.randint(1, len(verts))))  # gaps
        edges = _random_labelled_edges(rng, verts, rng.random())
        g = Graph(verts, edges)
        pos = g.index
        expected = sorted({(u, v) if pos[u] < pos[v] else (v, u) for u, v in edges
                           if hamming_distance(u, v) > 1},
                          key=lambda e: (pos[e[0]], pos[e[1]]))
        assert twisted_edges(g) == expected
        assert twisted_rows(g) == [[pos[v] for u, v in expected if u == a] for a in verts]


def _check_against_oracle(g, verts, edges):
    adjacency = reference_adjacency(verts, edges)
    pos = {v: i for i, v in enumerate(verts)}
    assert g.vertices == tuple(verts)
    assert g.neighbor_ids == tuple(tuple(sorted(pos[w] for w in adjacency[v]))
                                   for v in verts)
    assert g.adjacency == adjacency
    assert g.edges() == sorted(((u, v) for u in verts for v in adjacency[u]
                                if pos[u] < pos[v]),
                               key=lambda e: (pos[e[0]], pos[e[1]]))
    assert g.edge_keys == frozenset(frozenset((u, v)) for u, v in edges)
    assert g.edge_count == len(g.edge_keys)
    assert g.upper_ids == [[b for b in row if b > a] for a, row in enumerate(g.neighbor_ids)]
    for v in verts:
        assert g.degree(v) == len(adjacency[v])
        assert g.neighbors(v) == sorted(adjacency[v], key=pos.__getitem__)
    if verts:
        assert g.min_degree() == min(map(len, adjacency.values()))
    assert g.is_connected() == reference_is_connected(adjacency)


def _random_labelled_edges(rng, verts, p):
    # duplicates and reversed copies are kept; the graph stores each edge once
    edges = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
             if rng.random() < p]
    edges += [(v, u) for u, v in edges if rng.random() < 0.3]
    edges += [e for e in edges if rng.random() < 0.2]
    rng.shuffle(edges)
    return edges


def test_id_core_matches_label_set_oracle():
    rng = random.Random(2024)
    for trial in range(200):
        size = rng.randint(0, 14)
        kind = trial % 3
        if kind == 0:
            verts = list(range(size))
        elif kind == 1:
            verts = [f"v{i}" for i in range(size)]
        else:
            verts = [format(i, "05b") for i in range(size)]
        rng.shuffle(verts)
        p = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
        edges = _random_labelled_edges(rng, verts, p)
        _check_against_oracle(Graph(verts, edges), verts, edges)


def test_product_labels_match_label_set_oracle():
    rng = random.Random(77)
    for _ in range(30):
        gv = list(range(rng.randint(1, 5)))
        hv = [f"x{i}" for i in range(rng.randint(1, 5))]
        g = Graph(gv, _random_labelled_edges(rng, gv, 0.5))
        h = Graph(hv, _random_labelled_edges(rng, hv, 0.5))
        g_adj, h_adj = reference_adjacency(gv, g.edges()), reference_adjacency(hv, h.edges())
        verts = [(u, x) for u in gv for x in hv]
        edges = [((u, x), (v, x)) for u in gv for v in g_adj[u] for x in hv]
        edges += [((u, x), (u, y)) for u in gv for x in hv for y in h_adj[x]]
        _check_against_oracle(cartesian_product(g, h), verts, edges)


def test_constructions_match_the_label_recursion():
    rng = random.Random(31)
    specs = [TwistSpec.identity(n) for n in range(7)]
    specs += [TwistSpec.random(n, rng) for n in range(7) for _ in range(4)]
    shared = TwistSpec.random(3, rng)
    specs.append(TwistSpec(shared, shared, dict(zip(bitstrings(3), bitstrings(3)[::-1]))))
    for spec in specs:
        verts, edges = reference_twisted_cube(spec)
        verts.sort(key=vertex_id)
        g = build_twisted(spec)
        assert g.dimension == spec.dimension
        _check_against_oracle(g, verts, edges)
    for n in range(7):
        verts = bitstrings(n)
        edges = [(u, v) for u in verts for v in verts if hamming_distance(u, v) == 1]
        _check_against_oracle(build_hypercube(n), verts, edges)


def test_high_degree_rows_with_and_without_repeats():
    # One row holds every other vertex. Rows are deduplicated after sorting,
    # so a hub of 20,000 leaves builds in linear-logarithmic time; a check
    # per edge against the hub's row would make about 2 * 10^8 comparisons.
    leaves = 20_000
    hub = [(0, i) for i in range(1, leaves + 1)]
    for edges in (hub, hub + [(i, 0) for i in range(leaves, 0, -1)] + hub[:5]):
        star = Graph(range(leaves + 1), edges)
        assert star.neighbor_ids[0] == tuple(range(1, leaves + 1))
        assert set(star.neighbor_ids[1:]) == {(0,)}
        assert star.edge_count == leaves
    k = complete_graph(250)
    assert k.neighbor_ids == tuple(tuple(b for b in range(250) if b != a) for a in range(250))
    assert k.upper_ids[0] == list(range(1, 250)) and k.upper_ids[249] == []


@pytest.mark.parametrize("vertices, edges, message", [
    ([0, 1], [(0, 0)], "loop at 0"),
    ([0, 1], [(0, 2)], "edge (0, 2) uses an unknown vertex"),
    ([0, 1], [(2, 2)], "loop at 2"),
    (["a", "b"], [("a", "b"), ("c", "a"), ("b", "b")], "edge ('c', 'a') uses an unknown vertex"),
    (["a", "b"], [("a", "b"), ("b", "b"), ("c", "a")], "loop at 'b'"),
    ([0, 0], [(0, 0), (0, 3)], "duplicate vertex labels"),
])
def test_graph_error_messages(vertices, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(vertices, edges)
    assert str(err.value) == message


def test_build_twisted_leaves_no_reference_cycles():
    spec = minority_twist_spec(10)
    gc.collect()
    gc.disable()
    try:
        build_twisted(spec)
        build_hypercube(8)
        assert gc.collect() == 0
    finally:
        gc.enable()
