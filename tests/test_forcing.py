import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_closure, random_graph
from zfcubes import (ForcingTrace, TwistSpec, build_hypercube, build_twisted, closure,
                     complete_graph, decompose, is_zero_forcing_set, path_graph,
                     replay_trace, trace_to_arcset)
from zfcubes.forcing import derived_count


def test_closure_across_one_copy_of_q2():
    q3 = build_hypercube(3)
    trace = closure(q3, ["000", "010", "001", "011"])
    assert trace.derived == frozenset(q3.vertices)
    # Deterministic schedule: smallest ready forcer first.
    assert trace.forces == (("000", "100"), ("001", "101"),
                            ("010", "110"), ("011", "111"))


def test_closure_of_everything_is_a_no_op():
    q2 = build_hypercube(2)
    trace = closure(q2, q2.vertices)
    assert trace.forces == ()
    assert trace.derived == frozenset(q2.vertices)


def test_closure_of_empty_set_is_empty():
    assert closure(build_hypercube(2), []).derived == frozenset()


def test_path_propagates_from_endpoint():
    trace = closure(path_graph(4), [0])
    assert trace.forces == ((0, 1), (1, 2), (2, 3))
    assert trace.derived == frozenset(range(4))


def test_closure_rejects_unknown_vertices():
    with pytest.raises(ValueError):
        closure(build_hypercube(2), ["0"])


def test_zero_forcing_set_examples():
    q4 = build_hypercube(4)
    copy = [v for v in q4.vertices if v[-1] == "0"]
    assert is_zero_forcing_set(q4, copy)
    assert not is_zero_forcing_set(build_hypercube(3), ["000"])
    assert closure(build_hypercube(3), ["000"]).derived == frozenset({"000"})
    assert is_zero_forcing_set(complete_graph(1), [0])


def test_trace_arcs_cross_the_split():
    q3 = build_hypercube(3)
    trace = closure(q3, ["000", "010", "001", "011"])
    arcs = trace_to_arcset(trace)
    assert len(arcs) == 4
    for u, v in arcs:
        assert u[0] == "0" and v[0] == "1" and u[1:] == v[1:]
    assert trace.forces == (("000", "100"), ("001", "101"),
                            ("010", "110"), ("011", "111"))


def test_empty_trace_gives_empty_arcset():
    trace = closure(build_hypercube(2), build_hypercube(2).vertices)
    assert len(trace_to_arcset(trace)) == 0


def test_arc_count_complements_set_size():
    rng = random.Random(21)
    for _ in range(50):
        g = random_graph(rng.randint(2, 8), rng)
        s = {v for v in g.vertices if rng.random() < 0.6}
        trace = closure(g, s)
        if trace.derived == frozenset(g.vertices):
            assert len(trace_to_arcset(trace)) == len(g) - len(s)


def test_traces_replay_and_decompose():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng.randint(1, 8), rng)
        s = {v for v in g.vertices if rng.random() < 0.5}
        trace = closure(g, s)
        assert replay_trace(trace) == trace.derived
        targets = [v for _, v in trace.forces]
        assert len(targets) == len(set(targets))
        # Force records are vertex-disjoint directed paths.
        decompose(trace_to_arcset(trace))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 8))
def test_closure_monotone_and_idempotent(seed, size):
    rng = random.Random(seed)
    g = random_graph(size, rng)
    small = {v for v in g.vertices if rng.random() < 0.4}
    extra = {v for v in g.vertices if rng.random() < 0.3}
    derived_small = closure(g, small).derived
    derived_large = closure(g, small | extra).derived
    assert derived_small <= derived_large
    assert closure(g, derived_small).derived == derived_small


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 8))
def test_derived_set_matches_oracle_under_any_schedule(seed, size):
    rng = random.Random(seed)
    g = random_graph(size, rng)
    s = {v for v in g.vertices if rng.random() < 0.4}
    expected = closure(g, s).derived
    assert naive_closure(g, s) == expected
    assert naive_closure(g, s, rng=rng) == expected


def _smallest_forcer_first_trace(graph, initial):
    """Forces by full rescans: each time, the lowest-id blue vertex with one white neighbour."""
    blue = set(initial)
    forces = []
    while True:
        for u in graph.vertices:
            whites = [w for w in graph.neighbors(u) if w not in blue]
            if u in blue and len(whites) == 1:
                forces.append((u, whites[0]))
                blue.add(whites[0])
                break
        else:
            return tuple(forces)


def test_traces_and_counts_match_the_rescan_oracle_at_every_density():
    # blue sets below and above half the vertices fill the kernel's white
    # counts from the blue rows and from the white rows
    rng = random.Random(1907)
    for case in range(60):
        g = build_twisted(TwistSpec.random(rng.randint(2, 6), rng)) if case % 2 \
            else random_graph(rng.randint(1, 12), rng)
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        s = [v for v in g.vertices if rng.random() < density]
        trace = closure(g, s)
        assert trace.forces == _smallest_forcer_first_trace(g, s)
        assert derived_count(g, s) == len(trace.derived) == len(naive_closure(g, s))
        assert is_zero_forcing_set(g, s) == (len(naive_closure(g, s)) == len(g))


def test_replay_refuses_an_illegal_force():
    g = path_graph(3)
    with pytest.raises(ValueError) as err:
        replay_trace(ForcingTrace(g, (0,), ((1, 2),)))
    assert str(err.value) == "step 0: forcer 1 is not blue"
    with pytest.raises(ValueError) as err:
        replay_trace(ForcingTrace(g, (1,), ((1, 0),)))
    assert str(err.value) == "step 0: 1 has white neighbours ['0', '2'], cannot force 0"
