import json
import random
import sys
import tracemalloc

import pytest

from helpers import random_dipath_arcset, random_graph, reference_document
from zfcubes import (ArcSet, DocumentError, Graph, TwistSpec, bitstrings, build_hypercube,
                     build_minority_cube, build_twisted, closure,
                     dumps_json_document, from_dot, from_json_document,
                     json_document_chunks, serialize, solve_exact, to_dot,
                     trace_to_arcset, validate_arcset)


def test_json_round_trip_plain_cube():
    q3 = build_hypercube(3)
    doc = from_json_document(dumps_json_document(q3))
    assert doc.graph == q3
    assert doc.graph.dimension == 3
    assert doc.arcs is None


def test_json_round_trip_with_arcs_and_set():
    cube = build_minority_cube(4)
    text = dumps_json_document(cube.graph, cube.arcs,
                               initial_set=cube.zero_forcing_set(),
                               extras={"bridge_arc": list(cube.bridge_arc)})
    doc = from_json_document(text)
    assert doc.graph == cube.graph
    assert doc.arcs.arcs == cube.arcs.arcs
    assert doc.initial_set == cube.zero_forcing_set()
    assert doc.extras == {"bridge_arc": ["0110", "0111"]}


def test_json_dump_is_deterministic():
    cube = build_minority_cube(4)
    assert (dumps_json_document(cube.graph, cube.arcs)
            == dumps_json_document(build_minority_cube(4).graph,
                                   build_minority_cube(4).arcs))


def test_truncated_json_is_a_parse_error():
    text = dumps_json_document(build_hypercube(3))
    with pytest.raises(DocumentError) as err:
        from_json_document(text[: len(text) // 2])
    assert "line" in str(err.value)


def test_schema_violations_carry_locations():
    with pytest.raises(DocumentError) as err:
        from_json_document({"vertices": ["00", "01"], "edges": [["00", "11"]]})
    assert err.value.location == "edges[0]"
    with pytest.raises(DocumentError) as err:
        from_json_document({"dimension": 2, "vertices": ["0"], "edges": []})
    assert err.value.location == "vertices[0]"
    with pytest.raises(DocumentError) as err:  # a bool is an int to isinstance
        from_json_document({"dimension": True, "vertices": ["0", "1"], "edges": [["0", "1"]]})
    assert err.value.location == "dimension"
    with pytest.raises(DocumentError):
        from_json_document({"vertices": [], "edges": []})
    with pytest.raises(DocumentError) as err:
        from_json_document({"vertices": ["0", "1"], "edges": [["0", "1"]],
                            "set": ["2"]})
    assert err.value.location == "set[0]"


def test_reference_document_is_the_format():
    q2 = build_hypercube(2)
    arcs = ArcSet(q2, [("10", "11"), ("00", "01")])
    doc = reference_document(q2, arcs, ["11", "00"], {"note": [1, "x"], "bridge_arc": None})
    assert list(doc.items()) == [
        ("dimension", 2),
        ("vertices", ["00", "01", "10", "11"]),
        ("edges", [["00", "01"], ["00", "10"], ["01", "11"], ["10", "11"]]),
        ("arcs", [["00", "01"], ["10", "11"]]),
        ("twisted_edges", []),
        ("set", ["00", "11"]),
        ("bridge_arc", None),
        ("note", [1, "x"]),
    ]
    assert reference_document(q2)["arcs"] is None
    twisted = build_twisted(TwistSpec.from_level_matchings([{"": ""}, {"0": "1", "1": "0"}]))
    assert reference_document(twisted)["twisted_edges"] == [["00", "11"], ["01", "10"]]


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
def test_a_json_integer_past_the_digit_limit_is_a_document_error():
    long = "1" * (sys.get_int_max_str_digits() + 1)  # json.loads cannot read it as an int
    for text in (f'{{"dimension": {long}, "vertices": ["0"], "edges": []}}',
                 f'{{"vertices": ["0"], "edges": [], "note": [{long}]}}'):
        with pytest.raises(DocumentError) as err:
            from_json_document(text)
        assert err.value.location == "$"


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no integer digit limit")
def test_a_dot_dimension_past_the_digit_limit_names_its_line():
    long = "1" * (sys.get_int_max_str_digits() + 1)
    for end in ("\n", "\r\n"):  # to_dot's layout, then one for the line loop alone
        text = end.join(["graph zfcubes {", f'  dimension="{long}";', '  "0";', "}", ""])
        with pytest.raises(DocumentError) as err:
            from_dot(text)
        assert err.value.location == "line 2"


def test_twisted_edges_are_emitted():
    cube = build_minority_cube(4)
    doc = json.loads(dumps_json_document(cube.graph, cube.arcs))
    assert doc["twisted_edges"] == [["0100", "1011"], ["0101", "1010"]]
    assert len(doc["arcs"]) == 9


def test_dot_marks_arcs_and_twisted_edges():
    cube = build_minority_cube(4)
    dot = to_dot(cube.graph, cube.arcs)
    arrow_lines = [line for line in dot.splitlines() if "->" in line]
    red_lines = [line for line in dot.splitlines() if "color=red" in line]
    plain_lines = [line for line in dot.splitlines() if "--" in line]
    assert len(arrow_lines) == 9
    assert len(red_lines) == 2
    assert len(plain_lines) == 32 - 9
    assert '"0110" -> "0111";' in dot
    assert '"0100" -- "1011" [color=red];' in dot


def test_dot_round_trip():
    cube = build_minority_cube(4)
    doc = from_dot(to_dot(cube.graph, cube.arcs))
    assert doc.graph == cube.graph
    assert doc.graph.dimension == 4
    assert doc.arcs.arcs == cube.arcs.arcs
    bare = from_dot(to_dot(build_hypercube(2)))
    assert bare.graph == build_hypercube(2)
    assert bare.arcs is None
    # vertex statements out of id order load in id order, as from JSON, so
    # the solver's witness does not depend on the format
    lines = to_dot(build_hypercube(2)).splitlines()
    lines[2:6] = lines[5:1:-1]
    assert lines[2:6] == ['  "11";', '  "10";', '  "01";', '  "00";']
    shuffled = from_dot("\n".join(lines))
    assert shuffled.graph.vertices == build_hypercube(2).vertices
    assert solve_exact(shuffled.graph).witness == ("00", "01")


def test_dot_rejects_garbage():
    with pytest.raises(DocumentError):
        from_dot("digraph oops {")
    with pytest.raises(DocumentError) as err:
        from_dot('graph g {\n  "00" ~~ "01";\n}')
    assert "line 2" in str(err.value)
    with pytest.raises(DocumentError) as err:  # blank lines keep their numbers
        from_dot('graph g {\n\n  "0";\n\n  "0" ~~ "1";\n}')
    assert "line 5" in str(err.value)
    with pytest.raises(DocumentError) as err:
        from_dot('\ngraph g {\n\n  "0";\n\n')
    assert "line 4" in str(err.value)
    with pytest.raises(DocumentError) as err:  # the JSON loader's dimension rule
        from_dot('graph g {\n  dimension="2";\n  "a";\n  "b";\n  "a" -- "b";\n}')
    assert err.value.location == "line 3"
    assert "'a' is not a 2-bit string" in str(err.value)


def _load_vertices(load, text):
    try:
        return load(text).graph.vertices
    except DocumentError as exc:
        return str(exc).split(": ", 1)[1]  # the message without its location


def test_json_and_dot_share_the_vertex_rule():
    rng = random.Random(1301)
    verdicts = set()
    for _ in range(400):
        dimension = rng.choice((None, 0, 1, 2, 3))
        vertices = ["".join(rng.choice("01a") for _ in range(rng.choice((0, 1, 2, 2, 3))))
                    for _ in range(rng.randint(1, 4))]
        if dimension is not None and rng.random() < 0.5:  # a well-formed list, in any order
            vertices = rng.sample(bitstrings(dimension), rng.randint(1, 2 ** dimension))
        doc = json.dumps({"dimension": dimension, "vertices": vertices, "edges": []})
        dot = "graph g {\n" + (f'  dimension="{dimension}";\n' if dimension is not None
                               else "") + "".join(f'  "{v}";\n' for v in vertices) + "}\n"
        got = _load_vertices(from_json_document, doc)
        assert _load_vertices(from_dot, dot) == got, (dimension, vertices)
        verdicts.add(type(got))
    assert verdicts == {tuple, str}  # both accepted and refused lists were met


def test_non_string_labels_refuse_to_export():
    from zfcubes import path_graph
    with pytest.raises(ValueError):
        json_document_chunks(path_graph(3))
    with pytest.raises(ValueError):
        to_dot(path_graph(3))


def test_random_documents_round_trip():
    rng = random.Random(424242)
    for case in range(100):
        if case % 2 == 0:
            g = build_twisted(TwistSpec.random(rng.randint(2, 4), rng))
            s = {v for v in g.vertices if rng.random() < 0.6}
            arcs = trace_to_arcset(closure(g, s))
        else:
            base = random_graph(rng.randint(1, 10), rng)
            g = base.relabel(lambda i: f"v{i}")
            arcs = ArcSet(g, [(f"v{u}", f"v{v}")
                              for u, v in random_dipath_arcset(base, rng)])
        text = dumps_json_document(g, arcs)
        doc = from_json_document(text)
        assert doc.graph == g
        assert doc.arcs.arcs == arcs.arcs
        assert dumps_json_document(doc.graph, doc.arcs) == text


def test_document_accepts_already_parsed_objects():
    payload = json.loads(dumps_json_document(build_hypercube(2)))
    assert from_json_document(payload).graph == build_hypercube(2)


def _random_extra(rng, depth=0):
    leaves = [None, True, False, 0, -7, 2.5, 1e-9, "", "plain", "naïve ☃", "tab\t\"q\"\\"]
    kind = rng.randrange(6 if depth < 3 else 1)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return []
    if kind == 2:
        return {}
    if kind == 3:
        return [rng.choice(["0", "é", "x\ny", "0", "é", 5, None])
                for _ in range(rng.randint(1, 4))]
    if kind == 4:
        pair_member = ["0", "1", "ü", "0", "1", 1.5]
        return [[rng.choice(pair_member) for _ in range(rng.choice([2, 2, 1, 3]))]
                for _ in range(rng.randint(1, 3))]
    return {rng.choice(["k", "ключ", "z"]): _random_extra(rng, depth + 1)
            for _ in range(rng.randint(1, 3))}


def test_dump_is_byte_identical_to_json_dumps():
    rng = random.Random(9090)
    for case in range(150):
        if case % 3:
            g = build_twisted(TwistSpec.random(rng.randint(0, 4), rng))
        else:
            base = random_graph(rng.randint(1, 8), rng)
            prefix = [rng.choice(["", "é", "v"]) for _ in base.vertices]
            g = base.relabel(lambda i: prefix[i] + str(i))
        s = {v for v in g.vertices if rng.random() < 0.5}
        arcs = trace_to_arcset(closure(g, s)) if rng.random() < 0.7 else None
        initial = s if rng.random() < 0.5 else None
        extras = {rng.choice(["bridge_arc", "note", "ä", "z", "m"]): _random_extra(rng)
                  for _ in range(rng.randint(0, 4))}
        doc = reference_document(g, arcs, initial, extras)
        assert (dumps_json_document(g, arcs, initial, extras)
                == json.dumps(doc, indent=2) + "\n")


def test_twisted_pairs_on_mixed_labels():
    labels = ["", "0", "1", "01", "10", "11", "00", "0a", "a0", "110", "001"]
    rng = random.Random(11)
    for _ in range(40):
        g = Graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
                           if rng.random() < 0.4])
        bits = lambda v: all(c in "01" for c in v)
        expected = [[u, v] for u, v in g.edges()
                    if bits(u) and bits(v) and len(u) == len(v)
                    and sum(a != b for a, b in zip(u, v)) > 1]
        doc = reference_document(g)
        assert doc["twisted_edges"] == expected
        red = [line for line in to_dot(g).splitlines() if "color=red" in line]
        assert red == [f'  "{u}" -- "{v}" [color=red];' for u, v in expected]
        assert dumps_json_document(g) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("bad", [["0", ["1"]], ["0", {"1": "0"}], ["0", "1", "0"],
                                 "01", None, ["0", 1], ["0"]])
@pytest.mark.parametrize("key", ["edges", "arcs"])
def test_malformed_pairs_are_located(bad, key):
    doc = {"vertices": ["0", "1"], "edges": [["0", "1"]], "arcs": [["0", "1"]]}
    doc[key] = [["0", "1"], bad]
    with pytest.raises(DocumentError) as err:
        from_json_document(doc)
    assert err.value.location == f"{key}[1]"
    with pytest.raises(DocumentError) as err:
        from_json_document(json.dumps(doc))
    assert err.value.location == f"{key}[1]"


def test_dot_statements_in_any_order():
    text = "\n".join([
        "graph mixed {",
        '  "01";',
        '  "00" -- "01";',
        '  dimension="2";',
        '  "00";',
        '  "10" -> "00" [color=red];',
        '  "11";',
        '  "01" -> "11";',
        '  "10";',
        '  "11" -- "10";',
        "}", ""])
    doc = from_dot(text)
    assert doc.graph.dimension == 2
    assert doc.graph.vertices == ("00", "01", "10", "11")
    assert frozenset(map(frozenset, doc.graph.edges())) == frozenset(map(frozenset, [
        ("00", "01"), ("10", "00"), ("01", "11"), ("11", "10")]))
    assert doc.arcs.arcs == {("10", "00"), ("01", "11")}
    for lineno, bad in ((2, '"00" -> ;'), (4, 'dimension=2;'), (5, '"0" "1";')):
        lines = text.splitlines()
        lines[lineno - 1] = "  " + bad
        with pytest.raises(DocumentError) as err:
            from_dot("\n".join(lines))
        assert err.value.location == f"line {lineno}"


@pytest.mark.parametrize("bad, message", [
    (["0", "2"], "unknown vertex in pair ['0', '2']"),
    (["0", 1], "expected a pair of vertex labels"),
    (["0", ["1"]], "expected a pair of vertex labels"),
    (["0"], "expected a pair of vertex labels"),
    (["0", "1", "0"], "expected a pair of vertex labels"),
    ("01", "expected a pair of vertex labels"),
    ({"0": "1"}, "expected a pair of vertex labels"),
])
@pytest.mark.parametrize("key", ["edges", "arcs"])
def test_malformed_pair_messages(key, bad, message):
    doc = {"vertices": ["0", "1"], "edges": [["0", "1"]], "arcs": [["0", "1"]]}
    doc[key] = [["0", "1"], ["1", "0"], bad, ["0", "2"]]
    for data in (doc, json.dumps(doc)):
        with pytest.raises(DocumentError) as err:
            from_json_document(data)
        assert (err.value.location, str(err.value)) == (f"{key}[2]", f"{key}[2]: {message}")


def test_loops_in_edges_and_arcs():
    doc = {"vertices": ["0", "1"], "edges": [["0", "1"], ["1", "1"], ["0", "0"]]}
    with pytest.raises(DocumentError) as err:
        from_json_document(doc)
    assert (err.value.location, str(err.value)) == ("edges", "edges: loop at '1'")
    # a loop arc loads; the arc-set checks report it
    loaded = from_json_document({"vertices": ["0", "1"], "edges": [["0", "1"]],
                                 "arcs": [["1", "1"]]})
    assert loaded.arcs.arcs == {("1", "1")}
    assert validate_arcset(loaded.arcs)[0] == (
        "arc '1'->'1': '1'-'1' is not an edge of the host")


def test_a_dict_passed_in_is_not_changed():
    cube = build_minority_cube(4)
    payload = json.loads(dumps_json_document(cube.graph, cube.arcs))
    before = json.dumps(payload)
    doc = from_json_document(payload)
    assert json.dumps(payload) == before
    assert doc.graph == cube.graph and doc.arcs.arcs == cube.arcs.arcs
    assert doc.extras == {}


def test_chunks_are_validated_before_the_first_one(monkeypatch):
    from zfcubes import path_graph
    with pytest.raises(ValueError):
        json_document_chunks(path_graph(3))
    with pytest.raises(ValueError, match="clashes"):
        json_document_chunks(build_hypercube(2), extras={"edges": []})
    with pytest.raises(TypeError):  # not JSON; raised before a chunk exists
        json_document_chunks(build_hypercube(2), extras={"note": {1, 2}})
    cube = build_minority_cube(6)
    expected = json.dumps(reference_document(cube.graph, cube.arcs), indent=2) + "\n"
    for rows in (1, 5, 64, 1024):  # chunk boundaries inside and after the rows
        monkeypatch.setattr(serialize, "_ROWS_PER_CHUNK", rows)
        chunks = list(json_document_chunks(cube.graph, cube.arcs))
        assert "".join(chunks) == expected
        assert len(chunks) >= 8 + 64 // rows


def test_writers_refuse_arcs_outside_the_graph_before_any_output():
    q2 = build_hypercube(2)
    with pytest.raises(ValueError, match="endpoint is not a vertex of the host"):
        ArcSet(q2, [("00", "01"), ("11", "zz")])  # no writer can be given such arcs
    # ids are positions in the arcs' host, so its vertex order must be the graph's
    reordered = ArcSet(Graph(q2.vertices[::-1], q2.edges(), dimension=2), [("00", "01")])
    writers = (json_document_chunks, dumps_json_document, to_dot)
    for write in writers:
        with pytest.raises(ValueError, match="does not list the graph's vertices in its order"):
            write(q2, reordered)  # json_document_chunks: on the call, before a chunk
    # the same arcs on their own host are written, in host id order
    assert json.loads(dumps_json_document(reordered.host, reordered))["arcs"] == [["00", "01"]]
    assert '"00" -> "01"' in to_dot(reordered.host, reordered)


def test_to_dot_refuses_faulty_arcs_before_any_output():
    q2 = build_hypercube(2)
    for pairs in ([("00", "11"), ("01", "11"), ("11", "01")], [("11", "01"), ("01", "11")],
                  [("10", "00"), ("00", "01"), ("00", "10")], [("00", "00")]):
        arcs = ArcSet(q2, pairs)
        with pytest.raises(ValueError) as err:
            to_dot(q2, arcs)
        assert str(err.value) == validate_arcset(arcs)[0]
        # JSON keeps every arc
        assert len(json.loads(dumps_json_document(q2, arcs))["arcs"]) == len(pairs)
    # an arc on an edge of its host but not of the graph written is off an edge too
    k4 = Graph(q2.vertices, [(u, v) for u in q2.vertices for v in q2.vertices if u < v])
    with pytest.raises(ValueError, match="'00'-'11' is not an edge of the host"):
        to_dot(q2, ArcSet(k4, [("00", "11")]))
    assert '"00" -> "11"' in to_dot(k4, ArcSet(k4, [("00", "11")]))


def test_to_dot_refuses_labels_it_cannot_read_back():
    # a quote ends a quoted label; from_dot reads the text line by line
    for bad in ('a"b', *(f"a{c}b" for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")):
        g = Graph([bad, "c"], [(bad, "c")])
        with pytest.raises(ValueError) as err:
            to_dot(g)
        assert str(err.value) == (
            f"vertex {bad!r} holds a quote or a line break, which DOT cannot write")
        assert from_json_document(dumps_json_document(g)).graph == g  # JSON carries it
    odd = ["a b", "x\ty", "\u00e9", "\\", "{}", "--", "->", ";", "", " lead"]
    g = Graph(odd, list(zip(odd, odd[1:])))
    assert from_dot(to_dot(g)).graph == g


def test_loader_refusals_are_located():
    for text, location, message in (
            ("[]", "$", "document must be a JSON object"),
            ('{"vertices": ["0"]}', "edges", "missing edges"),
            ('{"vertices": ["0"], "edges": 3}', "edges", "edges must be a list of pairs"),
            ('{"vertices": ["0"], "edges": [], "set": "0"}', "set",
             "set must be a list of vertex labels"),
            ('{"vertices": [1], "edges": []}', "vertices[0]", "vertex labels must be strings")):
        with pytest.raises(DocumentError) as err:
            from_json_document(text)
        assert (err.value.location, str(err.value)) == (location, f"{location}: {message}")
    with pytest.raises(DocumentError) as err:
        from_dot("graph g {\n}\n")
    assert (err.value.location, str(err.value)) == ("body", "body: no vertex statements found")


def test_loaders_accept_bytes():
    cube = build_minority_cube(4)
    text = dumps_json_document(cube.graph, cube.arcs, cube.zero_forcing_set(),
                               extras={"note": "é"})
    for parse, source in ((from_json_document, text), (from_dot, to_dot(cube.graph, cube.arcs))):
        from_text, from_bytes = parse(source), parse(source.encode())
        assert from_bytes.graph == from_text.graph and from_bytes.graph == cube.graph
        assert from_bytes.graph.vertices == from_text.graph.vertices
        assert from_bytes.arcs == from_text.arcs == cube.arcs
        assert (from_bytes.initial_set, from_bytes.extras) == (
            from_text.initial_set, from_text.extras)


@pytest.mark.parametrize("vertices, location, message", [
    (["00", 5, "10"], 1, "vertex labels must be strings"),
    ([None, "01"], 0, "vertex labels must be strings"),
    (["00", "011", "10"], 1, "vertex '011' is not a 2-bit string"),
    (["00", "01", "1"], 2, "vertex '1' is not a 2-bit string"),
    (["a0", "01"], 0, "vertex 'a0' is not a 2-bit string"),
    (["00", "01", "1x"], 2, "vertex '1x' is not a 2-bit string"),
    (["00", "0 ", "10"], 1, "vertex '0 ' is not a 2-bit string"),
    (["00", "0a", 7], 1, "vertex '0a' is not a 2-bit string"),
    ([7, "0a"], 0, "vertex labels must be strings"),
])
def test_bulk_vertex_checks_name_the_first_bad_label(vertices, location, message):
    doc = {"dimension": 2, "vertices": vertices, "edges": []}
    for data in (doc, json.dumps(doc)):
        with pytest.raises(DocumentError) as err:
            from_json_document(data)
        where = f"vertices[{location}]"
        assert (err.value.location, str(err.value)) == (where, f"{where}: {message}")
    if all(isinstance(v, str) for v in vertices):  # DOT labels are always strings
        dot = 'graph g {\n  dimension="2";\n' + "".join(f'  "{v}";\n' for v in vertices) + "}\n"
        with pytest.raises(DocumentError) as err:
            from_dot(dot)
        where = f"line {location + 3}"
        assert (err.value.location, str(err.value)) == (where, f"{where}: {message}")


# test_malformed_pair_messages has each wrong length after good pairs; here
# it comes first, or after an unknown vertex or a loop
@pytest.mark.parametrize("items, location", [
    ([["1"], ["0", "1"]], 0),
    ([["0", "1", "1"], ["0", "2"]], 0),
    ([["0", "2"], ["0", "1", "1"]], 0),
    ([["0", "1"], ["1", "1"], ["0"]], 2),
])
@pytest.mark.parametrize("key", ["edges", "arcs"])
def test_wrong_length_pairs_keep_their_location(key, items, location):
    doc = {"vertices": ["0", "1"], "edges": [["0", "1"]], key: items}
    message = ("unknown vertex in pair ['0', '2']" if items[location] == ["0", "2"]
               else "expected a pair of vertex labels")
    for data in (doc, json.dumps(doc)):
        with pytest.raises(DocumentError) as err:
            from_json_document(data)
        where = f"{key}[{location}]"
        assert (err.value.location, str(err.value)) == (where, f"{where}: {message}")


_AWKWARD_LABELS = ["a b", "--", "->", ";", "{}", "", "\\", "é", "ß∂", " x ", "[color=red]",
                   "a\tb", "graph", "dimension=", "0", "1"]


def _dot_hosts(rng):
    """(graph, arcs) pairs: random graphs with awkward labels or bit labels,
    with and without a dimension, and random twisted 3- to 6-cubes carrying
    dipath forests or force records."""
    for case in range(90):
        if case % 3 == 2:
            g = build_twisted(TwistSpec.random(rng.randint(3, 6), rng))
            if case % 2:
                arcs = trace_to_arcset(closure(g, {v for v in g.vertices if rng.random() < 0.5}))
            else:
                arcs = ArcSet(g, [(g.vertices[a], g.vertices[b])
                                  for a, b in random_dipath_arcset(g.relabel(g.index.get), rng)])
            yield g, arcs
            continue
        base = random_graph(rng.randint(1, len(_AWKWARD_LABELS)), rng)
        awkward = case % 3 == 0 or case % 9 == 1  # some under a dimension, so refused
        dimension = None if case % 3 == 0 else max(1, (len(base) - 1).bit_length())
        labels = rng.sample(_AWKWARD_LABELS if awkward else bitstrings(dimension), len(base))
        g = Graph([labels[i] for i in base.vertices],
                  [(labels[u], labels[v]) for u, v in base.edges()], dimension=dimension)
        arcs = [(labels[u], labels[v]) for u, v in random_dipath_arcset(base, rng)]
        yield g, (ArcSet(g, arcs) if arcs and rng.random() < 0.8 else None)


def _loaded(load, text):
    """The document's graph and arcs, or the refusal without its location."""
    try:
        doc = load(text)
    except DocumentError as exc:
        return str(exc).split(": ", 1)[1]
    # DOT has no line that tells an empty arc set from none
    return (doc.graph.vertices, doc.graph.neighbor_ids, doc.graph.dimension,
            [] if doc.arcs is None else sorted(doc.arcs.ids))


def _perturbed(text):
    """to_dot's text in layouts it does not write, each the same document."""
    lines = text.split("\n")
    variants = [text.replace("\n", "\r\n"), text.replace("\n  ", "\n\t"),
                text.replace("\n  ", "\n   "), text.replace("{\n", "{\n\n", 1), text[:-1]]
    edge = next((i for i, line in enumerate(lines) if '" -' in line), None)
    if edge is not None:  # the last vertex statement after the first edge
        variants.append("\n".join(lines[:edge - 1] + [lines[edge], lines[edge - 1]]
                                  + lines[edge + 1:]))
    return variants


def test_dot_and_json_load_the_same_document():
    # the JSON loader is the oracle for both DOT read paths
    rng = random.Random(2020)
    verdicts = set()
    for g, arcs in _dot_hosts(rng):
        text = to_dot(g, arcs)
        expected = _loaded(from_json_document, dumps_json_document(g, arcs))
        verdicts.add(type(expected))
        assert serialize._split_dot(text) is not None, text  # the split path
        assert _loaded(from_dot, text) == expected, text
        for variant in _perturbed(text):
            assert serialize._split_dot(variant) is None, variant  # the line loop
            assert _loaded(from_dot, variant) == expected, variant
    assert verdicts == {tuple, str}  # both loaded and refused documents were met


@pytest.mark.parametrize("body, location, message", [
    ('  "a";\n  "b";\n  "a" -- "b";\n  "a" -- "a";\n', "body", "loop at 'a'"),
    ('  "a";\n  "b";\n  "a" -- "c";\n', "body", "edge ('a', 'c') uses an unknown vertex"),
    ('  "a";\n  "b";\n  "a";\n  "a" -- "b";\n', "body", "duplicate vertex labels"),
    ('  dimension="2";\n  "00";\n  "0a";\n  "00" -- "0a";\n', "line 4",
     "vertex '0a' is not a 2-bit string"),
])
def test_faults_in_to_dots_layout_keep_their_messages(body, location, message):
    text = "graph zfcubes {\n" + body + "}\n"
    for variant in (text, text.replace("\n", "\r\n")):  # the split path, then the line loop
        with pytest.raises(DocumentError) as err:
            from_dot(variant)
        assert (err.value.location, str(err.value)) == (location, f"{location}: {message}")
    assert serialize._split_dot(text) is not None


@pytest.mark.parametrize("statement", [
    *(f'"0{char}1";' for char in serialize._DOT_UNWRITABLE[1:]),  # a line break in a label
    '"0" [color=red];',
    '"0"; "2";',
])
def test_statements_off_the_dialect_are_named_by_the_line_loop(statement):
    # in to_dot's layout otherwise; str.splitlines breaks a label with a line
    # break, so the first piece of the statement is named
    text = f'graph zfcubes {{\n  {statement}\n  "1";\n  "0" -- "1";\n}}\n'
    assert serialize._split_dot(text) is None
    with pytest.raises(DocumentError) as err:
        from_dot(text)
    message = f"unrecognised statement {statement.splitlines()[0]!r}"
    assert (err.value.location, str(err.value)) == ("line 2", f"line 2: {message}")


@pytest.mark.parametrize("text, location, message", [
    # an odd number of quotes: a label left open
    ('graph zfcubes {\n  "a";\n  "b;\n}\n', "line 3", "unrecognised statement '\"b;'"),
    ('graph zfcubes {\n  "a";\n  "b";\n  "a" -- "b;\n}\n', "line 4",
     "unrecognised statement '\"a\" -- \"b;'"),
    # a dimension line whose separator is not to_dot's
    ('graph zfcubes {\n  dimension="1",\n  "0";\n  "1";\n  "0" -- "1";\n}\n', "line 2",
     "unrecognised statement 'dimension=\"1\",'"),
    ('graph zfcubes {\n  dimension="1"; "0";\n  "1";\n  "0" -- "1";\n}\n', "line 2",
     "unrecognised statement 'dimension=\"1\"; \"0\";'"),
    # the same separator with spacing that the line loop strips: it loads
    ('graph zfcubes {\n  dimension="1"; \n  "0";\n  "1";\n  "0" -> "1";\n}\n', None, None),
    ('graph zfcubes {\n  dimension="1";\n\n  "0";\n  "1";\n  "0" -> "1";\n}\n', None, None),
])
def test_texts_the_split_declines_go_through_the_line_loop(text, location, message):
    assert serialize._split_dot(text) is None
    if message is None:
        g = Graph(["0", "1"], [("0", "1")], dimension=1)
        expected = _loaded(from_json_document, dumps_json_document(g, ArcSet(g, [("0", "1")])))
        assert _loaded(from_dot, text) == expected
        return
    with pytest.raises(DocumentError) as err:
        from_dot(text)
    assert (err.value.location, str(err.value)) == (location, f"{location}: {message}")


def _whole_text(text):
    """A JSON text read whole: ``json.loads``, then the dict checks."""
    return from_json_document(serialize._loads_json(text))


def _outcome(load, text):
    """The document's fields, or the refusal's location and message."""
    try:
        doc = load(text)
    except DocumentError as exc:
        return exc.location, str(exc)
    return (doc.graph.vertices, doc.graph.neighbor_ids, doc.graph.dimension,
            None if doc.arcs is None else doc.arcs.ids, doc.initial_set, doc.extras)


_Q1 = '"vertices": ["0", "1"], "edges": [["0", "1"]]'


@pytest.mark.parametrize("text", [
    # a bad label that the entry reader meets before a later syntax error
    '{"dimension": 2, "vertices": ["0x", "01"], "edges": [["0x", "01"]], "twisted_edges": [}',
    '{"dimension": 2, "vertices": ["00", "01"], "edges": [["00", "01"]], "set": ["00"] x}',
    # a repeated key: json.loads keeps its last value
    '{' + _Q1 + ', "vertices": ["0"]}',
    '{"vertices": ["0", "1"], "edges": [["0", "2"]], "edges": [["0", "1"]]}',
    # edges before vertices, arcs before edges, a dimension after edges
    '{"edges": [["0", "2"]], "vertices": ["0", "1"]}',
    '{"edges": [["0", "1"]], "vertices": ["0", "1"]}',
    '{"vertices": ["0", "1"], "arcs": [["0", "1"]], "edges": [["0", "1"]]}',
    '{' + _Q1 + ', "dimension": 2}',
    '{' + _Q1 + ', "dimension": 1}',
    # a twisted_edges value that is not JSON, and any value it may be
    '{' + _Q1 + ', "twisted_edges": [["0", "1"]}',
    '{' + _Q1 + ', "twisted_edges": nope}',
    '{' + _Q1 + ', "twisted_edges": {"any": [1, 2.5, null]}}',
    # trailing text, an unclosed object, and texts that are not one object
    '{' + _Q1 + '} {}',
    '{' + _Q1 + '}\n\t x',
    '{' + _Q1,
    '{' + _Q1 + ',}',
    '{' + _Q1 + ' {"note": 1}}',
    '{}', '[]', '', '  \n', '\ufeff{' + _Q1 + '}',
    # an arc or a set member with an unknown endpoint, a missing edge list
    '{' + _Q1 + ', "arcs": [["0", "1"], ["1", "2"]]}',
    '{' + _Q1 + ', "arcs": [["0", "1"]], "set": ["2"]}',
    '{"vertices": ["0", "1"], "edges": null, "arcs": [["0", "1"]]}',
    '{"vertices": ["0", "1"]}',
    # keys with escapes, a key that is not a string, and extras in text order
    '{' + _Q1 + ', "n\\u00f6te": 1, "a\\"b": 2}',
    '{' + _Q1 + ', 3: 4}',
    '{"z": [], ' + _Q1 + ', "arcs": null, "a": {"edges": 1}}',
    # JSON whitespace everywhere, and none
    '\r\n\t{ "vertices" :[ "0" , "1" ] ,\n"edges":[["0","1"]] }\n\n',
    '{' + _Q1.replace(" ", "") + '}',
])
def test_the_entry_reader_and_the_whole_text_read_agree(text):
    assert _outcome(from_json_document, text) == _outcome(_whole_text, text)
    assert _outcome(from_json_document, text.encode()) == _outcome(_whole_text, text)


def test_documents_in_both_layouts_load_without_the_whole_text_read(monkeypatch):
    rng = random.Random(2828)
    cube = build_minority_cube(5)
    twisted = build_twisted(TwistSpec.random(5, rng))
    texts = [dumps_json_document(cube.graph, cube.arcs, cube.zero_forcing_set(),
                                 extras={"bridge_arc": list(cube.bridge_arc), "note": "é"}),
             dumps_json_document(twisted, trace_to_arcset(closure(twisted, twisted.vertices[:16]))),
             dumps_json_document(Graph(["a", "b"], []), ArcSet(Graph(["a", "b"], []), []))]
    # faults after the graph, refused as read once; arcs before the edges load
    doc = json.loads(texts[0])
    texts += [json.dumps(late, indent=2) for late in (
        dict(doc, arcs=doc["arcs"] + [[doc["vertices"][0], "x"]]),
        dict(doc, set=doc["set"] + ["x"]),
        {k: v for k, v in doc.items() if k != "edges"},
        {"arcs": None, **doc})]  # the first key, with doc's arcs
    texts += [json.dumps(json.loads(text), separators=(",", ":")) for text in texts]
    expected = [_outcome(_whole_text, text) for text in texts]
    assert [e[0] for e in expected[3:6]] == [f"arcs[{len(doc['arcs'])}]",
                                             f"set[{len(doc['set'])}]", "edges"]

    def refuse(text):
        raise AssertionError("the text was read whole")

    monkeypatch.setattr(serialize, "_loads_json", refuse)
    assert [_outcome(from_json_document, text) for text in texts] == expected


def test_a_text_load_never_holds_the_twisted_edges_beside_the_edges():
    # most matching edges of a random twisted cube are twisted
    g = build_twisted(TwistSpec.random(10, random.Random(1)))
    half = [v for v in g.vertices if v.endswith("0")]
    text = dumps_json_document(g, trace_to_arcset(closure(g, half)), half)
    peaks = []
    for load in (json.loads, from_json_document):
        tracemalloc.start()
        try:
            load(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 0.8 * peaks[0], peaks
