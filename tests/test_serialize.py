import json
import random

import pytest

from helpers import random_dipath_arcset, random_graph
from zfcubes import (ArcSet, DocumentError, Graph, TwistSpec, bitstrings, build_hypercube,
                     build_minority_cube, build_twisted, closure,
                     dumps_json_document, from_dot, from_json_document,
                     json_document_chunks, serialize, solve_exact, to_dot,
                     to_json_document, trace_to_arcset, validate_arcset)


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


def test_twisted_edges_are_emitted():
    cube = build_minority_cube(4)
    doc = to_json_document(cube.graph, cube.arcs)
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
        to_json_document(path_graph(3))
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
        doc = to_json_document(g, arcs, initial, extras)
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
        doc = to_json_document(g)
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
    expected = json.dumps(to_json_document(cube.graph, cube.arcs), indent=2) + "\n"
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
    writers = (json_document_chunks, dumps_json_document, to_json_document, to_dot)
    for write in writers:
        with pytest.raises(ValueError, match="does not list the graph's vertices in its order"):
            write(q2, reordered)  # json_document_chunks: on the call, before a chunk
    # the same arcs on their own host are written, in host id order
    assert to_json_document(reordered.host, reordered)["arcs"] == [["00", "01"]]
    assert '"00" -> "01"' in to_dot(reordered.host, reordered)


def test_to_dot_refuses_faulty_arcs_before_any_output():
    q2 = build_hypercube(2)
    for pairs in ([("00", "11"), ("01", "11"), ("11", "01")], [("11", "01"), ("01", "11")],
                  [("10", "00"), ("00", "01"), ("00", "10")], [("00", "00")]):
        arcs = ArcSet(q2, pairs)
        with pytest.raises(ValueError) as err:
            to_dot(q2, arcs)
        assert str(err.value) == validate_arcset(arcs)[0]
        assert len(to_json_document(q2, arcs)["arcs"]) == len(pairs)  # JSON keeps every arc
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
