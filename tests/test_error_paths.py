import json

import pytest

from oracles import antipodal_cube_quotient

import kasteleyn
from kasteleyn import harness
from kasteleyn.cli import main
from kasteleyn.families import (
    FamilySpec,
    GVGraph,
    build_aztec_graph,
    transit_free_resolution,
)
from kasteleyn.graphs import (
    Edge,
    EmbeddedGraph,
    Vertex,
    adjacency_matrix,
    graph_from_json,
    graph_to_json,
    kasteleyn_orient,
    reflection_quotient,
)
from kasteleyn.harness import run_report
from kasteleyn.matrices import (
    ExactMatrix,
    StableInvariants,
    determinant,
    parse_matrix,
    stable_invariants,
)
from kasteleyn.rings import (
    _QPOLY_TEXT_DEGREE,
    DomainError,
    ExactDivisionError,
    GuardExceeded,
    RationalPoly,
    parse_laurent,
)


def test_determinant_nonsquare():
    with pytest.raises(DomainError):
        determinant(ExactMatrix.from_rows([[1, 2]], "z"))


def test_malformed_matrix_entries_raise_domain_error():
    for ring in ("laurent", "qpoly"):
        for bad in ("abc", "2q", "q^", "1/0", "--q"):
            with pytest.raises(DomainError):
                parse_matrix(f"1 1 {ring}\n{bad}\n")
    for bad in ("1_0", "\u0663", "abc"):
        with pytest.raises(DomainError):
            parse_matrix(f"1 1 z\n{bad}\n")
    with pytest.raises(DomainError):
        parse_matrix("x 1 z\n1\n")
    assert parse_matrix("1 2 z\n-3 +4\n").entries == ((-3, 4),)


def test_qpoly_text_exponent_guard():
    # Q[q] text is stored dense: one short token must not ask for a list as
    # long as its exponent; Laurent text is stored sparse and has no guard
    top = f"q^{_QPOLY_TEXT_DEGREE}"
    assert RationalPoly.parse(top).degree() == _QPOLY_TEXT_DEGREE
    # past the interpreter's int <-> str digit limit too
    for text in (f"q^{_QPOLY_TEXT_DEGREE + 1}", "1+q^300000", "q^" + "9" * 40, "q^" + "1" * 5000):
        with pytest.raises(GuardExceeded):
            RationalPoly.parse(text)
        with pytest.raises(GuardExceeded):
            parse_matrix(f"1 1 qpoly\n{text}\n")
    assert parse_matrix("1 1 laurent\nq^300000\n")[0, 0] == parse_laurent("q^300000")


def test_negative_shape_raises_domain_error():
    with pytest.raises(DomainError):
        ExactMatrix(0, -3, "z", [])
    with pytest.raises(DomainError):
        ExactMatrix(-1, 0, "qpoly", [])
    for header in ("0 -5 z", "-2 0 laurent", "-1 -1 qpoly"):
        with pytest.raises(DomainError):
            parse_matrix(header)
    assert parse_matrix("0 5 z").cols == 5


def test_stable_invariants_propagates_laurent_failure():
    M = ExactMatrix.diagonal([parse_laurent("2"), parse_laurent("-1 + q")], "laurent")
    with pytest.raises(DomainError, match="laurent normal form attempt failed: "):
        stable_invariants(M)


def _drop_first_factor(monkeypatch):
    """Every report of the harness loses its first invariant factor, whether
    read by `stable_invariants` or off the Laurent attempt's diagonal."""
    stable, invariants = harness.stable_invariants, harness._invariants

    def unpaired(inv):
        return StableInvariants(inv.ring, inv.free_rank, inv.factors[1:])

    monkeypatch.setattr(harness, "stable_invariants", lambda M: unpaired(stable(M)))
    monkeypatch.setattr(harness, "_invariants", lambda *args: unpaired(invariants(*args)))


def test_alternating_report_with_unpaired_factors_raises(monkeypatch):
    # the factors of A_kappa(2,2,2) pair up over every ring: (4, 4) over Z and
    # at q = -1, (1+q^2, 1+q^2) over Q[q]; drop one and only the PIDs object
    spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="kappa")
    _drop_first_factor(monkeypatch)
    for ring in ("z", "qpoly", "z@q0"):
        with pytest.raises(ExactDivisionError, match=r"kappa.* over %s do not pair up" % ring):
            run_report(spec, ring)
    assert run_report(spec, "laurent").invariant_factors == ["2 + 2*q^2"]


def test_cli_reports_an_arithmetic_fault_with_exit_three(monkeypatch, capsys):
    # a library fault must not read as a failed verdict (exit 1) or escape
    # as a traceback
    _drop_first_factor(monkeypatch)
    code = main(["report", "--family", "ppbox-quotient", "--a", "2", "--b", "2",
                 "--c", "2", "--group", "kappa"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and "do not pair up" in captured.err


def test_oracle_guard_is_the_package_guard_exceeded():
    with pytest.raises(kasteleyn.GuardExceeded):
        kasteleyn.enumerate_matchings(build_aztec_graph(3), count_guard=10)


@pytest.mark.parametrize("value", ["abc", "4"])
def test_oracle_guard_variable_is_not_read(monkeypatch, value):
    # the report's oracle keeps the 64-vertex guard of enumerate_matchings
    # whatever the environment holds
    spec = FamilySpec("aztec", n=2)
    monkeypatch.delenv("KASTELEYN_ORACLE_GUARD", raising=False)
    want = run_report(spec, "z").to_json()
    suite = [v.to_json() for v in harness.conjecture_suite("round", 3)]
    monkeypatch.setenv("KASTELEYN_ORACLE_GUARD", value)
    got = run_report(spec, "z").to_json()
    del want["duration"], got["duration"]
    assert got == want and got["oracle_check"] == "holds"
    assert [v.to_json() for v in harness.conjecture_suite("round", 3)] == suite


def test_oracle_command_counts_past_the_report_guard(capsys):
    # the cube-weighted box 4x4x4 has 96 vertices, above the 64 of a report
    assert main(["oracle", "--family", "ppbox", "--a", "4", "--b", "4", "--c", "4",
                 "--q-mode", "cube"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 232848


@pytest.mark.parametrize("ceiling", [0, -1])
def test_suite_ceiling_below_one_is_refused(capsys, ceiling):
    # a suite with no instance must not report success on nothing
    for which in ("jt", "aztec"):
        with pytest.raises(DomainError, match=f"ceiling {ceiling}"):
            harness.verify_theorems(which, ceiling)
    for which in ("round", "sqfree", "q-minus-one"):
        with pytest.raises(DomainError, match=f"ceiling {ceiling}"):
            harness.conjecture_suite(which, ceiling)
    assert main(["verify", "--which", "jt", "--ceiling", str(ceiling)]) == 2
    assert main(["conjecture", "--id", "round", "--ceiling", str(ceiling)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count(f"ceiling {ceiling}") == 2


def test_adjacency_missing_decorations():
    verts = [Vertex(0, color="black"), Vertex(1, color="white")]
    edges = [Edge(0, 0, 1)]
    faces = [[(0, True), (0, False)]]
    G = EmbeddedGraph(verts, edges, faces, "sphere", 0)
    with pytest.raises(DomainError):
        adjacency_matrix(G, "bipartite")
    with pytest.raises(DomainError):
        adjacency_matrix(G, "alternating")


def test_projective_bipartite_rejected():
    # a 4-cycle doubled onto the projective plane is globally bipartite
    verts = [Vertex(i, color=None) for i in range(4)]
    edges = [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 0)]
    faces = [
        [(0, True), (1, True), (2, True), (3, True)],
        [(0, False), (3, False), (2, False), (1, False)],
    ]
    G = EmbeddedGraph(verts, edges, faces, "projective", None)
    with pytest.raises(DomainError):
        kasteleyn_orient(G)


def test_projective_orientation_validates_the_embedding():
    # graph JSON is not validated on load; the projective orientation needs
    # every edge on two face sides, so a dropped face is refused, not
    # oriented as if flat
    data = graph_to_json(antipodal_cube_quotient())
    data["faces"] = data["faces"][:-1]
    with pytest.raises(DomainError, match="face sides"):
        kasteleyn_orient(graph_from_json(data))


def test_reflection_quotient_rejects_non_involution():
    verts = [Vertex(i) for i in range(4)]
    edges = [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 0)]
    faces = [
        [(0, True), (1, True), (2, True), (3, True)],
        [(3, False), (2, False), (1, False), (0, False)],
    ]
    G = EmbeddedGraph(verts, edges, faces, "sphere", 1)
    vmap = {0: 1, 1: 2, 2: 3, 3: 0}   # a 4-cycle, not an involution
    with pytest.raises(DomainError):
        reflection_quotient(G, vmap)


def test_family_spec_group_dimension_checks():
    with pytest.raises(DomainError):
        FamilySpec(variant="ppbox-quotient", a=1, b=2, c=3, group="rho")
    with pytest.raises(DomainError):
        FamilySpec(variant="ppbox-quotient", a=1, b=1, c=2, group="tau")
    with pytest.raises(DomainError):
        FamilySpec(variant="ppbox", a=-1, b=1, c=1)


def test_aztec_rejects_nonpositive():
    with pytest.raises(DomainError):
        build_aztec_graph(0)


def test_transit_resolution_rejects_unsegregated_vertex():
    # transit vertex with interleaved in/out edges around it
    g = GVGraph(
        [0, 1, 2, 3, 4],
        [(0, 1, 0, 1), (1, 2, 0, 1), (2, 0, 3, 1), (3, 0, 4, 1)],
        [1, 2],
        [3, 4],
        coords={0: (0, 0), 1: (0, 2), 2: (0, -2), 3: (2, 0), 4: (-2, 0)},
    )
    with pytest.raises(DomainError, match="segregated"):
        transit_free_resolution(g)


def _aztec_1_json(edit):
    data = graph_to_json(build_aztec_graph(1))
    edit(data)
    return json.dumps(data)


def _set(path, value):
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("edit, field", [
    (lambda data: data.pop("faces"), "'faces'"),
    (lambda data: data.pop("edges"), "'edges'"),
    (lambda data: data["vertices"][0].pop("id"), "'id'"),
    (lambda data: data["edges"][1].pop("v"), "'v'"),
    (_set(("faces", 0, 0), [3]), "face 0"),
    (_set(("faces", 1, 2), 7), "face 1"),
    (_set(("faces", 0, 0, 0), "a"), "edge id of face 0"),
    (_set(("faces", 0, 0, 0), None), "edge id of face 0"),
    (_set(("edges", 0, "id"), "a"), "edge id"),
    (_set(("edges", 0, "u"), 9), "unknown vertex"),
    (_set(("vertices", 2, "id"), 2.5), "vertex id"),
    # integer text is read as the matrix text reads it: no `1_0`, no
    # non-ASCII digit, no surrounding space
    (_set(("vertices", 0, "id"), "0_0"), "vertex id is not an integer: '0_0'"),
    (_set(("vertices", 0, "id"), "\u0660"), "vertex id is not an integer: '\u0660'"),
    (_set(("edges", 0, "u"), " 0"), "edge 0 end u"),
    (_set(("edges", 0, "weight"), "1_0"), "bad polynomial term '1_0'"),
    (_set(("coords", "0_0"), [1, 1]), "coordinate key"),
    (_set(("infinite_face",), "0_0"), "infinite face"),
    # a direction is a boolean (or 1 or 0): the text "false" is truthy, and
    # read as forward it would fail validate() far from its cause
    (_set(("faces", 0, 0, 1), "false"), "direction of face 0 is not a boolean: 'false'"),
    (_set(("faces", 1, 0, 1), 2), "direction of face 1 is not a boolean: 2"),
    # a field of the wrong JSON type is named, not met as a bare TypeError
    # or AttributeError, and a sign or orientation is 1, -1 or null, never
    # the bool true (which equals 1)
    (_set(("coords",), {"0": 5}), "coordinate pair of vertex 0 is not an array: 5"),
    (_set(("coords",), [1]), "coords is not an object"),
    (_set(("coords", "0"), [1, 2, 3]), "coordinate pair of vertex 0 has not two entries"),
    (_set(("coords", "0"), [1, 0.5]), "a coordinate of vertex 0 is not an integer"),
    (_set(("flags",), [1]), "flags is not an object"),
    (_set(("vertices",), 3), "vertices is not an array"),
    (_set(("edges",), 3), "edges is not an array"),
    (_set(("faces",), 3), "faces is not an array"),
    (_set(("faces", 0), 3), "face 0 is not an array"),
    (_set(("edges", 0, "sign"), True), "edge 0 sign is not an integer: True"),
    (_set(("edges", 0, "orientation"), True), "edge 0 orientation is not an integer: True"),
    (_set(("edges", 0, "sign"), 2), "edge 0 sign is not 1, -1 or null: 2"),
])
def test_malformed_graph_json_raises_domain_error(edit, field):
    # each malformed field is named, not met as a bare KeyError, IndexError
    # or ValueError
    text = _aztec_1_json(edit)
    with pytest.raises(DomainError, match=field):
        graph_from_json(json.loads(text))


def test_graph_json_with_an_unknown_edge_in_a_face():
    G = graph_from_json(json.loads(_aztec_1_json(_set(("faces", 0, 0, 0), 99))))
    with pytest.raises(DomainError, match="unknown edge 99"):
        G.validate()


def test_graph_json_coerces_face_entries():
    # ids given as text and directions as 0/1 are read as the graph's ints
    # and bools
    G = build_aztec_graph(1)
    data = graph_to_json(G)
    data["faces"] = [[[str(eid), int(fwd)] for eid, fwd in walk] for walk in data["faces"]]
    H = graph_from_json(data)
    assert H.faces == G.faces
    assert all(type(eid) is int and type(fwd) is bool for walk in H.faces for eid, fwd in walk)
    assert H.validate()
