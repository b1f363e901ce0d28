import hashlib
import json
import random

import pytest

import pinned
from oracles import (antipodal_cube_quotient, enumerate_matchings_reference, is_valid_matching,
                     macmahon_box_qgen, mobius_ladder, polys_equal_up_to_unit, rotation_at,
                     split_antipodal_quotient)

from kasteleyn.graphs import (
    EVEN,
    MONO,
    ODD,
    DomainError,
    Edge,
    EmbeddedGraph,
    GuardExceeded,
    Vertex,
    adjacency_matrix,
    dump_graph,
    enumerate_matchings,
    graph_from_json,
    graph_to_json,
    kasteleyn_orient,
    kasteleyn_percus_sign,
    monogamous_resolution,
    reflection_quotient,
    trace_faces,
    triple_edges,
    verify_flatness,
)
from kasteleyn.families import (
    FamilySpec,
    build_aztec_graph,
    build_family_graph,
    triangle_region_graph,
)
from kasteleyn.harness import _round_instances
from kasteleyn.matrices import determinant, pfaffian
from kasteleyn.rings import LaurentPoly


def build_from_coords(coords, edge_specs, kinds=None, colors=None, weights=None):
    """Embedded graph from integer coordinates via face tracing."""
    kinds = kinds or {}
    colors = colors or {}
    weights = weights or {}
    verts = [Vertex(v, kinds.get(v, MONO), colors.get(v)) for v in sorted(coords)]
    edges = [
        Edge(i, u, v, weights.get(i, 1)) for i, (u, v) in enumerate(edge_specs)
    ]
    faces, outer = trace_faces(coords, [(e.id, e.u, e.v) for e in edges])
    G = EmbeddedGraph(verts, edges, faces, "sphere", outer, coords)
    G.validate()
    return G


def square_cycle(colors=True):
    coords = {0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2)}
    cols = {0: "black", 1: "white", 2: "black", 3: "white"} if colors else {}
    return build_from_coords(coords, [(0, 1), (1, 2), (2, 3), (3, 0)], colors=cols)


def path_graph(n):
    coords = {i: (2 * i, 0) for i in range(n)}
    cols = {i: ("black" if i % 2 == 0 else "white") for i in range(n)}
    return build_from_coords(coords, [(i, i + 1) for i in range(n - 1)], colors=cols)


def grid_graph(w, h, tail=False):
    """w x h grid; with tail, a pendant vertex hangs west of corner 0."""
    coords = {}
    ids = {}
    k = 0
    for y in range(h):
        for x in range(w):
            ids[x, y] = k
            coords[k] = (2 * x, 2 * y)
            k += 1
    edges = []
    for y in range(h):
        for x in range(w):
            if x + 1 < w:
                edges.append((ids[x, y], ids[x + 1, y]))
            if y + 1 < h:
                edges.append((ids[x, y], ids[x, y + 1]))
    cols = {ids[x, y]: ("black" if (x + y) % 2 == 0 else "white") for x, y in ids}
    if tail:
        coords[k] = (-2, 0)
        edges.append((k, 0))
        cols[k] = "white"
    return build_from_coords(coords, edges, colors=cols)


class TestTraceFaces:
    def test_square(self):
        G = square_cycle()
        assert len(G.faces) == 2
        assert G.infinite_face is not None
        sides = sorted(len(w) for w in G.faces)
        assert sides == [4, 4]

    def test_grid_faces(self):
        G = grid_graph(3, 2)
        # 2x1 squares -> 2 finite faces + outer
        assert len(G.faces) == 3

    def test_path_has_one_face(self):
        G = path_graph(4)
        assert len(G.faces) == 1
        # bridge edges appear twice on the single face
        assert len(G.faces[0]) == 6

    def test_self_loop_rejected(self):
        coords = {0: (0, 0), 1: (2, 0)}
        with pytest.raises(DomainError, match="self-loops"):
            trace_faces(coords, [(0, 0, 1), (1, 1, 1)])

    @pytest.mark.parametrize("slot", range(7))
    def test_parallel_directions_rejected(self, slot):
        # a star of six directions plus a second, longer edge east, listed
        # at every position; the rotation sort must meet the two east darts
        pts = [(4, 0), (2, 4), (-2, 4), (-4, 0), (-2, -4), (2, -4)]
        coords = {0: (0, 0), 7: (8, 0)}
        coords.update({i + 1: p for i, p in enumerate(pts)})
        ends = [(0, i + 1) for i in range(6)]
        ends.insert(slot, (0, 7))
        with pytest.raises(DomainError, match="parallel edge directions at vertex 0"):
            trace_faces(coords, [(i, u, v) for i, (u, v) in enumerate(ends)])
        # the same edge list without the second east edge traces one face,
        # and vertex 7, left without edges, one empty walk
        faces, _ = trace_faces(coords, [(i, 0, i + 1) for i in range(6)])
        assert [len(walk) for walk in faces] == [12, 0]

    def test_parallel_directions_at_the_head_rejected(self):
        # both edges point west into vertex 0
        coords = {0: (0, 0), 1: (2, 0), 2: (4, 0), 3: (0, 2)}
        with pytest.raises(DomainError, match="parallel edge directions at vertex 0"):
            trace_faces(coords, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])

    def test_vertices_without_edges_get_empty_walks(self):
        # one empty walk per vertex without edges, in id order after the
        # traced walks; face 0 is the outer face when nothing is traced
        assert trace_faces({0: (0, 0)}, []) == ([[]], 0)
        assert trace_faces({3: (0, 0), 1: (4, 4)}, []) == ([[], []], 0)
        coords = {9: (5, 5), 0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2), 4: (7, 7)}
        G = build_from_coords(coords, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert [len(walk) for walk in G.faces] == [4, 4, 0, 0]
        # the outer face is still picked among the traced walks: the clockwise one
        assert G.walk_vertices(G.faces[G.infinite_face]) == [1, 0, 3, 2]

    def test_triangle_regions_with_a_lone_triangle(self):
        # a lone triangle is a vertex without edges: an empty walk, which
        # has no face lattice point
        for tris, shape in (({("U", 0, 0)}, (1, 0, 1)),
                            ({("U", 0, 0), ("D", 0, 0), ("U", 5, 5)}, (3, 1, 2))):
            G = triangle_region_graph(tris)
            assert (G.n_vertices, G.n_edges, len(G.faces), G.infinite_face) == (*shape, 0)
            assert G.flags["face_points"] == [None] * len(G.faces)
            assert G.validate()


class TestValidation:
    def test_bad_face_coverage(self):
        verts = [Vertex(0, color="black"), Vertex(1, color="white")]
        edges = [Edge(0, 0, 1)]
        with pytest.raises(DomainError):
            EmbeddedGraph(verts, edges, [[(0, True)]], "sphere", 0).validate()

    def test_euler_check(self):
        verts = [Vertex(0), Vertex(1)]
        edges = [Edge(0, 0, 1)]
        # one face listing the edge twice: V-E+F = 2 for the connected path
        G = EmbeddedGraph(verts, edges, [[(0, True), (0, False)]], "sphere", 0)
        assert G.validate()


class TestBipartite:
    """`is_bipartite` reads the parity of one search (`_components`)."""

    def test_agrees_with_the_stored_colors(self):
        colored = 0
        for _, spec, _ in _round_instances(6):
            try:
                G = build_family_graph(spec)
            except DomainError:     # the Delannoy matrices, off-size triangles
                continue
            if G.is_bipartite_colored():
                colored += 1
                assert G.is_bipartite()
        assert colored == 97

    def test_odd_cycles_and_loops(self):
        triangle = build_from_coords({0: (0, 0), 1: (2, 0), 2: (0, 2)}, [(0, 1), (1, 2), (2, 0)])
        assert not triangle.is_bipartite()
        assert square_cycle(colors=False).is_bipartite()
        loop = EmbeddedGraph([Vertex(0), Vertex(1)], [Edge(0, 0, 1), Edge(1, 1, 1)],
                             [[(0, True), (1, True), (0, False)], [(1, False)]], "sphere", 0)
        assert not loop.is_bipartite()
        # the Moebius ladder M_2k is bipartite iff k is odd (M_6 = K_{3,3})
        for k in range(2, 9):
            assert mobius_ladder(k).is_bipartite() == (k % 2 == 1)
        assert not antipodal_cube_quotient().is_bipartite()
        assert not split_antipodal_quotient().is_bipartite()


class TestPercusSign:
    def test_path_all_plus(self):
        G = kasteleyn_percus_sign(path_graph(4))
        assert all(e.sign == 1 for e in G.edges)

    def test_square_face_odd_minus(self):
        G = kasteleyn_percus_sign(square_cycle())
        finite = [w for i, w in enumerate(G.faces) if i != G.infinite_face][0]
        minus = sum(1 for eid, _ in finite if G.edge(eid).sign == -1)
        assert minus % 2 == 1
        assert verify_flatness(G) == []

    def test_det_counts_matchings_grid(self):
        for (w, h) in [(2, 2), (3, 2), (4, 2), (3, 3)]:
            G = kasteleyn_percus_sign(grid_graph(w, h))
            ms = enumerate_matchings(G)
            M = adjacency_matrix(G, "bipartite")
            if w * h % 2 == 0:
                assert abs(determinant(M)) == ms.count
            assert verify_flatness(G) == []

    def test_odd_vertex_count_skips_the_infinite_face(self):
        # V = 9: the infinite face has 8 sides and an even number of minus
        # signs, so it fails the Percus rule, and it is the one face skipped
        G = kasteleyn_percus_sign(grid_graph(3, 3))
        walk = G.faces[G.infinite_face]
        minus = sum(1 for eid, _ in walk if G.edge(eid).sign == -1)
        assert len(walk) % 4 == 0 and minus % 2 == 0
        assert verify_flatness(G) == []

    def test_term_signs_uniform(self):
        G = kasteleyn_percus_sign(grid_graph(3, 2))
        M = adjacency_matrix(G, "bipartite")
        ms = enumerate_matchings_reference(G)
        blacks = sorted(v.id for v in G.vertices if v.color == "black")
        whites = sorted(v.id for v in G.vertices if v.color == "white")
        signs = set()
        for m in ms.matchings:
            perm = {}
            prod = 1
            for eid in m:
                e = G.edge(eid)
                b, w = (e.u, e.v) if G.vertex(e.u).color == "black" else (e.v, e.u)
                perm[blacks.index(b)] = whites.index(w)
                prod *= e.sign
            p = [perm[i] for i in range(len(blacks))]
            inv = sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])
            signs.add(prod * (-1) ** inv)
        assert len(signs) == 1

    def test_non_bipartite_rejected(self):
        coords = {0: (0, 0), 1: (4, 0), 2: (2, 3)}
        G = build_from_coords(coords, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(DomainError):
            kasteleyn_percus_sign(G)

    def test_odd_vertex_count_flagged(self):
        G = kasteleyn_percus_sign(path_graph(3))
        assert G.flags.get("odd_vertex_count")


class TestOrient:
    def test_triangle_with_pendant(self):
        coords = {0: (0, 0), 1: (4, 0), 2: (2, 3), 3: (6, 3)}
        G = build_from_coords(coords, [(0, 1), (1, 2), (2, 0), (1, 3)])
        out = kasteleyn_orient(G)
        tri = [w for i, w in enumerate(out.faces) if i != out.infinite_face][0]
        agree = sum(
            1 for eid, fwd in tri if (out.edge(eid).orient == 1) == fwd
        )
        assert agree % 2 == 1

    def test_grid_2x3_pfaffian(self):
        G = kasteleyn_orient(grid_graph(3, 2))
        A = adjacency_matrix(G, "alternating")
        assert abs(pfaffian(A)) == 3
        assert enumerate_matchings(G).count == 3

    def test_pfaffian_counts_random_grids(self):
        for (w, h) in [(2, 2), (4, 2), (2, 4), (4, 3)]:
            G = kasteleyn_orient(grid_graph(w, h))
            A = adjacency_matrix(G, "alternating")
            assert abs(pfaffian(A)) == enumerate_matchings(G).count

    def test_decoration_independence(self):
        from kasteleyn.matrices import stable_invariants

        G0 = grid_graph(3, 3)
        invs = set()
        for seed in (0, 1, 2, 5):
            G = kasteleyn_percus_sign(G0, tree_seed=seed)
            M = adjacency_matrix(G, "bipartite")
            invs.add(stable_invariants(M))
        assert len(invs) == 1


class TestPinnedDecorations:
    """The decorated graphs of the round suite at ceiling 6 at tree seeds
    1-3, whose dual spanning trees are shuffled, and of the projective cube
    quotient at seeds 0-3, pinned by SHA-256: a change of the propagation
    must flip the same edges.  The records are built in `pinned.py`."""

    def test_seeded_decorations(self):
        records = pinned.decoration_records()
        assert (len(records), pinned.digest(records)) == pinned.DECORATIONS


class TestAdjacency:
    def test_single_edge(self):
        G = path_graph(2)
        G = kasteleyn_percus_sign(G)
        M = adjacency_matrix(G, "bipartite")
        assert M.to_lists() == [[1]]

    def test_double_edge_cancellation(self):
        verts = [Vertex(0, color="black"), Vertex(1, color="white")]
        edges = [Edge(0, 0, 1, sign=1), Edge(1, 0, 1, sign=-1)]
        faces = [[(0, True), (1, False)], [(1, True), (0, False)]]
        G = EmbeddedGraph(verts, edges, faces, "sphere", 0)
        G.validate()
        M = adjacency_matrix(G, "bipartite")
        assert M.to_lists() == [[0]]

    def test_two_copies_block_structure(self):
        # orienting every + edge black->white realizes A = [[0, M], [-M, 0]]
        G = kasteleyn_percus_sign(square_cycle())
        H = G.clone()
        relabel = {}
        blacks = sorted(v.id for v in H.vertices if v.color == "black")
        whites = sorted(v.id for v in H.vertices if v.color == "white")
        for i, b in enumerate(blacks):
            relabel[b] = i
        for j, w in enumerate(whites):
            relabel[w] = len(blacks) + j
        verts = [Vertex(relabel[v.id], v.kind, v.color) for v in H.vertices]
        edges = []
        for e in H.edges:
            b, w = (e.u, e.v) if H.vertex(e.u).color == "black" else (e.v, e.u)
            orient = 1 if e.sign == 1 else -1
            # store as (black, white); orient follows the sign
            edges.append(Edge(e.id, relabel[b], relabel[w], e.weight, None, orient))
        faces = []
        for walk in H.faces:
            new_walk = []
            for eid, fwd in walk:
                e = H.edge(eid)
                b = e.u if H.vertex(e.u).color == "black" else e.v
                started_at_b = (e.u if fwd else e.v) == b
                new_walk.append((eid, started_at_b))
            faces.append(new_walk)
        G2 = EmbeddedGraph(verts, edges, faces, "sphere", H.infinite_face)
        A = adjacency_matrix(G2, "alternating")
        M = adjacency_matrix(G, "bipartite")
        n = len(blacks)
        for i in range(n):
            for j in range(n):
                assert A[i, n + j] == M[i, j]
                assert A[n + j, i] == -M[i, j]
                assert A[i, j] == 0
                assert A[n + i, n + j] == 0


class TestEnumerate:
    def test_four_cycle(self):
        # a count and a total, and nothing else
        assert vars(enumerate_matchings(square_cycle())) == {"count": 2, "total_weight": 2}

    def test_listed_matchings_valid(self):
        G = grid_graph(3, 2)
        ms = enumerate_matchings_reference(G)
        assert ms.count == enumerate_matchings(G).count == 3
        for m in ms.matchings:
            assert is_valid_matching(G, m)

    def test_polygamous_parities(self):
        # path a - v - b with v even-polygamous: matchings use both or none
        coords = {0: (0, 0), 1: (2, 0), 2: (4, 0), 3: (6, 0)}
        G = build_from_coords(coords, [(0, 1), (1, 2), (2, 3)], kinds={1: EVEN, 2: EVEN})
        # ends are monogamous: each must take its edge; middle edge then breaks parity
        ms = enumerate_matchings_reference(G)
        assert ms.count == enumerate_matchings(G).count == 1
        assert is_valid_matching(G, list(ms.matchings[0]))

    def test_guard(self):
        assert enumerate_matchings(grid_graph(6, 5)).count == 1183  # domino tilings of 5 x 6
        G = grid_graph(9, 8)
        with pytest.raises(GuardExceeded):
            enumerate_matchings(G)

    def test_weighted_total(self):
        q = LaurentPoly.q_power(1)
        coords = {0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2)}
        G = build_from_coords(
            coords, [(0, 1), (1, 2), (2, 3), (3, 0)],
            weights={0: q, 1: 1, 2: 1, 3: 1},
        )
        ms = enumerate_matchings(G)
        # matchings {0,2} and {1,3}: weights q and 1
        assert ms.total_weight == q + 1

    def test_all_polygamous_power_of_two(self):
        rng = random.Random(2026)
        for _ in range(20):
            w, h = rng.choice([(2, 2), (3, 2), (3, 3)])
            G = grid_graph(w, h)
            for v in G.vertices:
                v.kind = rng.choice([ODD, EVEN])
                v.color = None
            count = enumerate_matchings(G).count
            assert count == 0 or (count & (count - 1)) == 0

    def test_listing_matches_brute_force_on_random_graphs(self):
        # mixed vertex kinds, self-loops and parallel edges; the brute force
        # filters every edge subset through is_valid_matching.  The reference
        # program lists; the library counts and weighs
        rng = random.Random(404)
        q = LaurentPoly.q_power(1)
        nonempty = 0
        for trial in range(150):
            n = rng.randint(1, 7)
            verts = [Vertex(i, rng.choice([MONO, MONO, ODD, EVEN])) for i in range(n)]
            edges = []
            for eid in range(rng.randint(0, 11)):
                u = rng.randrange(n)
                v = u if rng.random() < 0.1 else rng.randrange(n)
                if edges and rng.random() < 0.2:
                    u, v = edges[-1].u, edges[-1].v
                weight = rng.choice([1, 2, q, q * q + 1]) if trial % 2 else rng.choice([1, 3])
                edges.append(Edge(eid, u, v, weight))
            G = EmbeddedGraph(verts, edges, [])
            expected = {}
            for mask in range(1 << len(edges)):
                ids = [e.id for e in edges if mask >> e.id & 1]
                if is_valid_matching(G, ids):
                    weight = LaurentPoly.one() if G.ring() == "laurent" else 1
                    for eid in ids:
                        weight = weight * G.edge(eid).weight
                    expected[frozenset(ids)] = weight
            ms = enumerate_matchings_reference(G)
            assert ms.count == len(expected) == len(ms.matchings)
            assert dict(zip(ms.matchings, ms.weights)) == expected
            zero = LaurentPoly.zero() if G.ring() == "laurent" else 0
            assert ms.total_weight == sum(expected.values(), zero)
            got = enumerate_matchings(G)
            assert got.count == len(expected)
            assert got.total_weight == sum(expected.values(), zero)
            nonempty += bool(expected)
        assert nonempty >= 30

    @pytest.mark.parametrize("dims", [(2, 3, 3), (3, 3, 3)])
    def test_q_weighted_box_is_macmahon_product(self, dims):
        G = build_family_graph(FamilySpec("ppbox", *dims, q_mode="cube"))
        assert polys_equal_up_to_unit(enumerate_matchings(G).total_weight,
                                      macmahon_box_qgen(*dims))

    @pytest.mark.parametrize("d, count", [(4, 232848), (5, 267227532)])
    def test_large_q_weighted_box_is_macmahon(self, d, count):
        # 96 and 150 vertices, past the default guard: the packed totals
        # give MacMahon's q-product (times a power of q) and his count
        G = build_family_graph(FamilySpec("ppbox", d, d, d, q_mode="cube"))
        assert G.n_vertices == 6 * d * d
        ms = enumerate_matchings(G, count_guard=G.n_vertices)
        assert ms.count == count
        total = ms.total_weight
        assert total == macmahon_box_qgen(d, d, d).shift(total.min_exp)


def assert_same_matching_set(got, want):
    """Equal counts, and totals of one type with equal term maps."""
    assert got.count == want.count
    assert type(got.total_weight) is type(want.total_weight)
    if isinstance(want.total_weight, LaurentPoly):
        assert got.total_weight._terms == want.total_weight._terms
    else:
        assert got.total_weight == want.total_weight


class TestEnumerateAgainstReference:
    """The bitmask program with packed totals against the frozenset program
    with ring totals of `tests/oracles.py`."""

    def test_seeded_random_graphs(self):
        # mixed vertex kinds, self-loops and parallel edges; Laurent weights
        # with negative exponents and coefficients, zeros and non-monomials
        rng = random.Random(2020)
        q = LaurentPoly.q_power(1)
        qi = LaurentPoly.q_power(-1)
        laurent_weights = [1, -1, 2, 0, q, qi, -qi * qi, 3 - qi, q * q + 1, -2 * q ** 3,
                           LaurentPoly.zero(), q * q - 2 + qi, LaurentPoly.q_power(-5, 4)]
        drawn = set()
        seen = {"laurent": 0, "z": 0, "listed": 0, "unlisted": 0, "negative": 0}
        for trial in range(300):
            n = rng.randint(1, 11)
            verts = [Vertex(i, rng.choice([MONO, MONO, ODD, EVEN])) for i in range(n)]
            edges = []
            for eid in range(rng.randint(0, 16)):
                u = rng.randrange(n)
                v = u if rng.random() < 0.1 else rng.randrange(n)
                if edges and rng.random() < 0.2:
                    u, v = edges[-1].u, edges[-1].v
                if trial % 3:
                    i = rng.randrange(len(laurent_weights))
                    drawn.add(i)
                    weight = laurent_weights[i]
                else:
                    weight = rng.choice([1, -1, 2, -3, 0])
                edges.append(Edge(eid, u, v, weight))
            G = EmbeddedGraph(verts, edges, [])
            list_guard = rng.choice([0, 8, 28])
            want = enumerate_matchings_reference(G, list_guard=list_guard)
            got = enumerate_matchings(G)
            assert_same_matching_set(got, want)
            seen[G.ring()] += 1
            seen["listed" if want.matchings is not None else "unlisted"] += bool(want.count)
            total = want.total_weight
            if isinstance(total, LaurentPoly) and total._terms:
                seen["negative"] += min(total._terms) < 0 and min(total._terms.values()) < 0
        assert drawn == set(range(len(laurent_weights)))
        assert min(seen.values()) >= 10, seen

    def test_oracle_count_graphs(self):
        # the graphs of the oracle-count benchmark workload
        specs = [FamilySpec("ppbox", *dims, q_mode="cube")
                 for dims in ((3, 4, 4), (3, 3, 5), (3, 3, 4), (2, 4, 5))]
        specs += [FamilySpec("ppbox-quotient", 4, 3, 3, group="tau"),
                  FamilySpec("ppbox-impossible", 4, 3, 3, group="tau", q_mode="orbit",
                             wrong_parity=True),
                  FamilySpec("ppbox-quotient", 4, 4, 4, group="kappa")]
        graphs = [build_family_graph(spec) for spec in specs] + [build_aztec_graph(5)]
        for G in graphs:
            guard = G.n_vertices
            assert_same_matching_set(enumerate_matchings(G, count_guard=guard),
                                     enumerate_matchings_reference(G, count_guard=guard))
        # the small ones against the reference's listing
        small = [G for G in graphs if G.n_vertices <= 40]
        assert small
        for G in small:
            listed = enumerate_matchings_reference(G, count_guard=40, list_guard=40)
            got = enumerate_matchings(G, count_guard=40)
            assert got.count == len(listed.matchings) == listed.count
            zero = LaurentPoly.zero() if G.ring() == "laurent" else 0
            assert got.total_weight == sum(listed.weights, zero)


class TestRotation:
    def test_square_rotation(self):
        G = square_cycle()
        rot = rotation_at(G, 0)
        assert len(rot) == 2

    def test_grid_center_degree_four(self):
        G = grid_graph(3, 3)
        center = 4
        rot = rotation_at(G, center)
        assert len(rot) == 4
        # from the least edge id: south (to 1), west, north, east (to 5)
        assert rot == [3, 5, 8, 7]


class TestResolution:
    def test_even_pendant_deleted(self):
        coords = {0: (0, 0), 1: (2, 0), 2: (4, 0)}
        G = build_from_coords(coords, [(0, 1), (1, 2)], kinds={2: EVEN})
        out = monogamous_resolution(G)
        assert out.n_vertices == 2 and out.n_edges == 1
        assert enumerate_matchings(G).count == enumerate_matchings(out).count

    def test_odd_trivalent_becomes_triangle(self):
        coords = {0: (0, 0), 1: (-4, 2), 2: (4, 2), 3: (0, -4)}
        G = build_from_coords(coords, [(0, 1), (0, 2), (0, 3)], kinds={0: ODD})
        out = monogamous_resolution(G)
        assert all(v.kind == MONO for v in out.vertices)
        assert out.n_vertices == 6 and out.n_edges == 6
        assert enumerate_matchings(G).count == enumerate_matchings(out).count

    def test_counts_preserved_random_kinds(self):
        rng = random.Random(7)
        for trial in range(25):
            w, h = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
            G = grid_graph(w, h)
            for v in G.vertices:
                if rng.random() < 0.4:
                    v.kind = rng.choice([ODD, EVEN])
                    v.color = None
                else:
                    v.color = None
            before = enumerate_matchings(G).count
            out = monogamous_resolution(G)
            assert all(v.kind == MONO for v in out.vertices)
            out.validate()
            assert enumerate_matchings(out).count == before

    def test_layout_pinned_random_kinds(self):
        # pendant, even degree 2 and 3, odd degree 3 and degree >= 4 steps all
        # occur; the digest pins vertex, edge and face order of the output
        rng = random.Random(29)
        dumps = []
        for _ in range(40):
            w, h = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3)])
            G = grid_graph(w, h, tail=rng.random() < 0.5)
            for v in G.vertices:
                v.color = None
                if rng.random() < 0.5:
                    v.kind = rng.choice([ODD, EVEN])
            dumps.append(dump_graph(monogamous_resolution(G)))
        assert hashlib.sha256("\n".join(dumps).encode()).hexdigest() == (
            "96c1ee6137bec5444e6fbec91697f658d2e1ea08611ac51f7765ff6026034b2c")

    def test_isolated_even_vertex_dropped_with_its_face(self):
        # the isolated even vertex 0 goes first, and with it the empty walk
        # at face index 0; the even vertex 2 is then split on the shifted
        # face indices, exactly as if vertex 0 had never been there
        inner = [(0, True), (1, True), (2, True), (3, True)]
        outer = [(3, False), (2, False), (1, False), (0, False)]

        def cycle(isolated):
            verts = [Vertex(v, EVEN if v == 2 else MONO) for v in (1, 2, 3, 4)]
            edges = [Edge(0, 1, 2), Edge(1, 2, 3), Edge(2, 3, 4), Edge(3, 4, 1)]
            faces = [inner, outer]
            if isolated:
                verts.insert(0, Vertex(0, EVEN))
                faces.insert(0, [])
            G = EmbeddedGraph(verts, edges, faces, "sphere", len(faces) - 1)
            G.validate()
            return G

        got = monogamous_resolution(cycle(True))
        assert all(v.kind == MONO for v in got.vertices)
        assert graph_to_json(got) == graph_to_json(monogamous_resolution(cycle(False)))
        assert enumerate_matchings(got).count == enumerate_matchings(cycle(True)).count

    def test_isolated_odd_vertex_becomes_monogamous(self):
        G = EmbeddedGraph([Vertex(0, ODD)], [], [[]], "sphere", 0)
        out = monogamous_resolution(G)
        assert [v.kind for v in out.vertices] == [MONO]
        assert enumerate_matchings(G).count == enumerate_matchings(out).count == 0

    def test_lone_even_vertex_dropped_with_the_infinite_face(self):
        G = EmbeddedGraph([Vertex(0, EVEN)], [], [[]], "sphere", 0)
        out = monogamous_resolution(G)
        assert out.n_vertices == 0 and out.faces == [] and out.infinite_face is None
        assert enumerate_matchings(G).count == enumerate_matchings(out).count == 1

    def test_high_valence_split(self):
        # 6-star with odd-polygamous center
        coords = {0: (0, 0)}
        edges = []
        pts = [(8, 0), (4, 7), (-4, 7), (-8, 0), (-4, -7), (4, -7)]
        for i, p in enumerate(pts):
            coords[i + 1] = p
            edges.append((0, i + 1))
        G = build_from_coords(coords, edges, kinds={0: ODD})
        before = enumerate_matchings(G).count
        out = monogamous_resolution(G)
        assert all(v.kind == MONO for v in out.vertices)
        assert enumerate_matchings(out).count == before


class TestTripleEdges:
    def test_simple_unchanged(self):
        G = square_cycle()
        out = triple_edges(G)
        assert out.n_edges == G.n_edges

    def test_bigon(self):
        verts = [Vertex(0, color="black"), Vertex(1, color="white")]
        edges = [Edge(0, 0, 1), Edge(1, 0, 1)]
        faces = [[(0, True), (1, False)], [(1, True), (0, False)]]
        G = EmbeddedGraph(verts, edges, faces, "sphere", 0)
        assert enumerate_matchings(G).count == 2
        out = triple_edges(G)
        out.validate()
        assert out.n_vertices == 4 and out.n_edges == 4
        assert enumerate_matchings(out).count == 2


class TestReflectionQuotient:
    def test_square_vertical_mirror(self):
        # mirror swaps 0<->1 and 3<->2; edges 0 (bottom) and 2 (top) bisected
        G = square_cycle(colors=False)
        vmap = {0: 1, 1: 0, 2: 3, 3: 2}
        emap = {0: 0, 1: 3, 2: 2, 3: 1}
        out = reflection_quotient(G, vmap, emap, [0, 2])
        out.validate()
        assert out.n_vertices == 3
        omega = [v for v in out.vertices if v.label == "omega"][0]
        assert omega.kind == EVEN  # two monogamous kept vertices
        # invariant matchings of the 4-cycle: both perfect matchings are
        # mirror-invariant as sets? {bottom, top} yes; {left, right} maps to itself
        invariant = 0
        ms = enumerate_matchings_reference(G)
        for m in ms.matchings:
            if frozenset(emap[e] for e in m) == m:
                invariant += 1
        assert enumerate_matchings(out).count == invariant

    def test_wrong_parity_kills_matchings(self):
        G = square_cycle(colors=False)
        vmap = {0: 1, 1: 0, 2: 3, 3: 2}
        emap = {0: 0, 1: 3, 2: 2, 3: 1}
        out = reflection_quotient(G, vmap, emap, [0, 2], wrong_parity=True)
        assert enumerate_matchings(out).count == 0

    def test_edgeless(self):
        verts = [Vertex(0), Vertex(1)]
        G = EmbeddedGraph(verts, [], [[], []], "sphere", 0)
        G.validate()
        out = reflection_quotient(G, {0: 1, 1: 0}, {}, [])
        assert out.n_vertices == 1
        assert all(v.kind == MONO for v in out.vertices)

    @pytest.mark.parametrize("vmap, emap, bisected", [
        ({0: 1, 1: 0, 2: 3, 3: 2}, {0: 0, 2: 2}, [0, 2]),        # edges 1, 3 missing
        ({0: 1, 1: 0}, {0: 0, 1: 3, 2: 2, 3: 1}, [0]),           # vertices 2, 3 missing
        ({0: 1, 1: 0, 2: 3, 3: 2}, {0: 0, 1: 3, 2: 2, 3: 1}, [0, 7]),  # no edge 7
    ])
    def test_partial_maps_are_domain_errors(self, vmap, emap, bisected):
        with pytest.raises(DomainError):
            reflection_quotient(square_cycle(colors=False), vmap, emap, bisected)


class TestJson:
    def test_roundtrip(self):
        G = kasteleyn_percus_sign(grid_graph(3, 2))
        data = dump_graph(G)
        H = graph_from_json(json.loads(data))
        assert dump_graph(H) == data
        assert graph_to_json(graph_from_json(graph_to_json(G))) == graph_to_json(G)

    def test_weights_past_the_digit_limit(self):
        # 5000-digit int and Laurent weights keep their value and their type
        big = 10 ** 5000 + 7
        G = grid_graph(2, 2)
        weights = [big, -big, LaurentPoly({0: big, 1: -1}), 1]
        for e, w in zip(G.edges, weights):
            e.weight = w
        H = graph_from_json(json.loads(dump_graph(G)))
        assert [e.weight for e in H.edges] == weights
        assert [type(e.weight) for e in H.edges] == [int, int, LaurentPoly, int]
