"""Worked examples that cut across modules: the doubled-vertex pivot
reduction, flatness self-checks on family instances, and decoration
independence of orientations."""

from kasteleyn.families import (
    FamilySpec,
    apply_q_weights,
    build_aztec_graph,
    build_hexagon_graph,
    symmetry_quotient,
)
from kasteleyn.graphs import (
    adjacency_matrix,
    enumerate_matchings,
    kasteleyn_orient,
    kasteleyn_percus_sign,
    verify_flatness,
)
from kasteleyn.matrices import (
    ExactMatrix,
    deleted_pivot,
    determinant,
    pfaffian,
    stable_invariants,
)
from kasteleyn.rings import q_integer
from oracles import polys_equal_up_to_unit
from test_graphs import grid_graph, square_cycle


def split_vertex_matrix(A, split_at=0, first_part=None):
    """The doubled-vertex split of an alternating matrix: vertex w becomes
    a - m - b with the two new edges oppositely oriented; a keeps the
    neighbors in first_part, b the rest."""
    n = A.rows
    neigh = [j for j in range(n) if j != split_at and A[split_at, j] != 0]
    if first_part is None:
        first_part = set(neigh[: len(neigh) // 2])
    old = [j for j in range(n) if j != split_at]
    pos = {j: 3 + i for i, j in enumerate(old)}
    m = n + 2
    grid = [[0] * m for _ in range(m)]
    grid[0][1] = 1
    grid[1][0] = -1
    grid[2][1] = 1
    grid[1][2] = -1
    for j in old:
        # edges kept by the a-copy point across the middle path, so their
        # stored orientation flips; the deleted pivots flip them back
        if j in first_part:
            grid[0][pos[j]] = -A[split_at, j]
            grid[pos[j]][0] = -A[j, split_at]
        else:
            grid[2][pos[j]] = A[split_at, j]
            grid[pos[j]][2] = A[j, split_at]
        for k in old:
            grid[pos[j]][pos[k]] = A[j, k]
    return ExactMatrix.from_rows(grid, "z")


class TestDoubledVertexPivot:
    def test_reduces_back(self):
        G = kasteleyn_orient(grid_graph(3, 2))
        A = adjacency_matrix(G, "alternating")
        Ap = split_vertex_matrix(A, split_at=0)
        assert Ap.is_alternating()
        # deleted pivots at the (1,2) and (2,1) positions of the split block
        step1 = deleted_pivot(Ap, 0, 1)
        step2 = deleted_pivot(step1, 0, 0)
        assert step2 == A

    def test_split_preserves_invariants(self):
        G = kasteleyn_orient(grid_graph(2, 2))
        A = adjacency_matrix(G, "alternating")
        Ap = split_vertex_matrix(A, split_at=1)
        assert stable_invariants(Ap).factors == stable_invariants(A).factors


class TestFlatnessSelfChecks:
    def test_sign_z223_all_finite_faces(self):
        Z = kasteleyn_percus_sign(build_hexagon_graph(2, 2, 3))
        assert verify_flatness(Z) == []

    def test_hand_built_all_plus_square_fails(self):
        G = square_cycle()
        for e in G.edges:
            e.sign = 1
        # both faces have 4 sides and no minus sign; V = 4 skips neither
        assert verify_flatness(G) == [0, 1]

    def test_unit_hexagon_sign_rule(self):
        Z = kasteleyn_percus_sign(build_hexagon_graph(1, 1, 1))
        face = [w for i, w in enumerate(Z.faces) if i != Z.infinite_face][0]
        minus = sum(1 for eid, _ in face if Z.edge(eid).sign == -1)
        assert minus % 2 == 0  # six-sided face wants an even count
        M = adjacency_matrix(Z, "bipartite")
        assert abs(determinant(M)) == 2

    def test_aztec_1_pfaffian(self):
        Z = kasteleyn_orient(build_aztec_graph(1))
        A = adjacency_matrix(Z, "alternating")
        assert abs(pfaffian(A)) == 2


class TestDecorationIndependence:
    def test_orientation_invariants_across_trees(self):
        G0 = build_hexagon_graph(1, 2, 2)
        invs = set()
        for seed in (0, 1, 3, 7):
            A = adjacency_matrix(kasteleyn_orient(G0, tree_seed=seed), "alternating")
            invs.add(stable_invariants(A))
        assert len(invs) == 1

    def test_sign_invariants_across_trees_weighted(self):
        spec = FamilySpec(variant="ppbox", a=1, b=1, c=2, q_mode="cube")
        Z = apply_q_weights(build_hexagon_graph(1, 1, 2), spec, "cube")
        dets = set()
        for seed in (0, 2, 9):
            M = adjacency_matrix(kasteleyn_percus_sign(Z, tree_seed=seed), "bipartite")
            dets.add(determinant(M).normal())
        assert len(dets) == 1


class TestQuotientExamples:
    def test_unit_box_q_total(self):
        spec = FamilySpec(variant="ppbox", a=1, b=1, c=1, q_mode="cube")
        Z = apply_q_weights(build_hexagon_graph(1, 1, 1), spec, "cube")
        total = enumerate_matchings(Z).total_weight
        assert polys_equal_up_to_unit(total, q_integer(2))

    def test_tau_222_polygamous_vertex_parity(self):
        Q = symmetry_quotient(
            FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        )
        polys = [v for v in Q.vertices if v.kind != "mono"]
        assert len(polys) == 1
        n_mono = sum(1 for v in Q.vertices if v.kind == "mono")
        n_odd = sum(1 for v in Q.vertices if v.kind == "odd")
        assert (n_mono + n_odd) % 2 == 0
