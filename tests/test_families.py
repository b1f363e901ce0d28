import hashlib
import random

import pytest

import oracles
import pinned
from oracles import (
    antipodal_cube_quotient,
    cube_graph,
    enumerate_matchings_reference,
    invariant_pps,
    mobius_ladder,
    plane_partitions,
    polys_equal_up_to_unit,
    pp_qgen_cubes,
    pp_qgen_orbits,
    skew_tableaux_qgen,
    solve_rational_reference,
    split_antipodal_quotient,
    transit_free_resolution_reference,
)

from kasteleyn import cli, families
from kasteleyn.families import (
    FamilySpec,
    _family_matrix,
    _solve_rational,
    GVGraph,
    Partition,
    apply_q_weights,
    aztec_matrix_closed_form,
    aztec_matrix_reduced,
    aztec_reflection_maps,
    aztec_x_block,
    aztec_y_block,
    binomial_matrix,
    binomial_matrix_inverse,
    build_aztec_graph,
    build_family_graph,
    build_hexagon_graph,
    build_hex_minus_triangle,
    build_skew_graph,
    delannoy_closed_form,
    delannoy_gv_graph,
    delannoy_matrix,
    family_matrix,
    gv_matrix,
    impossible_variant,
    jacobi_trudi,
    left_shift_matrix,
    right_shift_matrix,
    skew_gv_graph,
    symmetry_quotient,
    transit_free_resolution,
    tie_quotient,
)
from kasteleyn.graphs import (
    MONO,
    Edge,
    EmbeddedGraph,
    Vertex,
    adjacency_matrix,
    dump_graph,
    enumerate_matchings,
    kasteleyn_orient,
    kasteleyn_percus_sign,
    monogamous_resolution,
    reflection_quotient,
    trace_faces,
    verify_flatness,
)
from kasteleyn.matrices import (
    ExactMatrix,
    cokernel_of,
    deleted_pivot,
    determinant,
    pfaffian,
    smith_normal_form,
    stable_invariants,
)
from kasteleyn.harness import (
    _mu_candidates,
    _partitions_upto,
    _round_instances,
    family_matrix_for_ring,
    run_report,
)
from kasteleyn.rings import DomainError, LaurentPoly, parse_laurent, q_integer


class TestPartition:
    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition(()).conjugate() == Partition(())
        lam = Partition((4, 3, 3, 1))
        assert lam.conjugate().conjugate() == lam

    def test_contains(self):
        assert Partition((2, 2)).contains(Partition((1,)))
        assert not Partition((2, 2)).contains(Partition((3,)))

    def test_rejects_bad(self):
        with pytest.raises(DomainError):
            Partition((1, 2))


class TestHexagon:
    def test_unit_hexagon(self):
        Z = build_hexagon_graph(1, 1, 1)
        assert Z.n_vertices == 6
        blacks = sum(1 for v in Z.vertices if v.color == "black")
        assert blacks == 3
        finite = [w for i, w in enumerate(Z.faces) if i != Z.infinite_face]
        assert len(finite) == 1 and len(finite[0]) == 6
        assert enumerate_matchings(Z).count == 2

    def test_vertex_counts(self):
        for (a, b, c) in [(1, 1, 2), (2, 2, 2), (2, 2, 3)]:
            Z = build_hexagon_graph(a, b, c)
            assert Z.n_vertices == 2 * (a * b + b * c + c * a)

    def test_counts_match_pp(self):
        for (a, b, c) in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
            Z = build_hexagon_graph(a, b, c)
            pps = list(plane_partitions(a, b, c))
            assert enumerate_matchings(Z).count == len(pps)

    def test_det_2_2_2(self):
        Z = kasteleyn_percus_sign(build_hexagon_graph(2, 2, 2))
        M = adjacency_matrix(Z, "bipartite")
        assert abs(determinant(M)) == 20
        assert enumerate_matchings(Z).count == 20

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            build_hexagon_graph(0, 1, 1)


class TestQWeights:
    def test_unit_box_weight(self):
        spec = FamilySpec(variant="ppbox", a=1, b=1, c=1)
        Z = apply_q_weights(build_hexagon_graph(1, 1, 1), spec, "cube")
        total = enumerate_matchings(Z).total_weight
        assert polys_equal_up_to_unit(total, q_integer(2))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3)])
    def test_box_qgen_matches_pp(self, dims):
        a, b, c = dims
        spec = FamilySpec(variant="ppbox", a=a, b=b, c=c)
        Z = apply_q_weights(build_hexagon_graph(a, b, c), spec, "cube")
        total = enumerate_matchings(Z).total_weight
        expected = pp_qgen_cubes(plane_partitions(a, b, c))
        assert polys_equal_up_to_unit(total, expected)

    def test_weights_at_one_unweighted(self):
        spec = FamilySpec(variant="ppbox", a=2, b=2, c=2)
        Z = apply_q_weights(build_hexagon_graph(2, 2, 2), spec, "cube")
        for e in Z.edges:
            w = e.weight
            if isinstance(w, LaurentPoly):
                assert w.evaluate(1) == 1
            else:
                assert w == 1

    def test_det_2_2_2_q(self):
        # det M(2,2,2;q) equals the box generating function up to a unit,
        # which factors as (2)_{q^2}^2 (5)_q
        spec = FamilySpec(variant="ppbox", a=2, b=2, c=2)
        Z = apply_q_weights(build_hexagon_graph(2, 2, 2), spec, "cube")
        signed = kasteleyn_percus_sign(Z)
        M = adjacency_matrix(signed, "bipartite")
        d = determinant(M)
        expected = parse_laurent("1 + q^2") ** 2 * q_integer(5)
        assert polys_equal_up_to_unit(d, expected)


class TestQuotients:
    def test_trivial_group_is_the_hexagon(self):
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="1")
        assert dump_graph(symmetry_quotient(spec)) == dump_graph(build_hexagon_graph(2, 2, 2))

    def test_rho_2_2_2(self):
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="rho")
        Q = symmetry_quotient(spec)
        assert Q.n_vertices == 8

    def test_rho_counts(self):
        for a in (1, 2):
            spec = FamilySpec(variant="ppbox-quotient", a=a, b=a, c=a, group="rho")
            Q = symmetry_quotient(spec)
            inv = invariant_pps("rho", a, a, a)
            assert enumerate_matchings(Q).count == len(inv)

    def test_kappa_all_even(self):
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="kappa")
        Q = symmetry_quotient(spec)
        assert Q.n_vertices == 12
        inv = invariant_pps("kappa", 2, 2, 2)
        assert enumerate_matchings(Q).count == len(inv)

    def test_kappa_mixed_parities(self):
        # (1,1,2): one even -> central edge and vertices deleted
        spec = FamilySpec(variant="ppbox-quotient", a=1, b=1, c=2, group="kappa")
        Q = symmetry_quotient(spec)
        assert Q.n_vertices % 2 == 0
        inv = invariant_pps("kappa", 1, 1, 2)
        assert enumerate_matchings(Q).count == len(inv)
        # (2,2,3): two even -> delete the edge but not its vertices
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=3, group="kappa")
        Q = symmetry_quotient(spec)
        assert Q.n_vertices == 16
        inv = invariant_pps("kappa", 2, 2, 3)
        assert enumerate_matchings(Q).count == len(inv)

    def test_tau_2_2_2(self):
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        Q = symmetry_quotient(spec)
        polys = [v for v in Q.vertices if v.kind != MONO]
        assert len(polys) == 1
        n_mono = sum(1 for v in Q.vertices if v.kind == MONO)
        n_odd = sum(1 for v in Q.vertices if v.kind == "odd")
        assert (n_mono + n_odd) % 2 == 0
        inv = invariant_pps("tau", 2, 2, 2)
        assert enumerate_matchings(Q).count == len(inv)

    @pytest.mark.parametrize("group,dims", [
        ("tau", (1, 1, 1)),
        ("tau", (2, 1, 1)),
        ("tau", (1, 2, 2)),
        ("kappa-tau", (2, 1, 1)),
        ("kappa-tau", (2, 2, 2)),
        ("rho,kappa", (2, 2, 2)),
        ("tau,rho", (2, 2, 2)),
        ("tau,kappa", (2, 2, 2)),
        ("tau,rho,kappa", (2, 2, 2)),
        ("kappa-tau,rho", (2, 2, 2)),
    ])
    def test_quotient_counts_match_invariant_pps(self, group, dims):
        a, b, c = dims
        spec = FamilySpec(variant="ppbox-quotient", a=a, b=b, c=c, group=group)
        Q = symmetry_quotient(spec)
        inv = invariant_pps(group, a, b, c)
        assert enumerate_matchings(Q).count == len(inv)

    def test_wrong_parity_no_matchings(self):
        spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2, group="tau",
                          wrong_parity=True)
        Q = impossible_variant(spec)
        assert enumerate_matchings(Q).count == 0

    def test_kappa_all_odd_impossible(self):
        spec = FamilySpec(variant="ppbox-impossible", a=1, b=1, c=1, group="kappa")
        Q = impossible_variant(spec)
        assert Q.n_vertices == 3
        A = adjacency_matrix(kasteleyn_orient(Q), "alternating")
        c = cokernel_of(A)
        assert c.free_rank >= 1

    def test_kappa_prime_odd_vertex_counts(self):
        # Z'_kappa flips the deletion convention so the count comes out odd
        for dims in [(1, 1, 2), (2, 2, 3)]:
            spec = FamilySpec(variant="ppbox-impossible", a=dims[0], b=dims[1],
                              c=dims[2], group="kappa")
            Q = impossible_variant(spec)
            assert Q.n_vertices % 2 == 1
            assert enumerate_matchings(Q).count == 0

    def test_quotient_layout_pinned(self):
        # the Laurent normal form depends on vertex, edge and face order, and
        # bench/data/conjecture_q.json is frozen against that order
        specs = [spec for _, spec, _ in _round_instances(8)
                 if spec.variant in ("ppbox-quotient", "ppbox-impossible")]
        assert len(specs) == 109
        text = "\n".join(dump_graph(build_family_graph(spec)) for spec in specs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e04e92fbe04466298429b47078507e36336d9979cd90ed3c863f32cb3d8304b6")


class TestQuotientQWeights:
    @pytest.mark.parametrize("group,dims,mode", [
        ("rho", (1, 1, 1), "cube"),
        ("rho", (2, 2, 2), "cube"),
        ("tau", (1, 1, 1), "cube"),
        ("tau", (2, 1, 1), "cube"),
        ("tau", (2, 2, 2), "cube"),
        ("tau", (1, 1, 1), "orbit"),
        ("tau", (2, 2, 2), "orbit"),
        ("tau,rho", (2, 2, 2), "cube"),
        ("tau,rho", (2, 2, 2), "orbit"),
    ])
    def test_quotient_qgen_matches_pp(self, group, dims, mode):
        a, b, c = dims
        spec = FamilySpec(variant="ppbox-quotient", a=a, b=b, c=c, group=group,
                          q_mode=mode)
        Q = apply_q_weights(symmetry_quotient(spec), spec, mode)
        total = enumerate_matchings(Q).total_weight
        pps = invariant_pps(group, a, b, c)
        if mode == "cube":
            expected = pp_qgen_cubes(pps)
        else:
            expected = pp_qgen_orbits(pps, group, a, b, c)
        assert polys_equal_up_to_unit(total, expected)


class TestFaceExponentSolve:
    """`_solve_rational` keeps its rows sparse; the dense Gauss-Jordan solve
    `solve_rational_reference` is its oracle.  Both pivot on the columns in
    increasing order, and the reduced row echelon form is unique, so they
    return the same solution, or both None."""

    @staticmethod
    def _random_system(rng):
        """A random 0/+-1 system; one in three has its last row equal to
        plus or minus an earlier row (rank deficient), one in three the same
        with the right-hand side off by one (insoluble)."""
        m, n = rng.randint(1, 8), rng.randint(1, 10)
        rows = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        rhs = [rng.choice((0, 1, -1, 2)) for _ in range(m)]
        kind = rng.randrange(3) if m > 1 else 0
        if kind:
            i, sign = rng.randrange(m - 1), rng.choice((1, -1))
            rows[-1] = [sign * x for x in rows[i]]
            rhs[-1] = sign * rhs[i] + (kind == 2)
        return rows, rhs, n, kind

    def test_fuzz_against_dense_reference(self):
        rng = random.Random(22)
        seen = {"deficient": 0, "insoluble": 0, "fractional": 0}
        for _ in range(600):
            rows, rhs, n, kind = self._random_system(rng)
            sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
            got = _solve_rational(sparse, rhs, n)
            want = solve_rational_reference(rows, rhs, n)
            assert got == want, (rows, rhs)
            seen["deficient"] += kind == 1
            if kind == 2:
                assert got is None
            if got is None:
                seen["insoluble"] += 1
                continue
            seen["fractional"] += any(x.denominator != 1 for x in got)
            assert all(sum(c * x for c, x in zip(row, got)) == b for row, b in zip(rows, rhs))
        assert min(seen.values()) >= 20, seen

    def test_no_rows(self):
        assert _solve_rational([], [], 3) == [0, 0, 0]
        assert solve_rational_reference([], [], 3) == [0, 0, 0]

    @staticmethod
    def _one_edge(walk):
        """An edge from black 0 to white 1 with one finite face `walk` and
        an outer face, each without a lattice point."""
        verts = [Vertex(0, color="black"), Vertex(1, color="white")]
        faces = [walk, [(0, True), (0, False)]]
        return EmbeddedGraph(verts, [Edge(0, 0, 1)], faces, "sphere", 1,
                             flags={"face_points": [None, None]})

    def test_insoluble_face_system(self):
        # a face crossing its edge both ways has the row 0 = +-1; no builder
        # makes one, so only a hand-made graph reaches this guard
        spec = FamilySpec(variant="ppbox-quotient", a=1, b=1, c=1, group="tau")
        with pytest.raises(DomainError, match="insoluble"):
            apply_q_weights(self._one_edge([(0, True), (0, False)]), spec, "orbit")

    def test_face_system_without_integer_solution(self):
        # a face crossing its edge twice from the black end: 2 x = 1
        spec = FamilySpec(variant="ppbox-quotient", a=1, b=1, c=1, group="tau")
        with pytest.raises(DomainError, match="no integer solution"):
            apply_q_weights(self._one_edge([(0, True), (0, True)]), spec, "orbit")

    @pytest.mark.parametrize("group, dims", [
        ("kappa", (1, 1, 2)), ("kappa-tau", (2, 1, 1)), ("tau,rho,kappa", (2, 2, 2)),
    ])
    def test_quotients_without_finite_faces_take_unit_weights(self, group, dims):
        # these quotients are trees: the face system has no row, every
        # exponent is 0, and the q-weighted graph is the plain one
        spec = FamilySpec(variant="ppbox-quotient", a=dims[0], b=dims[1], c=dims[2],
                          group=group)
        G = build_family_graph(spec)
        assert len(G.faces) == 1
        weighted = build_family_graph(FamilySpec(**{**spec.to_json(), "q_mode": "cube"}))
        assert dump_graph(weighted) == dump_graph(G)


class TestHexMinusTriangle:
    def test_hexagon_minus_unit_triangle(self):
        # hexagon with sides (2,3,2,3,2,3) minus the central unit up-triangle
        Z = build_hex_minus_triangle(2, 2, 2, 1, 1)
        assert Z.n_vertices == 36
        blacks = sum(1 for v in Z.vertices if v.color == "black")
        assert blacks == 18
        assert Z.validate()
        assert enumerate_matchings(Z).count > 0

    def test_impossible_variant_unbalanced(self):
        spec = FamilySpec(variant="hex-minus-triangle", a=2, b=2, c=2, d=1, e=-1)
        Z = build_family_graph(spec)
        blacks = sum(1 for v in Z.vertices if v.color == "black")
        whites = Z.n_vertices - blacks
        assert blacks != whites
        assert enumerate_matchings(Z).count == 0

    def test_d_equals_e_rejected_as_impossible(self):
        # the impossible variants are quotients: no hexagon-minus-triangle
        # spec, d = e or not, names one
        spec = FamilySpec(variant="hex-minus-triangle", a=2, b=2, c=2, d=1, e=1)
        with pytest.raises(DomainError):
            impossible_variant(spec)

    def test_d_equals_e_possible_variants_count(self):
        # balanced removals leave tilable regions with uniform-sign dets
        for dims in [(1, 1, 1, 1, 1), (2, 2, 2, 1, 1)]:
            Z = build_hex_minus_triangle(*dims)
            signed = kasteleyn_percus_sign(Z)
            M = adjacency_matrix(signed, "bipartite")
            count = enumerate_matchings(Z).count
            assert count > 0
            assert abs(determinant(M)) == count


class TestSkew:
    def test_single_cell(self):
        Z = build_skew_graph(Partition((1,)), Partition(()), 2)
        ms = enumerate_matchings(Z)
        assert polys_equal_up_to_unit(ms.total_weight, q_integer(2))

    def test_notched_strip_region(self):
        Z = build_skew_graph(Partition((2, 2)), Partition((1,)), 4)
        Z.validate()
        total = enumerate_matchings(Z).total_weight
        expected = skew_tableaux_qgen((2, 2), (1,), 4)
        assert polys_equal_up_to_unit(total, expected)

    def test_flatness_of_resolution(self):
        Z = build_skew_graph(Partition((2, 1)), Partition(()), 3)
        assert verify_flatness(Z) == []

    def test_weight_matches_jacobi_trudi_det(self):
        for lam, mu, a in [((2, 1), (), 3), ((2, 2), (1,), 3), ((3,), (), 2)]:
            Z = build_skew_graph(Partition(lam), Partition(mu), a)
            total = enumerate_matchings(Z).total_weight
            J = jacobi_trudi(lam, mu, a)
            assert polys_equal_up_to_unit(total, determinant(J))


class TestJacobiTrudi:
    def test_h1(self):
        J = jacobi_trudi((1,), (), 2)
        assert J.to_lists() == [[q_integer(2)]]

    def test_dual_column(self):
        D = jacobi_trudi((1, 1), (), 2, dual=True)
        # s_(1,1)(q_2) = e_2(1, q) = q
        assert determinant(D) == LaurentPoly.q_power(1)

    def test_j_and_d_dets_agree(self):
        for lam, mu, a in [((2, 2), (1,), 3), ((2, 1), (), 3), ((3, 1), (1,), 2)]:
            J = jacobi_trudi(lam, mu, a)
            D = jacobi_trudi(lam, mu, a, dual=True)
            assert determinant(J) == determinant(D)

    def test_det_matches_tableaux(self):
        for lam, mu, a in [((2, 1), (), 3), ((2, 2), (1,), 4), ((1, 1, 1), (), 3)]:
            J = jacobi_trudi(lam, mu, a)
            assert determinant(J) == skew_tableaux_qgen(lam, mu, a)


class TestGV:
    def test_direct_edges_only(self):
        g = GVGraph([0, 1, 2, 3], [(0, 0, 2, 1), (1, 0, 3, 1), (2, 1, 3, 1)],
                    [0, 1], [2, 3])
        V = gv_matrix(g)
        assert V.to_lists() == [[1, 1], [0, 1]]

    def test_coincident_endpoint_empty_path(self):
        g = GVGraph([0, 1], [(0, 0, 1, 1)], [0], [0])
        V = gv_matrix(g)
        assert V.to_lists() == [[1]]

    def test_cycle_rejected(self):
        g = GVGraph([0, 1], [(0, 0, 1, 1), (1, 1, 0, 1)], [0], [1])
        with pytest.raises(DomainError):
            gv_matrix(g)

    def test_grid_gv_is_jacobi_trudi(self):
        for lam, mu, a in [((2, 2), (1,), 4), ((2, 1), (), 3), ((3,), (1,), 2)]:
            X = skew_gv_graph(Partition(lam), Partition(mu), a)
            V = gv_matrix(X)
            J = jacobi_trudi(lam, mu, a)
            assert V == J

    def test_delannoy_gv_entries(self):
        g = delannoy_gv_graph(3)
        V = gv_matrix(g)
        assert V == delannoy_matrix(4)


def _jt_skew_graphs(ceiling):
    """The skew path models of `verify_theorems("jt", ceiling)`, in its order."""
    return [skew_gv_graph(Partition(lam), Partition(mu), a)
            for lam in sorted(_partitions_upto(ceiling), key=lambda t: (sum(t), t))
            for mu in _mu_candidates(lam)
            for a in range(1, 5)]


class TestTransitFreeResolution:
    def test_transit_free_input_unchanged_shape(self):
        g = GVGraph(
            [0, 1, 2, 3],
            [(0, 0, 2, 1), (1, 0, 3, 1), (2, 1, 3, 1)],
            [0, 1],
            [2, 3],
            coords={0: (0, 2), 1: (0, 0), 2: (2, 2), 3: (2, 0)},
        )
        out = transit_free_resolution(g)
        assert out.n_vertices == 4 and out.n_edges == 3
        M = adjacency_matrix(out, "bipartite")
        assert M == gv_matrix(g)

    def test_resolution_matrix_is_gv_matrix(self):
        X = skew_gv_graph(Partition((2, 2)), Partition((1,)), 3)
        Z = transit_free_resolution(X)
        M = adjacency_matrix(Z, "bipartite")
        # the resolution's own GV matrix (single edges) is M; deleted pivots
        # at the split entries reduce it back to V
        V = gv_matrix(X)
        n = V.rows
        reduced = M
        while reduced.rows > n:
            # pivot on the last diagonal entry: the -1 of a split edge
            reduced = deleted_pivot(reduced, reduced.rows - 1, reduced.cols - 1)
        assert reduced.rows == n
        assert determinant(reduced) == determinant(V)

    def test_delannoy_resolution_is_aztec(self):
        for n in (1, 2, 3):
            Z1 = transit_free_resolution(delannoy_gv_graph(n))
            Z2 = build_aztec_graph(n)
            assert Z1.n_vertices == Z2.n_vertices
            assert Z1.n_edges == Z2.n_edges
            assert enumerate_matchings(Z1).count == enumerate_matchings(Z2).count
            M1 = adjacency_matrix(Z1, "bipartite")
            assert stable_invariants(M1).factors == tuple(2 ** k for k in range(1, n + 1))

    # the split surgery fixes vertex, edge and face order, which the Laurent
    # normal form and bench/data depend on; the digests pin that layout
    def test_skew_layout_pinned(self):
        dumps = [dump_graph(build_skew_graph(Partition(lam), Partition(mu), a))
                 for lam in sorted(_partitions_upto(4), key=lambda t: (sum(t), t))
                 for mu in _mu_candidates(lam)
                 for a in range(1, 5)]
        assert len(dumps) == 144                   # the verify jt 4 instances
        assert hashlib.sha256("\n".join(dumps).encode()).hexdigest() == (
            "deeb1228b6dfc50926b3ad64587255743126c804231270f31eb60da03cfbb933")

    def test_delannoy_layout_pinned(self):
        text = "\n".join(dump_graph(transit_free_resolution(delannoy_gv_graph(n)))
                         for n in range(1, 6))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2df5dabaf31d3dfbe1f51f23bf2aa45bba448979cfb2418175337d49503a88ca")

    # past the pinned verify jt 4 and Delannoy n <= 5 layouts: the graph of
    # the build through an intermediate, validated graph
    def test_resolution_equals_reference(self):
        graphs = _jt_skew_graphs(7) + [delannoy_gv_graph(n) for n in range(1, 7)]
        assert len(graphs) == 648 + 6
        for g in graphs:
            assert dump_graph(transit_free_resolution(g)) == dump_graph(
                transit_free_resolution_reference(g))

    # the output's validate() is the one check of the embedding: a trace
    # with a face missing, or with a walk entry repeated, is refused by
    # both builds
    @pytest.mark.parametrize("corrupt", ["drop a face", "repeat an entry"])
    def test_corrupted_trace_is_refused(self, monkeypatch, corrupt):
        def bad_trace(coords, edges):
            faces, outer = trace_faces(coords, edges)
            if corrupt == "drop a face":
                del faces[spot[0]]
            else:
                walk = faces[spot[0]]
                walk.insert(spot[1], walk[spot[1]])
            return faces, outer

        monkeypatch.setattr(families, "trace_faces", bad_trace)
        monkeypatch.setattr(oracles, "trace_faces", bad_trace)
        g = skew_gv_graph(Partition((2, 2)), Partition((1,)), 3)    # five traced faces
        spots = [(fi, pos) for fi in range(5) for pos in range(3)]
        for spot in spots[::3] if corrupt == "drop a face" else spots:
            for build in (transit_free_resolution, transit_free_resolution_reference):
                with pytest.raises(DomainError):
                    build(g)


class TestAztec:
    def test_order_1_is_4_cycle(self):
        Z = build_aztec_graph(1)
        assert Z.n_vertices == 4 and Z.n_edges == 4
        assert enumerate_matchings(Z).count == 2

    def test_counts(self):
        for n in (1, 2, 3):
            Z = build_aztec_graph(n)
            assert enumerate_matchings(Z).count == 2 ** (n * (n + 1) // 2)

    def test_vertex_count_order_3(self):
        assert build_aztec_graph(3).n_vertices == 24

    def test_pfaffian_order_2(self):
        Z = kasteleyn_orient(build_aztec_graph(2))
        A = adjacency_matrix(Z, "alternating")
        assert abs(pfaffian(A)) == 8

    def test_closed_form_dets(self):
        for n in range(1, 6):
            M = aztec_matrix_closed_form(n)
            assert abs(determinant(M)) == 2 ** (n * (n + 1) // 2)

    def test_closed_form_invariants(self):
        for n in range(1, 5):
            M = aztec_matrix_closed_form(n)
            assert stable_invariants(M).factors == tuple(2 ** k for k in range(1, n + 1))

    def test_geometric_matches_closed_form(self):
        for n in range(1, 4):
            Z = kasteleyn_percus_sign(build_aztec_graph(n))
            M = adjacency_matrix(Z, "bipartite")
            assert stable_invariants(M) == stable_invariants(aztec_matrix_closed_form(n))

    def test_shift_identities(self):
        for n in range(1, 9):
            B, Bn1 = binomial_matrix(n), binomial_matrix_inverse(n + 1)
            L, R = left_shift_matrix(n), right_shift_matrix(n)
            assert B * L * Bn1 == L
            assert B * R * Bn1 == R - L

    def test_reduced_form_equivalent(self):
        for n in (1, 2, 3):
            assert stable_invariants(aztec_matrix_reduced(n)) == stable_invariants(
                aztec_matrix_closed_form(n)
            )

    def test_block_cokernels(self):
        for k in (1, 2, 3, 4):
            assert cokernel_of(aztec_x_block(k)).group_str() == "0"
            c = cokernel_of(aztec_y_block(k))
            assert c.free_rank == 0 and c.torsion == (2 ** k,)

    def test_reduced_decomposes_into_blocks(self):
        # chains of the nonzero pattern of M'(n) are the X and Y blocks
        for n in (1, 2, 3):
            M = aztec_matrix_reduced(n)
            rows = M.to_lists()
            col_of_row = {}
            # build chain graph: entry (i, j) nonzero links row i to col j
            links = {}
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    if x:
                        links.setdefault(("r", i), []).append((("c", j), x))
                        links.setdefault(("c", j), []).append((("r", i), x))
            seen = set()
            sizes = {"X": [], "Y": []}
            for node in sorted(links):
                if node in seen:
                    continue
                comp = set()
                stack = [node]
                ones = twos = 0
                while stack:
                    cur = stack.pop()
                    if cur in seen:
                        continue
                    seen.add(cur)
                    comp.add(cur)
                    for nxt, val in links[cur]:
                        if abs(val) == 1:
                            ones += 1
                        else:
                            twos += 1
                        if nxt not in seen:
                            stack.append(nxt)
                k = sum(1 for c in comp if c[0] == "r")
                # each undirected link counted twice
                if ones // 2 == k:
                    sizes["X"].append(k)
                else:
                    sizes["Y"].append(k)
            assert sorted(sizes["X"]) == list(range(1, n + 1))
            assert sorted(sizes["Y"]) == list(range(1, n + 1))

    def test_aztec_reflection_quotient(self):
        for n in (2, 3):
            Z = build_aztec_graph(n)
            vmap, emap, bisected = aztec_reflection_maps(Z)
            Q = reflection_quotient(Z, vmap, emap, bisected)
            Q.validate()
            invariant = 0
            ms = enumerate_matchings_reference(Z)
            for m in ms.matchings:
                if frozenset(emap[e] for e in m) == m:
                    invariant += 1
            assert enumerate_matchings(Q).count == invariant
            if n == 3:
                n_mono = sum(1 for v in Q.vertices if v.kind == MONO)
                assert n_mono == 12 and Q.n_vertices == 13

    def test_aztec_wrong_parity_quotient_is_matchless(self):
        Z = build_aztec_graph(3)
        vmap, emap, bisected = aztec_reflection_maps(Z)
        Q = reflection_quotient(Z, vmap, emap, bisected, wrong_parity=True)
        assert enumerate_matchings(Q).count == 0

    def test_tie_quotient_is_the_reflection_quotient(self):
        # both keep the side of the smallest vertex id on the Aztec diamond
        for n in (1, 2, 3):
            Z = build_aztec_graph(n)
            vmap, emap, bisected = aztec_reflection_maps(Z)
            for wrong_parity in (False, True):
                assert dump_graph(tie_quotient(Z, bisected, wrong_parity)) == dump_graph(
                    reflection_quotient(Z, vmap, emap, bisected, wrong_parity))
        with pytest.raises(DomainError):
            tie_quotient(build_aztec_graph(2), [])


class TestDelannoy:
    def test_v2(self):
        assert delannoy_matrix(2).to_lists() == [[1, 1], [1, 3]]

    def test_family_matrix(self):
        assert family_matrix(FamilySpec("delannoy", n=4)) == (delannoy_matrix(4), "M")

    def test_recurrence_equals_closed_form(self):
        for n in range(1, 9):
            assert delannoy_matrix(n) == delannoy_closed_form(n)

    def test_snf_powers_of_two(self):
        for n in range(1, 7):
            form = smith_normal_form(delannoy_matrix(n))
            assert list(form.diagonal) == [2 ** k for k in range(n)]

    def test_factorization_identity(self):
        for n in range(1, 7):
            B = binomial_matrix(n)
            Vp = ExactMatrix.diagonal([2 ** k for k in range(n)], "z")
            assert B * Vp * B.transpose() == delannoy_matrix(n)


class TestProjectiveFixture:
    def test_cube_quotient_counts(self):
        cube = cube_graph()
        K4 = antipodal_cube_quotient()
        anti = cube.flags["antipode"]
        ms = enumerate_matchings_reference(cube)
        assert ms.count == enumerate_matchings(cube).count == 9
        invariant = sum(
            1 for m in ms.matchings
            if frozenset(
                frozenset((anti[cube.edge(e).u], anti[cube.edge(e).v])) for e in m
            ) == frozenset(frozenset((cube.edge(e).u, cube.edge(e).v)) for e in m)
        )
        assert invariant == enumerate_matchings(K4).count == 3

    def test_projective_orientation(self):
        K4 = antipodal_cube_quotient()
        out = kasteleyn_orient(K4)
        assert verify_flatness(out) == []
        A = adjacency_matrix(out, "alternating")
        assert abs(pfaffian(A)) == 3
        # reversing one edge breaks exactly the two faces that hold it
        sides = {}
        for fi, walk in enumerate(out.faces):
            for eid, _ in walk:
                sides.setdefault(eid, []).append(fi)
        for e in out.edges:
            e.orient = -e.orient
            assert verify_flatness(out) == sides[e.id] and len(set(sides[e.id])) == 2
            e.orient = -e.orient

    def test_split_quotient_leaves_face_0_not_flat(self):
        G = split_antipodal_quotient()
        for seed in range(6):
            out = kasteleyn_orient(G, seed)
            assert out.flags["not_flat_faces"] == verify_flatness(out) == [0]
        assert enumerate_matchings(G).count == 0

    @pytest.mark.parametrize("k, count", [(2, 3), (4, 7), (6, 18), (8, 47)])
    def test_mobius_ladders_are_flat(self, k, count):
        G = mobius_ladder(k)
        assert enumerate_matchings(G).count == count
        for seed in range(4):
            out = kasteleyn_orient(G, seed)
            assert verify_flatness(out) == [] and "not_flat_faces" not in out.flags
            assert abs(pfaffian(adjacency_matrix(out, "alternating"))) == count

    def test_face_0_is_flat_iff_t_plus_v_is_odd(self):
        # T counts the edges whose two face sides run the same way.  A flip
        # keeps the total agreeing count over all faces at E - T mod 2, the
        # faces are all flat only if that total is F mod 2, and V - E + F = 1
        graphs = [antipodal_cube_quotient(), split_antipodal_quotient()]
        graphs += [mobius_ladder(k) for k in (4, 6, 8)]
        found = []
        for G in graphs:
            sides = {}
            for walk in G.faces:
                for eid, forward in walk:
                    sides.setdefault(eid, []).append(forward)
            t = sum(a == b for a, b in sides.values())
            found.append(t + G.n_vertices)
            flat = verify_flatness(kasteleyn_orient(G)) == []
            assert flat == ((t + G.n_vertices) % 2 == 1)
        assert found == [7, 8, 13, 19, 25]

    def test_sphere_rule_rejects_odd_faces(self):
        from kasteleyn.graphs import EmbeddedGraph, Vertex, Edge

        tri = EmbeddedGraph(
            [Vertex(i) for i in range(3)],
            [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 0)],
            [[(0, True), (1, True), (2, True)], [(2, False), (1, False), (0, False)]],
            "projective",
            None,
        )
        with pytest.raises(DomainError):
            kasteleyn_orient(tri)


class TestFamilyDispatch:
    def test_ppbox_matrix(self):
        spec = FamilySpec(variant="ppbox", a=2, b=2, c=2)
        M, kind = family_matrix(spec)
        assert kind == "M"
        c = cokernel_of(M)
        assert c.free_rank == 0 and c.torsion == (2, 10)

    def test_tau_matrix_alternating(self):
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        A, kind = family_matrix(spec)
        assert kind == "A"
        assert A.is_alternating()
        inv = invariant_pps("tau", 2, 2, 2)
        assert abs(pfaffian(A)) == len(inv)

    def test_one_builder_keeps_its_cases(self):
        # a skew shape whose resolution is empty, and one of two vertices
        # and no edge: its signing is read off the graph, vacuously
        M, kind, G = _family_matrix(FamilySpec(variant="skew-shape", a=1, lam=(1,), mu=(1,)))
        assert (M.rows, M.cols, kind, G.n_vertices) == (0, 0, "M", 0)
        M, kind, G = _family_matrix(FamilySpec(variant="skew-shape", a=1, lam=(1, 1)))
        assert (M.to_lists(), kind, G.n_vertices, G.n_edges) == ([[0]], "M", 2, 0)
        # the Delannoy matrix has no graph, and is an integer family only
        spec = FamilySpec("delannoy", n=3)
        assert _family_matrix(spec) == (delannoy_matrix(3), "M", None)
        assert family_matrix_for_ring(spec, "z") == (delannoy_matrix(3), "M", None)
        with pytest.raises(DomainError, match="integer matrix family"):
            family_matrix_for_ring(spec, "laurent")
        # a polygamous quotient: the graph returned is its resolution, and
        # the report's oracle counts that graph
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        build = build_family_graph(spec)
        assert any(v.kind != MONO for v in build.vertices)
        A, kind, G = _family_matrix(spec)
        assert dump_graph(G) == dump_graph(monogamous_resolution(build))
        assert (kind, A.rows) == ("A", G.n_vertices)
        assert run_report(spec, "z").oracle_count == enumerate_matchings(G).count > 0

    def test_spec_json_roundtrip(self):
        spec = FamilySpec(variant="skew-shape", a=3, lam=(2, 1), mu=(1,))
        assert FamilySpec(**spec.to_json()) == spec

    def test_possible_hex_minus_triangle(self):
        # d = e: a tilable region, which the round suite never builds
        for dims, n_vertices, count in (((2, 2, 2, 0, 0), 24, 20),
                                        ((2, 2, 2, 1, 1), 36, 54)):
            a, b, c, d, e = dims
            G = build_family_graph(FamilySpec(variant="hex-minus-triangle",
                                              a=a, b=b, c=c, d=d, e=e))
            assert dump_graph(G) == dump_graph(build_hex_minus_triangle(*dims))
            assert (G.n_vertices, enumerate_matchings(G).count) == (n_vertices, count)

    def test_impossible_rho_kappa_is_the_quotient(self):
        # wrong parity flips only the tie of a tau cut: a group without tau
        # itself would build its possible quotient (one tiling at (2,2,2)
        # for rho,kappa), so it has no impossible variant
        for group in ("rho,kappa", "rho", "kappa-tau", "kappa-tau,rho", "1"):
            spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2, group=group)
            with pytest.raises(DomainError, match=f"no impossible variant for group '{group}'"):
                build_family_graph(spec)
        argv = ["coker", "--family", "ppbox-impossible", "--a", "2", "--b", "2", "--c", "2",
                "--group", "rho,kappa"]
        assert cli.main(argv) == 2
        for group in ("tau", "tau,kappa", "tau,rho", "tau,rho,kappa"):
            spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2, group=group)
            assert enumerate_matchings(build_family_graph(spec)).count == 0

    def test_spec_integers_are_plain(self):
        # a float part was read by int() (lam = (2.9, 1) built (2, 1)), text
        # and True read as integers, and a float dimension met range()
        for kwargs, field in (
            (dict(variant="skew-shape", a=2, lam=(2.9, 1)), "a part of lam"),
            (dict(variant="skew-shape", a=2, lam=(2, 1), mu=("1",)), "a part of mu"),
            (dict(variant="skew-shape", a=2, lam=(2, True)), "a part of lam"),
            (dict(a=2.0, b=2, c=2), "a"),
            (dict(a=True, b=1, c=1), "a"),
            (dict(variant="hex-minus-triangle", a=1, b=1, c=1, d=0, e=-1.0), "e"),
            (dict(variant="aztec", n="2"), "n"),
        ):
            with pytest.raises(DomainError, match=f"^{field} must be an integer"):
                FamilySpec(**kwargs)
        for parts in (["3", True], [2.0], [3, False]):
            with pytest.raises(DomainError, match="a partition part must be an integer"):
                Partition(parts)
        assert Partition([3, 1, 0]).parts == (3, 1)


class TestBuildersPinned:
    """The family builders' outputs, pinned by SHA-256: the graph JSON,
    resolved and decorated graphs and matrix text of every spec of the
    round suite at ceiling 8 and of the q = -1 sides at ceiling 10, with
    and without q-weights, and of the skew graphs of `verify jt 6`.  A
    faster builder must return the same graphs bit for bit.  The records
    are built in `pinned.py`."""

    def test_builders(self):
        records = pinned.builder_records()
        assert (len(records), pinned.digest(records)) == pinned.BUILDERS
