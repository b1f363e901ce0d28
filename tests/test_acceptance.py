"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Tolerances are exact (integer/polynomial equality)
except the Fourier unitarity bound of 1e-9.

Criterion 2's q-determinant clause is checked against MacMahon's product
for the 2x2x2 box, (4)_q^2 (5)_q / (2)_q^2 = (1+q^2)^2 (5)_q, which is
itself cross-checked against the brute-force cube-count generating
function.  The form once stated for it, (2)_q^2 (5)_q, was mis-stated and
has been corrected: its coefficient of q is 3, but the box has a single
one-cube plane partition.
"""

import hashlib
import json
import pathlib
import random
import time
from math import prod

from oracles import (
    determinantal_divisors,
    enumerate_matchings_reference,
    invariant_pps,
    macmahon_box_qgen,
    plane_partitions,
    polys_equal_up_to_unit,
    pp_qgen_cubes,
)

from kasteleyn.families import (
    FamilySpec,
    Partition,
    aztec_matrix_closed_form,
    aztec_mirror,
    binomial_matrix,
    build_aztec_graph,
    build_family_graph,
    build_hexagon_graph,
    build_skew_graph,
    delannoy_closed_form,
    delannoy_matrix,
    jacobi_trudi,
    symmetry_quotient,
)
from kasteleyn.graphs import (
    MONO,
    _edge_perm_from_vertex_perm,
    adjacency_matrix,
    enumerate_matchings,
    graph_from_json,
    kasteleyn_orient,
    kasteleyn_percus_sign,
    monogamous_resolution,
    reflection_quotient,
)
from kasteleyn.harness import conjecture_suite, verify_theorems
from kasteleyn.matrices import (
    ExactMatrix,
    alternating_smith_form,
    cokernel_of,
    determinant,
    fourier_duality_matrix,
    laurent_smith_attempt,
    pfaffian,
    smith_normal_form,
    stable_invariants,
    unitarity_defect,
)
from kasteleyn.rings import (
    LaurentPoly,
    RationalPoly,
    parse_laurent,
    q_integer,
)

ASSETS = pathlib.Path(__file__).parent / "assets"


def _report(name, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_integer_snf_oracle():
    """500 random matrices up to 5x5: invariant-factor products equal the
    determinantal divisors; transforms are exact and unimodular."""
    t0 = time.time()
    rng = random.Random(20260808)
    for _ in range(500):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = ExactMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], "z"
        )
        form = smith_normal_form(M, verify=True)
        dd = determinantal_divisors(M)
        rank = sum(1 for d in form.diagonal if d)
        assert len(dd) == rank
        for k in range(1, rank + 1):
            assert prod(form.diagonal[:k]) == dd[k - 1]
    _report("1 (integer SNF vs minor-gcd oracle)", t0, 10)


def test_criterion_2_box_222_cokernel():
    t0 = time.time()
    spec = FamilySpec(variant="ppbox", a=2, b=2, c=2)
    Z = kasteleyn_percus_sign(build_hexagon_graph(2, 2, 2))
    M = adjacency_matrix(Z, "bipartite")
    c = cokernel_of(M)
    assert c.free_rank == 0 and c.torsion == (2, 10)
    _report("2a (coker M(2,2,2) = Z/2 + Z/10)", t0, 1)


def test_criterion_2_q_determinant_stated_form():
    """det M(2,2,2;q) with cube weighting equals +-q^k times MacMahon's
    product for the box, (4)_q^2 (5)_q / (2)_q^2 = (1+q^2)^2 (5)_q
    (Kasteleyn-Percus: under a flat signing the determinant is a unit times
    the weighted tiling count).  The product is first checked against the
    brute-force cube-count generating function.  The earlier stated form
    (2)_q^2 (5)_q was dropped: it lifts the integer invariants 2 and 10
    naively to (2)_q and (2)_q (5)_q, and its coefficient of q is 3 where
    the box has a single one-cube plane partition."""
    t0 = time.time()
    assert macmahon_box_qgen(2, 2, 2) == pp_qgen_cubes(plane_partitions(2, 2, 2))
    # box 5 (75 x 75) takes the packed Laurent determinant past the dense kernel
    for n in (2, 5):
        spec = FamilySpec(variant="ppbox", a=n, b=n, c=n, q_mode="cube")
        Z = kasteleyn_percus_sign(build_family_graph(spec))
        M = adjacency_matrix(Z, "bipartite")
        assert polys_equal_up_to_unit(determinant(M), macmahon_box_qgen(n, n, n))
    _report("2c (det M(n,n,n;q) = +-q^k MacMahon's box product, n = 2, 5)", t0, 5)


def test_criterion_2_box_222_q_determinant_computed():
    """Companion to the stated-form test: the honestly computed value."""
    t0 = time.time()
    spec = FamilySpec(variant="ppbox", a=2, b=2, c=2, q_mode="cube")
    Z = kasteleyn_percus_sign(build_family_graph(spec))
    M = adjacency_matrix(Z, "bipartite")
    d = determinant(M)
    expected = parse_laurent("1 + q^2") ** 2 * q_integer(5)
    assert polys_equal_up_to_unit(d, expected)
    # regression fixture frozen after first computation: the Laurent normal
    # form exists and its nontrivial entries are (2)_{q^2}, (2)_{q^2}(5)_q
    out = laurent_smith_attempt(M)
    assert out.success
    nontrivial = [x.normal() for x in out.smith.diagonal if not x.normal().is_one()]
    two_q2 = parse_laurent("1 + q^2")
    assert nontrivial == [two_q2, two_q2 * q_integer(5)]
    _report("2b (det M(2,2,2;q) and its Laurent normal form, computed)", t0, 5)


def test_criterion_3_embedding_fixtures():
    t0 = time.time()
    expected = {
        "embed_pendants_outside": (0, (9,)),
        "embed_pendant_inside": (0, (3, 3)),
        "embed_odd_outside": (1, ()),
        "embed_odd_inside": (1, (3,)),
    }
    for name, (free, torsion) in expected.items():
        G = graph_from_json(json.loads((ASSETS / f"{name}.json").read_text()))
        G.validate()
        signed = kasteleyn_percus_sign(G)
        M = adjacency_matrix(signed, "bipartite")
        c = cokernel_of(M)
        assert (c.free_rank, c.torsion) == (free, torsion), name
    _report("3 (embedding-dependent cokernel fixtures)", t0, 1)


def test_criterion_4_aztec_theorem():
    t0 = time.time()
    for n in range(1, 7):
        expect = tuple(2 ** k for k in range(1, n + 1))
        M = aztec_matrix_closed_form(n)
        inv = stable_invariants(M)
        assert inv.free_rank == 0 and inv.factors == expect
        assert abs(determinant(M)) == 2 ** (n * (n + 1) // 2)
        if n <= 5:
            Z = kasteleyn_percus_sign(build_aztec_graph(n))
            Mg = adjacency_matrix(Z, "bipartite")
            invg = stable_invariants(Mg)
            assert invg.free_rank == 0 and invg.factors == expect
        if n <= 4:
            assert enumerate_matchings(build_aztec_graph(n)).count == 2 ** (n * (n + 1) // 2)
    _report("4 (Aztec cokernel theorem, closed form and geometric)", t0, 30)


def test_criterion_5_delannoy():
    t0 = time.time()
    for n in range(1, 9):
        V = delannoy_matrix(n)
        assert V == delannoy_closed_form(n)
        form = smith_normal_form(V)
        assert list(form.diagonal) == [2 ** k for k in range(n)]
        B = binomial_matrix(n)
        Vp = ExactMatrix.diagonal([2 ** k for k in range(n)], "z")
        assert B * Vp * B.transpose() == V
    _report("5 (Delannoy matrices: closed form, SNF, factorization)", t0, 5)


def test_criterion_6_jacobi_trudi_specialization():
    t0 = time.time()
    summary, failures = verify_theorems("jt", 6)
    assert failures == []
    assert summary["checked"] >= 400
    _report(f"6 (Jacobi-Trudi equivalences, {summary['checked']} instances)", t0, 60)


def _hexagon_dims_upto_40():
    out = []
    for a in range(1, 4):
        for b in range(a, 4):
            for c in range(b, 4):
                if 2 * (a * b + b * c + c * a) <= 40:
                    out.append((a, b, c))
    return out


def _quotient_specs_222():
    dims_by_group = {
        "rho": [(1, 1, 1), (2, 2, 2)],
        "kappa": [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)],
        "tau": [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)],
        "rho,kappa": [(1, 1, 1), (2, 2, 2)],
        "kappa-tau": [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)],
        "tau,kappa": [(2, 1, 1), (2, 2, 2)],
        "tau,rho": [(1, 1, 1), (2, 2, 2)],
        "kappa-tau,rho": [(2, 2, 2)],
        "tau,rho,kappa": [(2, 2, 2)],
    }
    out = []
    for group, dims in sorted(dims_by_group.items()):
        for (a, b, c) in dims:
            out.append(FamilySpec(variant="ppbox-quotient", a=a, b=b, c=c, group=group))
    return out


def _check_sign_uniformity(G):
    """|det M| or |Pf A| equals the brute-force count; weighted versions up
    to a unit."""
    if any(v.kind != MONO for v in G.vertices):
        G = monogamous_resolution(G)
    ms = enumerate_matchings(G)
    weighted = G.ring() == "laurent"
    if G.is_bipartite_colored():
        if all(e.sign is not None for e in G.edges):
            signed = G
        else:
            signed = kasteleyn_percus_sign(G)
        M = adjacency_matrix(signed, "bipartite")
        if M.rows != M.cols:
            assert ms.count == 0
            return
        det = determinant(M)
        if weighted:
            assert polys_equal_up_to_unit(
                LaurentPoly.coerce(det), LaurentPoly.coerce(ms.total_weight)
            )
        else:
            assert abs(det) == ms.count
    else:
        oriented = kasteleyn_orient(G)
        A = adjacency_matrix(oriented, "alternating")
        if A.rows % 2 == 1:
            assert ms.count == 0
            return
        if weighted:
            det = determinant(A)
            tw = LaurentPoly.coerce(ms.total_weight)
            assert polys_equal_up_to_unit(LaurentPoly.coerce(det), tw * tw)
        else:
            assert abs(pfaffian(A)) == ms.count


def test_criterion_7_sign_uniformity_suite():
    t0 = time.time()
    checked = 0
    for (a, b, c) in _hexagon_dims_upto_40():
        _check_sign_uniformity(build_hexagon_graph(a, b, c))
        spec = FamilySpec(variant="ppbox", a=a, b=b, c=c, q_mode="cube")
        _check_sign_uniformity(build_family_graph(spec))
        checked += 2
    for n in range(1, 5):
        _check_sign_uniformity(build_aztec_graph(n))
        checked += 1
    for spec in _quotient_specs_222():
        _check_sign_uniformity(symmetry_quotient(spec))
        checked += 1
        if spec.group in ("rho", "tau", "tau,rho"):
            for mode in ("cube", "orbit"):
                qspec = FamilySpec(**{**spec.to_json(), "q_mode": mode})
                _check_sign_uniformity(build_family_graph(qspec))
                checked += 1
    lams = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 2), (2, 2, 1), (5,), (1, 1, 1)]
    for lam in lams:
        if sum(lam) > 5:
            continue
        for mu in [(), (1,), (2,), (1, 1)]:
            if not Partition(lam).contains(Partition(mu)):
                continue
            for a in (1, 2, 3):
                Z = build_skew_graph(Partition(lam), Partition(mu), a)
                if Z.n_vertices > 40 or Z.n_vertices == 0:
                    continue
                _check_sign_uniformity(Z)
                checked += 1
    assert checked > 60
    _report(f"7 (sign uniformity on {checked} shipped instances)", t0, 120)


def test_criterion_8_polygamy_and_quotients():
    t0 = time.time()
    # resolution preserves counts on polygamous fixtures
    poly_specs = []
    for group in ("tau", "tau,kappa", "tau,rho", "tau,rho,kappa"):
        for dims in [(1, 1, 1), (2, 1, 1), (2, 2, 2)]:
            a, b, c = dims
            if group in ("tau,rho", "tau,rho,kappa") and not a == b == c:
                continue
            if group in ("tau,kappa", "tau,rho,kappa") and a % 2 == 1:
                continue
            Q = symmetry_quotient(
                FamilySpec(variant="ppbox-quotient", a=a, b=b, c=c, group=group)
            )
            poly_specs.append(Q)
    assert len(poly_specs) >= 6
    for Q in poly_specs:
        before = enumerate_matchings(Q).count
        R = monogamous_resolution(Q)
        assert all(v.kind == MONO for v in R.vertices)
        assert enumerate_matchings(R).count == before

    # reflection quotients match invariant-matching counts (Aztec <= 3)
    for n in (1, 2, 3):
        Z = build_aztec_graph(n)
        vmap = aztec_mirror(Z)
        emap = _edge_perm_from_vertex_perm(Z, vmap)
        Q = reflection_quotient(Z, vmap)
        ms = enumerate_matchings_reference(Z)
        invariant = sum(
            1 for m in ms.matchings if frozenset(emap[e] for e in m) == m
        )
        assert enumerate_matchings(Q).count == invariant

    # box quotients match invariant plane partitions (<= (2,2,2))
    for group, dims in [
        ("tau", (2, 2, 2)), ("rho", (2, 2, 2)), ("kappa", (2, 2, 2)),
        ("tau", (1, 2, 2)), ("kappa", (1, 2, 2)), ("kappa", (1, 1, 2)),
    ]:
        a, b, c = dims
        Q = symmetry_quotient(FamilySpec(variant="ppbox-quotient", a=a, b=b, c=c, group=group))
        assert enumerate_matchings(Q).count == len(invariant_pps(group, a, b, c))
    _report("8 (polygamy resolution and reflection quotients)", t0, 60)


def test_criterion_9_alternating_snf():
    t0 = time.time()
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 8)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-9, 9)
                grid[i][j] = v
                grid[j][i] = -v
        A = ExactMatrix.from_rows(grid, "z")
        form = alternating_smith_form(A, verify=True)
        ordinary = smith_normal_form(A)
        doubled = sorted(abs(e) for e in form.block_entries for _ in (0, 1) if e)
        assert doubled == sorted(abs(d) for d in ordinary.diagonal if d)
    _report("9 (alternating SNF, 200 random matrices)", t0, 10)


def test_criterion_10_fourier_unitarity():
    t0 = time.time()
    rng = random.Random(11)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        M = ExactMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)], "z"
        )
        d = determinant(M)
        if d == 0 or abs(d) > 30:
            continue
        U = fourier_duality_matrix(M)
        assert unitarity_defect(U) < 1e-9
        done += 1
    _report("10 (Fourier duality unitarity, 100 matrices)", t0, 5)


def test_criterion_11_conjecture_harness_smoke():
    t0 = time.time()
    round_verdicts = conjecture_suite("round", 6)
    sq_verdicts = conjecture_suite("sqfree", 6)
    for v in round_verdicts + sq_verdicts:
        label = v.instance.get("label", "")
        if label.startswith("M(") and ";q)" in label and "," in label and label.count(",") == 2:
            # the anchored box family M(a,b,c;q)
            assert v.verdict == "holds", (label, v.verdict, v.witness)
    # witness validity of any failure
    for v in round_verdicts:
        if v.verdict == "fails":
            assert v.witness, v.instance
            if v.witness.get("diagnostics"):
                assert any(
                    d.get("residual") not in (None, "1")
                    or d.get("residual_cofactor", 1) != 1
                    for d in v.witness["diagnostics"]
                )
            else:
                assert v.witness.get("normal_form")
    for v in sq_verdicts:
        if v.verdict == "fails":
            factors = [parse_laurent(s) for s in v.witness["factors"]]
            assert any(
                not RationalPoly.from_laurent(f.normal()).is_squarefree()
                for f in factors
            )
    qm = conjecture_suite("q-minus-one", 6)
    assert qm, "q-minus-one suite must enumerate instances"
    for v in qm:
        assert v.verdict in ("holds", "fails", "inconclusive", "skipped")
        if v.verdict == "skipped":
            assert v.witness.get("reason")
        if v.verdict == "fails":
            lhs = v.witness["lhs"]
            if "rhs_doubled" in v.witness:
                assert (lhs["free_rank"], lhs["factors"]) != (
                    v.witness["rhs_doubled"]["free_rank"],
                    v.witness["rhs_doubled"]["factors"],
                ), "failure witness does not actually differ"
            else:
                assert (lhs["free_rank"], lhs["factors"]) != (
                    v.witness["rhs"]["free_rank"], v.witness["rhs"]["factors"]
                )
    # the suite JSON is pinned byte for byte
    for verdicts, want in (
        (round_verdicts, "06d9bfa4208324b9031e2b30a3d11dca5768210477bb2989dae4597bbd690efc"),
        (sq_verdicts, "41c075c153ffb31c7daf980cedc29e6aae5ca6e6d52046c26fd0d23b679be756"),
        (qm, "a73d60a642a9d3060293a326fb81352aba86b541d8ebd49a38f83354676005a4"),
    ):
        text = json.dumps([v.to_json() for v in verdicts], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, verdicts[0].conjecture
    _report(f"11 (conjecture harness: {len(round_verdicts)} round, "
            f"{len(sq_verdicts)} sqfree, {len(qm)} q=-1 records)", t0, 300)
