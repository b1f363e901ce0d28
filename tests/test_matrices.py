import hashlib
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import comb, prod

import pytest

import pinned
from oracles import (
    bareiss_reference,
    dense_product,
    determinantal_divisors,
    fourier_reference,
    kron_reference,
    lattice_step_reference,
    laurent_reduce_reference,
    permutation_det,
    pfaffian_reference,
)

from kasteleyn import harness, matrices, rings
from kasteleyn.families import (
    FamilySpec,
    apply_q_weights,
    aztec_matrix_closed_form,
    build_aztec_graph,
    build_hexagon_graph,
    family_matrix,
    jacobi_trudi,
)
from kasteleyn.graphs import adjacency_matrix, kasteleyn_orient, kasteleyn_percus_sign
from kasteleyn.matrices import (
    DomainError,
    ExactDivisionError,
    ExactMatrix,
    GuardExceeded,
    SmithForm,
    _lattice_step,
    _smith_diagonal,
    alternating_smith_form,
    cokernel_of,
    deleted_pivot,
    determinant,
    fourier_duality_matrix,
    laurent_smith_attempt,
    parse_matrix,
    pfaffian,
    smith_normal_form,
    smith_report,
    stable_invariants,
    unitarity_defect,
    write_matrix,
)
from kasteleyn.rings import LaurentPoly, RationalPoly, format_laurent, parse_laurent, q_integer


def Z(rows):
    return ExactMatrix.from_rows(rows, "z")


def LQ(rows):
    return ExactMatrix.from_rows(
        [[parse_laurent(x) if isinstance(x, str) else x for x in row] for row in rows],
        "laurent",
    )


def random_int_matrix(rng, m, n, lo=-9, hi=9):
    return Z([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def lattice_step_on_polys(r, p):
    """`_lattice_step` on the coefficient lists of r and p, its (o, c) read
    back as (c q^s, r - c q^s p), None as it is."""
    lo_r, R = r._dense()
    lo_p, P = p._dense()
    step = _lattice_step(R, P)
    if step is None:
        return None
    f = LaurentPoly.q_power(step[0] + lo_r - lo_p, step[1])
    return f, r - f * p


def random_alternating(rng, n, lo=-9, hi=9):
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            grid[i][j] = v
            grid[j][i] = -v
    return Z(grid)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        form = smith_normal_form(Z([[2, 0], [0, 3]]), verify=True)
        assert form.diagonal == (1, 6)

    def test_identity(self):
        for n in (1, 3, 5):
            form = smith_normal_form(ExactMatrix.diagonal([1] * n), verify=True)
            assert form.diagonal == tuple([1] * n)

    def test_oracle_small_random(self):
        rng = random.Random(123)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            M = random_int_matrix(rng, m, n)
            form = smith_normal_form(M, verify=True)
            dd = determinantal_divisors(M)
            rank = sum(1 for d in form.diagonal if d)
            assert len(dd) == rank
            for k in range(1, rank + 1):
                assert prod(form.diagonal[:k]) == dd[k - 1]

    def test_nonsquare_and_zero(self):
        form = smith_normal_form(Z([[0, 0], [0, 0], [0, 0]]), verify=True)
        assert form.diagonal == (0, 0)
        form = smith_normal_form(Z([[2, 4, 6]]), verify=True)
        assert form.diagonal == (2,)

    def test_qpoly_ring(self):
        q = RationalPoly((0, 1))
        one = RationalPoly.one()
        M = ExactMatrix.from_rows([[q * q, RationalPoly.zero()], [one, q]], "qpoly")
        form = smith_normal_form(M, verify=True)
        assert form.diagonal[0].is_one()
        # det = q^3 - 0 up to unit; second factor is q^3 monic... q*q*q? verify chain
        assert form.diagonal[1].monic() == form.diagonal[1]

    def test_laurent_rejected(self):
        # over the Laurent ring the form is a finished attempt's, for
        # M(1,1,2;q) and for a unit matrix; a stuck attempt is refused as
        # `stable_invariants` refuses it
        box = FamilySpec(variant="ppbox", a=1, b=1, c=2, q_mode="cube")
        M, _, _ = harness.family_matrix_for_ring(box, "laurent")
        for M in (M, LQ([["1", "0"], ["0", "-q^3"]])):
            form = smith_normal_form(M, verify=True)
            assert form.diagonal == laurent_smith_attempt(M).smith.diagonal == _smith_diagonal(M)
            assert smith_report(M, include_transforms=True)["invariant_factors"] == \
                smith_report(M)["invariant_factors"]
        spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2, group="tau",
                          q_mode="cube", wrong_parity=True)
        M, _, _ = harness.family_matrix_for_ring(spec, "laurent")
        for route in (smith_normal_form, stable_invariants):
            with pytest.raises(DomainError, match="laurent normal form attempt failed: witnessed"):
                route(M)


def signed_box(d, seed):
    M, _ = family_matrix(FamilySpec("ppbox", d, d, d))
    rng = random.Random(seed)
    rs = [rng.choice((1, -1)) for _ in range(M.rows)]
    cs = [rng.choice((1, -1)) for _ in range(M.cols)]
    return Z([[rs[i] * cs[j] * M[i, j] for j in range(M.cols)] for i in range(M.rows)])


def shuffled_binomial(n, seed):
    """[C(2n, n-i+j)] with rows and columns in a fixed random order."""
    rng = random.Random(seed)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return Z([[comb(2 * n, n - i + j) if 0 <= n - i + j <= 2 * n else 0 for j in cols]
              for i in rows])


class TestSmithDiagonal:
    """`_smith_diagonal` runs the witness elimination without L and R; over
    "z" both finish a square nonsingular block left without units modulo
    its determinant."""

    def cases(self):
        singular = Z([[2, 4, 6, 8], [1, 3, 5, 7], [3, 7, 11, 15]])
        jt = jacobi_trudi((4, 3, 2), (1,), 3).to_qpoly()
        return [signed_box(4, 1), shuffled_binomial(10, 0), singular, jt]

    def test_matches_witness_diagonal(self):
        for M in self.cases():
            assert _smith_diagonal(M) == smith_normal_form(M).diagonal

    def test_witness_verifies_after_unit_pivot_shortcut(self):
        assert smith_normal_form(shuffled_binomial(10, 0), verify=True)

    def test_invariants_read_off_a_finished_form(self):
        # a caller that holds a finished form (smith_report with transforms,
        # the Laurent attempt of run_report) reads its invariants through
        # `_invariants`, and they are those `stable_invariants` computes
        laurent = ExactMatrix.diagonal([q_integer(2), q_integer(2) * q_integer(3)], "laurent")
        for M in self.cases():
            diagonal = smith_normal_form(M).diagonal
            assert matrices._invariants(M.ring, M.rows, diagonal) == stable_invariants(M)
        form = laurent_smith_attempt(laurent).smith
        assert (matrices._invariants("laurent", laurent.rows, form.diagonal)
                == stable_invariants(laurent))

    def modular_cases(self):
        """Integer matrices whose Smith diagonal is finished modulo the
        determinant once their unit pivots run out."""
        yield from (signed_box(d, d) for d in range(3, 7))
        yield from (shuffled_binomial(n, seed) for n in range(6, 14) for seed in (0, 2, 5))
        yield from (aztec_matrix_closed_form(n) for n in range(1, 9))

    def test_modular_route_matches_witness_diagonal(self, monkeypatch):
        finished = spy_modular_route(monkeypatch)
        cases = list(self.modular_cases())
        for M in cases:
            assert _smith_diagonal(M) == smith_normal_form(M).diagonal
        assert finished == [True] * 2 * len(cases)

    def test_modular_route_recovers_a_known_chain(self, monkeypatch):
        finished = spy_modular_route(monkeypatch)
        rng = random.Random(1202)
        chains = [(2, 2, 2), (3, 3, 9), (1, 2, 2, 12, 12), (1, 1, 2, 6, 6, 30),
                  (2, 6, 6, 6, 30, 210), (2, 4, 4, 8, 8, 16, 48), (1, 5, 5, 25, 25, 25, 125, 250)]
        for chain in chains:
            for _ in range(4):
                M = chained_product(rng, chain)
                assert _smith_diagonal(M) == smith_normal_form(M).diagonal == chain
                assert cokernel_of(M).order() == abs(determinant(M)) == prod(chain)
        assert finished == [True] * 3 * 4 * len(chains)

    def test_fallback_on_singular_or_nonsquare_block(self, monkeypatch):
        finished = spy_modular_route(monkeypatch)
        singular = Z([[2, 4, 6], [4, 6, 10], [6, 10, 16]])
        after_units = Z([[1, 2, 3, 4], [0, 2, 4, 6], [0, 4, 6, 10], [0, 6, 10, 16]])
        wide = Z([[2, 4, 6], [6, 10, 4]])
        cases = [(singular, 1), (after_units, 1), (wide, 0), (wide.transpose(), 1)]
        for M, free_rank in cases:
            form = smith_normal_form(M, verify=True)
            assert _smith_diagonal(M) == form.diagonal
            assert stable_invariants(M).free_rank == free_rank
            assert cokernel_of(M).free_rank == free_rank
            assert report_form(M).verify(M)
        assert finished == [False] * 5 * len(cases)

    def test_product_check_catches_a_wrong_modulus(self, monkeypatch):
        bareiss = matrices._int_bareiss
        monkeypatch.setattr(matrices, "_int_bareiss", lambda rows: 2 * bareiss(rows))
        with pytest.raises(ExactDivisionError):
            _smith_diagonal(shuffled_binomial(8, 0))

    def test_transform_check_catches_a_wrong_adjugate(self, monkeypatch):
        # with det B doubled, V would be half a unimodular matrix
        adjugate = matrices._int_adjugate
        monkeypatch.setattr(matrices, "_int_adjugate",
                            lambda rows: (lambda d, Y: (2 * d, Y))(*adjugate(rows)))
        with pytest.raises(ExactDivisionError):
            smith_normal_form(shuffled_binomial(8, 0))

    def test_transforms_take_the_modular_route(self, monkeypatch):
        finished = spy_modular_route(monkeypatch)
        cases = [shuffled_binomial(n, seed) for n in (6, 9, 13) for seed in (0, 1, 4)]
        cases += [signed_box(d, d) for d in range(3, 9)]
        cases += [aztec_matrix_closed_form(n) for n in range(1, 9)]
        for M in cases:
            finished.clear()
            form = smith_normal_form(M, verify=True)
            from_report = report_form(M)
            assert finished == [True, True]
            assert from_report.verify(M)
            assert form.diagonal == from_report.diagonal == _smith_diagonal(M)

    def test_binomial_transforms_stay_bounded(self):
        """The witness of a shuffled binomial is bounded by the modular
        route, whatever the row and column order: the plain elimination
        reached 28,000-437,000 bits on these."""
        for n in range(12, 16):
            for seed in (0, 1, 2, 4, 5):
                M = shuffled_binomial(n, seed)
                form = smith_normal_form(M, verify=True)
                assert form.diagonal == _smith_diagonal(M)
                entries = [x for T in (form.left, form.right) for row in T.entries for x in row]
                assert max(abs(x) for x in entries).bit_length() < 16000


def report_form(M):
    """The Smith form read back from `smith_report(M, include_transforms=True)`."""
    rep = smith_report(M, include_transforms=True)
    parse = matrices.ring_adapter("z").parse
    L, R = (Z([[parse(x) for x in row] for row in rep[side]]) for side in ("left", "right"))
    D = L * M * R
    return SmithForm("z", (M.rows, M.cols), [D[i, i] for i in range(min(M.rows, M.cols))], L, R)


def spy_modular_route(monkeypatch):
    """Record the result of every `_finish_modulo_det` call."""
    finish = matrices._finish_modulo_det
    results = []

    def recording(ws, k):
        results.append(finish(ws, k))
        return results[-1]

    monkeypatch.setattr(matrices, "_finish_modulo_det", recording)
    return results


def random_unimodular(rng, n):
    """A product of random elementary row operations on the identity."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return Z(U)


def chained_product(rng, chain):
    """U * diag(chain) * V with random unimodular U and V."""
    n = len(chain)
    return random_unimodular(rng, n) * ExactMatrix.diagonal(chain) * random_unimodular(rng, n)


class TestBinomialCokernels:
    """Cokernels of the Gessel-Viennot matrices [C(2n, n-i+j)], shuffled;
    the n = 16 and 17 pins were computed by the elimination without the
    modular route."""

    def test_pinned(self):
        for n, count, largest in ((16, 16, 909547796190), (17, 14, 89135684026620)):
            torsion = cokernel_of(shuffled_binomial(n, 0)).torsion
            assert (len(torsion), torsion[-1]) == (count, largest)

    def test_chain_and_order(self):
        for n in (16, 17, 18, 20):
            M = shuffled_binomial(n, 0)
            c = cokernel_of(M)
            assert c.free_rank == 0
            assert all(b % a == 0 for a, b in zip(c.torsion, c.torsion[1:]))
            assert c.order() == abs(determinant(M))


class TestCokernel:
    def test_examples(self):
        assert cokernel_of(Z([[3, 0], [2, 3]])).torsion == (9,)
        c = cokernel_of(Z([[3], [2]]))
        assert (c.free_rank, c.torsion) == (1, ())
        c = cokernel_of(Z([[3], [0]]))
        assert (c.free_rank, c.torsion) == (1, (3,))

    def test_order_matches_det(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 4)
            M = random_int_matrix(rng, n, n)
            d = determinant(M)
            c = cokernel_of(M)
            if d == 0:
                assert c.free_rank > 0
            else:
                assert c.order() == abs(d)


class TestStableInvariants:
    def test_stabilization(self):
        M = Z([[4, 2], [2, 8]])
        padded = Z([[1, 0, 0], [0, 4, 2], [0, 2, 8]])
        assert stable_invariants(M) == stable_invariants(padded)

    def test_transpose_invariance_square(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            M = random_int_matrix(rng, n, n)
            assert stable_invariants(M) == stable_invariants(M.transpose())

    def test_transpose_factors_nonsquare(self):
        rng = random.Random(32)
        for _ in range(30):
            M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            a = stable_invariants(M)
            b = stable_invariants(M.transpose())
            assert a.factors == b.factors

    def test_sign_and_permutation_invariance(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(2, 5)
            M = random_int_matrix(rng, n, n)
            rows = M.to_lists()
            rng.shuffle(rows)
            rows = [[-x for x in r] if rng.random() < 0.5 else r for r in rows]
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[r[p] for p in perm] for r in rows]
            assert stable_invariants(M) == stable_invariants(Z(rows))


class TestDeletedPivot:
    def test_examples(self):
        assert deleted_pivot(Z([[1, 2], [3, 4]]), 0, 0) == Z([[-2]])
        M = Z([[1, 0, 0], [0, 5, 6], [0, 7, 8]])
        assert deleted_pivot(M, 0, 0) == Z([[5, 6], [7, 8]])
        with pytest.raises(DomainError, match="does not divide"):
            deleted_pivot(Z([[2, 1], [3, 4]]), 0, 0)

    def test_index_guard(self):
        # 2 raised a bare IndexError, -1 read the last row and True read 1
        M = Z([[1, 2], [3, 4]])
        for i, j, name in ((2, 0, "i"), (-1, 0, "i"), (True, 0, "i"), (0, 2, "j"),
                           (0, -1, "j"), (0, 1.0, "j")):
            with pytest.raises(DomainError, match=f"^pivot index {name} must be an int"):
                deleted_pivot(M, i, j)
        with pytest.raises(DomainError, match="^pivot index i"):
            deleted_pivot(ExactMatrix.from_rows([[1]]), 2, 0)

    def test_unit_pivot_normalized(self):
        M = Z([[-1, 2], [3, 4]])
        assert deleted_pivot(M, 0, 0) == Z([[4 - 3 * (-2)]])

    def test_preserves_stable_invariants(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 5)
            M = random_int_matrix(rng, n, n)
            spots = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if abs(M[i, j]) == 1
            ]
            if not spots:
                continue
            i, j = spots[0]
            reduced = deleted_pivot(M, i, j)
            assert stable_invariants(M).factors == stable_invariants(reduced).factors


class TestDeterminant:
    def test_small(self):
        assert determinant(ExactMatrix.diagonal([1] * 3)) == 1
        assert determinant(Z([[1, 2], [3, 4]])) == -2
        M = ExactMatrix.diagonal([q_integer(2), q_integer(5)], "laurent")
        assert determinant(M) == q_integer(2) * q_integer(5)

    def test_against_permutation_expansion(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(1, 4)
            M = random_int_matrix(rng, n, n, -5, 5)
            assert determinant(M) == permutation_det(M.to_lists())

    def test_laurent_determinant_exact(self):
        rng = random.Random(8)
        for _ in range(15):
            n = rng.randint(1, 3)
            grid = [
                [
                    LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            M = ExactMatrix.from_rows(grid, "laurent")
            # oracle: evaluate at q = 2 exactly (entries may be Fractions)
            at2 = [[Fraction(x.evaluate(2)) for x in row] for row in grid]
            assert determinant(M).evaluate(2) == permutation_det(at2)

    def test_sparse_against_permutation_expansion(self):
        # about two thirds of the entries zero: most Bareiss updates have a
        # zero target and a zero factor, and are skipped
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 6)
            grid = [[rng.randint(-5, 5) if rng.random() < 1 / 3 else 0
                     for _ in range(n)] for _ in range(n)]
            assert determinant(Z(grid)) == permutation_det(grid)

    def test_sparse_row_swap_and_singular(self):
        # zero leading entry: the first pivot comes from a row swap, after
        # which the zero target (3, 2) has two nonzero factors and turns -5
        grid = [[0, 3, 0, 0], [2, 0, 1, 0], [0, 0, 0, 4], [5, 0, 0, 1]]
        assert determinant(Z(grid)) == permutation_det(grid) == -60
        # the zero target (2, 1) turns nonzero because (2, 0) and (0, 1) are not
        grid = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]
        assert determinant(Z(grid)) == permutation_det(grid) == 7
        singular = [
            [[0, 2, 0], [0, 0, 3], [0, 1, 0]],
            [[1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 1, 0], [0, 4, 0, 5]],
            [[0, 1, 0, 0], [2, 0, 0, 4], [0, 3, 0, 0], [1, 0, 0, 2]],
        ]
        for grid in singular:
            assert permutation_det(grid) == 0
            assert determinant(Z(grid)) == 0

    def test_sparse_laurent_determinant(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(1, 5)
            grid = [
                [
                    LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3),
                                 rng.randint(-2, 2): rng.randint(-3, 3)})
                    if rng.random() < 1 / 3 else LaurentPoly.zero()
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            d = determinant(ExactMatrix.from_rows(grid, "laurent"))
            at2 = [[Fraction(x.evaluate(2)) for x in row] for row in grid]
            assert d.evaluate(2) == permutation_det(at2)

    def test_qpoly_determinant_matches_laurent_on_jt_suite(self, monkeypatch):
        # every J, D and M whose determinant verify_theorems("jt", 4) takes;
        # the Q[q] Bareiss quotients are integral, so no Fraction survives
        summary, seen = spy_jt_suite(monkeypatch, 4)
        # three matrices per check, three of them 0 x 0
        assert summary == {"which": "jt", "checked": 144, "failed": 0}
        assert len(seen) == 3 * 144 and sum(X.rows == 0 for X in seen) == 3
        for X in seen:
            dq = list(determinant(X.to_qpoly()).coeffs)
            assert all(type(c) is int for c in dq)
            while dq and dq[0] == 0:
                dq.pop(0)   # the q-power that normal() strips
            dl = RationalPoly.from_laurent(LaurentPoly.coerce(determinant(X)).normal())
            assert RationalPoly(dq).monic() == dl.monic()


def spy_jt_suite(monkeypatch, ceiling):
    """Run verify_theorems("jt", ceiling); return its summary and every
    matrix it hands to the shared determinant and Q[q] invariants call."""
    shared = matrices._det_and_qpoly_invariants
    seen = []

    def recording(X):
        seen.append(X)
        return shared(X)

    monkeypatch.setattr(harness, "_det_and_qpoly_invariants", recording)
    summary, _ = harness.verify_theorems("jt", ceiling)
    return summary, seen


def qpoly_invariants_reference(M):
    """(free rank, factors) of a Q[q] matrix read off `_smith_diagonal`,
    the generic Smith elimination of the whole matrix."""
    diagonal = [d for d in _smith_diagonal(M) if not d.is_zero()]
    factors = [matrices._normalize_factor(matrices.ring_adapter("qpoly"), d) for d in diagonal]
    return M.rows - len(diagonal), tuple(f for f in factors if f is not None)


class TestPackedQpolyInvariants:
    """Q[q] stable invariants from the packed +-1 elimination of the
    determinant, against the generic Smith elimination of the whole matrix."""

    def test_seeded_against_smith_diagonal(self):
        rng = random.Random(2401)

        def entry():
            r = rng.random()
            if r < 0.45:
                return RationalPoly.zero()
            if r < 0.7:
                return RationalPoly([0] * rng.randint(0, 2) + [rng.choice((1, -1))])
            return RationalPoly([rng.choice((0, 1, -1, 2, -3, 7, Fraction(1, 2),
                                             Fraction(-2, 3)))
                                 for _ in range(rng.randint(1, 3))])

        seen = {"fraction": 0, "zero row": 0, "zero col": 0, "non-square": 0,
                "deficient": 0, "factors": 0, "empty": 0, "1 x n": 0, "n x 1": 0,
                "2 x 2": 0, "singular 2 x 2": 0, "2 x n": 0, "n x 2": 0, "driver": 0}

        def check(M):
            _, block, pivots, _, _, _ = matrices._packed_units(M)
            m, n = len(block), M.cols - pivots
            got = stable_invariants(M)
            assert (got.free_rank, got.factors) == qpoly_invariants_reference(M)
            grid = M.to_lists()
            seen["fraction"] += any(type(c) is Fraction for row in grid
                                    for f in row for c in f.coeffs)
            seen["zero row"] += any(all(f.is_zero() for f in row) for row in grid)
            seen["zero col"] += any(all(row[j].is_zero() for row in grid)
                                    for j in range(M.cols))
            seen["non-square"] += M.rows != M.cols
            seen["deficient"] += got.free_rank > max(0, M.rows - M.cols)
            seen["factors"] += bool(got.factors)
            if min(m, n) == 0:
                seen["empty"] += 1
            elif m == 1 or n == 1:
                seen["1 x n" if m == 1 else "n x 1"] += 1
            elif m == n == 2:
                seen["singular 2 x 2" if matrices._int_bareiss(block) == 0 else "2 x 2"] += 1
            elif min(m, n) == 2:
                seen["2 x n" if m == 2 else "n x 2"] += 1
            else:
                seen["driver"] += 1
            if M.rows == M.cols:
                det, inv = matrices._det_and_qpoly_invariants(M)
                want = determinant(M)
                assert det.coeffs == want.coeffs and inv == got

        for trial in range(400):
            m = rng.randint(0, 6)
            n = m if trial % 2 else rng.randint(0, 6)
            grid = [[entry() for _ in range(n)] for _ in range(m)]
            if m and trial % 7 == 1:
                grid[rng.randrange(m)] = [RationalPoly.zero()] * n
            if n and trial % 7 == 2:
                j = rng.randrange(n)
                for row in grid:
                    row[j] = RationalPoly.zero()
            if m >= 3 and trial % 7 == 3:
                # a Q[q] combination of two other rows
                f, g = entry(), RationalPoly([Fraction(1, 3), 1])
                grid[0] = [f * x + g * y for x, y in zip(grid[1], grid[2])]
            check(ExactMatrix(m, n, "qpoly", grid))

        # a block B of a chosen shape under k +-1 pivots, as
        # [[P, X], [0, B]] with rows and columns shuffled; the entries of B
        # carry a common factor, often with rational content (2q, q/3, ...),
        # and about half the blocks with two rows or columns have rank 1
        common = [RationalPoly.one(), RationalPoly([0, 2]), RationalPoly([0, Fraction(1, 3)]),
                  RationalPoly([1, 1]), RationalPoly([0, Fraction(2, 3), Fraction(2, 3)])]
        pool = [RationalPoly.zero(), RationalPoly([2]), RationalPoly([0, 2]),
                RationalPoly([0, Fraction(1, 3)]), RationalPoly([1, 1]),
                RationalPoly([-1, 0, 2]), RationalPoly([Fraction(1, 2), 0, 3]),
                RationalPoly([3, -1, 1])]
        shapes = [(0, rng.randint(1, 4)) for _ in range(10)] + [(2, 2)] * 120
        for n in range(1, 6):
            shapes += [(1, n), (n + 1, 1)] * 8
        for n in range(3, 7):
            shapes += [(2, n), (n, 2)] * 12
        for _ in range(40):
            shapes.append((rng.randint(3, 4), rng.randint(3, 4)))
        for r, c in shapes:
            f = rng.choice(common)
            if min(r, c) == 2 and rng.random() < 0.5:
                u = [rng.choice(pool) for _ in range(r)]
                v = [rng.choice(pool) for _ in range(c)]
                B = [[f * x * y for y in v] for x in u]
            else:
                B = [[f * rng.choice(pool) for _ in range(c)] for _ in range(r)]
            k = rng.randint(0, 2)
            top = [[RationalPoly([rng.choice((1, -1))]) if i == j else RationalPoly.zero()
                    for j in range(k)]
                   + [rng.choice(pool) for _ in range(c)] for i in range(k)]
            grid = top + [[RationalPoly.zero()] * k + row for row in B]
            rows = rng.sample(range(k + r), k + r)
            cols = rng.sample(range(k + c), k + c)
            check(ExactMatrix(k + r, k + c, "qpoly",
                              [[grid[i][j] for j in cols] for i in rows]))
        assert min(seen.values()) >= 30, seen

        # the running gcd of the thin finish stops at its first unit
        rest = iter([RationalPoly([0, 2]), RationalPoly([Fraction(1, 3), 1]),
                     RationalPoly([1, 1])])
        assert matrices._running_gcd(rest).degree() == 0
        assert next(rest) == RationalPoly([1, 1])

    def test_jt_suite_shared_call(self, monkeypatch):
        # one packed elimination gives each J, D and M of verify jt 4 its
        # determinant and its Q[q] invariants, exactly as the separate calls
        summary, seen = spy_jt_suite(monkeypatch, 4)
        assert summary["failed"] == 0 and len(seen) == 3 * 144
        for X in seen:
            det, inv = matrices._det_and_qpoly_invariants(X)
            want = determinant(X)
            assert type(det) is type(want) and det == want
            assert inv == stable_invariants(X.to_qpoly())
            assert inv.factor_strings() == stable_invariants(X.to_qpoly()).factor_strings()
            assert (inv.free_rank, inv.factors) == qpoly_invariants_reference(X.to_qpoly())

    def test_wide_minors_in_the_block(self):
        # one +-1 pivot, then a 3 x 3 block of 2 x 2 minors a_ij - a_i0 a_0j
        # whose coefficients take 80 bits or more
        rng = random.Random(2402)
        for _ in range(6):
            def big():
                return RationalPoly([rng.randint(1 << 40, 1 << 41) * rng.choice((1, -1))
                                     for _ in range(rng.randint(1, 3))])

            grid = [[RationalPoly.one()] + [big() for _ in range(3)]]
            grid += [[big()] + [big() * RationalPoly([0, 2]) for _ in range(3)]
                     for _ in range(3)]
            M = ExactMatrix(4, 4, "qpoly", grid)
            _, block, pivots, b, _, _ = matrices._packed_units(M)
            assert (pivots, len(block)) == (1, 3)
            bits = max(abs(c).bit_length() for row in block for x in row
                       for c in rings._kronecker_unpack(x, b, 0).values())
            assert bits >= 80
            got = stable_invariants(M)
            assert (got.free_rank, got.factors) == qpoly_invariants_reference(M)
            det, inv = matrices._det_and_qpoly_invariants(M)
            assert det == determinant(M) == bareiss_reference(M) and inv == got


class TestKroneckerDeterminant:
    """The integer determinant kernel, with Laurent and Q[q] entries packed by
    Kronecker substitution, against the ring-generic Bareiss loop."""

    @staticmethod
    def laurent(rng, bits, terms=3, lo=-4, hi=4):
        return LaurentPoly({rng.randint(lo, hi): rng.randint(-(1 << bits), 1 << bits)
                            for _ in range(rng.randint(1, terms))})

    def check(self, M):
        got, want = determinant(M), bareiss_reference(M)
        assert type(got) is type(want)
        assert got == want
        if M.ring == "qpoly":
            assert got.coeffs == want.coeffs   # same int / Fraction stored form
        return got

    def test_laurent_seeded(self):
        rng = random.Random(1010)
        zeros = 0
        for trial in range(60):
            n = rng.randint(1, 6)
            bits = rng.choice((2, 20, 80))
            density = rng.choice((0.3, 0.7, 1.0))
            grid = [[self.laurent(rng, bits) if rng.random() < density
                     else LaurentPoly.zero() for _ in range(n)] for _ in range(n)]
            if trial % 5 == 1:
                grid[rng.randrange(n)] = [LaurentPoly.zero()] * n
            if trial % 5 == 2:
                j = rng.randrange(n)
                for row in grid:
                    row[j] = LaurentPoly.zero()
            if self.check(LQ(grid)).is_zero():
                zeros += 1
        assert zeros >= 24

    def test_laurent_dense_8x8(self):
        rng = random.Random(1011)
        for bits in (3, 80):
            grid = [[self.laurent(rng, bits) for _ in range(8)] for _ in range(8)]
            assert not self.check(LQ(grid)).is_zero()

    def test_laurent_singular(self):
        rng = random.Random(1012)
        for n in (3, 5, 8):
            grid = [[self.laurent(rng, 40) for _ in range(n)] for _ in range(n)]
            f, g = self.laurent(rng, 5), self.laurent(rng, 5)
            # the last row is a Z[q, q^-1] combination of the first two
            grid[-1] = [f * x + g * y for x, y in zip(grid[0], grid[1])]
            assert self.check(LQ(grid)).is_zero()
            # a repeated column
            grid = [row[:-1] + [row[0]] for row in grid]
            assert self.check(LQ(grid)).is_zero()

    def test_width_is_the_hadamard_bound(self):
        # the product of the rows' L1 norms packed M(6,6,6;q) at b = 162;
        # Hadamard's bound on |q| = 1 needs 82
        M, _ = family_matrix(FamilySpec("ppbox", 6, 6, 6, q_mode="cube"))
        assert matrices._packed_units(M)[3] <= 82

    def test_laurent_small_sizes(self):
        assert self.check(LQ([])) == LaurentPoly.one()
        for f in (LaurentPoly.zero(), parse_laurent("-3*q^-5"),
                  LaurentPoly({-2: 1, 0: -7, 3: 1 << 80})):
            assert self.check(LQ([[f]])) == f

    def test_qpoly_with_fractions(self):
        rng = random.Random(1013)
        fractional = 0
        for _ in range(40):
            n = rng.randint(0, 5)
            grid = [[RationalPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                   for _ in range(rng.randint(0, 3))])
                     for _ in range(n)] for _ in range(n)]
            d = self.check(ExactMatrix(n, n, "qpoly", grid))
            fractional += any(type(c) is Fraction for c in d.coeffs)
        assert fractional >= 10

    def test_laurent_units(self, monkeypatch):
        # +-1, +-q^k and negative exponents: a row's lowest monomials pack
        # to +-1, which the integer kernel takes as pivots
        sizes = spy_dense_finish(monkeypatch)
        rng = random.Random(1016)
        unit_pivots = 0
        for _ in range(60):
            n = rng.randint(1, 8)

            def entry():
                r = rng.random()
                if r < 0.45:
                    return LaurentPoly.zero()
                if r < 0.85:
                    return LaurentPoly({rng.randint(-3, 3): rng.choice((1, -1))})
                return self.laurent(rng, 3)

            sizes.clear()
            self.check(LQ([[entry() for _ in range(n)] for _ in range(n)]))
            unit_pivots += any(size < n for size in sizes)
        assert unit_pivots >= 20

    def test_qpoly_units_with_fractions(self):
        rng = random.Random(1017)
        fractional = 0
        for _ in range(40):
            n = rng.randint(1, 6)

            def entry():
                r = rng.random()
                if r < 0.4:
                    return RationalPoly.zero()
                if r < 0.75:
                    return RationalPoly([0] * rng.randint(0, 3) + [rng.choice((1, -1))])
                return RationalPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                     for _ in range(rng.randint(1, 3))])

            d = self.check(ExactMatrix(n, n, "qpoly", [[entry() for _ in range(n)]
                                                       for _ in range(n)]))
            fractional += any(type(c) is Fraction for c in d.coeffs)
        assert fractional >= 5

    def test_integers(self):
        rng = random.Random(1014)
        for _ in range(80):
            n = rng.randint(0, 8)
            bound = 1 << rng.choice((3, 80))
            grid = [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0
                     for _ in range(n)] for _ in range(n)]
            self.check(ExactMatrix(n, n, "z", grid))


def spy_dense_finish(monkeypatch):
    """Record the size of every block that reaches `_int_bareiss`."""
    finish = matrices._int_bareiss
    sizes = []

    def recording(rows):
        sizes.append(len(rows))
        return finish(rows)

    monkeypatch.setattr(matrices, "_int_bareiss", recording)
    return sizes


def unit_rich_grid(rng, n, density):
    """An n x n integer grid, each entry nonzero with probability
    `density`, about half the nonzeros +-1."""
    def entry():
        if rng.random() >= density:
            return 0
        return rng.choice((1, -1) if rng.random() < 0.5 else (2, -2, 3, -5, 7, 1 << 70))
    return [[entry() for _ in range(n)] for _ in range(n)]


def inversion_sign(perm):
    n = len(perm)
    return (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))


class TestSparseDeterminantKernel:
    """The integer determinant kernel: +-1 pivots on sparse rows in
    least-fill order, then the dense Bareiss finish on the block left
    without +-1 entries, against the Leibniz expansion and the
    ring-generic Bareiss loop."""

    def test_seeded_against_references(self, monkeypatch):
        sizes = spy_dense_finish(monkeypatch)
        rng = random.Random(1901)
        partial = zeros = 0
        for trial in range(400):
            n = rng.randint(0, 6) if trial % 2 else rng.randint(7, 12)
            grid = unit_rich_grid(rng, n, rng.choice((0.25, 0.45, 0.8)))
            sizes.clear()
            got = determinant(Z(grid))
            assert got == bareiss_reference(Z(grid))
            if n <= 6:
                assert got == permutation_det(grid)
            # units exhausted mid-way: a proper nonempty block is left
            partial += any(0 < size < n for size in sizes)
            zeros += got == 0
        assert partial >= 40 and zeros >= 40

    def test_off_diagonal_pivots(self):
        # every +-1 sits off the diagonal, so each pivot's sign comes from
        # its position among the live rows and columns: one odd position
        # (2 x 2), two that cancel (3 x 3)
        for grid in ([[2, 1], [-1, 3]],
                     [[3, 1, 0], [0, 2, -1], [1, 0, 5]],
                     [[0, 0, -1, 4], [2, 1, 0, 0], [0, 3, 0, 1], [-1, 0, 6, 0]]):
            assert determinant(Z(grid)) == permutation_det(grid) != 0

    def test_emptied_row_or_column_is_zero_at_once(self):
        # an emptied row or column stays in the block left by the +-1
        # pivots, where Bareiss reads det = 0; over "laurent" and "qpoly" a
        # zero row is dropped from the packing instead
        for grid in ([[1, 2, 0], [2, 4, 0], [0, 3, 5]],      # row 1 empties
                     [[1, 1, 1], [2, 0, 0], [3, 0, 0]],      # column 2 empties
                     [[0, 0], [1, 2]],                       # a zero row
                     [[0, 1], [0, 2]]):                      # a zero column
            assert determinant(Z(grid)) == permutation_det(grid) == 0
            for ring in ("laurent", "qpoly"):
                assert determinant(ExactMatrix.from_rows(grid, ring)).is_zero()

    def test_permutation_matrices(self, monkeypatch):
        sizes = spy_dense_finish(monkeypatch)
        rng = random.Random(1902)
        signs = set()
        for n in range(1, 9):
            for _ in range(6):
                perm = rng.sample(range(n), n)
                scale = [rng.choice((1, -1)) for _ in range(n)]
                grid = [[scale[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
                want = inversion_sign(perm) * prod(scale)
                assert determinant(Z(grid)) == want
                signs.add(inversion_sign(perm))
        assert signs == {1, -1}
        # every pivot is a unit: the dense finish sees only empty blocks
        assert set(sizes) == {0}

    def test_small_sizes(self):
        assert determinant(Z([])) == 1
        for x in (0, 1, -1, 7, -(1 << 80)):
            assert determinant(Z([[x]])) == x

    def test_box_reaches_the_dense_finish_only_with_a_small_block(self, monkeypatch):
        sizes = spy_dense_finish(monkeypatch)
        for n, rows in ((8, 192), (12, 432)):
            M, _ = family_matrix(FamilySpec("ppbox", n, n, n))
            sizes.clear()
            macmahon = prod(Fraction(i + j + k - 1, i + j + k - 2) for i in range(1, n + 1)
                            for j in range(1, n + 1) for k in range(1, n + 1))
            assert abs(determinant(M)) == macmahon
            assert M.rows == rows and len(sizes) == 1 and sizes[0] <= 16


class TestPfaffian:
    def test_base_cases(self):
        assert pfaffian(Z([[0, 1], [-1, 0]])) == 1
        a, b, c, d, e, f = 2, 3, 5, 7, 11, 13
        M = Z(
            [
                [0, a, b, c],
                [-a, 0, d, e],
                [-b, -d, 0, f],
                [-c, -e, -f, 0],
            ]
        )
        assert pfaffian(M) == a * f - b * e + c * d

    def test_square_is_determinant(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.choice([2, 4, 6, 8])
            A = random_alternating(rng, n)
            assert pfaffian(A) ** 2 == determinant(A)

    def test_large_elimination_path(self):
        rng = random.Random(44)
        A = random_alternating(rng, 14, -3, 3)
        assert pfaffian(A) ** 2 == determinant(A)
        assert pfaffian(A) == pfaffian_reference(A)

    def test_sign_matches_expansion_reference(self):
        # pf^2 = det cannot see the sign; the row expansion can
        rng = random.Random(45)
        for _ in range(60):
            n = rng.choice([0, 2, 4, 6, 8, 10])
            A = random_alternating(rng, n, *rng.choice([(-9, 9), (-1, 1), (0, 1)]))
            assert pfaffian(A) == pfaffian_reference(A)
        # all-even (no unit: Bezout mixes and the interior fix) and sparse
        # inputs (block sign flips, zero blocks)
        for _ in range(60):
            n = rng.choice([2, 4, 6, 8, 10])
            scale, density = rng.choice([(2, 1.0), (2, 0.5), (1, 0.3)])
            grid = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        grid[i][j] = scale * rng.randint(-5, 5)
                        grid[j][i] = -grid[i][j]
            A = Z(grid)
            assert pfaffian(A) == pfaffian_reference(A)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pfaffian(Z([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
        with pytest.raises(DomainError):
            pfaffian(Z([[0, 1], [1, 0]]))
        with pytest.raises(DomainError):
            pfaffian(ExactMatrix.from_rows(
                [[LaurentPoly.zero(), q_integer(2)], [-q_integer(2), LaurentPoly.zero()]],
                "laurent"))


class TestAlternatingSmith:
    def test_examples(self):
        form = alternating_smith_form(Z([[0, 1], [-1, 0]]), verify=True)
        assert form.block_entries == (1,)
        form = alternating_smith_form(Z([[0, 2], [-2, 0]]), verify=True)
        assert form.block_entries == (2,)
        for n in (0, 1, 4):
            form = alternating_smith_form(ExactMatrix(n, n, "z", [[0] * n] * n), verify=True)
            assert form.block_entries == (0,) * (n // 2)
        # the first unit lies in a row below the pivot row, at (1, 3) and at (3, 5)
        A = Z([[0, 2, 4, 6], [-2, 0, 6, 1], [-4, -6, 0, 2], [-6, -1, -2, 0]])
        form = alternating_smith_form(A, verify=True)
        assert form.block_entries == (1, abs(pfaffian(A)))
        A = Z([[0, 2, 0, 4, 0, 0], [-2, 0, 6, 0, 0, 8], [0, -6, 0, 2, 0, 0],
               [-4, 0, -2, 0, 0, -1], [0, 0, 0, 0, 0, 0], [0, -8, 0, 1, 0, 0]])
        form = alternating_smith_form(A, verify=True)
        assert form.block_entries == (1, 2, 0) and pfaffian(A) == 0

    def test_random_cross_check(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.choice([2, 4, 6])
            A = random_alternating(rng, n)
            form = alternating_smith_form(A, verify=True)
            ordinary = smith_normal_form(A)
            doubled = []
            for e in form.block_entries:
                doubled.extend([abs(e), abs(e)])
            doubled_nonzero = sorted(x for x in doubled if x)
            ordinary_nonzero = sorted(abs(d) for d in ordinary.diagonal if d)
            assert sorted(doubled_nonzero) == ordinary_nonzero
            p = pfaffian(A)
            assert abs(p) == prod(form.block_entries)

    def test_odd_dimension(self):
        A = Z([[0, 2, 4], [-2, 0, 6], [-4, -6, 0]])
        form = alternating_smith_form(A, verify=True)
        assert len(form.block_entries) == 1

    def test_rejects_non_alternating(self):
        with pytest.raises(DomainError):
            alternating_smith_form(Z([[0, 1], [-1, 2]]))


class TestAlternatingPinned:
    """The block entries of `alternating_smith_form` and the Pfaffians of a
    seeded fuzz of alternating matrices (sizes 0 to 10: dense, sparse, all
    even, singular), of the kind "A" integer matrices of the round suite
    at ceiling 8 and of the kappa quotients of boxes 6 and 8, pinned by
    SHA-256.  Both are invariants of the matrix, so a change to the
    congruence elimination must leave them as they are; the transform B
    is not pinned.  The records are built in `pinned.py`."""

    def test_alternating_forms_and_pfaffians(self):
        records = pinned.alternating_records()
        assert (len(records), pinned.digest(records)) == pinned.ALTERNATING


class TestLaurentAttempt:
    def test_chained_diagonal_passes_through(self):
        d1 = q_integer(2)
        d2 = q_integer(2) * q_integer(5)
        M = ExactMatrix.diagonal([d1, d2], "laurent")
        out = laurent_smith_attempt(M)
        assert out.success
        factors = [d.normal() for d in out.smith.diagonal]
        assert factors == [d1, d2]

    def test_non_principal_witness(self):
        M = ExactMatrix.diagonal(
            [LaurentPoly.const(2), parse_laurent("-1 + q")], "laurent"
        )
        out = laurent_smith_attempt(M)
        assert out.outcome == "witnessed"
        w = set(str(x) for x in out.witness)
        # the blocking pair generates (2, q - 1) up to units
        assert any("2" == s for s in w)
        assert out.left is not None and out.right is not None

    def test_unit_row_scalings_land_in_the_transforms(self):
        # rows led by -q^2, q^-1 and -1 are scaled by units before the
        # elimination, while L is still held as its diagonal
        M = LQ([["-q^2", "1 + q"], ["q^-1", "3"], ["0", "-1"]])
        for transforms in (True, False):
            out = laurent_smith_attempt(M, transforms=transforms)
            assert out.success and out.iterations == 7
        assert out.smith.diagonal == (LaurentPoly.one(), LaurentPoly.one())
        form = laurent_smith_attempt(M).smith
        assert write_matrix(form.left) == "3 3 laurent\n-q^-2 0 0\n0 0 -1\nq^-2 q q^-2+q^-1+3*q\n"
        assert write_matrix(form.right) == "2 2 laurent\n1 q^-2+q^-1\n0 1\n"
        assert form.verify(M)

    def test_transforms_exact_on_success(self):
        rng = random.Random(10)
        for _ in range(25):
            n = rng.randint(1, 3)
            grid = [
                [LaurentPoly({rng.randint(-2, 2): rng.randint(-2, 2)}) for _ in range(n)]
                for _ in range(n)
            ]
            M = ExactMatrix.from_rows(grid, "laurent")
            out = laurent_smith_attempt(M)
            if out.success:
                out.smith.verify(M)

    def test_lattice_step_matches_reference(self):
        rng = random.Random(41)

        def poly():
            # small coefficients make ties between candidates likely
            lo, bound = rng.randint(-4, 4), rng.choice((2, 20))
            terms = {lo + e: rng.randint(-bound, bound) for e in range(rng.randint(0, 8) + 1)}
            terms[lo] = terms[lo] or 1
            terms[max(terms)] = terms[max(terms)] or -1
            return LaurentPoly(terms)

        found = 0
        for _ in range(400):
            r, p = poly(), poly()
            want = lattice_step_reference(r, p)
            assert lattice_step_on_polys(r, p) == want
            found += want is not None
        assert 100 < found < 400

    def test_lattice_step_matches_reference_at_the_ends(self):
        rng = random.Random(43)

        def poly(length, bound=3):
            lo = rng.randint(-6, 6)
            terms = {lo + e: rng.randint(-bound, bound) for e in range(length)}
            terms[lo] = terms[lo] or 1
            terms[max(terms)] = terms[max(terms)] or -1
            return LaurentPoly(terms)

        def near_multiple(p):
            # the run of f = c q^s p from one end of f to a cut, plus a
            # tail on the other side of the cut (or none): the window at
            # shift s cancels that run, or all it covers when the run is
            # all of f, and the end of the result lies inside the window or
            # in r beyond it; p is longer than r when the run is short
            f = LaurentPoly.q_power(rng.randint(-4, 4), rng.choice((-2, -1, 1, 2))) * p
            keep = rng.choice((f.span + 1, rng.randint(1, f.span + 1)))
            tail = poly(rng.randint(1, 4)) if rng.random() < 0.8 else LaurentPoly.zero()
            if rng.random() < 0.5:
                cut = f.max_exp - keep + 1
                run = LaurentPoly({e: c for e, c in f.items() if e >= cut})
                if not tail.is_zero():
                    tail = tail.shift(rng.randint(f.min_exp - 12, cut - 1) - tail.max_exp)
            else:
                cut = f.min_exp + keep - 1
                run = LaurentPoly({e: c for e, c in f.items() if e <= cut})
                if not tail.is_zero():
                    tail = tail.shift(rng.randint(cut + 1, f.max_exp + 12) - tail.min_exp)
            return run + tail

        # the window at one end cancels all it covers, past a gap in r; the
        # window cancelling r's other end must lose to it
        p = parse_laurent("1 + q")
        assert lattice_step_on_polys(parse_laurent("1 + q + 5*q^3 + q^20 + q^21"), p) == (
            LaurentPoly.q_power(20), parse_laurent("1 + q + 5*q^3"))
        assert lattice_step_on_polys(parse_laurent("1 + q + 5*q^18 + q^20 + q^21"), p) == (
            LaurentPoly.one(), parse_laurent("5*q^18 + q^20 + q^21"))
        cases = []
        for _ in range(300):
            # long r, short p
            cases.append((poly(rng.randint(8, 20), 20), poly(rng.randint(1, 3))))
        for _ in range(600):
            p = poly(rng.randint(2, 7))
            cases.append((near_multiple(p), p))
        shrunk = longer_p = 0
        for r, p in cases:
            want = lattice_step_reference(r, p)
            assert lattice_step_on_polys(r, p) == want, (str(r), str(p))
            shrunk += want is not None and (want[1].is_zero() or want[1].span < r.span)
            longer_p += p.span > r.span and want is not None
        assert shrunk > 400 and longer_p > 20, (shrunk, longer_p)

    def test_reduce_matches_reference(self):
        rng = random.Random(47)

        def poly(length, bound):
            lo = rng.randint(-6, 4)
            terms = {lo + e: rng.randint(-bound, bound) for e in range(length)}
            terms[lo] = terms[lo] or 1
            terms[lo + length - 1] = terms[lo + length - 1] or -1
            return LaurentPoly(terms)

        seen = dict.fromkeys(("tie", "exact", "short", "negative", "zero", "stuck"), 0)
        for i in range(2500):
            kind = i % 5
            if kind == 0:
                # a monomial p = c q^k, |c| > 1; even c makes ties c / 2
                c = rng.choice((2, -2, 4, -4, 6, 3, -5))
                p = LaurentPoly.q_power(rng.randint(-3, 3), c)
                b = poly(rng.randint(1, 8), 3 * abs(c))
                seen["tie"] += c % 2 == 0 and any(x % c == c // 2 for _, x in b.items())
            else:
                p = poly(rng.randint(2, 6), rng.choice((2, 9)))
                if kind == 1:
                    b = poly(rng.randint(1, 5), 3) * p
                elif kind == 2:
                    b = poly(rng.randint(1, p.span), rng.choice((3, 30)))
                elif kind == 3:
                    b = LaurentPoly.zero()
                else:
                    b = poly(rng.randint(1, 14), rng.choice((2, 20)))
            t, r = matrices._laurent_reduce(b, p)
            assert (t, r) == laurent_reduce_reference(b, p), (str(b), str(p))
            assert r == b - t * p
            seen["exact"] += kind == 1 and r.is_zero()
            seen["short"] += not b.is_zero() and b.span < p.span
            seen["negative"] += not b.is_zero() and b.min_exp < 0
            seen["zero"] += b.is_zero()
            seen["stuck"] += not r.is_zero() and kind != 0
        assert seen["exact"] == seen["zero"] == 500, seen
        assert min(seen.values()) > 100, seen

    def test_box_333_witness_pinned(self):
        M, _ = family_matrix(FamilySpec("ppbox", 3, 3, 3, q_mode="cube"))
        for transforms in (True, False):
            out = laurent_smith_attempt(M, transforms=transforms)
            assert out.outcome == "witnessed"
            assert out.iterations == 173
            assert [str(w) for w in out.witness] == [
                "-52 - 23*q - 22*q^2 - 20*q^3 - 45*q^4 + 10*q^5 + 10*q^6 + 62*q^7"
                " + 33*q^8 + 32*q^9 + 30*q^10 + 55*q^11",
                "25 - 28*q - 28*q^2 - 28*q^3 - 28*q^4 - 80*q^5 - 53*q^6 - 77*q^7"
                " - 24*q^8 - 24*q^9 - 24*q^10 - 24*q^11 + 28*q^12 + q^13",
            ]
            assert (out.left is None) == (out.right is None) == (not transforms)

    def test_tau_impossible_222_witness_pinned(self):
        spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2, group="tau",
                          q_mode="cube", wrong_parity=True)
        M, _, _ = harness.family_matrix_for_ring(spec, "laurent")
        out = laurent_smith_attempt(M)
        assert out.outcome == "witnessed"
        assert out.iterations == 159
        assert [str(w) for w in out.witness] == [
            "2 + 6*q - 4*q^2 + 4*q^3",
            "-1 - 2*q - 2*q^3 - q^4 + 18*q^5 + 3*q^6 - q^8 + 3*q^9 - q^11"
            " - q^12 + 2*q^13 - q^14 + 3*q^16 - 2*q^17 + q^18",
        ]

    def test_transform_free_attempt_matches_full_run(self):
        def diagonal(out):
            return None if out.smith is None else out.smith.diagonal

        seen = set()
        for _, spec, ring in harness._round_instances(6):
            if ring != "laurent":
                continue
            try:
                M, _, _ = harness.family_matrix_for_ring(spec, ring)
            except DomainError:
                continue
            full = laurent_smith_attempt(M)
            bare = laurent_smith_attempt(M, transforms=False)
            assert bare.outcome == full.outcome, spec
            assert diagonal(bare) == diagonal(full), spec
            assert bare.witness == full.witness, spec
            assert bare.residual == full.residual, spec
            assert bare.iterations == full.iterations, spec
            assert bare.left is None and bare.right is None
            if bare.success:
                assert bare.smith.left is None and bare.smith.right is None
                assert full.smith.left is not None
                report = smith_report(M)
                with_transforms = smith_report(M, include_transforms=True)
                assert len(with_transforms["left"]) == M.rows
                assert len(with_transforms["right"]) == M.cols
                del with_transforms["left"], with_transforms["right"]
                assert with_transforms == {**report, "witnesses_included": True}
            else:
                assert full.left is not None and full.right is not None
            seen.add(full.outcome)
        assert seen == {"success", "witnessed"}

    def test_integer_matrices_match_pid_invariants(self):
        # constant entries take the span-0 reduction and the swap-if-smaller
        # step; the result must agree with the Smith form over Z
        rng = random.Random(23)
        for _ in range(300):
            M = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            ML = M.map_ring("laurent", LaurentPoly.coerce)
            out = laurent_smith_attempt(ML)
            assert out.success, M.entries
            got = matrices._invariants("laurent", ML.rows, out.smith.diagonal)
            want = stable_invariants(M)
            assert got.free_rank == want.free_rank, M.entries
            assert list(got.factors) == [LaurentPoly.coerce(f) for f in want.factors], M.entries
        # an integer matrix given as it is: the attempt maps it itself
        out = laurent_smith_attempt(Z([[2, 0], [0, 3]]))
        assert out.success
        assert out.smith.diagonal == (LaurentPoly.one(), LaurentPoly.const(6))

    def test_iteration_limit(self):
        # the pivot (2)_q does not divide (3)_q: the interior absorb and the
        # reductions after it take 8 operations, which the tiny budget cannot afford
        M = ExactMatrix.diagonal([q_integer(3), q_integer(2)], "laurent")
        out = laurent_smith_attempt(M, max_steps=1)
        assert out.outcome == "inconclusive"
        out = laurent_smith_attempt(M)
        assert out.success
        assert [d.normal() for d in out.smith.diagonal] == [
            LaurentPoly.one(),
            q_integer(2) * q_integer(3),
        ]


class TestSmithDriverPinned:
    """The outputs of `_smith`, pinned by SHA-256: every Laurent attempt of
    the round suite at ceiling 6 (outcome, iterations, witness, diagonal or
    residual, and the transforms), at the default and at a tight step
    limit, and at ceiling 8 without transforms; the PID normal forms of
    three box matrices with their transforms; a seeded fuzz of random
    matrices of every shape up to 6 x 6 over every ring; and the
    determinant and Q[q] invariants of every matrix of `verify jt 6`,
    which finish the block left by the packed +-1 pivots; and the
    determinant of every square matrix of the round suite at ceiling 8 and
    of a seeded draw of random matrices, singular ones among them.  The pivot path
    decides the Laurent verdicts, so a change to the elimination must leave
    all of these as they are, with one exception: the integer transforms,
    pinned apart, change only with the route that builds them.  The records
    are built in `pinned.py`."""

    def test_laurent_attempts(self):
        records = pinned.laurent_attempt_records()
        assert (len(records), pinned.digest(records)) == pinned.LAURENT_ATTEMPTS

    def test_laurent_round8(self):
        records = pinned.laurent_round8_records()
        assert (len(records), pinned.digest(records)) == pinned.LAURENT_ROUND8

    def test_pid_forms(self):
        records = pinned.pid_form_records()
        assert (len(records), pinned.digest(records)) == pinned.PID_FORMS

    def test_pid_z_transforms(self):
        records = pinned.pid_z_transform_records()
        assert (len(records), pinned.digest(records)) == pinned.PID_Z_TRANSFORMS

    def test_fuzz(self):
        records = pinned.fuzz_records()
        assert (len(records), pinned.digest(records)) == pinned.FUZZ

    def test_fuzz_z_transforms(self):
        records = pinned.fuzz_z_transform_records()
        assert (len(records), pinned.digest(records)) == pinned.FUZZ_Z_TRANSFORMS

    def test_jt(self):
        records = pinned.jt_records()
        assert (len(records), pinned.digest(records)) == pinned.JT

    def test_determinants(self):
        records = pinned.determinant_records()
        assert (len(records), pinned.digest(records)) == pinned.DETERMINANTS


class TestUnitPhase:
    """The unit pivots of `_smith`, the first case of its one loop on the
    sparse workspace, and the non-unit pivots that follow them: the pivot
    search past a row without units, every shape, a zero block left
    behind, a run that ends on units, and the step limit checked after the
    pivot's swaps."""

    def z_cases(self):
        return [
            Z([[2, 4, 6], [3, 1, 5], [7, 2, 9]]),           # row 0 has no unit
            Z([[2, 1, 3, 4], [1, 0, 2, 6]]),                # m < n
            Z([[2, 3], [1, 5], [4, 1], [6, 2]]),            # m > n
            ExactMatrix(0, 3, "z", []),
            ExactMatrix(3, 0, "z", [[], [], []]),
            Z([[1, 2, 3], [2, 5, 7], [3, 7, 10]]),          # zero block, free rank 1
            Z([[1, 1, 0], [1, 2, 1], [0, 1, 2]]),           # units to the end
            Z([[0, -1, 0, 0], [1, 0, 0, 3], [0, 0, 0, -1], [0, 2, 1, 5]]),
        ]

    def test_z_diagonal_matches_determinantal_divisors(self):
        for M in self.z_cases():
            form = smith_normal_form(M, verify=True)
            assert _smith_diagonal(M) == form.diagonal
            divisors = determinantal_divisors(M)
            nonzero = [d for d in form.diagonal if d]
            assert len(nonzero) == len(divisors), M.entries
            assert [prod(nonzero[:k]) for k in range(1, len(nonzero) + 1)] == divisors
            assert all(d > 0 for d in nonzero)
        assert cokernel_of(self.z_cases()[5]).free_rank == 1

    def test_qpoly(self):
        one = RationalPoly.one()
        for M in self.z_cases():
            Q = M.to_qpoly()
            form = smith_normal_form(Q, verify=True)
            rank = len(determinantal_divisors(M))
            assert form.diagonal == (one,) * rank + (RationalPoly.zero(),) * (
                min(M.rows, M.cols) - rank)
        q = RationalPoly((0, 1))
        for rows, want in [([[one, q], [q, one]], [one, q * q - one]),
                           ([[q, q * q], [2 * one, q]], [one, q * q]),
                           ([[q, one, q], [one + q, q, 3 * one]], [one, one])]:
            form = smith_normal_form(ExactMatrix.from_rows(rows, "qpoly"), verify=True)
            assert list(form.diagonal) == want

    def test_laurent_step_limit_after_the_swaps(self):
        # the first unit sits at (1, 1): two swaps come before the limit is
        # checked, so limits 0 and 1 both stop at pivot 0 after 2 operations
        M = LQ([["2", "1 + q", "3", "0"],
                ["1 + q", "q^-1", "0", "2"],
                ["1", "0", "q", "1 + q"],
                ["0", "2", "1 + q^2", "-1"]])
        before = "4 4 laurent\nq^-1 1+q 0 2\n1+q 2 3 0\n0 1 q 1+q\n2 0 1+q^2 -1\n"
        after = ("3 3 laurent\n1 q 1+q\n2-q-2*q^2-q^3 3 -2*q-2*q^2\n"
                 "-2*q-2*q^2 1+q^2 -1-4*q\n")
        for max_steps, iterations, residual in [(0, 2, before), (1, 2, before), (2, 8, after)]:
            for transforms in (False, True):
                out = laurent_smith_attempt(M, max_steps=max_steps, transforms=transforms)
                assert out.outcome == "inconclusive"
                assert (out.iterations, write_matrix(out.residual)) == (iterations, residual)

    def test_laurent_step_limit_on_a_box(self):
        M, _ = family_matrix(FamilySpec("ppbox", 2, 2, 2, q_mode="cube"))
        stops = [(0, 2, "28c28bb4a2070f4f230d63d784884f4cf7f5c6c4be763f8c61494b88c40b9dfe"),
                 (1, 2, "28c28bb4a2070f4f230d63d784884f4cf7f5c6c4be763f8c61494b88c40b9dfe"),
                 (2, 5, "25544258a6cc1b78fe87368d0a70fa78f0f7621e5b4af49ed38c135e5f2e3bbf")]
        for max_steps, iterations, digest in stops:
            for transforms in (False, True):
                out = laurent_smith_attempt(M, max_steps=max_steps, transforms=transforms)
                assert out.outcome == "inconclusive"
                assert out.iterations == iterations
                text = write_matrix(out.residual)
                assert hashlib.sha256(text.encode()).hexdigest() == digest
                if transforms:
                    k = M.rows - out.residual.rows
                    D = out.left * M * out.right
                    assert [row[k:] for row in D.entries[k:]] == list(out.residual.entries)


def spy_unit_divisions(monkeypatch):
    """Count the ring divisions made while `_Workspace.clear_unit` runs:
    calls of `try_div` of the three ring adapters, of the centered
    reduction `_laurent_reduce`, of `LaurentPoly.try_divide` and of
    `RationalPoly.divmod`.  Returns (seen,
    cleared): seen["divisions"] is that count, cleared the clear_unit calls
    by ring tag."""
    seen = {"divisions": 0, "inside": False}
    cleared = Counter()
    clear = matrices._Workspace.clear_unit

    def clearing(ws, k):
        cleared[ws.ad.tag] += 1
        seen["inside"] = True
        try:
            return clear(ws, k)
        finally:
            seen["inside"] = False

    def spying(f):
        def spy(*args):
            seen["divisions"] += seen["inside"]
            return f(*args)
        return spy

    monkeypatch.setattr(matrices._Workspace, "clear_unit", clearing)
    for ring in (matrices.ring_adapter(tag) for tag in ("z", "qpoly", "laurent")):
        monkeypatch.setattr(ring, "try_div", staticmethod(spying(ring.try_div)))
    monkeypatch.setattr(matrices, "_laurent_reduce", spying(matrices._laurent_reduce))
    monkeypatch.setattr(LaurentPoly, "try_divide", spying(LaurentPoly.try_divide))
    monkeypatch.setattr(RationalPoly, "divmod", spying(RationalPoly.divmod))
    return seen, cleared


class TestUnitKernel:
    """A unit pivot is cleared by products with the pivot's inverse, not by
    ring divisions; the inverse of a Laurent unit is read off its one term
    (`LaurentPoly.unit_normalize`)."""

    def test_round_suite_attempts_divide_nothing_at_unit_pivots(self, monkeypatch):
        seen, cleared = spy_unit_divisions(monkeypatch)
        outcomes = Counter()
        for _, spec, ring in harness._round_instances(8):
            if ring != "laurent":
                continue
            try:
                M = harness.family_matrix_for_ring(spec, ring)[0]
            except DomainError:
                continue
            plain = laurent_smith_attempt(M, transforms=False)
            full = laurent_smith_attempt(M, transforms=True)
            assert (plain.outcome, plain.iterations) == (full.outcome, full.iterations)
            outcomes[full.outcome] += 1
            if full.success:
                assert full.smith.verify(M)
                assert plain.smith.diagonal == full.smith.diagonal
        assert outcomes == {"success": 161, "witnessed": 6}
        assert seen["divisions"] == 0 and cleared["laurent"] > 3000

    def test_seeded_pid_forms_divide_nothing_at_unit_pivots(self, monkeypatch):
        seen, cleared = spy_unit_divisions(monkeypatch)
        rng = random.Random(3201)
        for ring in ("z", "qpoly"):
            for _ in range(80):
                M = sparse_ring_matrix(rng, ring, rng.randint(0, 6), rng.randint(0, 6))
                form = smith_normal_form(M, verify=True)
                assert _smith_diagonal(M) == form.diagonal
        assert seen["divisions"] == 0
        assert cleared["z"] > 100 and cleared["qpoly"] > 100

    def test_monomial_path_equals_the_general_rule(self):
        def general(f):
            # lowest exponent out, then the sign of the top coefficient
            k, sign = f.min_exp, 1 if f.leading_coeff() > 0 else -1
            return sign, k, LaurentPoly({e - k: sign * c for e, c in f.items()})

        ring = matrices.ring_adapter("laurent")
        rng = random.Random(3202)
        monomials = units = 0
        for _ in range(600):
            f = LaurentPoly({rng.randint(-6, 6): rng.choice((1, -1, 1, -1, 2, -3, 7, -(1 << 80)))
                             for _ in range(rng.choice((1, 1, 2, 3)))})
            sign, exp, g = general(f)
            assert f.unit_normalize() == (sign, exp, g) and f.normal() == g
            u = LaurentPoly.q_power(-exp, sign)
            assert ring.unit_and_normal(f) == (u, g) and u * f == g
            monomials += len(f.items()) == 1
            if g.is_one():
                units += 1
                assert f * u == LaurentPoly.one()
        assert monomials > 250 and units > 100


class TestDeterminantalDivisors:
    def test_examples(self):
        assert determinantal_divisors(Z([[2, 0], [0, 6]])) == [2, 12]
        assert determinantal_divisors(ExactMatrix.diagonal([1] * 2)) == [1, 1]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            determinantal_divisors(ExactMatrix.diagonal([1] * 7))

    def test_matches_snf_products(self):
        rng = random.Random(21)
        for _ in range(25):
            M = random_int_matrix(rng, 4, 4)
            dd = determinantal_divisors(M)
            form = smith_normal_form(M)
            for k in range(1, len(dd) + 1):
                assert prod(form.diagonal[:k]) == dd[k - 1]


class TestFourier:
    def test_trivial_and_two_point(self):
        U = fourier_duality_matrix(Z([[1]]))
        assert len(U) == 1 and abs(U[0][0] - 1) < 1e-12
        U = fourier_duality_matrix(Z([[2]]))
        assert len(U) == 2
        import math

        s = 1 / math.sqrt(2)
        assert abs(U[0][0] - s) < 1e-12
        assert abs(U[1][1] + s) < 1e-12

    def test_unitarity_random(self):
        rng = random.Random(13)
        done = 0
        while done < 20:
            M = random_int_matrix(rng, 2, 2, -4, 4)
            d = determinant(M)
            if d == 0 or abs(d) > 12:
                continue
            U = fourier_duality_matrix(M)
            assert unitarity_defect(U) < 1e-9
            done += 1

    def test_guard_and_singular(self, monkeypatch):
        # |det M| is the product of the Smith diagonal: no binding of
        # `determinant` is called, and both refusals keep their type and text
        calls = []
        real = matrices.determinant
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kasteleyn" and getattr(module, "determinant", None) is real:
                monkeypatch.setattr(module, "determinant", lambda M: calls.append(M) or real(M))
        with pytest.raises(DomainError, match=r"^fourier duality needs a nonsingular matrix$"):
            fourier_duality_matrix(Z([[0]]))
        with pytest.raises(DomainError, match=r"^fourier duality needs a nonsingular matrix$"):
            fourier_duality_matrix(Z([[1, 2], [2, 4]]))
        with pytest.raises(GuardExceeded,
                           match=r"^\|det\| = 100 exceeds the cokernel enumeration guard 64$"):
            fourier_duality_matrix(Z([[100]]))
        with pytest.raises(GuardExceeded, match=r"^\|det\| = 65 exceeds"):
            fourier_duality_matrix(Z([[65]]))
        assert len(fourier_duality_matrix(Z([[2, 1], [0, -4]]))) == 8
        assert len(fourier_duality_matrix(aztec_matrix_closed_form(3))) == 64
        assert calls == []

    def test_matches_reference_random(self):
        # exact list equality: the phase k/e and the reference's Fraction
        # phase round to the same float
        rng = random.Random(1301)
        done = 0
        while done < 120:
            n = rng.randint(1, 4)
            M = random_int_matrix(rng, n, n, -6, 6)
            d = determinant(M)
            if d == 0 or abs(d) > 64:
                continue
            assert fourier_duality_matrix(M) == fourier_reference(M), M.entries
            done += 1

    def test_matches_reference_signed_and_shuffled_families(self):
        box2, _ = family_matrix(FamilySpec("ppbox", 2, 2, 2))
        for X in (aztec_matrix_closed_form(3), box2):
            for seed in range(3):
                S = signed_shuffled(X, random.Random(seed))
                U = fourier_duality_matrix(S)
                assert len(U) == abs(determinant(S))
                assert U == fourier_reference(S)
                assert unitarity_defect(U) < 1e-9

    def test_matches_reference_small_sizes(self):
        U = fourier_duality_matrix(Z([]))
        assert U == fourier_reference(Z([])) == [[1 + 0j]]
        for d in range(1, 13):
            for sign in (1, -1):
                M = Z([[sign * d]])
                assert fourier_duality_matrix(M) == fourier_reference(M)

    def test_builds_no_transforms(self, monkeypatch):
        flags = []

        class Spy(matrices._Workspace):
            def __init__(self, M, transforms=True):
                flags.append(transforms)
                super().__init__(M, transforms)

        monkeypatch.setattr(matrices, "_Workspace", Spy)
        fourier_duality_matrix(aztec_matrix_closed_form(3))
        fourier_duality_matrix(Z([[2, 1], [0, 4]]))
        assert flags and not any(flags)


def signed_shuffled(M, rng):
    """D1 * P * M * Q * D2 for random signs D1, D2 and permutations P, Q."""
    r, c = list(range(M.rows)), list(range(M.cols))
    rng.shuffle(r)
    rng.shuffle(c)
    rs = [rng.choice((1, -1)) for _ in r]
    cs = [rng.choice((1, -1)) for _ in c]
    return Z([[rs[i] * cs[j] * M[r[i], c[j]] for j in range(M.cols)]
              for i in range(M.rows)])


class TestTextFormat:
    def test_roundtrip(self):
        M = Z([[1, -2], [3, 0]])
        assert parse_matrix(write_matrix(M)) == M
        L = LQ([["1-2*q+q^3", "q^-1+1"], ["0", "5"]])
        assert parse_matrix(write_matrix(L)) == L

    def test_qpoly_roundtrip(self):
        rng = random.Random(14)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = ExactMatrix.from_rows(
                [[RationalPoly([rng.choice((0, 1, -1, rng.randint(-20, 20),
                                            Fraction(rng.randint(-20, 20), rng.randint(1, 12))))
                                for _ in range(rng.randint(0, 5))])
                  for _ in range(n)] for _ in range(m)],
                "qpoly")
            assert parse_matrix(write_matrix(M)) == M

    def test_qpoly_strings(self):
        # Q[q] entries are written compact, with n/d coefficients
        M = ExactMatrix.from_rows(
            [[RationalPoly((Fraction(1, 2), 0, -3)), RationalPoly((0, Fraction(-3, 4)))],
             [RationalPoly((1, 1)), RationalPoly(())]],
            "qpoly")
        text = "2 2 qpoly\n1/2-3*q^2 -3/4*q\n1+q 0\n"
        assert write_matrix(M) == text
        assert parse_matrix(text) == M

    def test_bool_entries_are_stored_as_int(self):
        M = ExactMatrix.from_rows([[True, 0], [0, False]], "z")
        assert all(type(x) is int for row in M.entries for x in row)
        assert write_matrix(M) == "2 2 z\n1 0\n0 0\n"
        assert parse_matrix(write_matrix(M)) == M == Z([[1, 0], [0, 0]])

    def test_integers_past_the_digit_limit(self):
        # Decimal converts ints exactly and without the int <-> str limit
        rng = random.Random(1703)
        for digits in (1, 599, 600, 601, 1201, 4300, 4301, 20000, 45000):
            for x in (10 ** (digits - 1), 10 ** digits - 1,
                      rng.randrange(10 ** (digits - 1), 10 ** digits)):
                for y in (x, -x):
                    text = str(Decimal(y))
                    assert matrices._IntRing.to_str(y) == text
                    assert matrices._IntRing.parse(text) == y
        assert matrices._IntRing.parse("+" + "0" * 5000 + "17") == 17

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int <-> str digit limit")
    def test_integers_under_the_least_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rng = random.Random(1704)
            for digits in (542, 543, 640, 641, 1204, 1205, 45000):
                x = rng.randrange(10 ** (digits - 1), 10 ** digits)
                for y in (x, -x):
                    text = matrices._IntRing.to_str(y)
                    assert text == str(Decimal(y))
                    assert matrices._IntRing.parse(text) == y
            M = Z([[x, 1], [-x, 0]])
            assert parse_matrix(write_matrix(M)) == M
        finally:
            sys.set_int_max_str_digits(limit)

    def test_polynomials_and_groups_past_the_digit_limit(self):
        # 5000 digits: Decimal writes them without the int <-> str limit
        big = random.Random(1706).randrange(10 ** 4999, 10 ** 5000)
        text = str(Decimal(big))
        f = LaurentPoly({0: big, 1: 1})
        assert format_laurent(f) == f"{text} + q"
        assert parse_laurent(f"{text} + q") == f
        # exponents too, sign included
        g = LaurentPoly({-big: 1, 0: 1, big: -7})
        assert format_laurent(g, compact=True) == f"q^-{text}+1-7*q^{text}"
        assert parse_laurent(f"q^-{text} + 1 - 7*q^{text}") == g
        p = RationalPoly([Fraction(3 * big + 1, 3), Fraction(1, big), -big])
        assert p.to_str() == f"{Decimal(3 * big + 1)}/3 + 1/{text}*q - {text}*q^2"
        assert RationalPoly.parse(p.to_str()) == p
        for M in (ExactMatrix.from_rows([[f, -f], [g, 1]], "laurent"),
                  ExactMatrix.from_rows([[p, 1]], "qpoly")):
            assert parse_matrix(write_matrix(M)) == M
        c = cokernel_of(Z([[big]]))
        assert c.torsion_strings() == [text]
        assert c.group_str() == f"Z/{text}"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int <-> str digit limit")
    def test_every_ring_under_the_least_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            x = random.Random(1707).randrange(10 ** 4999, 10 ** 5000)
            for M in (Z([[x, 1], [-x, 0]]),
                      ExactMatrix.from_rows([[LaurentPoly({-1: x, 2: -x}), 1]], "laurent"),
                      ExactMatrix.from_rows(
                          [[RationalPoly([Fraction(7 * x + 1, 7), 0, Fraction(-1, x)]), x]],
                          "qpoly")):
                assert parse_matrix(write_matrix(M)) == M
        finally:
            sys.set_int_max_str_digits(limit)

    def test_transforms_past_the_digit_limit(self):
        # a unimodular matrix whose witness must carry its 45,000-digit entry
        big = random.Random(1705).randrange(10 ** 44999, 10 ** 45000)
        M = Z([[1, big], [0, 1]])
        form = smith_normal_form(M, verify=True)
        rep = smith_report(M, include_transforms=True)
        for T, rows in ((form.left, rep["left"]), (form.right, rep["right"])):
            assert rows == [[str(Decimal(x)) for x in row] for row in T.entries]
            assert parse_matrix(write_matrix(T)) == T
        assert max(abs(x) for row in form.right.entries for x in row) == big

    def test_report_fields(self):
        rep = smith_report(Z([[2, 0], [0, 6]]))
        assert rep["invariant_factors"] == ["2", "6"]
        assert rep["free_rank"] == 0
        assert rep["ring"] == "z"
        assert "schema_version" in rep
        full = smith_report(Z([[2, 4], [6, 2]]), include_transforms=True)
        assert full["invariant_factors"] == ["2", "10"]
        assert full["left"] and full["right"]


class TestKronAndHelpers:
    def test_kron(self):
        A = Z([[1, 2]])
        B = Z([[0, 1], [1, 0]])
        K = A.kron(B)
        assert K == Z([[0, 1, 0, 2], [1, 0, 2, 0]])

    @pytest.mark.parametrize("ring", ["z", "laurent", "qpoly"])
    def test_kron_matches_dense_reference(self, ring):
        rng = random.Random(1903)
        shapes = [(0, 2, 3, 1), (2, 0, 1, 3), (2, 3, 0, 2), (3, 1, 2, 0), (0, 0, 0, 0),
                  (1, 1, 1, 1)]
        shapes += [tuple(rng.randint(1, 4) for _ in range(4)) for _ in range(20)]
        for m, n, p, r in shapes:
            A = sparse_ring_matrix(rng, ring, m, n)
            B = sparse_ring_matrix(rng, ring, p, r)
            K = A.kron(B)
            assert (K.rows, K.cols) == (m * p, n * r)
            assert K == kron_reference(A, B)
            assert_as_validated(K)

    def test_alternating_detection(self):
        assert Z([[0, 5], [-5, 0]]).is_alternating()
        assert not Z([[0, 5], [5, 0]]).is_alternating()
        assert not Z([[1, 5], [-5, 0]]).is_alternating()

    def test_diagonal_with_too_many_values(self):
        with pytest.raises(DomainError):
            ExactMatrix.diagonal([1, 2, 3], "z", shape=(2, 2))
        with pytest.raises(DomainError):
            ExactMatrix.diagonal([1, 2], "z", shape=(3, 1))
        assert ExactMatrix.diagonal([5], "z", shape=(2, 3)) == Z([[5, 0, 0], [0, 0, 0]])


def random_ring_matrix(rng, ring, m, n):
    """Seeded m x n matrix over `ring` with small entries, about a third zero."""
    def entry():
        if rng.random() < 0.3:
            return 0
        if ring == "z":
            return rng.randint(-9, 9)
        if ring == "laurent":
            return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
        return RationalPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3))])
    return ExactMatrix(m, n, ring, [[entry() for _ in range(n)] for _ in range(m)])


def assert_as_validated(P):
    """P's entries are exactly what the validating constructor makes of them."""
    assert type(P.entries) is tuple and all(type(r) is tuple for r in P.entries)
    V = ExactMatrix(P.rows, P.cols, P.ring, P.entries)
    assert V == P
    assert [list(map(type, r)) for r in V.entries] == [list(map(type, r)) for r in P.entries]


class TestProducersWithoutCoerce:
    """transpose, negation, sum, product, kron, diagonal, the
    workspace transforms, `map_ring`, the adjacency matrices and the row
    shifts of `harness._without_negative_exponents` skip `coerce` (or
    coerce only nonzero images); their entries must still be the canonical
    ring elements the validating constructor gives."""

    @pytest.mark.parametrize("ring", ["z", "laurent", "qpoly"])
    def test_producers_match_validating_constructor(self, ring):
        rng = random.Random(1302)
        ad = matrices.ring_adapter(ring)
        for _ in range(12):
            m, k, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            A = random_ring_matrix(rng, ring, m, k)
            B = random_ring_matrix(rng, ring, k, n)
            C = random_ring_matrix(rng, ring, m, k)
            products = [A.transpose(), -A, A + C, A - C, A * B, A.kron(B),
                        ExactMatrix.diagonal([ad.one, ad.zero, A[0, 0] if m and k else 7][:min(m, n)],
                                             ring, shape=(m, n))]
            ws = matrices._Workspace(random_ring_matrix(rng, ring, m, m))
            matrices._smith(ws, max_steps=50)
            products += ws.transforms()
            if ring == "z":
                products += [A.to_qpoly(), A.map_ring("laurent", LaurentPoly.coerce)]
            elif ring == "laurent":
                products.append(A.specialize_q(-1))
            for P in products:
                assert_as_validated(P)
            assert A * B == ExactMatrix(m, n, ring, [
                [sum((A[i, t] * B[t, j] for t in range(k)), ad.zero) for j in range(n)]
                for i in range(m)])
            assert A.transpose().transpose() == A

    def test_adjacency_matrices(self):
        spec = FamilySpec("ppbox", 2, 2, 2)
        hexagon = build_hexagon_graph(2, 2, 2)
        weighted = apply_q_weights(hexagon, spec, "cube")
        for G in (hexagon, weighted):
            P = adjacency_matrix(kasteleyn_percus_sign(G), "bipartite")
            assert P.ring == G.ring()
            assert_as_validated(P)
        for G in (build_aztec_graph(2), weighted):
            A = adjacency_matrix(kasteleyn_orient(G), "alternating")
            assert A.ring == G.ring() and A.is_alternating()
            assert_as_validated(A)

    def test_rows_without_negative_exponents(self):
        M = LQ([["q^-2", "1", "0"], ["q", "q^-1 + 2", "3"], ["0", "-q^-1", "1 + q"]])
        A = LQ([["0", "q^-1", "2"], ["-q^-1", "0", "q"], ["-2", "-q", "0"]])
        for P, kind in ((M, "M"), (A, "A")):
            S = harness._without_negative_exponents(P, kind)
            assert_as_validated(S)
            assert all(x.is_zero() or x.min_exp >= 0 for row in S.entries for x in row)
        assert harness._without_negative_exponents(A, "A").is_alternating()

    def test_verify_on_z_and_qpoly(self):
        rng = random.Random(1303)
        for ring in ("z", "qpoly"):
            for _ in range(8):
                m, n = rng.randint(1, 4), rng.randint(1, 4)
                M = random_ring_matrix(rng, ring, m, n)
                form = smith_normal_form(M, verify=True)
                assert form.verify(M)
                assert_as_validated(form.left)
                assert_as_validated(form.right)


def sparse_ring_matrix(rng, ring, m, n):
    """Seeded m x n matrix over `ring`, each entry zero with probability 0.6."""
    def entry():
        if rng.random() < 0.6:
            return 0
        if ring == "z":
            return rng.choice((1, -1, rng.randint(-99, 99), rng.getrandbits(200)))
        if ring == "laurent":
            return LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(3)})
        return RationalPoly([rng.choice((0, rng.randint(-5, 5),
                                         Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
                             for _ in range(rng.randint(1, 4))])
    return ExactMatrix(m, n, ring, [[entry() for _ in range(n)] for _ in range(m)])


class TestSparseProduct:
    """`ExactMatrix.__mul__` adds only the products of nonzero entries; it
    must agree entry for entry with the dense row-by-column sums."""

    @pytest.mark.parametrize("ring", ["z", "laurent", "qpoly"])
    def test_matches_dense_product(self, ring):
        rng = random.Random(1701)
        shapes = [(0, 3, 4), (3, 4, 0), (2, 0, 3), (0, 0, 0), (1, 1, 1), (1, 5, 1), (5, 1, 5)]
        shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(25)]
        zeros = total = 0
        for m, k, n in shapes:
            A = sparse_ring_matrix(rng, ring, m, k)
            B = sparse_ring_matrix(rng, ring, k, n)
            P = A * B
            assert (P.rows, P.cols) == (m, n)
            assert P == dense_product(A, B)
            assert_as_validated(P)
            zeros += sum(x == 0 for M in (A, B) for row in M.entries for x in row)
            total += A.rows * A.cols + B.rows * B.cols
        assert zeros >= total / 2


def forged(form, M, side, c):
    """`form` with the last row of L (side "left") or the last column of R
    scaled by c, and its diagonal replaced by that of L' * M * R': the
    product check passes, while det L' (or det R') is c times a unit."""
    m, n = form.shape
    ad = matrices.ring_adapter(form.ring)
    L, R = form.left, form.right
    if side == "left":
        L = ExactMatrix.diagonal([ad.one] * (m - 1) + [c], form.ring) * L
    else:
        R = R * ExactMatrix.diagonal([ad.one] * (n - 1) + [c], form.ring)
    D = L * M * R
    fake = SmithForm(form.ring, form.shape, [D[i, i] for i in range(min(m, n))], L, R)
    assert D == fake.diagonal_matrix()
    return fake


def ring_form(M):
    if M.ring != "laurent":
        return smith_normal_form(M, verify=True)
    out = laurent_smith_attempt(M)
    assert out.success
    assert out.smith.verify(M)
    return out.smith


# over each ring: a nonsingular square M (the route through det M), a
# singular square M and two non-square ones (the route through det L and
# det R), with a factor c that is no unit there (2 is a unit of Q[q]); the
# qpoly cases are written as Laurent text and mapped by `to_qpoly`
FORGERY_CASES = {
    "z": (2, [Z([[2, 1, 0], [1, 3, 1], [0, 1, 4]]),
              Z([[1, 2, 0], [2, 4, 0], [0, 1, 3]]),
              Z([[1, 2, 3], [4, 5, 6]]),
              Z([[1, 2], [3, 4], [5, 7]])]),
    "qpoly": (RationalPoly((0, 1)), [LQ([["1 + q", "q"], ["2", "q^2"]]),
                                     LQ([["1", "q"], ["q", "q^2"]]),
                                     LQ([["q", "1", "0"], ["0", "q", "1 + q"]]),
                                     LQ([["1"], ["q"]])]),
    "laurent": (LaurentPoly.const(2), [LQ([["1", "q"], ["q^-1", "2 + q"]]),
                                       LQ([["1", "q"], ["q^-1", "1"]]),
                                       LQ([["q", "1", "0"], ["0", "q^-1", "1 + q"]]),
                                       LQ([["1 + q"], ["q"]])]),
}


class TestForgedWitnesses:
    """A witness whose L * M * R is the claimed diagonal but whose L or R
    is not unimodular must be refused, by either route of `verify`."""

    @pytest.mark.parametrize("ring", ["z", "qpoly", "laurent"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_smith_form(self, ring, side):
        c, cases = FORGERY_CASES[ring]
        for M in cases:
            if ring == "qpoly":
                M = M.to_qpoly()
            fake = forged(ring_form(M), M, side, c)
            with pytest.raises(AssertionError, match="not a unit"):
                fake.verify(M)

    @pytest.mark.parametrize("ring", ["z", "qpoly", "laurent"])
    def test_short_diagonal(self, ring):
        """A diagonal shorter than min(m, n) is padded with zeros in the
        form, so det D = 0 there: with M = I, L = I and R = diag(1, 0),
        L * M * R is the padded form of (1,), and R is singular."""
        ad = matrices.ring_adapter(ring)
        I = ExactMatrix.diagonal([1] * 2, ring)
        R = ExactMatrix.diagonal([ad.one, ad.zero], ring)
        fake = SmithForm(ring, (2, 2), [ad.one], I, R)
        assert I * I * R == fake.diagonal_matrix()
        with pytest.raises(AssertionError, match="not a unit"):
            fake.verify(I)
        # a short diagonal with unimodular transforms still passes
        assert SmithForm(ring, (2, 2), [ad.one], I, I).verify(R)

    def test_routes(self, monkeypatch):
        """One determinant, of M, when M is square and nonsingular; else
        those of L and R (after det M = 0 for a square M)."""
        seen = []
        real = matrices.determinant
        monkeypatch.setattr(matrices, "determinant", lambda X: seen.append(X) or real(X))
        for M in FORGERY_CASES["z"][1]:
            form = smith_normal_form(M)
            seen.clear()
            assert form.verify(M)
            if M.rows != M.cols:
                assert seen == [form.left, form.right]
            elif real(M) == 0:
                assert seen == [M, form.left, form.right]
            else:
                assert seen == [M]

    def test_alternating_routes(self, monkeypatch):
        """One determinant, of A, when det A != 0; else also that of B."""
        seen = []
        real = matrices.determinant
        monkeypatch.setattr(matrices, "determinant", lambda X: seen.append(X) or real(X))
        for A in (Z([[0, 2], [-2, 0]]), Z([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])):
            form = alternating_smith_form(A)
            seen.clear()
            assert form.verify(A)
            assert seen == ([A] if A.rows == 2 else [A, form.transform])

    @pytest.mark.parametrize("size", [4, 5])
    def test_alternating_form(self, size):
        rng = random.Random(1702 + size)
        cases = [random_alternating(rng, size)]
        if size == 4:
            cases.append(Z([[0, 1, 2, 0], [-1, 0, 3, 0], [-2, -3, 0, 0], [0, 0, 0, 0]]))
        for A in cases:
            form = alternating_smith_form(A, verify=True)
            n = form.n
            B = form.transform * ExactMatrix.diagonal([1] * (n - 1) + [2], "z")
            K = B.transpose() * A * B
            entries = [K[2 * i, 2 * i + 1] for i in range(n // 2)]
            fake = matrices.AltSmithForm("z", n, entries, B)
            assert K == fake.block_matrix()
            with pytest.raises(AssertionError, match="not unimodular"):
                fake.verify(A)

    def test_alternating_short_blocks(self):
        """Blocks past the given entries are zero in the form, so det K = 0
        there: a singular B that meets only the first block is refused."""
        J = [[0, 1], [-1, 0]]
        A = Z([J[0] + [0, 0], J[1] + [0, 0], [0, 0] + J[0], [0, 0] + J[1]])
        B = ExactMatrix.diagonal([1, 1, 0, 0], "z")
        fake = matrices.AltSmithForm("z", 4, [1], B)
        assert B.transpose() * A * B == fake.block_matrix()
        with pytest.raises(AssertionError, match="not unimodular"):
            fake.verify(A)
        # short block entries with a unimodular B still pass
        assert matrices.AltSmithForm("z", 4, [1], ExactMatrix.diagonal([1] * 4)).verify(
            A * ExactMatrix.diagonal([1, 1, 0, 0], "z"))
