import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import pinned
from kasteleyn import cli, harness, matrices
from kasteleyn.cli import main
from kasteleyn.families import FamilySpec, jacobi_trudi
from kasteleyn.harness import (
    conjecture_suite,
    family_matrix_for_ring,
    run_report,
    verify_theorems,
)
from kasteleyn.graphs import MatchingSet, graph_from_json
from kasteleyn.matrices import (CokernelDescriptor, ExactMatrix, StableInvariants, cokernel_of,
                                parse_matrix)
from kasteleyn.rings import DomainError, RationalPoly, parse_laurent, q_integer


class TestRunReport:
    def test_box_222_integers(self):
        rec = run_report(FamilySpec(variant="ppbox", a=2, b=2, c=2), "z")
        assert rec.invariant_factors == ["2", "10"]
        assert rec.free_rank == 0
        assert rec.oracle_check == "holds"
        assert rec.oracle_count == 20
        assert rec.round_verdict == "holds"
        # the tau quotient, through the split surgery: an alternating matrix
        # whose invariant factors multiply to the square of its 10 matchings
        rec = run_report(FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau"), "z")
        assert (rec.invariant_factors, rec.oracle_check, rec.oracle_count) == (
            ["10", "10"], "holds", 10)

    def test_aztec_4(self):
        rec = run_report(FamilySpec(variant="aztec", n=4), "z")
        assert rec.invariant_factors == ["2", "4", "8", "16"]
        assert rec.oracle_check == "holds"

    def test_box_222_laurent(self):
        two_q2 = parse_laurent("1 + q^2")
        for q_mode in ("none", "cube"):
            rec = run_report(FamilySpec(variant="ppbox", a=2, b=2, c=2, q_mode=q_mode), "laurent")
            assert [parse_laurent(s) for s in rec.invariant_factors] == [
                two_q2, two_q2 * q_integer(5)
            ]
            assert rec.round_verdict == "holds"
            assert rec.squarefree_verdict == "holds"
            assert rec.oracle_check == "holds"

    def test_oracle_skipped_above_its_guard(self):
        # the box 4x4x4 has 96 vertices, above the 64 the report's oracle counts
        rec = run_report(FamilySpec(variant="ppbox", a=4, b=4, c=4), "z")
        assert (rec.rows, rec.oracle_check, rec.oracle_count) == (48, "skipped", None)
        assert rec.round_verdict == "holds"

    def test_impossible_oracle(self):
        spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2,
                          group="tau", wrong_parity=True)
        rec = run_report(spec, "z")
        assert rec.oracle_check in ("holds", "skipped")

    def test_stuck_laurent_attempt_is_inconclusive(self):
        # the heuristic stops at a blocking pair, which proves nothing about
        # the existence of a Smith form: the pair is kept in the notes only
        spec = FamilySpec(variant="ppbox-impossible", a=2, b=2, c=2, group="tau",
                          q_mode="cube", wrong_parity=True)
        rec = run_report(spec, "laurent")
        assert (rec.round_verdict, rec.squarefree_verdict) == ("inconclusive", "inconclusive")
        assert rec.notes["normal_form"] == "witnessed"
        assert rec.notes["witness"][0] == "2 + 6*q - 4*q^2 + 4*q^3"
        [v] = [v for v in conjecture_suite("round", 6)
               if v.instance["label"] == "A'_tau(2,2,2;q)"]
        assert v.verdict == "inconclusive" and v.witness == {"notes": rec.notes}

    def test_q0_specialization(self):
        rec = run_report(FamilySpec(variant="ppbox", a=2, b=2, c=2), "z@q0", q0=-1)
        assert rec.invariant_factors == ["2", "2"]

    def test_q0_oracle_uses_weighted_total(self):
        # the product of the invariant factors of M(q0), det M(q0) up to
        # +-q0^k, against the weighted matching total at q0 (squared for the
        # alternating tau quotient), not the plain count
        box222 = FamilySpec(variant="ppbox", a=2, b=2, c=2, q_mode="cube")
        box123 = FamilySpec(variant="ppbox", a=1, b=2, c=3, q_mode="cube")
        tau222 = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        cases = [(box222, -1, 20), (box222, 2, 20), (box222, 3, 20),
                 (box123, -1, 10), (box123, 2, 10), (box123, 3, 10),
                 (tau222, -1, 10)]
        for spec, q0, count in cases:
            rec = run_report(spec, "z@q0", q0=q0)
            assert (rec.oracle_check, rec.oracle_count) == ("holds", count), (spec, q0)
        assert run_report(box222, "z@q0", q0=0).oracle_check == "skipped"

    def test_q0_of_a_build_without_q_weights(self):
        # the kappa quotient of (1,1,2) has no finite face, so its q-weighted
        # build is an integer matrix: its own value at every q0
        for q_mode in ("none", "cube"):
            spec = FamilySpec(variant="ppbox-quotient", a=1, b=1, c=2,
                              group="kappa", q_mode=q_mode)
            laurent, _, _ = family_matrix_for_ring(spec, "laurent")
            for q0 in (-1, 2, 3):
                M, kind, _ = family_matrix_for_ring(spec, "z@q0", q0)
                assert M.ring == "z" and kind == "A"
                assert M == laurent.specialize_q(q0)
            rec = run_report(spec, "z@q0", q0=2)
            assert (rec.free_rank, rec.invariant_factors) == (0, [])
            assert (rec.oracle_check, rec.oracle_count) == ("holds", 1)

    def test_negative_exponents_reach_q0_and_qpoly(self):
        # the tau quotient's Laurent matrix has negative exponents; its rows
        # (and, as it is alternating, its columns) are shifted up first
        tau222 = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        for q0 in (0, 2, 3):
            rec = run_report(tau222, "z@q0", q0=q0)
            want = "skipped" if q0 == 0 else "holds"
            assert (rec.oracle_check, rec.oracle_count) == (want, 10), q0
        laurent = run_report(tau222, "laurent")
        qpoly = run_report(tau222, "qpoly")
        assert qpoly.free_rank == laurent.free_rank == 0
        assert [parse_laurent(f) for f in qpoly.invariant_factors] == [
            parse_laurent(f) for f in laurent.invariant_factors]
        M, kind, _ = family_matrix_for_ring(tau222, "qpoly")
        assert kind == "A" and M.is_alternating()

    def test_negative_exponent_shift(self):
        def LQ(rows):
            return ExactMatrix.from_rows([[parse_laurent(x) for x in r] for r in rows], "laurent")

        shift = harness._without_negative_exponents
        M = LQ([["q^-1", "1"], ["1", "q"]])
        assert shift(M, "M") == LQ([["1", "q"], ["1", "q"]])
        A = LQ([["0", "q^-2", "1"], ["-q^-2", "0", "q^-1"], ["-1", "-q^-1", "0"]])
        # rows and columns 0, 1, 2 gain q^2, q^2, q^1
        assert shift(A, "A") == LQ([["0", "q^2", "q^3"], ["-q^2", "0", "q^2"], ["-q^3", "-q^2", "0"]])
        box222 = FamilySpec(variant="ppbox", a=2, b=2, c=2, q_mode="cube")
        M, kind, _ = family_matrix_for_ring(box222, "laurent")
        assert shift(M, kind) is M

    def test_q0_oracle_equality_up_to_a_power(self):
        # a = +-q0^k * b; at q0 = +-1 that is |a| == |b|
        assert harness._equal_up_to_power(3100, 3100, 2)
        assert harness._equal_up_to_power(-3100 * 8, 3100, 2)
        assert harness._equal_up_to_power(3100, Fraction(3100, 16), -2)
        assert harness._equal_up_to_power(-4, 4, -1)
        assert harness._equal_up_to_power(0, 0, 2)
        assert not harness._equal_up_to_power(3100, Fraction(6200, 3), 2)
        assert not harness._equal_up_to_power(3100, 3100 * 3, 2)
        assert not harness._equal_up_to_power(4, 20, -1)
        assert not harness._equal_up_to_power(0, 20, 2)

    def test_qpoly_ring(self):
        rec = run_report(FamilySpec(variant="ppbox", a=1, b=1, c=2), "qpoly")
        assert rec.free_rank == 0


class TestOracle:
    """The matching oracle checks the invariant factors a report publishes:
    their product, 0 when the free rank is positive, against the weighted
    matching total (squared for an alternating matrix)."""

    BOX222 = FamilySpec(variant="ppbox", a=2, b=2, c=2, q_mode="cube")
    BOX122 = FamilySpec(variant="ppbox", a=1, b=2, c=2, q_mode="cube")
    TAU222 = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")

    def test_sign_flip_fails(self, monkeypatch):
        # one entry of M (and its mirror, for an alternating M) negated; over
        # the Laurent ring every such flip of box 2,2,2 leaves the attempt
        # stuck, so the Laurent case is box 1,2,2
        real = harness.family_matrix_for_ring

        def flipped(spec, ring, q0=-1, tree_seed=0):
            M, kind, G = real(spec, ring, q0, tree_seed)
            rows = M.to_lists()
            i, j = next((i, j) for i in range(M.rows) for j in range(M.cols) if rows[i][j] != 0)
            rows[i][j] = -rows[i][j]
            if kind == "A":
                rows[j][i] = -rows[j][i]
            return ExactMatrix(M.rows, M.cols, M.ring, rows), kind, G

        monkeypatch.setattr(harness, "family_matrix_for_ring", flipped)
        for spec, ring, q0 in ((self.BOX222, "z", -1), (self.BOX122, "laurent", -1),
                               (self.TAU222, "z@q0", -1), (self.TAU222, "z@q0", 2)):
            assert run_report(spec, ring, q0=q0).oracle_check == "fails", (spec, ring, q0)
        rec = run_report(self.BOX222, "laurent")
        assert (rec.oracle_check, rec.notes["normal_form"]) == ("skipped", "witnessed")

    def test_dropped_or_repeated_factor_fails(self, monkeypatch):
        # the oracle must see a normal form that loses or repeats a factor
        # (a pair of them for an alternating matrix), whether it reads them
        # through `stable_invariants` or off the Laurent attempt's diagonal
        build, stable, invariants = (harness.family_matrix_for_ring,
                                     harness.stable_invariants, harness._invariants)
        kinds = []

        def recording(*args, **kwargs):
            out = build(*args, **kwargs)
            kinds.append(out[1])
            return out

        monkeypatch.setattr(harness, "family_matrix_for_ring", recording)
        for edit in ("drop", "repeat"):
            def tampered(inv, edit=edit):
                k = 2 if kinds[-1] == "A" else 1
                factors = list(inv.factors)
                factors = factors[:-k] if edit == "drop" else factors + factors[-k:]
                return StableInvariants(inv.ring, inv.free_rank, factors)

            monkeypatch.setattr(harness, "stable_invariants", lambda M: tampered(stable(M)))
            monkeypatch.setattr(harness, "_invariants",
                                lambda *args: tampered(invariants(*args)))
            for spec, ring, q0 in ((self.BOX222, "z", -1), (self.BOX222, "laurent", -1),
                                   (self.BOX222, "z@q0", 2), (self.TAU222, "z@q0", 2),
                                   (self.TAU222, "laurent", -1)):
                rec = run_report(spec, ring, q0=q0)
                assert rec.oracle_check == "fails", (edit, spec, ring, q0)
        monkeypatch.undo()
        for spec, ring, q0 in ((self.BOX222, "z@q0", 2), (self.TAU222, "laurent", -1)):
            assert run_report(spec, ring, q0=q0).oracle_check == "holds"

    def test_no_second_elimination(self, monkeypatch):
        # neither det nor the Pfaffian runs for a report: the oracle reads
        # the invariant factors
        calls = []
        for name in ("determinant", "pfaffian"):
            real = getattr(matrices, name)
            spy = lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k)
            for module in [m for key, m in sys.modules.items() if key.startswith("kasteleyn")]:
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, spy)
        for spec in (self.BOX222, self.TAU222):
            for ring in ("z", "laurent", "z@q0", "qpoly"):
                for q0 in (-1, 2):
                    assert run_report(spec, ring, q0=q0).oracle_check in ("holds", "skipped")
        assert calls == []
        assert abs(matrices.determinant(family_matrix_for_ring(self.BOX222, "z")[0])) == 20
        assert calls == ["determinant"]

    def test_q_round_factor_skips_the_gcd(self, monkeypatch):
        # both verdicts read one factorization; a q-round factor needs no gcd
        # with its derivative
        calls = []
        real = RationalPoly.is_squarefree
        monkeypatch.setattr(RationalPoly, "is_squarefree",
                            lambda self: calls.append(self) or real(self))
        rec = run_report(self.BOX222, "laurent")
        assert (rec.round_verdict, rec.squarefree_verdict) == ("holds", "holds")
        assert calls == []


class TestReportPin:
    """Every report of the round suite at ceiling 8 (free rank, factors and
    their diagnostics, both verdicts, the oracle check and count, notes),
    and the message of each instance the report refuses, pinned by SHA-256.
    The records are built in `pinned.py`."""

    def test_round8_reports(self):
        records = pinned.report_records()
        assert (len(records), pinned.digest(records)) == pinned.REPORTS


class TestConjectureSuites:
    def test_round_small(self):
        verdicts = conjecture_suite("round", 4)
        assert verdicts
        by = {}
        for v in verdicts:
            by[v.verdict] = by.get(v.verdict, 0) + 1
        boxes = [v for v in verdicts if v.instance["label"].startswith("M(1,1,1;q)")]
        assert boxes and all(v.verdict == "holds" for v in boxes)

    def test_deterministic(self):
        a = [(v.instance["label"], v.verdict) for v in conjecture_suite("round", 4)]
        b = [(v.instance["label"], v.verdict) for v in conjecture_suite("round", 4)]
        assert a == b

    def test_sqfree_instances(self):
        labels = [v.instance["label"] for v in conjecture_suite("sqfree", 4)]
        assert labels == [
            "M(1,1,1;q)", "M(1,1,2;q)", "M_rho(1,1,1;q)", "A_tau(1,1,1;q)",
            "~A_tau(1,1,1;q)", "A_tau(2,1,1;q)", "~A_tau(2,1,1;q)",
            "~A_tau,rho(1,1,1;q)",
        ]

    def test_round_fails_carries_the_non_round_factor(self, monkeypatch):
        # 2 * 10007 appended to every integer report's factors (twice for an
        # alternating matrix, whose factors pair up): 10007 is above every
        # bound, so the verdict fails and the witness names that factor only
        real = harness.stable_invariants

        def padded(M):
            inv = real(M)
            if inv.ring != "z":
                return inv
            k = 2 if M.is_alternating() else 1
            return StableInvariants(inv.ring, inv.free_rank,
                                    tuple(inv.factors) + (2 * 10007,) * k)

        monkeypatch.setattr(harness, "stable_invariants", padded)
        verdicts = conjecture_suite("round", 4)
        fails = [v for v in verdicts if v.verdict == "fails"]
        assert [v.instance["label"] for v in fails] == [
            v.instance["label"] for v in verdicts
            if v.instance["ring"] == "z" and v.verdict != "skipped"] != []
        round_factors = 0
        for v in fails:
            factors = v.witness["factors"]
            k = factors.count("20014")
            assert k and factors[-k:] == ["20014"] * k
            round_factors += len(factors) - k
            diagnostics = v.witness["diagnostics"]
            assert len(diagnostics) == k
            assert all(d["primes"] == [2] and d["residual"] == 10007 for d in diagnostics)
        # the round factors, whose residual is 1, stay out of the witness
        assert round_factors

    def test_qm1_covers_every_tuple(self):
        verdicts = conjecture_suite("q-minus-one", 4)
        assert verdicts
        for v in verdicts:
            assert v.verdict in ("holds", "fails", "inconclusive", "skipped")
            if v.verdict == "fails":
                assert v.witness


class TestReportDeterminism:
    def test_byte_identical_modulo_duration(self):
        spec = FamilySpec(variant="ppbox", a=2, b=2, c=2)
        a = run_report(spec, "z").to_json()
        b = run_report(spec, "z").to_json()
        a.pop("duration")
        b.pop("duration")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_independent_invariants(self):
        spec = FamilySpec(variant="ppbox-quotient", a=2, b=2, c=2, group="tau")
        seen = set()
        for seed in (0, 1, 4):
            M, kind, _ = family_matrix_for_ring(spec, "z", tree_seed=seed)
            assert kind == "A"
            from kasteleyn.matrices import stable_invariants

            seen.add(stable_invariants(M))
        assert len(seen) == 1


class TestVerify:
    def test_aztec_base_case(self):
        for ceiling in (1, 6):
            summary, failures = verify_theorems("aztec", ceiling)
            assert (summary["checked"], summary["failed"], failures) == (ceiling, 0, [])

    def test_jt_small(self):
        summary, failures = verify_theorems("jt", 3)
        assert summary["failed"] == 0

    def test_unknown_suite_ids_are_refused(self):
        for run in (lambda: verify_theorems("nope"), lambda: verify_theorems("nope", 3),
                    lambda: conjecture_suite("nope"), lambda: conjecture_suite("nope", 3)):
            with pytest.raises(DomainError, match="unknown .* id 'nope'"):
                run()

    def test_the_cli_reads_the_harness_ceilings(self, monkeypatch, capsys):
        # verify aztec checks orders 1..4 and conjecture suites run to 8,
        # from the harness and from the CLI alike
        assert verify_theorems("aztec")[0]["checked"] == 4
        code, out, _ = run_cli(["verify", "--which", "aztec"], capsys)
        assert code == 0 and json.loads(out)["summary"]["checked"] == 4
        seen = []
        monkeypatch.setattr(harness, "_round_instances", lambda c: seen.append(c) or [])
        assert conjecture_suite("round") == []
        assert run_cli(["conjecture", "--id", "round"], capsys)[:2] == (0, "[]\n")
        assert seen == [8, 8]


def _wrong_on_skew_graphs(monkeypatch, wrong):
    """Make `_det_and_qpoly_invariants` return wrong(det, inv) for every
    skew-graph matrix M of the Jacobi-Trudi suite, which `family_matrix`
    builds; J and D keep theirs."""
    skew = []
    build, kernel = harness.family_matrix, harness._det_and_qpoly_invariants

    def marked(spec):
        M, kind = build(spec)
        skew.append(M)
        return M, kind

    def patched(X):
        det, inv = kernel(X)
        return wrong(det, inv) if any(X is M for M in skew) else (det, inv)

    monkeypatch.setattr(harness, "family_matrix", marked)
    monkeypatch.setattr(harness, "_det_and_qpoly_invariants", patched)


class TestVerifyFailures:
    """Each failure record of the theorem suites, forced by one wrong kernel
    result, and the exit status 1 of `verify` on it."""

    @staticmethod
    def failures_and_exit(capsys, which, ceiling):
        summary, failures = verify_theorems(which, ceiling)
        assert summary["failed"] == len(failures) > 0
        code, out, _ = run_cli(["verify", "--which", which, "--ceiling", str(ceiling)], capsys)
        assert code == 1 and json.loads(out)["summary"] == summary
        return failures

    def test_jt_determinant(self, monkeypatch, capsys):
        _wrong_on_skew_graphs(monkeypatch, lambda det, inv: (det * 2, inv))
        failures = self.failures_and_exit(capsys, "jt", 2)
        for f in failures:
            assert f["kind"] == "determinant"
            J, D, M = map(parse_laurent, f["values"])
            assert J.normal() == D.normal() and M.normal() == (2 * J).normal()

    def test_jt_invariants(self, monkeypatch, capsys):
        _wrong_on_skew_graphs(monkeypatch, lambda det, inv: (
            det, StableInvariants(inv.ring, inv.free_rank + 1, inv.factors)))
        failures = self.failures_and_exit(capsys, "jt", 2)
        for f in failures:
            assert f["kind"] == "invariants" and f["J"] == f["D"]
            assert f["M"] == (f["J"][0] + 1, f["J"][1])

    def test_aztec_every_kind(self, monkeypatch, capsys):
        # orders 1 and 2 fail each check: the closed form and the geometric
        # graph read a wrong invariant, the determinant and the count are 0
        monkeypatch.setattr(harness, "stable_invariants", lambda M: StableInvariants("z", 0, (3,)))
        monkeypatch.setattr(harness, "determinant", lambda M: 0)
        monkeypatch.setattr(harness, "enumerate_matchings",
                            lambda G, count_guard: MatchingSet(0, 0))
        failures = self.failures_and_exit(capsys, "aztec", 2)
        assert failures == [
            {"n": n, **rec} for n in (1, 2)
            for rec in ({"kind": "closed-form", "got": ["3"]}, {"kind": "determinant"},
                        {"kind": "geometric", "got": ["3"]}, {"kind": "count"})]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_snf_example(self, capsys):
        code, out, _ = run_cli(
            ["snf", "--family", "ppbox", "--a", "2", "--b", "2", "--c", "2",
             "--ring", "z"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["invariant_factors"] == ["2", "10"]

    def test_oracle_example(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--family", "aztec", "--n", "3"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 64

    def test_verify_exit_zero(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--which", "aztec", "--max-n", "4", "--format", "text"],
            capsys)
        assert code == 0

    def test_verify_max_n_spells_ceiling(self, capsys):
        outs = [run_cli(["verify", "--which", "aztec", flag, "2"], capsys)
                for flag in ("--ceiling", "--max-n")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
        assert json.loads(outs[0][1])["summary"]["checked"] == 2

    def test_usage_error_exit_two(self, capsys):
        code, _, _ = run_cli(["snf", "--ring", "bogus"], capsys)
        assert code == 2

    def test_refusals_exit_two(self, capsys):
        # the builder refuses a Delannoy graph, and a stuck Laurent attempt
        # is a DomainError too
        code, out, err = run_cli(["oracle", "--family", "delannoy", "--n", "3"], capsys)
        assert (code, out) == (2, "") and err == "error: delannoy is a matrix family; use delannoy_matrix\n"
        code, out, err = run_cli(["snf", "--family", "ppbox-impossible", "--a", "2", "--b", "2",
                                  "--c", "2", "--group", "tau", "--q-mode", "cube",
                                  "--wrong-parity", "--ring", "laurent"], capsys)
        assert (code, out) == (2, "") and err == "error: laurent normal form attempt failed: witnessed\n"

    def test_integer_options_are_plain_integers(self, capsys):
        # an integer option or a partition part is read as the matrix text
        # reads an integer: no `1_0`, no non-ASCII digit; the space around
        # a part is stripped
        base = ["report", "--family", "skew-shape", "--a", "1", "--mu", "1"]
        assert run_cli([*base, "--lam", " 2 , 1 "], capsys)[0] == 0
        for option, value, bad in (("--lam", "3,1_0", "1_0"), ("--lam", "3,\u0661", "\u0661"),
                                   ("--a", "1_0", "1_0"), ("--a", "\u0662", "\u0662"),
                                   ("--a", " 2", " 2")):
            code, out, err = run_cli([*base, option, value], capsys)
            assert (code, out) == (2, ""), (option, value)
            assert f"argument {option}: bad integer {bad!r}" in err, (option, value)

    def test_options_only_where_read(self, capsys):
        # snf ignores --format and report ignores --seed, so neither takes it
        box = ["--family", "ppbox", "--a", "1", "--b", "1", "--c", "1"]
        for argv in (["snf", *box, "--format", "csv"], ["report", *box, "--seed", "1"]):
            assert run_cli(argv[:-2], capsys)[0] == 0
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert "unrecognized arguments" in err
        # only report and conjecture write CSV; oracle and verify refuse it
        for argv in (["oracle", "--family", "aztec", "--n", "2"],
                     ["verify", "--which", "aztec", "--max-n", "2"]):
            assert run_cli(argv + ["--format", "text"], capsys)[0] == 0
            code, _, err = run_cli(argv + ["--format", "csv"], capsys)
            assert code == 2
            assert "invalid choice" in err
        code, out, _ = run_cli(["report", *box, "--format", "csv"], capsys)
        assert code == 0
        assert out.startswith("variant,")

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run_cli(
            ["build", "--family", "ppbox", "--a", "0", "--b", "1", "--c", "1"],
            capsys)
        assert code == 2
        assert "error" in err

    def test_build_roundtrip(self, capsys):
        code, out, _ = run_cli(
            ["build", "--family", "ppbox", "--a", "1", "--b", "1", "--c", "1"],
            capsys)
        assert code == 0
        G = graph_from_json(json.loads(out))
        assert G.n_vertices == 6

    def test_matrix_roundtrip(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--family", "ppbox", "--a", "1", "--b", "1", "--c", "1",
             "--ring", "laurent", "--q-mode", "cube"], capsys)
        assert code == 0
        M = parse_matrix(out)
        assert M.rows == 3 and M.ring == "laurent"

    CSV_HEADER = ("variant,a,b,c,d,e,n,group,q_mode,wrong_parity,lam,mu,ring,matrix_kind,"
                  "rows,cols,free_rank,invariant_factors,round_verdict,squarefree_verdict,"
                  "oracle_check,oracle_count")

    def test_report_csv(self, capsys):
        # the exact header and cells: lam and mu joined by spaces, the
        # invariant factors by ";", a missing oracle count left empty
        cases = [
            (["--family", "ppbox", "--a", "1", "--b", "1", "--c", "2", "--ring", "z"],
             "ppbox,1,1,2,0,0,0,1,none,False,,,z,M,5,5,0,3,holds,holds,holds,3"),
            (["--family", "skew-shape", "--lam", "3,1", "--mu", "1", "--a", "3", "--ring", "z"],
             "skew-shape,3,0,0,0,0,0,1,none,False,3 1,1,z,M,13,13,0,3;6,holds,holds,holds,18"),
            (["--family", "hex-minus-triangle", "--a", "2", "--b", "2", "--c", "2",
              "--d", "0", "--e", "1"],
             "hex-minus-triangle,2,2,2,0,1,0,1,none,False,,,z,M,11,12,0,4,holds,fails,holds,0"),
            (["--family", "delannoy", "--n", "3"],
             "delannoy,0,0,0,0,0,3,1,none,False,,,z,M,3,3,0,2;4,holds,fails,skipped,"),
        ]
        for args, row in cases:
            code, out, _ = run_cli(["report", *args, "--format", "csv"], capsys)
            assert code == 0
            assert out.splitlines() == [self.CSV_HEADER, row]

    def test_conjecture_json(self, capsys):
        code, out, _ = run_cli(
            ["conjecture", "--id", "sqfree", "--ceiling", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all("verdict" in row for row in data)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _, _ = run_cli(
            ["build", "--family", "aztec", "--n", "1", "--out", str(path)],
            capsys)
        assert code == 0
        assert graph_from_json(json.loads(path.read_text())).n_vertices == 4

    def test_coker_free_rank(self, capsys):
        code, out, _ = run_cli(
            ["coker", "--family", "ppbox-impossible", "--a", "1", "--b", "1",
             "--c", "1", "--group", "kappa"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["free_rank"] >= 1

    def test_conjecture_text_and_csv(self, capsys):
        base = ["conjecture", "--id", "round", "--ceiling", "2"]
        code, out, _ = run_cli(base + ["--format", "text"], capsys)
        assert code == 0
        assert out.splitlines() == ["holds        M([1];q_1)", 'summary: {"holds": 1}']
        code, out, _ = run_cli(base + ["--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "conjecture,instance,verdict,witness" and len(lines) == 2
        assert lines[1].startswith("round,") and lines[1].endswith(",holds,{}")

    def test_report_text(self, capsys):
        code, out, _ = run_cli(["report", "--family", "aztec", "--n", "2",
                                "--format", "text"], capsys)
        assert code == 0
        keys = [line.split(": ", 1)[0] for line in out.splitlines()]
        assert keys == sorted(keys) and "duration" not in keys
        # a string prints as it is, any other value as sorted-key JSON
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["invariant_factors"] == '["2", "4"]'
        assert lines["ring"] == "z"
        spec = json.loads(lines["spec"])
        assert FamilySpec(**spec) == FamilySpec(variant="aztec", n=2)
        assert list(spec) == sorted(spec)

    def test_coker_of_skew_shape_at_q_one(self, capsys):
        # the skew graph is a Laurent build, specialized at q = 1 for ring z;
        # Gessel-Viennot: its cokernel is that of the Jacobi-Trudi matrix at q = 1
        code, out, _ = run_cli(["coker", "--family", "skew-shape", "--lam", "3,1",
                                "--mu", "1", "--a", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["group"] == "Z/3 + Z/6"
        want = cokernel_of(jacobi_trudi((3, 1), (1,), 3).specialize_q(1))
        assert (data["free_rank"], data["torsion"]) == (
            want.free_rank, [str(t) for t in want.torsion])

    def test_coker_torsion_past_the_digit_limit(self, capsys, monkeypatch):
        big = 10 ** 5000 + 1
        monkeypatch.setattr(cli, "cokernel_of", lambda M: CokernelDescriptor(0, (2, 2 * big)))
        code, out, _ = run_cli(["coker", "--family", "ppbox", "--a", "1", "--b", "1",
                                "--c", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["torsion"] == ["2", str(Decimal(2 * big))]
        assert data["group"] == f"Z/2 + Z/{Decimal(2 * big)}"

    def test_console_script_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "kasteleyn.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "snf" in out.stdout
