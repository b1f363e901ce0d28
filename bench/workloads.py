"""Benchmark workloads: inputs built from the seed, the items timed, and the
checks applied to every output.

Each workload is a list of items.  An item is one call into the library's
public functions; items look the function up on its module at call time so
that a tracer installed later sees the call.  `check` returns the list of
problems with one output (empty when the output is right); `digest` gives a
cheap comparable value, so a later pass whose output matches an output
already checked needs no second full check.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


class Item:
    def __init__(self, id, call, check, digest=None, expect_error=None,
                 undecided=None):
        self.id = id
        self.call = call
        self.check = check
        self.digest = digest or (lambda out: out)
        self.expect_error = expect_error    # exception class name pinned as the outcome
        self.undecided = undecided          # output -> True when no exact answer


def load_json(name):
    with open(DATA / name) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# helpers shared by the checks


def binomial_gv(lib, n):
    """The Gessel-Viennot matrix [C(2n, n-i+j)] of the n x n x n box."""
    return lib.matrices.ExactMatrix.from_rows(
        [[math.comb(2 * n, n - i + j) if 0 <= n - i + j <= 2 * n else 0
          for j in range(n)] for i in range(n)], "z")


def signed_copy(lib, M, rng, shuffle=False):
    """D1 * P * M * Q * D2 with random signs D1, D2 (and, with `shuffle`,
    random row and column orders P, Q): the invariant factors are unchanged."""
    rows = M.to_lists()
    r, c = list(range(M.rows)), list(range(M.cols))
    if shuffle:
        rng.shuffle(r)
        rng.shuffle(c)
    rs = [rng.choice((1, -1)) for _ in r]
    cs = [rng.choice((1, -1)) for _ in c]
    return lib.matrices.ExactMatrix.from_rows(
        [[rs[i] * cs[j] * rows[r[i]][c[j]] for j in range(M.cols)]
         for i in range(M.rows)], "z")


def _dense(terms):
    """Dense coefficients of a Laurent polynomial given as (exp, coeff)
    pairs, shifted to start at q^0 and signed so the lowest coefficient is
    positive: the representative of its class modulo units +-q^k."""
    terms = [(e, c) for e, c in terms if c]
    if not terms:
        return []
    lo = min(e for e, _ in terms)
    hi = max(e for e, _ in terms)
    out = [0] * (hi - lo + 1)
    for e, c in terms:
        out[e - lo] += c
    if out[0] < 0:
        out = [-x for x in out]
    return out


def q_macmahon(a, b, c):
    """Dense coefficients of prod (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)) over
    the a x b x c box, by plain integer arithmetic."""
    from collections import Counter
    expo = Counter()
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                expo[i + j + k - 1] += 1
                expo[i + j + k - 2] -= 1
    poly = [1]
    for n, e in sorted(expo.items()):
        for _ in range(max(e, 0)):          # times (1 - q^n)
            out = poly + [0] * n
            for d, x in enumerate(poly):
                out[d + n] -= x
            poly = out
    for n, e in sorted(expo.items()):
        for _ in range(max(-e, 0)):         # exact division by (1 - q^n)
            out = list(poly)
            for d in range(n, len(out)):
                out[d] += out[d - n]
            if any(out[len(out) - n:]):
                raise ArithmeticError("q-MacMahon product is not a polynomial")
            poly = out[:len(out) - n]
    while poly and poly[-1] == 0:
        poly.pop()
    return _dense(enumerate(poly))


def macmahon(a, b, c):
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                out *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(out)


def same_up_to_unit(f, g):
    return _dense(f.items()) == _dense(g.items())


# ---------------------------------------------------------------------------
# conjecture-q: the run_report calls of `conjecture --id round --ceiling 8`


def _spec_size(spec):
    return (spec["a"] + spec["b"] + spec["c"] + spec["d"] + abs(spec["e"])
            + spec["n"] + sum(spec["lam"]))


def setup_conjecture_q(lib, seed, tiny):
    ref = load_json("conjecture_q.json")["items"]
    if tiny:
        ref = [r for r in ref if _spec_size(r["spec"]) <= 5]
    items = []
    for r in ref:
        spec = lib.families.FamilySpec(**r["spec"])
        items.append(Item(
            r["label"] + " @" + r["ring"],
            (lambda spec=spec, ring=r["ring"]: lib.harness.run_report(spec, ring)),
            (lambda out, r=r, spec=spec: _check_report(lib, r, spec, out)),
            digest=_report_digest,
            expect_error=r.get("error"),
            undecided=_report_undecided,
        ))
    random.Random(seed).shuffle(items)
    warm = lib.families.FamilySpec(variant="ppbox", a=1, b=1, c=2, q_mode="cube")
    return items, lambda: lib.harness.run_report(warm, "laurent")


def _report_undecided(rec):
    return rec.notes.get("normal_form") in ("witnessed", "inconclusive")


def _report_digest(rec):
    return (rec.free_rank, tuple(rec.invariant_factors), rec.round_verdict,
            rec.squarefree_verdict, rec.oracle_check, rec.oracle_count,
            rec.notes.get("normal_form"))


def _check_report(lib, ref, spec, rec):
    if ref["outcome"] == "decided":
        if _report_undecided(rec):
            return [f"{ref['label']}: decided at the reference, now {rec.notes}"]
        got = {k: getattr(rec, k) for k in
               ("free_rank", "invariant_factors", "round_verdict",
                "squarefree_verdict", "oracle_check", "oracle_count")}
        want = {k: ref[k] for k in got}
        return [] if got == want else [f"{ref['label']}: {got} != reference {want}"]
    if _report_undecided(rec):
        return []
    # undecided at the reference, decided now: the factors must multiply to
    # the determinant up to a unit
    M, _, _ = lib.harness.family_matrix_for_ring(spec, ref["ring"])
    if M.rows != M.cols:
        return [f"{ref['label']}: newly decided on a non-square matrix"]
    prod = lib.rings.LaurentPoly.one()
    for f in rec.invariant_factors:
        prod = prod * lib.rings.parse_laurent(f)
    det = lib.rings.LaurentPoly.coerce(lib.matrices.determinant(M))
    if det.is_zero():
        return [] if rec.free_rank > 0 else [f"{ref['label']}: det 0, free rank 0"]
    if rec.free_rank == 0 and same_up_to_unit(prod, det):
        return []
    return [f"{ref['label']}: newly decided factors do not multiply to det"]


# ---------------------------------------------------------------------------
# verify-jt: the Jacobi-Trudi theorem suite


def setup_verify_jt(lib, seed, tiny):
    ceiling = 3 if tiny else 6
    checked = load_json("reference.json")["jt_checked"][str(ceiling)]
    item = Item(f"verify jt {ceiling}",
                lambda: lib.harness.verify_theorems("jt", ceiling),
                lambda out: _check_summary(out, "jt", checked),
                digest=lambda out: json.dumps(out, sort_keys=True))
    return [item], lambda: lib.harness.verify_theorems("jt", 2)


def _check_summary(out, which, checked):
    summary, failures = out
    want = {"which": which, "checked": checked, "failed": 0}
    if summary != want or failures:
        return [f"verify {which}: {summary} (expected {want}), failures {failures[:3]}"]
    return []


# ---------------------------------------------------------------------------
# coker-z: integer cokernels, invariants only


def _check_coker_vs(lib, label, out, gv):
    want = lib.matrices.cokernel_of(gv)
    return [] if out == want else [f"{label}: {out.group_str()} != GV {want.group_str()}"]


def _check_coker_det(lib, label, out, M):
    det = abs(lib.matrices.determinant(M))
    order = out.order()
    return [] if order == det else [f"{label}: cokernel order {order} != |det| {det}"]


def setup_coker_z(lib, seed, tiny):
    rng = random.Random(seed)
    boxes = (3, 4) if tiny else (6, 8, 10)
    binomials = (6, 7) if tiny else (12, 13, 14, 15)
    shuffled = 6 if tiny else 12
    q1_ceiling, aztec_n = (5, 4) if tiny else (10, 10)
    items = []

    def coker_item(label, S, check):
        items.append(Item(label, lambda: lib.matrices.cokernel_of(S), check,
                          digest=lambda out: (out.free_rank, out.torsion)))

    for d in boxes:
        M, _ = lib.families.family_matrix(lib.families.FamilySpec("ppbox", d, d, d))
        coker_item(f"coker box {d}", signed_copy(lib, M, rng),
                   lambda out, d=d: _check_coker_vs(lib, f"box {d}", out, binomial_gv(lib, d)))
    for n in sorted(set(boxes) | set(binomials)):
        B = binomial_gv(lib, n)
        coker_item(f"coker binomial {n}", signed_copy(lib, B, rng),
                   lambda out, n=n, B=B: _check_coker_det(lib, f"binomial {n}", out, B))
    # one fixed row/column shuffle, the same for every seed: the z SNF's cost
    # depends strongly on row and column order (see README)
    B = binomial_gv(lib, shuffled)
    coker_item(f"coker binomial {shuffled} shuffled",
               signed_copy(lib, B, random.Random(0), shuffle=True),
               lambda out: _check_coker_det(lib, "shuffled binomial", out, B))
    verdicts = {json.dumps(v["instance"], sort_keys=True): v["verdict"]
                for v in load_json("reference.json")["q_minus_one_10"]}
    items.append(Item(f"conjecture q-minus-one {q1_ceiling}",
                      lambda: lib.harness.conjecture_suite("q-minus-one", q1_ceiling),
                      lambda out: _check_verdicts(out, verdicts, full=not tiny),
                      digest=lambda out: [(v.instance, v.verdict) for v in out]))
    items.append(Item(f"verify aztec {aztec_n}",
                      lambda: lib.harness.verify_theorems("aztec", aztec_n),
                      lambda out: _check_summary(out, "aztec", aztec_n),
                      digest=lambda out: json.dumps(out, sort_keys=True)))
    rng.shuffle(items)
    warm = binomial_gv(lib, 4)
    return items, lambda: lib.matrices.cokernel_of(warm)


def _check_verdicts(out, reference, full):
    problems = []
    seen = set()
    for v in out:
        key = json.dumps(v.instance, sort_keys=True)
        seen.add(key)
        if reference.get(key) != v.verdict:
            problems.append(f"q-minus-one {key}: {v.verdict} != {reference.get(key)}")
        elif v.verdict == "fails" and not v.witness:
            problems.append(f"q-minus-one {key}: fails without a witness")
    if full and seen != set(reference):
        problems.append(f"q-minus-one: {len(seen)} instances, reference {len(reference)}")
    return problems


# ---------------------------------------------------------------------------
# coker-witness: the same SNF layer, transforms consumed


def _check_transforms(lib, label, M, rep, gv):
    L = lib.matrices.ExactMatrix.from_rows([[int(x) for x in row] for row in rep["left"]], "z")
    R = lib.matrices.ExactMatrix.from_rows([[int(x) for x in row] for row in rep["right"]], "z")
    D = L * M * R
    diag = [D[i, i] for i in range(min(M.rows, M.cols))]
    try:
        lib.matrices.SmithForm("z", (M.rows, M.cols), diag, L, R).verify(M)
    except AssertionError as exc:
        return [f"{label}: transforms fail SmithForm.verify: {exc}"]
    problems = []
    torsion = [str(abs(d)) for d in diag if abs(d) > 1]
    if torsion != rep["invariant_factors"]:
        problems.append(f"{label}: diagonal {torsion} != reported {rep['invariant_factors']}")
    want = [str(t) for t in lib.matrices.cokernel_of(gv).torsion]
    if rep["invariant_factors"] != want:
        problems.append(f"{label}: factors {rep['invariant_factors']} != GV {want}")
    return problems


def _check_form(lib, label, form, M):
    torsion = 1
    for d in form.diagonal:
        torsion *= abs(d)
    det = abs(lib.matrices.determinant(M))
    return [] if torsion == det else [f"{label}: diagonal product {torsion} != |det| {det}"]


def _check_fourier(lib, label, U, M):
    D = abs(lib.matrices.determinant(M))
    if len(U) != D:
        return [f"{label}: {len(U)} rows, |det| = {D}"]
    defect = lib.matrices.unitarity_defect(U)
    return [] if defect < 1e-9 else [f"{label}: unitarity defect {defect}"]


def setup_coker_witness(lib, seed, tiny):
    rng = random.Random(seed)
    F = lib.families
    items = []
    for d in ((3,) if tiny else (6, 8)):
        M, _ = F.family_matrix(F.FamilySpec("ppbox", d, d, d))
        S = signed_copy(lib, M, rng)
        items.append(Item(
            f"smith_report box {d} with transforms",
            lambda S=S: lib.matrices.smith_report(S, include_transforms=True),
            lambda out, S=S, d=d: _check_transforms(lib, f"box {d}", S, out, binomial_gv(lib, d))))
    box_v = 3 if tiny else 5
    M, _ = F.family_matrix(F.FamilySpec("ppbox", box_v, box_v, box_v))
    for label, X in ((f"box {box_v}", M),
                     (f"binomial {6 if tiny else 12}", binomial_gv(lib, 6 if tiny else 12))):
        S = signed_copy(lib, X, rng)
        items.append(Item(
            f"smith_normal_form {label} verified",
            lambda S=S: lib.matrices.smith_normal_form(S, verify=True),
            lambda out, S=S, label=label: _check_form(lib, label, out, S),
            digest=lambda out: out.diagonal))
    fourier = [("box 2", F.family_matrix(F.FamilySpec("ppbox", 2, 2, 2))[0]),
               ("aztec 2" if tiny else "aztec 3", F.aztec_matrix_closed_form(2 if tiny else 3))]
    for label, X in fourier:
        S = signed_copy(lib, X, rng)
        items.append(Item(
            f"fourier_duality_matrix {label}",
            lambda S=S: lib.matrices.fourier_duality_matrix(S),
            lambda out, S=S, label=label: _check_fourier(lib, label, out, S),
            digest=lambda out: (len(out), lib.matrices.unitarity_defect(out) < 1e-9)))
    rng.shuffle(items)
    warm = binomial_gv(lib, 4)
    return items, lambda: lib.matrices.smith_normal_form(warm, verify=True)


# ---------------------------------------------------------------------------
# oracle-count: the brute-force matching oracle


def _check_box_count(a, b, c, ms):
    problems = []
    if ms.count != macmahon(a, b, c):
        problems.append(f"box {a}x{b}x{c}: count {ms.count} != {macmahon(a, b, c)}")
    if _dense(ms.total_weight.items()) != q_macmahon(a, b, c):
        problems.append(f"box {a}x{b}x{c}: weighted total is not the q-MacMahon product")
    return problems


def _check_by_matrix(lib, label, spec, ms):
    """The matching oracle against the determinant or Pfaffian of the
    family's Kasteleyn(-Percus) matrix."""
    ring = "z" if spec.q_mode == "none" else "laurent"
    M, kind, _ = lib.harness.family_matrix_for_ring(spec, ring)
    if ring == "z":
        if kind == "M":
            value = abs(lib.matrices.determinant(M))
        elif M.rows % 2:
            value = 0
        else:
            value = abs(lib.matrices.pfaffian(M))
        return [] if value == ms.count else [f"{label}: count {ms.count} != matrix {value}"]
    det = lib.matrices.determinant(M)
    total = ms.total_weight
    want = total if kind == "M" else total * total
    if det.is_zero() or want.is_zero():
        ok = det.is_zero() and want.is_zero()
    else:
        ok = same_up_to_unit(det, want)
    return [] if ok else [f"{label}: weighted total disagrees with det"]


def setup_oracle_count(lib, seed, tiny):
    F = lib.families
    items = []

    def oracle_item(label, G, check):
        items.append(Item(
            label,
            lambda: lib.graphs.enumerate_matchings(G, count_guard=G.n_vertices),
            check, digest=lambda ms: (ms.count, str(ms.total_weight))))

    boxes = ((2, 2, 2), (2, 2, 3)) if tiny else ((3, 4, 4), (3, 3, 5), (3, 3, 4), (2, 4, 5))
    for a, b, c in boxes:
        G = F.build_family_graph(F.FamilySpec("ppbox", a, b, c, q_mode="cube"))
        oracle_item(f"oracle box {a}x{b}x{c} q-weighted", G,
                    lambda ms, a=a, b=b, c=c: _check_box_count(a, b, c, ms))
    n = 3 if tiny else 5
    oracle_item(f"oracle aztec {n}", F.build_aztec_graph(n),
                lambda ms: [] if ms.count == 2 ** (n * (n + 1) // 2)
                else [f"aztec {n}: count {ms.count}"])
    dims = (2, 1, 1) if tiny else (4, 3, 3)
    kdims = (2, 2, 2) if tiny else (4, 4, 4)
    polygamous = [
        ("tau quotient", F.FamilySpec("ppbox-quotient", *dims, group="tau")),
        ("tau impossible wrong-parity orbit",
         F.FamilySpec("ppbox-impossible", *dims, group="tau", q_mode="orbit", wrong_parity=True)),
        ("kappa quotient", F.FamilySpec("ppbox-quotient", *kdims, group="kappa")),
    ]
    for label, spec in polygamous:
        oracle_item(f"oracle {label}", F.build_family_graph(spec),
                    lambda ms, label=label, spec=spec: _check_by_matrix(lib, label, spec, ms))
    warm = F.build_aztec_graph(2)
    return items, lambda: lib.graphs.enumerate_matchings(warm)


WORKLOADS = {
    "conjecture-q": setup_conjecture_q,
    "verify-jt": setup_verify_jt,
    "coker-z": setup_coker_z,
    "coker-witness": setup_coker_witness,
    "oracle-count": setup_oracle_count,
}
