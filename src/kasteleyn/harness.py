"""Report pipeline, theorem verification and conjecture probes.

Non-trivial outcomes are tri-state ("holds" / "fails" / "inconclusive" /
"skipped"); failure verdicts always carry a witness that can be re-checked
standalone.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from math import prod

from kasteleyn.families import (
    FamilySpec,
    Partition,
    _decorated_matrix,
    build_family_graph,
    delannoy_matrix,
    aztec_matrix_closed_form,
    build_aztec_graph,
    build_skew_graph,
    jacobi_trudi,
)
from kasteleyn.graphs import (
    adjacency_matrix,
    enumerate_matchings,
    kasteleyn_percus_sign,
)
from kasteleyn.matrices import (
    ExactMatrix,
    _det_and_qpoly_invariants,
    determinant,
    laurent_smith_attempt,
    stable_invariants,
)
from kasteleyn.rings import (
    DomainError,
    ExactDivisionError,
    GuardExceeded,
    LaurentPoly,
    factor_q_round,
    smooth_factor,
)


RINGS = ("z", "laurent", "qpoly", "z@q0")


# ---------------------------------------------------------------------------
# factor diagnostics


def roundness_of_integer(n, bound):
    """(round, square-free, diagnostic) of an integer invariant factor, both
    read off one trial division by the primes up to `bound`: round when
    nothing is left above the bound, square-free when no prime repeats."""
    out = smooth_factor(n, bound)
    diag = {
        "kind": "smooth",
        "primes": list(out.primes),
        "residual": out.residual,
        "bound": bound,
    }
    return out.success, out.is_squarefree(), diag


def roundness_of_poly(f, bound):
    """(round, square-free, diagnostic) of a Laurent factor, both read off one
    `factor_q_round`: round when the part left after the q-integers and
    cyclotomics is a smooth integer, square-free over Q[q] when no
    cyclotomic repeats and that part is square-free."""
    qr = factor_q_round(f)
    diag = {
        "kind": "q-round",
        "factors": list(qr.factor_names()),
        "residual": str(qr.residual),
    }
    res = qr.residual
    round_ok = qr.success
    if not round_ok and res.span == 0:
        sm = smooth_factor(res.trailing_coeff(), bound)
        diag["residual_primes"] = list(sm.primes)
        diag["residual_cofactor"] = sm.residual
        round_ok = sm.success
    return round_ok, qr.is_squarefree(), diag


# ---------------------------------------------------------------------------
# report records


@dataclass
class ReportRecord:
    spec: dict
    ring: str
    matrix_kind: str
    rows: int
    cols: int
    free_rank: int
    invariant_factors: list
    factor_diagnostics: list
    round_verdict: str
    squarefree_verdict: str
    oracle_check: str
    duration: float
    oracle_count: int = None
    notes: dict = field(default_factory=dict)

    def to_json(self):
        return {"schema_version": 1, **asdict(self)}

    CSV_COLUMNS = tuple(f.name for f in fields(FamilySpec)) + (
        "ring", "matrix_kind", "rows", "cols", "free_rank", "invariant_factors",
        "round_verdict", "squarefree_verdict", "oracle_check", "oracle_count",
    )

    def to_csv_row(self):
        s = self.spec
        cells = {**s, **vars(self),
                 "lam": " ".join(map(str, s["lam"])), "mu": " ".join(map(str, s["mu"])),
                 "invariant_factors": ";".join(self.invariant_factors)}
        return [cells[c] for c in self.CSV_COLUMNS]


def _bound_for(spec):
    base = spec.a + spec.b + spec.c + abs(spec.d) + abs(spec.e) + spec.n + sum(spec.lam)
    return 2 * max(base, 2) + 1


def family_matrix_for_ring(spec, ring, q0=-1, tree_seed=0):
    """Build the family's matrix in the requested coefficient ring.  The
    tree seed varies the dual spanning tree of the decoration pass; the
    stable invariants are seed-independent (Proposition-style check)."""
    if ring not in RINGS:
        raise DomainError(f"unknown report ring {ring!r}")
    if spec.variant == "delannoy":
        if ring != "z":
            raise DomainError("the Delannoy family is an integer matrix family")
        return delannoy_matrix(spec.n), "M", None
    wants_q = ring in ("laurent", "qpoly", "z@q0")
    spec2 = spec
    if wants_q and spec.q_mode == "none" and spec.variant != "skew-shape" and spec.variant != "aztec":
        spec2 = replace(spec, q_mode="cube")
    if not wants_q and spec.q_mode != "none":
        spec2 = replace(spec, q_mode="none")
    M, kind, G = _decorated_matrix(build_family_graph(spec2), spec2.variant, tree_seed)
    if ring == "z" and M.ring == "laurent":
        M = M.specialize_q(1)
    # a build without q-weights (no finite face) is an integer matrix, its
    # own value at any q0, and goes to "z@q0" as it is
    elif ring == "z@q0" and M.ring == "laurent":
        if abs(q0) != 1:
            # q0^-1 is no integer: clear the negative exponents first
            M = _without_negative_exponents(M, kind)
        M = M.specialize_q(q0)
    elif ring == "qpoly":
        if M.ring == "laurent":
            M = _without_negative_exponents(M, kind)
        M = M.to_qpoly()
    elif ring == "laurent" and M.ring != "laurent":
        M = M.map_ring("laurent", LaurentPoly.coerce)
    return M, kind, G


def _without_negative_exponents(M, kind):
    """The Laurent matrix M with each row i whose lowest q-exponent lo_i is
    negative multiplied by q^-lo_i, and for an alternating matrix (kind "A")
    column i too, so it stays alternating.  Over Z[q, q^-1] that is a unit
    change: the invariants stay, det and the Pfaffian gain a factor q^k.
    Rows without negative exponents are left alone."""
    shifts = [max(0, -min((x.min_exp for x in row if not x.is_zero()), default=0))
              for row in M.entries]
    if not any(shifts):
        return M
    rows = [[x.shift(k) for x in row] for row, k in zip(M.entries, shifts)]
    if kind == "A":
        rows = [[x.shift(k) for x, k in zip(row, shifts)] for row in rows]
    # shifts of canonical entries are canonical
    return ExactMatrix._of_ring_elements(M.rows, M.cols, "laurent", rows)


def _oracle_status(M, inv, kind, G, q0=None):
    """(verdict, matching count or None): the reported invariants `inv` of M
    against the matching oracle of G.  Their product, or 0 when the free
    rank is positive, is det M up to a unit, and must equal the weighted
    matching total, squared for an alternating M (kind "A", det = Pf^2).
    An integer matrix specialized at q = q0 is checked against the total at
    q0, up to the unit +-q0^k it inherits from the Laurent matrix; without
    q0, against the plain count.  A non-square M must have no matching; a
    Q[q] report, whose factors are known only up to rationals, is skipped,
    and so is a graph above the oracle's default vertex guard."""
    if G is None:
        return "skipped", None
    try:
        ms = enumerate_matchings(G)
    except GuardExceeded:
        return "skipped", None
    if M.rows != M.cols:
        return ("holds" if ms.count == 0 else "fails"), ms.count
    if M.ring == "qpoly":
        return "skipped", ms.count
    value = 0 if inv.free_rank else prod(inv.factors)
    if M.ring == "z":
        if q0 == 0:
            return "skipped", ms.count
        if q0 is None:
            target, q0 = ms.count, 1
        else:
            total = ms.total_weight
            target = total.evaluate(q0) if isinstance(total, LaurentPoly) else total
        if kind == "A":
            target = target * target
        return ("holds" if _equal_up_to_power(value, target, q0) else "fails"), ms.count
    total = ms.total_weight
    if kind == "A":
        total = total * total
    return ("holds" if _equal_up_to_unit(value, total) else "fails"), ms.count


def _equal_up_to_power(a, b, q0):
    """a = +-q0^k * b for some integer k; a and b are rationals, q0 a nonzero int."""
    if not a or not b:
        return a == b
    r = abs(Fraction(a) / b)
    if r.numerator != 1 and r.denominator != 1:
        return False
    x = r.numerator * r.denominator
    base = abs(q0)
    if base > 1:
        while x % base == 0:
            x //= base
    return x == 1


def _equal_up_to_unit(f, g):
    f = LaurentPoly.coerce(f)
    g = LaurentPoly.coerce(g)
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return f.normal() == g.normal()


def run_report(spec, ring, q0=-1):
    """Build, decorate, normal-form and cross-check one family instance.

    One normal form gives the invariant factors; each factor is factored
    once, and the round and square-free verdicts both read that
    factorization; the matching oracle checks the product of the factors,
    so no second elimination runs.  The oracle counts graphs of at most 64
    vertices (the `count_guard` default of `enumerate_matchings`); above
    that its check reads "skipped"."""
    t0 = time.perf_counter()
    M, kind, G = family_matrix_for_ring(spec, ring, q0)
    notes = {}
    form = None
    if ring == "laurent":
        attempt = laurent_smith_attempt(M, transforms=False)
        if not attempt.success:
            # a stuck heuristic decides nothing: its blocking pair stays in
            # the notes, and the verdicts read "inconclusive"
            return ReportRecord(
                spec.to_json(), ring, kind, M.rows, M.cols, -1, [],
                [], "inconclusive", "inconclusive", "skipped", time.perf_counter() - t0, None,
                {"normal_form": attempt.outcome,
                 "witness": [str(w) for w in (attempt.witness or ())]},
            )
        form = attempt.smith
    inv = stable_invariants(M, form)
    # over a PID the invariant factors of an alternating matrix come in
    # equal pairs; the Laurent ring is not a PID
    if kind == "A" and ring != "laurent" and inv.factors[0::2] != inv.factors[1::2]:
        raise ExactDivisionError(
            f"invariant factors of the alternating matrix of {spec.to_json()} over {ring} "
            f"do not pair up: {list(inv.factor_strings())}")
    bound = _bound_for(spec)
    checks = []
    for f in inv.factors:
        if inv.ring == "z":
            checks.append(roundness_of_integer(f, bound))
        else:
            # a normalized Q[q] factor is a primitive integer polynomial
            # without a q-power, so it is square-free over Q[q] iff its
            # Laurent image is
            lf = f if isinstance(f, LaurentPoly) else f.to_laurent()
            checks.append(roundness_of_poly(lf, bound))
    round_v = "holds" if all(c[0] for c in checks) else "fails"
    sqfree_v = "holds" if all(c[1] for c in checks) else "fails"
    oracle, count = _oracle_status(M, inv, kind, G, q0 if ring == "z@q0" else None)
    return ReportRecord(
        spec.to_json(), ring, kind, M.rows, M.cols, inv.free_rank,
        list(inv.factor_strings()), [c[2] for c in checks], round_v, sqfree_v, oracle,
        time.perf_counter() - t0, count, notes,
    )


# ---------------------------------------------------------------------------
# conjecture suites


@dataclass
class ConjectureVerdict:
    conjecture: str
    instance: dict
    verdict: str                 # holds | fails | inconclusive | skipped
    witness: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


def _ordered_triples(ceiling):
    out = []
    for a in range(1, ceiling + 1):
        for b in range(a, ceiling + 1):
            for c in range(b, ceiling + 1):
                if a + b + c <= ceiling:
                    out.append((a, b, c))
    return out


def _tau_dims(ceiling):
    out = []
    for a in range(1, ceiling + 1):
        for b in range(1, ceiling + 1):
            if a + 2 * b <= ceiling:
                out.append((a, b, b))
    return out


def _partitions_upto(n):
    """Non-empty partitions of 1, ..., n, by size; each size in reverse
    lexicographic order: (3,), (2, 1), (1, 1, 1)."""
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    for total in range(1, n + 1):
        rec(total, total, [])
    return out


def _round_instances(ceiling):
    """(label, FamilySpec, ring) list for Conjecture c:round."""
    out = []
    for (a, b, c) in _ordered_triples(ceiling):
        out.append((f"M({a},{b},{c};q)",
                    FamilySpec(variant="ppbox", a=a, b=b, c=c, q_mode="cube"),
                    "laurent"))
    for a in range(1, ceiling // 3 + 1):
        out.append((f"M_rho({a},{a},{a};q)",
                    FamilySpec(variant="ppbox-quotient", a=a, b=a, c=a,
                               group="rho", q_mode="cube"), "laurent"))
    for dims in _tau_dims(ceiling):
        a, b, _ = dims
        for mode, tilde in (("cube", ""), ("orbit", "~")):
            out.append((f"{tilde}A_tau({a},{b},{b};q)",
                        FamilySpec(variant="ppbox-quotient", a=a, b=b, c=b,
                                   group="tau", q_mode=mode), "laurent"))
            out.append((f"{tilde}A'_tau({a},{b},{b};q)",
                        FamilySpec(variant="ppbox-impossible", a=a, b=b, c=b,
                                   group="tau", q_mode=mode, wrong_parity=True),
                        "laurent"))
    for a in range(1, ceiling // 3 + 1):
        out.append((f"~A_tau,rho({a},{a},{a};q)",
                    FamilySpec(variant="ppbox-quotient", a=a, b=a, c=a,
                               group="tau,rho", q_mode="orbit"), "laurent"))
        out.append((f"~A'_tau,rho({a},{a},{a};q)",
                    FamilySpec(variant="ppbox-impossible", a=a, b=a, c=a,
                               group="tau,rho", q_mode="orbit",
                               wrong_parity=True), "laurent"))
    for lam in _partitions_upto(max(ceiling - 2, 1)):
        for a in range(1, ceiling - sum(lam) + 1):
            out.append((f"M({list(lam)};q_{a})",
                        FamilySpec(variant="skew-shape", a=a, lam=lam),
                        "laurent"))
    # integer-ring list
    for (a, b, c) in _ordered_triples(ceiling):
        for d in (0, 1):
            for e in (-1, 0, 1, 2):
                if e == d or a + b + c + d + abs(e) > ceiling:
                    continue
                out.append((f"M({a},{b},{c},{d},{e})",
                            FamilySpec(variant="hex-minus-triangle",
                                       a=a, b=b, c=c, d=d, e=e), "z"))
        out.append((f"A_kappa({a},{b},{c})",
                    FamilySpec(variant="ppbox-quotient", a=a, b=b, c=c,
                               group="kappa"), "z"))
        out.append((f"A'_kappa({a},{b},{c})",
                    FamilySpec(variant="ppbox-impossible", a=a, b=b, c=c,
                               group="kappa"), "z"))
    for (a, b, _) in _tau_dims(ceiling):
        if (2 * a) + 2 * b <= ceiling:
            out.append((f"M_kappa-tau({2 * a},{b},{b})",
                        FamilySpec(variant="ppbox-quotient", a=2 * a, b=b, c=b,
                                   group="kappa-tau"), "z"))
            out.append((f"A_tau,kappa({2 * a},{b},{b})",
                        FamilySpec(variant="ppbox-quotient", a=2 * a, b=b, c=b,
                                   group="tau,kappa"), "z"))
            out.append((f"A'_tau,kappa({2 * a},{b},{b})",
                        FamilySpec(variant="ppbox-impossible", a=2 * a, b=b, c=b,
                                   group="tau,kappa"), "z"))
    for a in range(1, ceiling // 3 + 1):
        out.append((f"A_rho,kappa({a},{a},{a})",
                    FamilySpec(variant="ppbox-quotient", a=a, b=a, c=a,
                               group="rho,kappa"), "z"))
        if 6 * a <= ceiling:
            out.append((f"M_kappa-tau,rho({2 * a},{2 * a},{2 * a})",
                        FamilySpec(variant="ppbox-quotient", a=2 * a, b=2 * a,
                                   c=2 * a, group="kappa-tau,rho"), "z"))
            out.append((f"A_tau,rho,kappa({2 * a},{2 * a},{2 * a})",
                        FamilySpec(variant="ppbox-quotient", a=2 * a, b=2 * a,
                                   c=2 * a, group="tau,rho,kappa"), "z"))
            out.append((f"A'_tau,rho,kappa({2 * a},{2 * a},{2 * a})",
                        FamilySpec(variant="ppbox-impossible", a=2 * a, b=2 * a,
                                   c=2 * a, group="tau,rho,kappa"), "z"))
    return out


def _suite_ceiling(ceiling, default):
    """`ceiling`, or the suite's `default` when it is None.  It must be at
    least 1: below it there is no instance, and a suite that checks nothing
    would read as a success."""
    if ceiling is None:
        return default
    if ceiling < 1:
        raise DomainError(f"ceiling {ceiling} is below 1: the suite would check nothing")
    return ceiling


def conjecture_suite(which, ceiling=None):
    """The verdicts of conjecture suite `which` on its instances up to
    `ceiling` (8 when None); DomainError for an unknown id or a ceiling
    below 1."""
    ceiling = _suite_ceiling(ceiling, 8)
    if which == "round":
        return _report_verdicts("round", _round_instances(ceiling),
                                "round_verdict", _round_witness)
    if which == "sqfree":
        instances = [(label, spec, ring) for label, spec, ring in _round_instances(ceiling)
                     if ring == "laurent" and spec.variant in ("ppbox", "ppbox-quotient")]
        return _report_verdicts("sqfree", instances, "squarefree_verdict",
                                lambda rep: {"factors": rep.invariant_factors})
    if which == "q-minus-one":
        return _run_q_minus_one(ceiling)
    raise DomainError(f"unknown conjecture id {which!r}")


def _report_verdicts(conjecture, instances, verdict_field, fails_witness):
    """One verdict per (label, spec, ring) instance, read off the `verdict_field`
    of its report; a failure carries `fails_witness(report)`."""
    out = []
    for label, spec, ring in instances:
        inst = {"label": label, "spec": spec.to_json(), "ring": ring}
        try:
            rep = run_report(spec, ring)
        except DomainError as exc:
            out.append(ConjectureVerdict(conjecture, inst, "skipped",
                                         {"reason": str(exc)}))
            continue
        verdict = getattr(rep, verdict_field)
        if verdict == "holds":
            witness = {}
        elif verdict == "inconclusive":
            witness = {"notes": rep.notes}
        else:
            witness = fails_witness(rep)
        out.append(ConjectureVerdict(conjecture, inst, verdict, witness))
    return out


def _round_witness(rep):
    bad = [d for d in rep.factor_diagnostics
           # an integer factor's residual is an int, a Laurent factor's a string
           if d.get("residual") not in (None, 1, "1") or d.get("residual_cofactor", 1) != 1]
    return {"factors": rep.invariant_factors, "diagnostics": bad}


# Conjecture q-minus-one: (identity, its (G, G') pairs, lhs, rhs, relation).
# A side is (variant, "G" or "G'", q_mode, ring) of the a x b x c box family;
# the quotient by the trivial group "1" is the box itself, and ring "z@q0"
# is q = -1.  The relation is "doubled" (lhs = rhs (+) rhs) or "equal".
_Q_MINUS_ONE = (
    # 1: Sm(A_{<G,kappa>}(a,b,c)) = Sm(M_G(a,b,c)_{-1})^2
    (1, (("1", "kappa"), ("rho", "rho,kappa")),
     ("ppbox-quotient", "G'", "none", "z"), ("ppbox-quotient", "G", "cube", "z@q0"),
     "doubled"),
    # 2: coker A_G(a,b,c)_{-1} = coker M_{G'}(a,b,c) ^ (+)2
    (2, (("tau", "kappa-tau"), ("tau,rho", "kappa-tau,rho")),
     ("ppbox-quotient", "G", "cube", "z@q0"), ("ppbox-quotient", "G'", "none", "z"),
     "doubled"),
    # 3: coker A_{<G,kappa>}(a,b,c) = coker A'_G(a,b,c)_{-1}
    (3, (("tau", "tau,kappa"), ("tau,rho", "tau,rho,kappa")),
     ("ppbox-quotient", "G'", "none", "z"), ("ppbox-impossible", "G", "cube", "z@q0"),
     "equal"),
)


def _side_summary(side, groups, a, b, c):
    """(free rank, sorted invariant factor strings) of one side of an identity."""
    variant, key, q_mode, ring = side
    group = groups[key]
    spec = FamilySpec(variant="ppbox" if group == "1" else variant, a=a, b=b, c=c,
                      group=group, q_mode=q_mode,
                      wrong_parity=variant == "ppbox-impossible")
    inv = stable_invariants(family_matrix_for_ring(spec, ring)[0])
    return inv.free_rank, sorted(inv.factor_strings())


def _summary_json(summary):
    return {"free_rank": summary[0], "factors": summary[1]}


def _run_q_minus_one(ceiling):
    out = []
    for identity, pairs, lhs_side, rhs_side, relation in _Q_MINUS_ONE:
        for g, gp in pairs:
            for (a, b, c) in _ordered_triples(ceiling):
                if ("tau" in g and b != c) or ("rho" in g and not a == b == c):
                    continue
                inst = {"identity": identity, "G": g, "G'": gp, "a": a, "b": b, "c": c}
                try:
                    lhs, rhs = (_side_summary(side, {"G": g, "G'": gp}, a, b, c)
                                for side in (lhs_side, rhs_side))
                except DomainError as exc:
                    out.append(ConjectureVerdict("q-minus-one", inst, "skipped",
                                                 {"reason": str(exc)}))
                    continue
                target = rhs
                witness = {"lhs": _summary_json(lhs), "rhs": _summary_json(rhs)}
                if relation == "doubled":
                    target = 2 * rhs[0], sorted(rhs[1] + rhs[1])
                    witness["rhs_doubled"] = _summary_json(target)
                if identity == 1:
                    # the verdict reads multiplicity doubling; the entrywise
                    # squares are printed alongside so the reading can be
                    # audited (small instances split between the two by parity)
                    squared = rhs[0], sorted(str(int(f) ** 2) for f in rhs[1])
                    witness["rhs_squared_entrywise"] = _summary_json(squared)
                    witness["entrywise_holds"] = lhs == squared
                verdict = "holds" if lhs == target else "fails"
                out.append(ConjectureVerdict("q-minus-one", inst, verdict, witness))
    return out


# ---------------------------------------------------------------------------
# theorem verification


def _mu_candidates(lam):
    """The partitions mu of size at most _JT_MAX_MU, with at most two parts,
    that fit in the first two rows of lam, sorted."""
    lam = Partition(lam)
    cands = [()]
    for m1 in range(1, min(lam[0], _JT_MAX_MU) + 1):
        cands.append((m1,))
        cands.extend((m1, m2) for m2 in range(1, min(lam[1], m1, _JT_MAX_MU - m1) + 1))
    return sorted(cands)


def verify_theorems(which, ceiling=None):
    """Returns (summary dict, failures list) of theorem suite `which` up to
    `ceiling` (when None, 6 for "jt" and 4 for "aztec"); DomainError for an
    unknown theorem id or a ceiling below 1."""
    if which == "jt":
        return _verify_jt(_suite_ceiling(ceiling, 6))
    if which == "aztec":
        return _verify_aztec(_suite_ceiling(ceiling, 4))
    raise DomainError(f"unknown theorem id {which!r}")


# largest a and |mu| of the Jacobi-Trudi suite; largest Aztec orders checked on
# the signed geometric graph and, on that same graph, by matching count
_JT_MAX_A = 4
_JT_MAX_MU = 2
_AZTEC_GEOMETRIC_MAX = 5
_AZTEC_COUNT_MAX = 4


def _verify_jt(ceiling):
    """The Gessel-Viennot / Kasteleyn-Percus check: for every lambda of size
    at most `ceiling`, mu of size at most 2 inside it and a = 1..4, the
    Jacobi-Trudi matrix J, its dual D and the skew-graph matrix M must have
    the same Q[q] stable invariants and the same determinant up to a unit.
    Each matrix gives both from one packed elimination
    (`_det_and_qpoly_invariants`)."""
    checked = 0
    failures = []
    for lam in sorted(_partitions_upto(ceiling), key=lambda t: (sum(t), t)):
        for mu in _mu_candidates(lam):
            for a in range(1, _JT_MAX_A + 1):
                checked += 1
                inst = {"lam": list(lam), "mu": list(mu), "a": a}
                J = jacobi_trudi(lam, mu, a)
                D = jacobi_trudi(lam, mu, a, dual=True)
                Z = build_skew_graph(Partition(lam), Partition(mu), a)
                M = adjacency_matrix(Z, "bipartite")
                invs = []
                dets = []
                for X in (J, D, M):
                    det, inv = _det_and_qpoly_invariants(X)
                    invs.append((inv.free_rank, inv.factor_strings()))
                    dets.append(LaurentPoly.coerce(det))
                if not (invs[0] == invs[1] == invs[2]):
                    failures.append({**inst, "kind": "invariants",
                                     "J": invs[0], "D": invs[1], "M": invs[2]})
                d0 = dets[0]
                for d in dets[1:]:
                    if not _equal_up_to_unit(d0, d):
                        failures.append({**inst, "kind": "determinant",
                                         "values": [str(x) for x in dets]})
                        break
    return {"which": "jt", "checked": checked, "failed": len(failures)}, failures


def _verify_aztec(max_n):
    checked = 0
    failures = []
    for n in range(1, max_n + 1):
        checked += 1
        expect = tuple(2 ** k for k in range(1, n + 1))
        M = aztec_matrix_closed_form(n)
        inv = stable_invariants(M)
        if inv.factors != expect or inv.free_rank != 0:
            failures.append({"n": n, "kind": "closed-form",
                             "got": list(inv.factor_strings())})
        if abs(determinant(M)) != 2 ** (n * (n + 1) // 2):
            failures.append({"n": n, "kind": "determinant"})
        if n > _AZTEC_GEOMETRIC_MAX:
            continue
        Z = build_aztec_graph(n)
        Mg = adjacency_matrix(kasteleyn_percus_sign(Z), "bipartite")
        invg = stable_invariants(Mg)
        if invg.factors != expect or invg.free_rank != 0:
            failures.append({"n": n, "kind": "geometric",
                             "got": list(invg.factor_strings())})
        if n <= _AZTEC_COUNT_MAX:
            count = enumerate_matchings(Z, count_guard=Z.n_vertices).count
            if count != 2 ** (n * (n + 1) // 2):
                failures.append({"n": n, "kind": "count"})
    return {"which": "aztec", "checked": checked, "failed": len(failures)}, failures
