"""Regenerate the benchmark's frozen reference data from the library as it
stands: `python3 bench/freeze.py` (from the repository root).

Writes bench/data/conjecture_q.json (the run_report calls made by
`conjecture --id round --ceiling 8`, with their outcomes), bench/data/
reference.json (suite counts and q-minus-one verdicts) and bench/data/
ring_probes.json (operands of the ring micro probes).  Re-freezing changes
what the benchmark accepts as correct: do it only on a commit whose outputs
are known to be right, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def _dump(name, obj):
    with open(DATA / name, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _recording(owner, attr, sink, key=None):
    """Replace owner.attr by a wrapper appending its arguments to sink;
    returns a function that restores the original."""
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        sink.append(args if key is None else key(*args))
        return orig(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, orig)


def freeze_conjecture_q(k):
    H = k.harness
    calls = []
    undo = _recording(H, "run_report", calls, key=lambda spec, ring, *a: (spec, ring))
    try:
        verdicts = H.conjecture_suite("round", 8)
    finally:
        undo()
    assert len(calls) == len(verdicts)
    items = []
    for (spec, ring), v in zip(calls, verdicts):
        assert v.instance["spec"] == spec.to_json()
        entry = {"label": v.instance["label"], "spec": spec.to_json(), "ring": ring}
        try:
            rec = H.run_report(spec, ring)
        except k.rings.DomainError as exc:
            entry.update(outcome="error", error=type(exc).__name__, message=str(exc))
            items.append(entry)
            continue
        if rec.notes.get("normal_form") in ("witnessed", "inconclusive"):
            entry.update(outcome="undecided", normal_form=rec.notes["normal_form"])
        else:
            entry.update(outcome="decided", free_rank=rec.free_rank,
                         invariant_factors=rec.invariant_factors,
                         round_verdict=rec.round_verdict,
                         squarefree_verdict=rec.squarefree_verdict,
                         oracle_check=rec.oracle_check,
                         oracle_count=rec.oracle_count)
        items.append(entry)
    _dump("conjecture_q.json", {"source": "conjecture_suite('round', 8)", "items": items})
    return calls


def freeze_reference(k):
    H = k.harness
    ref = {
        "jt_checked": {str(c): H.verify_theorems("jt", c)[0]["checked"] for c in (3, 6)},
        "q_minus_one_10": [{"instance": v.instance, "verdict": v.verdict}
                           for v in H.conjecture_suite("q-minus-one", 10)],
    }
    _dump("reference.json", ref)


def freeze_ring_probes(k, calls):
    """Laurent pairs: the blocking pair of the smallest witnessed
    conjecture-q item and the widest try_divide operands inside the
    heaviest one; RationalPoly pair: the divmod with the most coefficient
    work (quotient length times divisor length) in `verify jt 6`."""
    import time
    from fractions import Fraction

    R, M, H = k.rings, k.matrices, k.harness
    timed = []
    for spec, ring in calls:
        if ring != "laurent":
            continue
        t0 = time.perf_counter()
        rec = H.run_report(spec, ring)
        timed.append((time.perf_counter() - t0, spec, rec))
    witnessed = [t for t in timed if t[2].notes.get("normal_form") == "witnessed"]
    small = min(witnessed, key=lambda t: sum(len(w) for w in t[2].notes["witness"]))
    heavy = max(timed, key=lambda t: t[0])
    pairs = []
    undo = _recording(R.LaurentPoly, "try_divide", pairs)
    try:
        Mh, _, _ = H.family_matrix_for_ring(heavy[1], "laurent")
        M.laurent_smith_attempt(Mh)
    finally:
        undo()
    a, b = max(pairs, key=lambda p: (p[0].span + R.LaurentPoly.coerce(p[1]).span,
                                     str(p[0]), str(p[1])))
    b = R.LaurentPoly.coerce(b)
    sa, sb = (R.parse_laurent(w) for w in small[2].notes["witness"])

    qpairs = []
    undo = _recording(R.RationalPoly, "divmod", qpairs)
    try:
        H.verify_theorems("jt", 6)
    finally:
        undo()

    def work(p):
        da, db = p[0].degree(), R.RationalPoly.coerce(p[1]).degree()
        return ((da - db + 1) * (db + 1), str(p[0]), str(p[1]))

    qa, qb = max(qpairs, key=work)
    qb = R.RationalPoly.coerce(qb)

    def frac(c):
        return str(Fraction(c))

    _dump("ring_probes.json", {
        "laurent": {
            "large": {"a": str(a), "b": str(b),
                      "source": "widest try_divide in " + json.dumps(heavy[1].to_json())},
            "small": {"a": str(sa), "b": str(sb),
                      "source": "blocking pair of " + json.dumps(small[1].to_json())},
        },
        "qpoly": {"a": [frac(c) for c in qa.coeffs], "b": [frac(c) for c in qb.coeffs],
                  "source": "divmod with the most coefficient work in verify_theorems('jt', 6)"},
    })


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import kasteleyn
    import kasteleyn.cli  # noqa: F401  (loads every submodule)
    DATA.mkdir(exist_ok=True)
    calls = freeze_conjecture_q(kasteleyn)
    freeze_reference(kasteleyn)
    freeze_ring_probes(kasteleyn, calls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
