"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

For the tiny mode of every workload it asserts that every output passes its
checks, that corrupting one output raises wrong_results, that traced and
untraced runs give identical outputs, and that the per-layer counts of two
traced runs at one seed are identical.  Exits 0 when all of them hold.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import run

SEED = 3
# per-layer metrics that count work rather than time it
COUNT_SUFFIXES = ("_calls", "_ops", "_stuck", "_bits", ".matchings_counted",
                  ".oracle_guarded", ".spans", ".nf_per_report", ".wrong_results",
                  ".undecided_share", ".error_share")


def corrupt(out):
    """A wrong copy of one library output, whatever its type."""
    if dataclasses.is_dataclass(out):                      # ReportRecord
        return dataclasses.replace(out, invariant_factors=list(out.invariant_factors) + ["7"])
    if hasattr(out, "torsion"):                            # CokernelDescriptor
        return type(out)(out.free_rank, tuple(out.torsion) + (7,))
    if hasattr(out, "diagonal"):                           # SmithForm
        return type(out)(out.ring, out.shape, [7 * out.diagonal[0]] + list(out.diagonal[1:]),
                         out.left, out.right)
    if hasattr(out, "total_weight"):                       # MatchingSet
        return type(out)(out.count + 1, out.total_weight)
    if isinstance(out, dict):                              # smith_report
        return {**out, "invariant_factors": out["invariant_factors"] + ["7"]}
    if isinstance(out, tuple):                             # (summary, failures)
        return ({**out[0], "failed": 1}, out[1])
    if isinstance(out, list) and out and hasattr(out[0], "verdict"):
        bad = copy.copy(out[0])
        bad.verdict = "holds" if out[0].verdict != "holds" else "fails"
        return [bad] + out[1:]
    if isinstance(out, list):                              # Fourier matrix rows
        return out[:-1]
    raise TypeError(f"no corruption for {type(out).__name__}")


def main():
    run.pin_environment(__file__)
    import workloads
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for name in workloads.WORKLOADS:
        _, plain, _ = run.measure(name, SEED, 0, trace=False, tiny=True)
        expect(plain.wrong == plain.errors == 0 and plain.attempted > 0,
               f"{name}: tiny run correct ({plain.problems[:2]})")
        m1, traced, _ = run.measure(name, SEED, 0, trace=True, tiny=True)
        expect(traced.wrong == traced.errors == traced.mismatches == 0,
               f"{name}: traced run correct, traced pass repeats untraced ({traced.problems[:2]})")
        expect(traced.digests == plain.digests, f"{name}: traced and untraced outputs identical")
        m2, _, _ = run.measure(name, SEED, 0, trace=True, tiny=True)
        counts = [k for k in m1 if k.endswith(COUNT_SUFFIXES)]
        differ = [k for k in counts if m1[k] != m2[k]]
        expect(not differ, f"{name}: {len(counts)} per-layer counts repeat exactly {differ}")
        expect(m1["trace.coverage"] >= 0.9, f"{name}: trace coverage {m1['trace.coverage']:.3f}")
        _, bad, _ = run.measure(name, SEED, 0, trace=False, tiny=True, mutate=corrupt)
        expect(bad.wrong >= 1, f"{name}: a corrupted output raises wrong_results")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
