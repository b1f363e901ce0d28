"""Outside-in layer tracing for the benchmark.

The library is not edited.  `Tracer.install` replaces public functions with
span-recording wrappers on the module that defines them and on every
`kasteleyn` module that imported the name (the harness and the CLI import by
name; `matrices` calls its own functions as module globals), and replaces a
few ring methods with call counters at class level.  `Tracer.restore` puts
every original back.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name or a function args -> name); a dotted
# attribute names a method patched on its class.
SPANNED = [
    # rings: factor diagnostics
    ("rings", "factor_q_round", "rings.diagnostics"),
    ("rings", "smooth_factor", "rings.diagnostics"),
    ("rings", "integer_squarefree", "rings.diagnostics"),
    ("rings", "RationalPoly.is_squarefree", "rings.diagnostics"),
    # matrices: elimination kernels and their drivers
    ("matrices", "laurent_smith_attempt", "matrices.laurent_nf"),
    ("matrices", "smith_normal_form", lambda a, kw: f"matrices.snf_{a[0].ring}"),
    ("matrices", "determinant", lambda a, kw: f"matrices.det_{a[0].ring}"),
    ("matrices", "SmithForm.verify", "matrices.snf_verify"),
    ("matrices", "stable_invariants", "matrices.stable_invariants"),
    ("matrices", "cokernel_of", "matrices.cokernel_of"),
    ("matrices", "smith_report", "matrices.smith_report"),
    ("matrices", "fourier_duality_matrix", "matrices.fourier"),
    ("matrices", "pfaffian", "matrices.pfaffian"),
    ("matrices", "ExactMatrix.to_qpoly", "matrices.convert"),
    ("matrices", "ExactMatrix.specialize_q", "matrices.convert"),
    ("matrices", "ExactMatrix.map_ring", "matrices.convert"),
    # graphs: the matching oracle and the decoration passes
    ("graphs", "enumerate_matchings", "graphs.oracle"),
    ("graphs", "monogamous_resolution", "graphs.decorate"),
    ("graphs", "kasteleyn_percus_sign", "graphs.decorate"),
    ("graphs", "kasteleyn_orient", "graphs.decorate"),
    ("graphs", "adjacency_matrix", "graphs.decorate"),
    # families: builders
    ("families", "build_family_graph", "families.build"),
    ("families", "family_matrix", "families.build"),
    ("families", "build_skew_graph", "families.build"),
    ("families", "jacobi_trudi", "families.build"),
    ("families", "build_aztec_graph", "families.build"),
    ("families", "aztec_matrix_closed_form", "families.build"),
    ("families", "delannoy_matrix", "families.build"),
    ("families", "symmetry_quotient", "families.build"),
    ("families", "impossible_variant", "families.build"),
    ("families", "apply_q_weights", "families.build"),
    # harness and CLI glue
    ("harness", "run_report", "harness.run_report"),
    ("harness", "family_matrix_for_ring", "harness.family_matrix_for_ring"),
    ("harness", "conjecture_suite", "harness.conjecture_suite"),
    ("harness", "verify_theorems", "harness.verify_theorems"),
    ("cli", "main", "cli.main"),
]

# class-level call counters: (class, method, counter name)
COUNTED = [
    ("LaurentPoly", "__mul__", "rings.laurent_mul_calls"),
    ("LaurentPoly", "__rmul__", "rings.laurent_mul_calls"),
    ("LaurentPoly", "try_divide", "rings.laurent_try_divide_calls"),
    ("RationalPoly", "__mul__", "rings.qpoly_mul_calls"),
    ("RationalPoly", "__rmul__", "rings.qpoly_mul_calls"),
    ("RationalPoly", "divmod", "rings.qpoly_divmod_calls"),
]


def _library_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "kasteleyn" or name.startswith("kasteleyn."))]


class Tracer:
    """Span recorder.  A span is (name, start, end, parent index, item id,
    outcome); the outcome is "ok" or the name of the exception raised."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._undo = []

    # -- installation

    def install(self):
        mods = _library_modules()
        for module, attr, name in SPANNED:
            owner = sys.modules[f"kasteleyn.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._span_wrapper(getattr(cls, meth), name))
                continue
            orig = getattr(owner, attr)
            wrapper = self._span_wrapper(orig, name)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)
        rings = sys.modules["kasteleyn.rings"]
        for cls_name, meth, counter in COUNTED:
            cls = getattr(rings, cls_name)
            self._patch(cls, meth, self._count_wrapper(cls.__dict__[meth], counter))

    def restore(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def _patch(self, owner, key, new):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def _span_wrapper(self, orig, name):
        tracer = self
        naming = name if callable(name) else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = naming(args, kwargs) if naming else name
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            outcome = "ok"
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (label, t0, t1, parent, tracer.item, outcome)
            tracer._observe(label, out)
            return out

        return wrapper

    def _count_wrapper(self, orig, counter):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _observe(self, label, out):
        """Counts that need the returned value."""
        c = self.counts
        if label == "matrices.laurent_nf":
            c["matrices.laurent_nf_ops"] += out.iterations
            if not out.success:
                c["matrices.laurent_nf_stuck"] += 1
        elif label == "matrices.snf_z":
            bits = 0
            for T in (out.left, out.right):
                for row in T.entries:
                    for x in row:
                        b = x.bit_length()
                        if b > bits:
                            bits = b
            if bits > c["matrices.snf_z_transform_bits"]:
                c["matrices.snf_z_transform_bits"] = bits
        elif label == "graphs.oracle":
            c["graphs.matchings_counted"] += out.count

    # -- reduction

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return out

    def outcome_count(self, name, outcome):
        return sum(1 for s in self.spans if s[0] == name and s[5] == outcome)

    def write_spans(self, path):
        """One JSON object per span, start and end relative to the first."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, item, outcome) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0 - base, "end": t1 - base,
                    "parent": parent, "item": item, "outcome": outcome,
                }) + "\n")


LAYERS = ("rings", "matrices", "graphs", "families", "harness", "cli")


def layer_metrics(tracer, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    st = tracer.self_times()
    c = tracer.counts

    def incl(name):
        return st[name][1] if name in st else 0.0

    def calls(name):
        return st[name][0] if name in st else 0

    layer_self = Counter()
    for name, (_, _, self_s) in st.items():
        layer_self[name.split(".")[0]] += self_s
    reports = calls("harness.run_report")
    m = {
        "matrices.laurent_nf_s": incl("matrices.laurent_nf"),
        "matrices.laurent_nf_calls": calls("matrices.laurent_nf"),
        "matrices.laurent_nf_ops": c["matrices.laurent_nf_ops"],
        "matrices.laurent_nf_stuck": c["matrices.laurent_nf_stuck"],
        "matrices.nf_per_report": calls("matrices.laurent_nf") / reports if reports else 0.0,
        "matrices.snf_z_s": incl("matrices.snf_z"),
        "matrices.snf_z_calls": calls("matrices.snf_z"),
        "matrices.snf_z_transform_bits": c["matrices.snf_z_transform_bits"],
        "matrices.snf_qpoly_s": incl("matrices.snf_qpoly"),
        "matrices.snf_qpoly_calls": calls("matrices.snf_qpoly"),
        "matrices.det_laurent_s": incl("matrices.det_laurent"),
        "matrices.det_laurent_calls": calls("matrices.det_laurent"),
        "matrices.det_z_s": incl("matrices.det_z"),
        "matrices.det_z_calls": calls("matrices.det_z"),
        "matrices.det_qpoly_calls": calls("matrices.det_qpoly"),
        "matrices.snf_verify_s": incl("matrices.snf_verify"),
        "graphs.oracle_s": incl("graphs.oracle"),
        "graphs.oracle_calls": calls("graphs.oracle"),
        "graphs.matchings_counted": c["graphs.matchings_counted"],
        "graphs.oracle_guarded": tracer.outcome_count("graphs.oracle", "GuardExceeded"),
        "graphs.decorate_s": incl("graphs.decorate"),
        "families.build_s": incl("families.build"),
        "rings.laurent_mul_calls": c["rings.laurent_mul_calls"],
        "rings.laurent_try_divide_calls": c["rings.laurent_try_divide_calls"],
        "rings.qpoly_mul_calls": c["rings.qpoly_mul_calls"],
        "rings.qpoly_divmod_calls": c["rings.qpoly_divmod_calls"],
        "rings.diagnostics_s": incl("rings.diagnostics"),
        "harness.run_report_calls": reports,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": sum(layer_self.values()) / traced_wall if traced_wall else 0.0,
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# ---------------------------------------------------------------------------
# ring micro probes


def _ns_per_op(fn, min_time=0.02, repeats=5):
    """Median over `repeats` timed loops of ns per call; each loop runs long
    enough to last `min_time` seconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_time:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n * 1e9)
    samples.sort()
    return samples[len(samples) // 2]


def ring_probes(rings, probes):
    """ns/op of Laurent mul and try_divide and of RationalPoly mul and divmod
    on the frozen operands; also checks each result against its inverse
    operation so a wrong fast path cannot pass."""
    from fractions import Fraction

    out = {}
    problems = []
    for key in ("large", "small"):
        a = rings.parse_laurent(probes["laurent"][key]["a"])
        b = rings.parse_laurent(probes["laurent"][key]["b"])
        ab = a * b
        if ab.try_divide(b) != a:
            problems.append(f"laurent {key}: (a*b)/b != a")
        suffix = "" if key == "large" else "_small"
        out[f"rings.laurent_mul{suffix}_ns"] = _ns_per_op(lambda: a * b)
        out[f"rings.laurent_try_divide{suffix}_ns"] = _ns_per_op(lambda: ab.try_divide(b))
    qa = rings.RationalPoly([Fraction(x) for x in probes["qpoly"]["a"]])
    qb = rings.RationalPoly([Fraction(x) for x in probes["qpoly"]["b"]])
    quo, rem = qa.divmod(qb)
    if quo * qb + rem != qa or rem.degree() >= qb.degree():
        problems.append("qpoly: divmod identity fails")
    out["rings.qpoly_mul_ns"] = _ns_per_op(lambda: qa * qb)
    out["rings.qpoly_divmod_ns"] = _ns_per_op(lambda: qa.divmod(qb))
    return out, problems
