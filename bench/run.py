"""Benchmark of the kasteleyn library, run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

It imports the library from src/, builds the workload's inputs from the
seed, times passes over the workload's items for about S seconds (at least
one pass), checks every output, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from one traced pass (see layers.py).  The line
before it is a JSON record of the environment and the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
LIBRARY = ("rings", "matrices", "graphs", "families", "harness", "cli")


class LibraryMissing(RuntimeError):
    pass


def pin_environment(script=__file__):
    """Re-execute `script`, in this process, without KASTELEYN_ORACLE_GUARD
    (it changes which reports run the oracle) and with a fixed hash seed."""
    env = dict(os.environ)
    env.pop("KASTELEYN_ORACLE_GUARD", None)
    env["PYTHONHASHSEED"] = "0"
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, str(Path(script).resolve())]
                  + sys.argv[1:], env)


def import_library():
    """Fresh import of the library under src/, as a namespace of modules."""
    if not (SRC / "kasteleyn" / "__init__.py").is_file():
        raise LibraryMissing(f"no library at {SRC / 'kasteleyn'}")
    for name in [n for n in sys.modules if n == "kasteleyn" or n.startswith("kasteleyn.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("kasteleyn")
    if Path(pkg.__file__).resolve().parent != (SRC / "kasteleyn").resolve():
        raise LibraryMissing(f"kasteleyn imported from {pkg.__file__}, not src/")
    lib = argparse.Namespace(pkg=pkg)
    for name in LIBRARY:
        setattr(lib, name, importlib.import_module(f"kasteleyn.{name}"))
    return lib


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None, None
    if sha.returncode or status.returncode:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def environment(seed):
    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "oracle_guard_env": os.environ.get("KASTELEYN_ORACLE_GUARD"),
        "seed": seed,
    }


class Judge:
    """Classifies every output: right, wrong (a check found a problem, or a
    pinned error did not happen), or an error (an exception that is not the
    item's pinned outcome)."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.undecided = 0
        self.mismatches = 0
        self.problems = []
        self.digests = {}
        self._checked = {}

    def __call__(self, item, out, exc):
        self.attempted += 1
        if exc is not None:
            if type(exc).__name__ == item.expect_error:
                self._repeat(item, ("raised", type(exc).__name__))
                return
            self.errors += 1
            self.problems.append(f"{item.id}: {type(exc).__name__}: {exc}")
            return
        if item.expect_error:
            self.wrong += 1
            self.problems.append(f"{item.id}: returned instead of raising {item.expect_error}")
            return
        if item.undecided and item.undecided(out):
            self.undecided += 1
        digest = item.digest(out)
        self._repeat(item, digest)
        seen = self._checked.get(item.id)
        if seen is not None and seen[0] == digest:
            problems = seen[1]
        else:
            try:
                problems = item.check(out)
            except Exception as e:  # a check that cannot run is a failed check
                problems = [f"{item.id}: check raised {type(e).__name__}: {e}"]
            self._checked[item.id] = (digest, problems)
        if problems:
            self.wrong += 1
            self.problems.extend(problems)

    def _repeat(self, item, digest):
        if item.id in self.digests and self.digests[item.id] != digest:
            self.mismatches += 1
        self.digests.setdefault(item.id, digest)


def run_pass(items, tracer=None):
    """Calls every item once; returns (wall seconds, [(item, out, exc, t0, t1)])."""
    results = []
    t_pass = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            out, exc = item.call(), None
        except Exception as e:  # judged against the item's pinned outcome
            out, exc = None, e
        results.append((item, out, exc, t0, time.perf_counter()))
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.item = None
    return wall, results


def judge_pass(judge, results, mutate=None):
    """Judges a pass; `mutate` (a self-test hook) alters the first output."""
    for item, out, exc, _, _ in results:
        if mutate is not None and exc is None:
            out, mutate = mutate(out), None
        judge(item, out, exc)


def set_up(workload, seed, tiny):
    """Returns (t0, t1, lib, items): import, input generation, one warm-up call."""
    import workloads
    t0 = time.perf_counter()
    lib = import_library()
    items, warm = workloads.WORKLOADS[workload](lib, seed, tiny)
    warm()
    return t0, time.perf_counter(), lib, items


CLI_SPECS = (
    ({"variant": "ppbox", "a": 1, "b": 1, "c": 2, "q_mode": "cube"}, "laurent"),
    ({"variant": "ppbox", "a": 1, "b": 2, "c": 2, "q_mode": "cube"}, "laurent"),
    ({"variant": "ppbox-quotient", "a": 1, "b": 1, "c": 2, "group": "kappa"}, "z"),
)


def _cli_argv(spec, ring):
    argv = ["report", "--family", spec.variant, "--ring", ring, "--group", spec.group,
            "--q-mode", spec.q_mode]
    for key in ("a", "b", "c", "d", "e", "n"):
        argv += [f"--{key}", str(getattr(spec, key))]
    if spec.wrong_parity:
        argv.append("--wrong-parity")
    for key in ("lam", "mu"):
        if getattr(spec, key):
            argv += [f"--{key}", ",".join(map(str, getattr(spec, key)))]
    return argv


def cli_overhead(lib, repeats=5):
    """Median over a few specs of (cli.main(["report", ...]) - run_report),
    in ms; the CLI's JSON must equal the report's."""
    diffs, problems = [], []
    for fields, ring in CLI_SPECS:
        spec = lib.families.FamilySpec(**fields)
        argv = _cli_argv(spec, ring)
        t_cli, t_rep = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            rec = lib.harness.run_report(spec, ring)
            t_rep.append(time.perf_counter() - t0)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = lib.cli.main(argv)
                t_cli.append(time.perf_counter() - t0)
            got = json.loads(buf.getvalue())
            want = json.loads(json.dumps(rec.to_json()))
            got.pop("duration", None)
            want.pop("duration", None)
            if code != 0 or got != want:
                problems.append(f"cli report {argv}: exit {code}, output differs from run_report")
        diffs.append(statistics.median(t_cli) - statistics.median(t_rep))
    return statistics.median(diffs) * 1e3, problems


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def _untraced(workload, seed, seconds, tiny, judge, mutate):
    """End-to-end metrics, in reference-speed seconds (see speed.py); the
    raw seconds go to the record."""
    with speed.SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0, t1, lib, items = set_up(workload, seed, tiny)
            setups.append((probe.seconds(t0, t1), t1 - t0))
        walls = []
        per_item = {item.id: [] for item in items}
        spent = 0.0
        while True:
            wall, results = run_pass(items)
            judge_pass(judge, results, mutate)
            total = 0.0
            for item, _, _, t0, t1 in results:
                t = probe.seconds(t0, t1)
                per_item[item.id].append(t)
                total += t
            walls.append((total, wall))
            spent += wall
            # one more pass if at least half of it fits in the time left
            if tiny or spent + statistics.mean(w[1] for w in walls) / 2 > seconds:
                break
    latencies = [statistics.median(ts) * 1e3 for ts in per_item.values()]
    metrics = {
        "setup_s": statistics.median(s[0] for s in setups),
        "wall_s": statistics.median(w[0] for w in walls),
        "item_p50_ms": _percentile(latencies, 50),
        "item_p95_ms": _percentile(latencies, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "items": len(items), "passes": len(walls),
        "setup_s_samples": [s[0] for s in setups],
        "raw_setup_s_samples": [s[1] for s in setups],
        "wall_s_samples": [w[0] for w in walls],
        "raw_wall_s_samples": [w[1] for w in walls],
        "calibration_s_median": probe.median_calibration(),
        "calibration_samples": len(probe.durations),
    }
    return metrics, record


def _traced(workload, seed, tiny, judge, mutate):
    """Per-layer metrics: an untraced pass, a traced pass, the ring micro
    probes and the CLI probe, all in raw seconds."""
    import layers
    import workloads
    for _ in range(SETUP_REPEATS):
        _, _, lib, items = set_up(workload, seed, tiny)
    untraced_wall, results = run_pass(items)
    judge_pass(judge, results, mutate)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced_wall, results = run_pass(items, tracer)
    finally:
        tracer.restore()
    judge_pass(judge, results, mutate)
    metrics = layers.layer_metrics(tracer, traced_wall, untraced_wall)
    probes, problems = layers.ring_probes(lib.rings, workloads.load_json("ring_probes.json"))
    metrics.update(probes)
    metrics["cli.overhead_ms"], cli_problems = cli_overhead(lib)
    for p in problems + cli_problems:
        judge.wrong += 1
        judge.problems.append(p)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    record = {"items": len(items), "passes": 2, "untraced_wall_s": untraced_wall,
              "traced_wall_s": traced_wall, "spans_file": str(spans.relative_to(ROOT))}
    return metrics, record


def measure(workload, seed, seconds, trace, tiny=False, mutate=None):
    """One benchmark run; returns (metrics dict, judge, record dict)."""
    judge = Judge()
    if trace:
        metrics, record = _traced(workload, seed, tiny, judge, mutate)
    else:
        metrics, record = _untraced(workload, seed, seconds, tiny, judge, mutate)
    metrics["check.wrong_results"] = judge.wrong
    metrics["check.error_share"] = judge.errors / judge.attempted
    metrics["check.repeat_mismatches"] = judge.mismatches
    metrics["harness.undecided_share"] = judge.undecided / judge.attempted
    record.update(workload=workload, attempted=judge.attempted, wrong_results=judge.wrong,
                  errors=judge.errors, undecided=judge.undecided,
                  repeat_mismatches=judge.mismatches, problems=judge.problems[:20])
    return metrics, judge, record


def result_line(spec, metrics, judge, trace):
    """The contract's last line, with the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": judge.wrong == 0 and judge.errors == 0 and judge.mismatches == 0,
        "attempted": judge.attempted,
        "failed": judge.wrong + judge.errors,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one pass: a seconds-long smoke run")
    args = ap.parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        metrics, judge, record = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace), args.tiny)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["env"] = environment(args.seed)
    record["metrics"] = metrics
    print(json.dumps({"record": record}))
    print(json.dumps(result_line(spec, metrics, judge, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
