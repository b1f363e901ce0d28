"""Records of the Smith driver's and the family builders' outputs, pinned
by SHA-256 in `test_matrices.py`, `test_families.py`, `test_graphs.py`
and `test_harness_cli.py`: every Laurent attempt of the
round suite at ceiling 6, and at ceiling 8 without transforms, the PID
normal forms of three boxes, a seeded fuzz of random small matrices over
every ring, and the graphs and matrices of the round suite at ceiling 8,
of the q = -1 sides at ceiling 10 and of `verify jt` at ceiling 6; the
alternating (congruence) normal forms and Pfaffians of a seeded fuzz, of
the kind "A" integer matrices of the round suite at ceiling 8 and of two
kappa quotients; and the Kasteleyn decorations of the round suite at
ceiling 6 and of the projective cube quotient on shuffled dual spanning
trees; the determinant and Q[q] invariants of every Jacobi-Trudi,
dual and skew-graph matrix of `verify jt` at ceiling 6; every
`run_report` of the round suite at ceiling 8; and the determinant of every
square matrix of the round suite at ceiling 8 and of a seeded draw of
random matrices, many of them singular.
The text of the integer transforms L and R is hashed apart from
everything else (diagonals, `verify`, `_smith_diagonal`, Q[q] transforms,
Laurent attempts): a change of elimination route may change those
witnesses, and must leave the rest as it is.  Each builder returns a list
of JSON-ready records; `digest` hashes one."""

import hashlib
import json
import random
from fractions import Fraction
from functools import cache

from kasteleyn import FamilySpec, harness
from kasteleyn.families import (
    _decorated_matrix,
    antipodal_cube_quotient,
    build_family_graph,
    build_skew_graph,
    jacobi_trudi,
)
from kasteleyn.graphs import (
    MONO,
    adjacency_matrix,
    graph_to_json,
    kasteleyn_orient,
    kasteleyn_percus_sign,
    monogamous_resolution,
)
from kasteleyn.matrices import (
    DomainError,
    ExactMatrix,
    _det_and_qpoly_invariants,
    _smith_diagonal,
    alternating_smith_form,
    determinant,
    laurent_smith_attempt,
    pfaffian,
    smith_normal_form,
    write_matrix,
)
from kasteleyn.rings import LaurentPoly, RationalPoly

LAURENT_ATTEMPTS = (276, "5764ab4fe5d5992990fca66fec9f9033f6b22e7e716993335a75e577dcef8459")
LAURENT_ROUND8 = (167, "c2ed4d7bc7fa604a092d33c1a47f7ad75b9531b7a6faeeb7ae27a4efa719a2c5")
PID_FORMS = (6, "ad9276c5df851ea6503000a2944096656d7ad0b08db5530d50409426ca699c32")
PID_Z_TRANSFORMS = (3, "d37d41f84ecddf41b883393c2f517746ff2c7d0f4abbf841bcc80737c95e5ac0")
FUZZ = (960, "20c8a71d10d76a01229a91e24074183685d0b5dec4a494cfc98abf0685882688")
FUZZ_Z_TRANSFORMS = (80, "a4d9bd3ea4bafb5ff2cdef63e49aab5eee87eeb4af326d40de30e08add628445")
BUILDERS = (819, "43e31dfb2172f225d3d1aea664edf097a28e88e88a34416428fff40852dd7600")
ALTERNATING = (283, "795d7168409040f874f61f10739ae92e071dcacc463274a87d7491845ef02166")
DECORATIONS = (344, "29269e7efff35b601528ec87fb46cae61ab6c3fa0a6005f04992af1a04dd8222")
JT = (1245, "e2c0d43a53b0a2d51e34b608582522e6702950468f670e53e0be10e582c232aa")
REPORTS = (273, "305a29e1d27935f93cb22fbbe902cc29a121df3536cec0822af93e7b6247e9a4")
DETERMINANTS = (891, "0124692092e71d56850868f8a7bd0579235ee0529e63f068016e1b4931c16ba3")


def digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _attempt_record(out, transforms):
    """Outcome, iterations, witness, diagonal or residual, and with
    transforms the text of L and R, of one `laurent_smith_attempt`."""
    witness = None if out.witness is None else [str(w) for w in out.witness]
    rest = [str(d) for d in out.smith.diagonal] if out.success else write_matrix(out.residual)
    record = [out.outcome, out.iterations, witness, rest]
    if transforms:
        form = out.smith if out.success else out
        record.append(write_matrix(form.left) + write_matrix(form.right))
    return record


def laurent_attempt_records():
    """Every Laurent attempt of the round suite at ceiling 6, at the
    default and at a tight step limit, with and without transforms."""
    records = []
    for label, spec, ring in harness._round_instances(6):
        if ring != "laurent":
            continue
        try:
            M = harness.family_matrix_for_ring(spec, ring)[0]
        except DomainError:
            continue
        for max_steps in (10000, 50):
            for transforms in (False, True):
                out = laurent_smith_attempt(M, max_steps=max_steps, transforms=transforms)
                records.append([label] + _attempt_record(out, transforms))
    return records


def laurent_round8_records():
    """Every Laurent attempt of the round suite at ceiling 8, at the
    default step limit and without transforms, as `run_report` runs it."""
    records = []
    for label, spec, ring in harness._round_instances(8):
        if ring != "laurent":
            continue
        try:
            M = harness.family_matrix_for_ring(spec, ring)[0]
        except DomainError:
            continue
        out = laurent_smith_attempt(M, transforms=False)
        records.append([label] + _attempt_record(out, False))
    return records


@cache
def _pid_forms():
    """The Smith forms over "z" and "qpoly", with transforms, of two boxes
    and a tau quotient: (records, z_transforms), where each record holds
    the ring, the diagonal and, over "qpoly", the text of L and R, and
    z_transforms the text of L and R over "z"."""
    records, z_transforms = [], []
    for spec in (FamilySpec("ppbox", 3, 3, 3), FamilySpec("ppbox", 4, 3, 2),
                 FamilySpec(variant="ppbox-quotient", a=4, b=3, c=3, group="tau")):
        for ring in ("z", "qpoly"):
            form = smith_normal_form(harness.family_matrix_for_ring(spec, ring)[0])
            transforms = [write_matrix(form.left), write_matrix(form.right)]
            records.append([ring, [str(d) for d in form.diagonal]]
                           + (transforms if ring == "qpoly" else []))
            if ring == "z":
                z_transforms.append(transforms)
    return records, z_transforms


def pid_form_records():
    """Everything of `_pid_forms` but the integer transforms."""
    return _pid_forms()[0]


def pid_z_transform_records():
    """The text of L and R of the integer forms of `_pid_forms`."""
    return _pid_forms()[1]


def _random_entry(rng, ring, unitless):
    """A random entry, zero with probability 0.6; never a unit when
    `unitless`."""
    if rng.random() < 0.6:
        return 0
    if ring == "z":
        return rng.choice((2, -2, 3, 4, -6) if unitless else (1, -1, 1, 2, -3, 5))
    if ring == "qpoly":
        coeffs = [rng.choice((0, 1, -1, 2, Fraction(1, 2))) for _ in range(rng.randint(1, 3))]
        if unitless or not any(coeffs):
            coeffs.append(rng.choice((1, -1, 3)))
        return RationalPoly(coeffs)
    terms = {rng.randint(-1, 2): rng.choice((1, -1, 2, -3)) for _ in range(rng.randint(1, 2))}
    f = LaurentPoly(terms)
    if unitless and f.span == 0 and abs(f.trailing_coeff()) == 1:
        f = f * 2
    return f


def _random_matrix(rng, ring):
    """A random m x n matrix, 0 <= m, n <= 6, square about half the time.
    One in three has no unit entry, one in three none in its lower right
    block."""
    m = rng.randint(0, 6)
    n = m if rng.random() < 0.5 else rng.randint(0, 6)
    mode = rng.randrange(3)
    rows = [[_random_entry(rng, ring, mode == 1 or (mode == 2 and 2 * i >= m and 2 * j >= n))
             for j in range(n)] for i in range(m)]
    return ExactMatrix(m, n, ring, rows)


@cache
def _fuzz(seed=18, count=80):
    """For `count` random matrices per ring: over "z" and "qpoly" the Smith
    form with transforms (diagonal, L, R, `verify`) and `_smith_diagonal`;
    over "laurent" `laurent_smith_attempt` at step limits 0, 1, 2, 50 and
    10000, with and without transforms.  Returns (records, z_transforms),
    with the text of the integer L and R, each after the text of its
    matrix, in z_transforms and not in records."""
    rng = random.Random(seed)
    records, z_transforms = [], []
    for ring in ("z", "qpoly", "laurent"):
        for _ in range(count):
            M = _random_matrix(rng, ring)
            head = [ring, write_matrix(M)]
            if ring != "laurent":
                form = smith_normal_form(M)
                transforms = [write_matrix(form.left), write_matrix(form.right)]
                if ring == "z":
                    z_transforms.append([head[1]] + transforms)
                    transforms = []
                records.append(head + [[str(d) for d in form.diagonal]] + transforms
                               + [form.verify(M), [str(d) for d in _smith_diagonal(M)]])
                continue
            for max_steps in (0, 1, 2, 50, 10000):
                for transforms in (False, True):
                    out = laurent_smith_attempt(M, max_steps=max_steps, transforms=transforms)
                    records.append(head + [max_steps] + _attempt_record(out, transforms))
    return records, z_transforms


def fuzz_records():
    """Everything of `_fuzz` but the integer transforms."""
    return _fuzz()[0]


def fuzz_z_transform_records():
    """The text of L and R of the integer forms of `_fuzz`."""
    return _fuzz()[1]


def _builder_specs():
    """The family specs built by the round suite at ceiling 8 and by the
    sides of the q = -1 suite at ceiling 10, each q-weighted one also
    without its weights, keyed by their JSON in order of first
    appearance."""
    specs = [spec for _, spec, _ in harness._round_instances(8)]
    for _, pairs, *sides, _ in harness._Q_MINUS_ONE:
        for g, gp in pairs:
            for (a, b, c) in harness._ordered_triples(10):
                if ("tau" in g and b != c) or ("rho" in g and not a == b == c):
                    continue
                for variant, key, q_mode, _ in sides:
                    group = {"G": g, "G'": gp}[key]
                    specs.append(FamilySpec(variant="ppbox" if group == "1" else variant,
                                            a=a, b=b, c=c, group=group, q_mode=q_mode,
                                            wrong_parity=variant == "ppbox-impossible"))
    out = {}
    for spec in specs:
        for mode in dict.fromkeys((spec.q_mode, "none")):
            spec2 = FamilySpec(**{**spec.to_json(), "q_mode": mode})
            out.setdefault(json.dumps(spec2.to_json(), sort_keys=True), spec2)
    return list(out.items())


def _graph_text(G):
    """`dump_graph` without its indentation, which is slow to encode."""
    return json.dumps(graph_to_json(G), sort_keys=True)


def builder_records():
    """For every spec of `_builder_specs`: the graph JSON of the build, of
    its monogamous resolution (None when nothing is polygamous) and of its
    Kasteleyn decoration (None for skew shapes, which carry their signing),
    and the text of its matrix; or the message of the `DomainError` that
    refuses it.  Then, for every skew graph of `verify jt 6`, its graph
    JSON and the text of its bipartite matrix."""
    records = []
    for key, spec in _builder_specs():
        try:
            G = build_family_graph(spec)
            M, kind, R = _decorated_matrix(G, spec.variant)
        except DomainError as exc:
            records.append([key, "DomainError", str(exc)])
            continue
        decorated = None
        if spec.variant != "skew-shape":
            decorated = _graph_text(kasteleyn_percus_sign(R) if kind == "M" else kasteleyn_orient(R))
        records.append([key, _graph_text(G), None if R is G else _graph_text(R), decorated,
                        kind, write_matrix(M)])
    for lam in harness._partitions_upto(6):
        for mu in harness._mu_candidates(lam):
            for a in range(1, harness._JT_MAX_A + 1):
                Z = build_skew_graph(lam, mu, a)
                records.append([list(lam), list(mu), a, _graph_text(Z),
                                write_matrix(adjacency_matrix(Z, "bipartite"))])
    return records


def decoration_records():
    """The Kasteleyn decoration (`kasteleyn_percus_sign` of a properly
    2-colored graph, `kasteleyn_orient` otherwise) of every build of the
    round suite at ceiling 6, after its monogamous resolution, at tree
    seeds 1, 2 and 3, which shuffle the dual spanning tree, and of the
    projective `antipodal_cube_quotient` at seeds 0 to 3: the graph JSON,
    or the message of the `DomainError` that refuses the build or the
    decoration."""
    graphs = []
    records = []
    for label, spec, _ in harness._round_instances(6):
        try:
            G = build_family_graph(spec)
            if any(v.kind != MONO for v in G.vertices):
                G = monogamous_resolution(G)
        except DomainError as exc:
            records.append([label, "DomainError", str(exc)])
            continue
        graphs.append((label, G, (1, 2, 3)))
    graphs.append(("antipodal cube quotient", antipodal_cube_quotient(), (0, 1, 2, 3)))
    for label, G, seeds in graphs:
        decorate = kasteleyn_percus_sign if G.is_bipartite_colored() else kasteleyn_orient
        for seed in seeds:
            try:
                text = _graph_text(decorate(G, seed))
            except DomainError as exc:
                text = ["DomainError", str(exc)]
            records.append([label, seed, text])
    return records


def jt_records(ceiling=6):
    """For every nonempty J, D and M that `verify_theorems("jt", ceiling)`
    hands to `_det_and_qpoly_invariants`, in its order: lambda, mu, a,
    which matrix, its rows and columns, the text of its determinant, and
    its Q[q] free rank and factor strings."""
    records = []
    for lam in sorted(harness._partitions_upto(ceiling), key=lambda t: (sum(t), t)):
        for mu in harness._mu_candidates(lam):
            for a in range(1, harness._JT_MAX_A + 1):
                Z = build_skew_graph(harness.Partition(lam), harness.Partition(mu), a)
                matrices = {"J": jacobi_trudi(lam, mu, a),
                            "D": jacobi_trudi(lam, mu, a, dual=True),
                            "M": adjacency_matrix(Z, "bipartite")}
                for which, X in matrices.items():
                    if X.rows == 0:
                        continue
                    det, inv = _det_and_qpoly_invariants(X)
                    records.append([list(lam), list(mu), a, which, X.rows, X.cols, str(det),
                                    inv.free_rank, list(inv.factor_strings())])
    return records


def report_records(ceiling=8):
    """Every `run_report` of the round suite at `ceiling`, as its JSON
    without the duration: free rank, factor strings and diagnostics, round
    and square-free verdicts, oracle check and count, and notes; for an
    instance the report refuses, the DomainError message."""
    records = []
    for label, spec, ring in harness._round_instances(ceiling):
        try:
            rep = harness.run_report(spec, ring).to_json()
        except DomainError as exc:
            records.append([label, ring, "DomainError", str(exc)])
            continue
        del rep["duration"]
        records.append([label, rep])
    return records


def determinant_records(ceiling=8, seed=18, draws=200):
    """The text of `determinant` of every square matrix of the round suite at
    `ceiling`, each Laurent spec over "laurent", "qpoly" and "z@q0" at
    q0 = -1 and each integer spec over "z", with the DomainError message of
    each refused build; then of the square ones among `draws` matrices per
    ring drawn by `_random_matrix` at `seed`."""
    records = []
    for label, spec, ring in harness._round_instances(ceiling):
        for target in ("laurent", "qpoly", "z@q0") if ring == "laurent" else (ring,):
            try:
                M = harness.family_matrix_for_ring(spec, target, q0=-1)[0]
            except DomainError as exc:
                records.append([label, target, "DomainError", str(exc)])
                continue
            if M.rows == M.cols:
                records.append([label, target, M.rows, str(determinant(M))])
    rng = random.Random(seed)
    for ring in ("z", "qpoly", "laurent"):
        for k in range(draws):
            M = _random_matrix(rng, ring)
            if M.rows == M.cols:
                records.append([ring, k, M.rows, str(determinant(M))])
    return records


def _random_alternating(rng):
    """A random alternating integer matrix of size 0 to 10: dense, sparse,
    with even entries only (no unit), or singular (C^T A C for an
    alternating m x m A and a random m x n C, m < n)."""
    n = rng.randint(0, 10)
    mode = rng.choice(("dense", "sparse", "even", "singular"))
    m = rng.randint(0, n - 1) if mode == "singular" and n else n

    def entry():
        if mode == "sparse":
            return 0 if rng.random() < 0.7 else rng.choice((1, -1, 2, -3))
        if mode == "even":
            return 0 if rng.random() < 0.4 else rng.choice((2, -2, 4, -6, 6))
        return rng.randint(-9, 9)

    grid = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            grid[i][j] = entry()
            grid[j][i] = -grid[i][j]
    A = ExactMatrix(m, m, "z", grid)
    if m == n:
        return A
    C = ExactMatrix(m, n, "z", [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
    return C.transpose() * A * C


def alternating_records(seed=23, count=240):
    """For `count` seeded random alternating matrices (`_random_alternating`),
    then for every kind "A" integer matrix of the round suite at ceiling 8
    and for the kappa quotients of the boxes 6 x 6 x 6 and 8 x 8 x 8: the
    size n, the block entries of `alternating_smith_form` and, for even
    n, the Pfaffian.  The transform B is not recorded: it depends on the
    elimination order, and `AltSmithForm.verify` checks it exactly."""
    rng = random.Random(seed)
    matrices = [_random_alternating(rng) for _ in range(count)]
    for _, spec, ring in harness._round_instances(8):
        if ring != "z":
            continue
        try:
            M, kind, _ = harness.family_matrix_for_ring(spec, ring)
        except DomainError:
            continue
        if kind == "A":
            matrices.append(M)
    for a in (6, 8):
        spec = FamilySpec(variant="ppbox-quotient", a=a, b=a, c=a, group="kappa")
        matrices.append(harness.family_matrix_for_ring(spec, "z")[0])
    records = []
    for M in matrices:
        record = [M.rows, list(alternating_smith_form(M).block_entries)]
        if M.rows % 2 == 0:
            record.append(pfaffian(M))
        records.append(record)
    return records
