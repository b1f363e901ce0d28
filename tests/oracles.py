"""Independent brute-force oracles used across the test suite: plane
partitions as cube sets, symmetry actions on cubes, skew tableaux,
Schur specializations, the permutation expansion of a determinant, a
ring-generic Bareiss determinant, the row expansion of a Pfaffian, a candidate-by-candidate Laurent lattice
step, Laurent long division, the products rebuilt from a q-round and a smooth
factorization, the Fourier duality matrix built from
the witness transforms and rational inverses, the dense
row-by-column matrix product and Kronecker product, the matching
frontier program on frozenset states with LaurentPoly totals, the
dense Gauss-Jordan solve of a rational linear system, the
transit-free resolution through an intermediate embedded graph, the
determinantal divisors by minor expansion, the degree check of a
matching, the rotation at a vertex read off the face walks, and the
projective fixtures: the 3-cube and its antipodal quotient, that quotient
with face 0 split, and the Moebius ladders."""

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import mul

from kasteleyn.graphs import (EVEN, MONO, ODD, Edge, EmbeddedGraph, Vertex, _corners_at,
                              _rotation, _Surgeon, trace_faces)
from kasteleyn.matrices import ExactMatrix, determinant, ring_adapter, smith_normal_form
from kasteleyn.rings import (DomainError, ExactDivisionError, GuardExceeded, LaurentPoly,
                             cyclotomic, q_integer)


def plane_partitions(a, b, c):
    """All downward-closed subsets of the a x b x c box, as frozensets of
    (i, j, k) cubes."""
    cols = list(product(range(a), range(b)))

    def rec(idx, heights):
        if idx == len(cols):
            cubes = frozenset(
                (i, j, k)
                for (i, j), h in heights.items()
                for k in range(h)
            )
            yield cubes
            return
        i, j = cols[idx]
        hi = c
        if i > 0:
            hi = min(hi, heights[i - 1, j])
        if j > 0:
            hi = min(hi, heights[i, j - 1])
        for h in range(hi + 1):
            heights[i, j] = h
            yield from rec(idx + 1, heights)
        del heights[i, j]

    yield from rec(0, {})


def cube_map(group, a, b, c):
    """Generators of the symmetry action on cubes of the a x b x c box."""
    def rho(cube):
        i, j, k = cube
        return (j, k, i)

    def tau(cube):
        i, j, k = cube
        return (i, k, j)

    def kappa_set(cubes):
        box = set(product(range(a), range(b), range(c)))
        return frozenset(
            (a - 1 - i, b - 1 - j, c - 1 - k) for (i, j, k) in box - set(cubes)
        )

    return rho, tau, kappa_set


def group_elements_on_pp(group, a, b, c):
    """The group as maps on plane partitions (cube sets)."""
    rho, tau, kappa_set = cube_map(group, a, b, c)

    def lift(f):
        return lambda cubes: frozenset(f(x) for x in cubes)

    ident = lambda s: s
    R = lift(rho)
    T = lift(tau)
    K = kappa_set
    R2 = lambda s: R(R(s))
    table = {
        "1": [ident],
        "rho": [ident, R, R2],
        "tau": [ident, T],
        "kappa": [ident, K],
        "rho,kappa": [ident, R, R2, K, lambda s: K(R(s)), lambda s: K(R2(s))],
        "kappa-tau": [ident, lambda s: K(T(s))],
        "tau,kappa": [ident, T, K, lambda s: K(T(s))],
        "tau,rho": [ident, R, R2, T, lambda s: T(R(s)), lambda s: T(R2(s))],
        "kappa-tau,rho": [
            ident, R, R2,
            lambda s: K(T(s)), lambda s: K(T(R(s))), lambda s: K(T(R2(s))),
        ],
        "tau,rho,kappa": [
            ident, R, R2, T, lambda s: T(R(s)), lambda s: T(R2(s)),
            K, lambda s: K(R(s)), lambda s: K(R2(s)),
            lambda s: K(T(s)), lambda s: K(T(R(s))), lambda s: K(T(R2(s))),
        ],
    }
    return table[group]


def invariant_pps(group, a, b, c):
    els = group_elements_on_pp(group, a, b, c)
    out = []
    for pp in plane_partitions(a, b, c):
        if all(g(pp) == pp for g in els):
            out.append(pp)
    return out


def pp_qgen_cubes(pps):
    """Generating Laurent polynomial by cube count."""
    total = LaurentPoly.zero()
    for pp in pps:
        total = total + LaurentPoly.q_power(len(pp))
    return total


def macmahon_box_qgen(a, b, c):
    """MacMahon's product for the cube-count generating function of plane
    partitions in the a x b x c box:
    prod over 1 <= i <= a, 1 <= j <= b, 1 <= k <= c of
    (i+j+k-1)_q / (i+j+k-2)_q, formed from q-integers and divided exactly."""
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        num = num * q_integer(i + j + k - 1)
        den = den * q_integer(i + j + k - 2)
    return num.divide(den)


def pp_qgen_orbits(pps, group, a, b, c):
    """Generating polynomial by number of cube orbits."""
    rho, tau, kappa_set = cube_map(group, a, b, c)

    def cube_orbit_count(pp, group):
        gens = []
        if group in ("rho", "tau,rho"):
            gens.append(rho)
        if group in ("tau", "tau,rho"):
            gens.append(tau)
        if group == "rho":
            gens = [rho]
        if group == "tau":
            gens = [tau]
        seen = set()
        orbits = 0
        for cube in pp:
            if cube in seen:
                continue
            orbits += 1
            stack = [cube]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                for g in gens:
                    stack.append(g(x))
        return orbits

    total = LaurentPoly.zero()
    for pp in pps:
        total = total + LaurentPoly.q_power(cube_orbit_count(pp, group))
    return total


def polys_equal_up_to_unit(f, g):
    """True when f = +-q^k g."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    _, _, fn = f.unit_normalize()
    _, _, gn = g.unit_normalize()
    return fn == gn


def skew_tableaux_qgen(lam, mu, a):
    """Sum of q^(sum of (entry - 1)) over semistandard skew tableaux of
    shape lam/mu with entries in 1..a; equals s_{lam/mu}(1, q, .., q^(a-1))."""
    lam = list(lam)
    mu = list(mu) + [0] * (len(lam) - len(mu))
    rows = len(lam)
    cells = [(r, c) for r in range(rows) for c in range(mu[r], lam[r])]
    total = LaurentPoly.zero()

    def rec(idx, filling, weight):
        nonlocal total
        if idx == len(cells):
            total = total + LaurentPoly.q_power(weight)
            return
        r, c = cells[idx]
        lo = 1
        if c > mu[r]:
            lo = max(lo, filling[r, c - 1])
        if r > 0 and c >= mu[r - 1] and c < lam[r - 1]:
            lo = max(lo, filling[r - 1, c] + 1)
        for v in range(lo, a + 1):
            filling[r, c] = v
            rec(idx + 1, filling, weight + v - 1)
        filling.pop((r, c), None)

    rec(0, {}, 0)
    return total


def permutation_det(grid):
    """Leibniz expansion of the determinant of a square grid; exact for
    int and Fraction entries."""
    n = len(grid)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = (-1) ** inv
        for i in range(n):
            term *= grid[i][perm[i]]
        total += term
    return total


def pfaffian_reference(M):
    """The Pfaffian of an alternating ExactMatrix by expansion along the
    first row, sub-Pfaffians memoized on their index tuples; division-free,
    in the matrix's own ring."""
    ring = ring_adapter(M.ring)
    rows = M.entries
    memo = {(): ring.one}

    def pf(sub):
        if sub not in memo:
            i0, rest = sub[0], sub[1:]
            total = ring.zero
            for pos, j in enumerate(rest):
                a = rows[i0][j]
                if not ring.is_zero(a):
                    term = a * pf(tuple(x for x in rest if x != j))
                    total = total + (term if pos % 2 == 0 else -term)
            memo[sub] = total
        return memo[sub]

    return pf(tuple(range(M.rows)))


def bareiss_reference(M):
    """The determinant of a square ExactMatrix by fraction-free (Bareiss)
    elimination in its own ring: one ring product and one exact ring
    division per update, with the row swap and the skip of updates that
    stay zero of the library kernel."""
    ring = ring_adapter(M.ring)
    n = M.rows
    if n == 0:
        return ring.one
    A = M.to_lists()
    is_zero = ring.is_zero
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if is_zero(A[k][k]):
            piv = next((i for i in range(k + 1, n) if not is_zero(A[i][k])), None)
            if piv is None:
                return ring.zero
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        pivot, row_k = A[k][k], A[k]
        zero_k = [is_zero(x) for x in row_k]
        for i in range(k + 1, n):
            row = A[i]
            a_ik = row[k]
            zero_ik = is_zero(a_ik)
            for j in range(k + 1, n):
                cross = not (zero_ik or zero_k[j])
                if not cross and is_zero(row[j]):
                    continue
                num = row[j] * pivot
                if cross:
                    num = num - a_ik * row_k[j]
                q = ring.try_div(num, prev)
                if q is None:
                    raise ExactDivisionError("Bareiss division failed")
                row[j] = q
            row[k] = ring.zero
        prev = A[k][k]
    d = A[n - 1][n - 1]
    return -d if sign < 0 else d


def dense_product(A, B):
    """A * B with every entry the row-by-column sum sum(map(mul, row, col),
    zero) over all k, zero entries included."""
    zero = ring_adapter(A.ring).zero
    cols = list(zip(*B.entries)) if B.rows else [()] * B.cols
    return ExactMatrix(A.rows, B.cols, A.ring,
                       [[sum(map(mul, row, col), zero) for col in cols] for row in A.entries])


def kron_reference(A, B):
    """The Kronecker product A (x) B with every entry the product
    A[i, j] * B[k, l] over all index pairs, zero entries included."""
    return ExactMatrix(A.rows * B.rows, A.cols * B.cols, A.ring,
                       [[A[i, j] * B[k, l] for j in range(A.cols) for l in range(B.cols)]
                        for i in range(A.rows) for k in range(B.rows)])


def _laurent_size(f):
    """(span, |lead|, |trail|, L1 norm) of f, (-1, 0, 0, 0) for zero."""
    if f.is_zero():
        return (-1, 0, 0, 0)
    g = f.normal()
    return (g.span, abs(g.leading_coeff()), abs(g.trailing_coeff()),
            sum(abs(c) for _, c in g.items()))


def _centered(a, b):
    """Quotient q with |a - q b| <= |b| / 2, deterministic at ties."""
    q, rem = divmod(a, b)
    if 2 * abs(rem) > abs(b):
        q += 1 if b > 0 else -1
    return q


def lattice_step_reference(r, p):
    """The Laurent lattice step, building every candidate polynomial: over
    the shifts s that overlap r, take the centered projection c0 of r on
    q^s p and try r - c q^s p for c in {c0, c0 + 1, c0 - 1} - {0}; return
    (c q^s, r - c q^s p) for the first strictly smallest candidate by
    (span, |lead|, |trail|, L1 norm) if it is smaller than r, else None."""
    pp = sum(c * c for _, c in p.items())
    rt = dict(r.items())
    base = _laurent_size(r)
    best = None
    for s in range(r.min_exp - p.max_exp, r.max_exp - p.min_exp + 1):
        c0 = _centered(sum(c * rt.get(e + s, 0) for e, c in p.items()), pp)
        for c in {c0, c0 + 1, c0 - 1} - {0}:
            f = LaurentPoly.q_power(s, c)
            r2 = r - f * p
            s2 = _laurent_size(r2)
            if s2 < base and (best is None or s2 < best[0]):
                best = (s2, f, r2)
    return None if best is None else (best[1], best[2])


def laurent_reduce_reference(b, p):
    """The Laurent reduction of b modulo ring multiples of p on LaurentPoly
    values, building every candidate: (t, r) with r = b - t p.  Until r is
    zero: stop at the exact quotient; for a monomial p = c q^k, reduce every
    coefficient of r to its centered residue mod |c| (halves toward zero);
    when r is at least as long as p, subtract the centered quotient of r's
    top or bottom coefficient by p's times the matching shift of p,
    whichever end gives the smaller r if any does; otherwise take
    `lattice_step_reference`.  Stop when no step applies."""
    t = LaurentPoly.zero()
    r = b
    while not r.is_zero():
        full = r.try_divide(p)
        if full is not None:
            return t + full, LaurentPoly.zero()
        if p.span == 0:
            c = abs(p.trailing_coeff())
            psign = 1 if p.trailing_coeff() > 0 else -1
            k = p.min_exp
            step = {}
            for e, ce in r.items():
                qq = ce // c if ce >= 0 else -((-ce) // c)
                if abs(ce - qq * c) > c // 2 and c > 1:
                    qq += 1 if ce > 0 else -1
                if qq:
                    step[e - k] = qq * psign
            if not step:
                return t, r
            mono = LaurentPoly(step)
            t = t + mono
            r = r - mono * p
            continue
        best = None
        if r.span >= p.span:
            base = _laurent_size(r)
            top = _centered(r.leading_coeff(), p.leading_coeff())
            bottom = _centered(r.trailing_coeff(), p.trailing_coeff())
            for e, c in ((r.max_exp - p.max_exp, top), (r.min_exp - p.min_exp, bottom)):
                if c:
                    f = LaurentPoly.q_power(e, c)
                    r2 = r - f * p
                    s2 = _laurent_size(r2)
                    if s2 < base and (best is None or s2 < best[0]):
                        best = (s2, f, r2)
        step = lattice_step_reference(r, p) if best is None else best[1:]
        if step is None:
            return t, r
        t = t + step[0]
        r = step[1]
    return t, r


def laurent_divide_reference(f, g):
    """The exact quotient f / g in Z[q, q^-1] by schoolbook long division
    from the top term, or None when g does not divide f."""
    if f.is_zero():
        return LaurentPoly.zero()
    top, lead = g.max_exp, g.leading_coeff()
    lowest = f.min_exp - g.min_exp   # lowest exponent an exact quotient can have
    rem = dict(f.items())
    quot = {}
    while rem:
        e = max(rem)
        c = rem[e]
        s = e - top
        if c % lead or s < lowest:
            return None
        quot[s] = c // lead
        for d, cd in g.items():
            v = rem.get(d + s, 0) - quot[s] * cd
            if v:
                rem[d + s] = v
            else:
                rem.pop(d + s, None)
    return LaurentPoly(quot)


def q_round_rebuild(out):
    """sign * q^exp * (the product of the factors) * residual of a
    `factor_q_round` outcome, each factor rebuilt from its tag."""
    f = LaurentPoly.q_power(out.exp, out.sign)
    for tag, n in out.factors:
        f = f * (q_integer(n) if tag == "q-integer" else cyclotomic(n))
    return f * out.residual


def smooth_rebuild(out):
    """sign * (the product of the primes) * residual of a `smooth_factor`
    outcome."""
    return out.sign * math.prod(out.primes) * out.residual


def _fraction_inverse(M):
    """The inverse of a nonsingular integer matrix over Q, by Gauss-Jordan
    elimination on Fraction entries."""
    n = M.rows
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M.entries)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def fourier_reference(M):
    """U[x, y] = exp(2 pi i Y^T M^-1 X) / sqrt(|det M|) for a nonsingular
    square integer matrix M, with the phase summed term by term in Fraction:
    X = L^-1 r lifts the classes of coker M and Y = (R^-1)^T s those of
    coker M^T, for L M R = diag(d) from `smith_normal_form` and r, s in mixed
    radix over the d_i."""
    D = abs(determinant(M))
    n = M.rows
    form = smith_normal_form(M)
    ds = [abs(d) for d in form.diagonal]
    Linv = _fraction_inverse(form.left)
    Rinv = _fraction_inverse(form.right)
    Minv = _fraction_inverse(M)
    reps = [[]]
    for d in ds:
        reps = [r + [v] for r in reps for v in range(d)]
    assert len(reps) == D
    xs = [[sum(Linv[i][j] * r[j] for j in range(n)) for i in range(n)] for r in reps]
    ys = [[sum(Rinv[j][i] * r[j] for j in range(n)) for i in range(n)] for r in reps]
    scale = 1.0 / math.sqrt(D)
    U = []
    for X in xs:
        MX = [sum(Minv[i][j] * X[j] for j in range(n)) for i in range(n)]
        row = []
        for Y in ys:
            t = sum(Y[i] * MX[i] for i in range(n))
            frac = t - math.floor(t)
            row.append(cmath.exp(2j * math.pi * float(frac)) * scale)
        U.append(row)
    return U


ListedMatchingSet = namedtuple("ListedMatchingSet", "count total_weight matchings weights",
                               defaults=(None, None))


def enumerate_matchings_reference(G, count_guard=64, list_guard=28):
    """`enumerate_matchings` as a frontier program whose states are
    frozensets of later vertices with degree bit 1 and whose totals are
    ring elements (LaurentPoly products and sums over Z[q, q^-1]), with the
    library's vertex order, moves and guard.  Up to `list_guard` vertices
    it also lists every matching (an edge-id frozenset) and its weight, in
    the order the program reaches them; above it `matchings` and `weights`
    are None."""
    if G.n_vertices > count_guard:
        raise GuardExceeded(
            f"{G.n_vertices} vertices exceed the matching-oracle guard {count_guard}"
        )
    listing = G.n_vertices <= list_guard
    monos = sorted(v.id for v in G.vertices if v.kind == MONO)
    polys = sorted(v.id for v in G.vertices if v.kind != MONO)
    order = monos + polys
    rank = {v: i for i, v in enumerate(order)}
    kind = {v.id: v.kind for v in G.vertices}
    forward = {v: [] for v in order}
    for e in sorted(G.edges, key=lambda e: e.id):
        if e.is_loop():
            continue
        a, b = (e.u, e.v) if rank[e.u] < rank[e.v] else (e.v, e.u)
        forward[a].append(e)
    laurent = G.ring() == "laurent"
    one = LaurentPoly.one() if laurent else 1

    def wt(e):
        return LaurentPoly.coerce(e.weight) if laurent else e.weight

    def moves(v, bit):
        fwd = forward[v]
        if kind[v] == MONO:
            sizes = [1 - bit]
        else:
            par = (1 - bit) % 2 if kind[v] == ODD else bit
            sizes = range(par, len(fwd) + 1, 2)
        out = []
        for size in sizes:
            for combo in combinations(fwd, size):
                ends = [e.other(v) for e in combo]
                covers = frozenset(w for w in ends if kind[w] == MONO)
                flips = set()
                weight = one
                for e, w in zip(combo, ends):
                    flips ^= {w}
                    weight = weight * wt(e)
                out.append((tuple(e.id for e in combo), covers,
                            frozenset(flips), weight))
        return out

    states = {frozenset(): [1, one, [((), one)] if listing else None]}
    for v in order:
        options = (moves(v, 0), moves(v, 1))
        nxt = {}
        for state, (count, total, partial) in states.items():
            bit = v in state
            rest = state - {v} if bit else state
            for eids, covers, flips, weight in options[bit]:
                if covers & rest:
                    continue
                key = rest ^ flips
                ext = None if partial is None else [(m + eids, x * weight) for m, x in partial]
                slot = nxt.get(key)
                if slot is None:
                    nxt[key] = [count, total * weight, ext]
                else:
                    slot[0] += count
                    slot[1] = slot[1] + total * weight
                    if ext is not None:
                        slot[2].extend(ext)
        states = nxt
    zero = LaurentPoly.zero() if laurent else 0
    count, total, partial = states.get(frozenset(), [0, zero, [] if listing else None])
    if not listing:
        return ListedMatchingSet(count, total)
    return ListedMatchingSet(count, total, [frozenset(m) for m, _ in partial],
                             [x for _, x in partial])


def solve_rational_reference(rows, rhs, n):
    """A rational solution of the dense system rows x = rhs in n unknowns,
    with every free unknown 0, or None if it is insoluble: Gauss-Jordan on
    full rows of Fractions, pivoting on the columns in increasing order and
    taking the first row below with a nonzero entry."""
    m = len(rows)
    A = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for cidx in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][cidx] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][cidx]
        A[r] = [x / pv for x in A[r]]
        for i in range(m):
            if i != r and A[i][cidx] != 0:
                f = A[i][cidx]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(cidx)
        r += 1
    for i in range(r, m):
        if A[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, cidx in enumerate(piv_cols):
        sol[cidx] = A[i][n]
    return sol


def transit_free_resolution_reference(g):
    """`families.transit_free_resolution` through an intermediate graph:
    the traced faces first become an `EmbeddedGraph`, which is validated,
    `_Surgeon.copy_of` copies it for the splits, and the output is
    validated again.  The output must be the same graph."""
    if not g.coords:
        raise DomainError("transit-free resolution needs an embedded graph")
    lefts, rights = list(g.lefts), list(g.rights)
    lset, rset = set(lefts), set(rights)
    # a coinciding left/right endpoint is forced onto the empty path in any
    # disjoint family (another path through it would share the vertex):
    # remove it with its edges, which is a unit deleted pivot on V
    coincident = lset & rset
    lefts = [v for v in lefts if v not in coincident]
    rights = [v for v in rights if v not in coincident]
    lset, rset = set(lefts), set(rights)
    verts = set(g.vertices) - coincident
    # reduction: edges into a left endpoint or out of a right endpoint are
    # unusable; a vertex other than an endpoint left without an in-edge or
    # without an out-edge dies with its edges, until none is left
    edges = [
        e for e in g.edges
        if e[2] not in lset and e[1] not in rset
        and e[1] not in coincident and e[2] not in coincident
    ]
    indeg = dict.fromkeys(verts, 0)
    outdeg = dict.fromkeys(verts, 0)
    succ = {v: [] for v in verts}
    pred = {v: [] for v in verts}
    for _, t, h, _ in edges:
        indeg[h] += 1
        outdeg[t] += 1
        succ[t].append(h)
        pred[h].append(t)
    endpoints = lset | rset
    dead = {v for v in verts if v not in endpoints and not (indeg[v] and outdeg[v])}
    stack = list(dead)
    while stack:
        v = stack.pop()
        for deg, nbrs in ((indeg, succ[v]), (outdeg, pred[v])):
            for w in nbrs:
                if w not in dead:
                    deg[w] -= 1
                    if not deg[w] and w not in endpoints:
                        dead.add(w)
                        stack.append(w)
    verts -= dead
    edges = [e for e in edges if e[1] in verts and e[2] in verts]
    if len(lefts) != len(rights):
        raise DomainError("endpoint counts differ after reduction")
    if not verts:
        out = EmbeddedGraph([], [], [], "sphere", None)
        out.flags["n_endpoints"] = 0
        return out

    direction = {}
    weight = {}
    plain_edges = []
    for i, (eid, t, h, w) in enumerate(sorted(edges)):
        direction[i] = (t, h)
        weight[i] = w
        plain_edges.append((i, t, h))
    coords = {v: g.coords[v] for v in verts}
    faces, outer = trace_faces(coords, plain_edges)
    base = EmbeddedGraph(
        [Vertex(v) for v in sorted(verts)],
        [Edge(i, t, h, weight[i]) for i, t, h in plain_edges],
        faces,
        "sphere",
        outer,
        coords,
    )
    base.validate()

    # indeg and outdeg now count the edges kept
    transit = sorted(v for v in verts if indeg[v] > 0 and outdeg[v] > 0)
    s = _Surgeon.copy_of(base)
    source_copies = []
    for p in transit:
        corners = s.corners_at(p)
        rot = _rotation(corners, p)
        is_out = [direction[eid][0] == p for eid in rot]
        k = len(rot)
        starts = [i for i in range(k) if is_out[i] and not is_out[i - 1]]
        if len(starts) != 1:
            raise DomainError(f"transit vertex {p} is not segregated")
        st = starts[0]
        out_run = []
        i = st
        while is_out[i % k]:
            out_run.append(rot[i % k])
            i += 1
        r, m = s.split_off(p, corners, rot[st - 1], out_run, MONO, f"src({p})")
        source_copies.append(r)
        weight[m] = -1

    sources = lefts + source_copies
    sinks = rights + transit
    source_set = set(sources)
    if source_set | set(sinks) != set(s.verts):
        raise DomainError("source/sink classification missed a vertex")
    new_id = {}
    for i, v in enumerate(sources):
        new_id[v] = i
    for j, v in enumerate(sinks):
        new_id[v] = len(sources) + j
    verts_out = []
    for vid in sorted(s.verts):
        color = "black" if vid in source_set else "white"
        verts_out.append(Vertex(new_id[vid], MONO, color, s.verts[vid].label))
    edges_out = []
    for eid in sorted(s.edges):
        e = s.edges[eid]
        w = weight[eid]
        sign = 1
        if isinstance(w, int) and w < 0:
            sign, w = -1, -w
        edges_out.append(Edge(eid, new_id[e.u], new_id[e.v], w, sign))
    out = EmbeddedGraph(
        verts_out, edges_out, s.faces, "sphere", s.infinite,
        {new_id[v]: s.coords[v] for v in s.coords if v in new_id},
    )
    out.flags["n_endpoints"] = len(lefts)
    out.validate()
    return out


# minor enumeration is exponential: no matrix beyond 6 x 6
DIVISORS_MAX_DIM = 6


def determinantal_divisors(M):
    """d_k = gcd of all k x k minors of an integer matrix, by exhaustive
    minor expansion with memoization, up to the first zero; refuses
    matrices beyond `DIVISORS_MAX_DIM`."""
    if M.ring != "z":
        raise DomainError("determinantal divisors implemented over the integers")
    if max(M.rows, M.cols) > DIVISORS_MAX_DIM:
        raise GuardExceeded(f"matrix {M.rows}x{M.cols} exceeds the minor-enumeration "
                            f"guard {DIVISORS_MAX_DIM}")
    ent = M.entries
    memo = {}

    def minor(rows, cols):
        if len(rows) == 1:
            return ent[rows[0]][cols[0]]
        key = (rows, cols)
        if key in memo:
            return memo[key]
        r0 = rows[0]
        rest = rows[1:]
        total = 0
        for pos, c in enumerate(cols):
            a = ent[r0][c]
            if a:
                sub = minor(rest, cols[:pos] + cols[pos + 1 :])
                total += a * sub if pos % 2 == 0 else -a * sub
        memo[key] = total
        return total

    out = []
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                g = math.gcd(g, abs(minor(rows, cols)))
        if g == 0:
            break
        out.append(g)
    return out


def is_valid_matching(G, edge_ids):
    """Whether the edges meet every vertex by its kind: once at a
    monogamous vertex, an odd number of times at an odd one, an even number
    at an even one; a loop is never in a matching."""
    deg = {v.id: 0 for v in G.vertices}
    for eid in edge_ids:
        e = G.edge(eid)
        if e.is_loop():
            return False
        deg[e.u] += 1
        deg[e.v] += 1
    for v in G.vertices:
        d = deg[v.id]
        if v.kind == MONO and d != 1:
            return False
        if v.kind == ODD and d % 2 != 1:
            return False
        if v.kind == EVEN and d % 2 != 0:
            return False
    return True


def rotation_at(G, vid):
    """Cyclic edge order around a vertex, recovered from the face corners
    by the surgeon's own readers."""
    edges = G._emap
    arrivals = [(fi, pos) for fi, walk in enumerate(G.faces)
                for pos, (eid, fwd) in enumerate(walk)
                if (edges[eid].v if fwd else edges[eid].u) == vid]
    return _rotation(_corners_at(edges, G.faces, vid, arrivals), vid)


def cube_graph():
    """The 3-cube drawn as nested squares; bipartite by coordinate parity."""
    pts = {
        0: (-3, -3), 1: (3, -3), 2: (3, 3), 3: (-3, 3),
        4: (-1, -1), 5: (1, -1), 6: (1, 1), 7: (-1, 1),
    }
    bits = {0: (0, 0, 0), 1: (1, 0, 0), 2: (1, 1, 0), 3: (0, 1, 0),
            4: (0, 0, 1), 5: (1, 0, 1), 6: (1, 1, 1), 7: (0, 1, 1)}
    colors = {v: ("black" if sum(b) % 2 == 0 else "white") for v, b in bits.items()}
    edge_specs = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                  (0, 4), (1, 5), (2, 6), (3, 7)]
    verts = [Vertex(v, MONO, colors[v]) for v in sorted(pts)]
    edges = [Edge(i, u, v) for i, (u, v) in enumerate(edge_specs)]
    faces, outer = trace_faces(pts, [(e.id, e.u, e.v) for e in edges])
    G = EmbeddedGraph(verts, edges, faces, "sphere", outer, pts)
    G.flags["antipode"] = {0: 6, 6: 0, 1: 7, 7: 1, 2: 4, 4: 2, 3: 5, 5: 3}
    G.validate()
    return G


def antipodal_cube_quotient():
    """K4 on the projective plane: the quotient of the 3-cube by the
    antipodal map, the locally-but-not-globally-bipartite fixture."""
    verts = [Vertex(i, MONO) for i in range(4)]
    # vertex i of K4 = antipodal pair {i, antipode(i)} of the cube
    edge_specs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = [Edge(i, u, v) for i, (u, v) in enumerate(edge_specs)]
    e = {tuple(sorted(p)): i for i, p in enumerate(edge_specs)}
    faces = [
        [(e[0, 1], True), (e[1, 2], True), (e[2, 3], True), (e[0, 3], False)],
        [(e[0, 1], True), (e[1, 3], True), (e[2, 3], False), (e[0, 2], False)],
        [(e[0, 2], True), (e[1, 2], False), (e[1, 3], True), (e[0, 3], False)],
    ]
    G = EmbeddedGraph(verts, edges, faces, "projective", None)
    G.validate()
    return G


def split_antipodal_quotient():
    """`antipodal_cube_quotient` with face 0 split by a path 0 - 4 - 2
    (edges 6 = (0, 4) and 7 = (4, 2)) into the walks 0 1 2 4 and 0 4 2 3:
    every face is even, but V = 5 and no orientation flattens face 0."""
    K4 = antipodal_cube_quotient()
    verts = K4.vertices + [Vertex(4, MONO)]
    edges = K4.edges + [Edge(6, 0, 4), Edge(7, 4, 2)]
    e01, e12, e23, e03 = (e for e, _ in K4.faces[0])
    faces = [
        [(e01, True), (e12, True), (7, False), (6, False)],
        [(6, True), (7, True), (e23, True), (e03, False)],
    ] + K4.faces[1:]
    G = EmbeddedGraph(verts, edges, faces, "projective", None)
    G.validate()
    return G


def mobius_ladder(k):
    """The Moebius ladder M_2k on the projective plane: the ring 0..2k-1
    (edge i = (i, i + 1 mod 2k)) with the chords j to j + k (edge 2k + j);
    the faces are the ring's 2k-gon and the k squares i, i + 1, i + 1 + k,
    i + k.  M_4 is K4."""
    n = 2 * k
    verts = [Vertex(i, MONO) for i in range(n)]
    edges = ([Edge(i, i, (i + 1) % n) for i in range(n)]
             + [Edge(n + j, j, j + k) for j in range(k)])
    faces = [[(i, True) for i in range(n)]]
    for i in range(k):
        # the chord from i + 1 runs forward, except i + 1 = k: chord 0 backward
        up = (n + i + 1, True) if i + 1 < k else (n, False)
        faces.append([(i, True), up, (i + k, False), (n + i, False)])
    G = EmbeddedGraph(verts, edges, faces, "projective", None)
    G.validate()
    return G
