"""Builders for the tiling families: hexagon graphs with q-weights,
symmetry quotients and impossible variants, skew-shape strips, Jacobi-Trudi
matrices, Gessel-Viennot DAGs with transit-free resolution, Aztec diamonds
and Delannoy matrices.

Triangle-lattice conventions.  Lattice points are integer pairs (x, y) in
the sheared basis e1 = east, e2 = 60 degrees; up-triangles U(x, y) have
corners (x, y), (x+1, y), (x, y+1) and down-triangles D(x, y) have corners
(x+1, y), (x, y+1), (x+1, y+1).  The (a, b, c) hexagon is the box
0 <= x <= b+c, 0 <= y <= a+c, c <= x+y <= a+b+c.  Vertex ids are assigned
in sorted lattice order; labels carry the lattice encoding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import comb, floor

from kasteleyn.graphs import (
    MONO,
    Edge,
    EmbeddedGraph,
    Vertex,
    kasteleyn_orient,
    kasteleyn_percus_sign,
    monogamous_resolution,
    adjacency_matrix,
    trace_faces,
    _cut_and_tie,
    _rotation,
    _Surgeon,
)
from kasteleyn.matrices import ExactMatrix
from kasteleyn.rings import DomainError, LaurentPoly, gaussian_binomial


# ---------------------------------------------------------------------------
# partitions


class Partition:
    """Weakly decreasing nonnegative parts; trailing zeros are dropped."""

    def __init__(self, parts=()):
        ps = [int(p) for p in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        if any(p < 0 for p in ps):
            raise DomainError("partition parts must be nonnegative")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise DomainError("partition parts must be weakly decreasing")
        self.parts = tuple(ps)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i] if i < len(self.parts) else 0

    def __eq__(self, other):
        other = Partition(other) if not isinstance(other, Partition) else other
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def contains(self, other):
        other = other if isinstance(other, Partition) else Partition(other)
        return all(other[i] <= self[i] for i in range(len(other)))

    def conjugate(self):
        if not self.parts:
            return Partition()
        return Partition(
            [sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1)]
        )

    def __repr__(self):
        return f"Partition{self.parts}"


# ---------------------------------------------------------------------------
# family specification


_VARIANTS = (
    "ppbox",
    "ppbox-quotient",
    "ppbox-impossible",
    "hex-minus-triangle",
    "skew-shape",
    "aztec",
    "delannoy",
)

# The ten symmetry groups, each listed as its elements in a fixed order
# (identity first), spelled as words over the generators r = rho (rotation
# by a third of a turn), k = kappa (complementation, the half-turn) and
# t = tau (transposition, a reflection); the rightmost letter acts first.
_GROUPS = {
    "1": ("",),
    "rho": ("", "r", "rr"),
    "tau": ("", "t"),
    "kappa": ("", "k"),
    "rho,kappa": ("", "r", "rr", "k", "kr", "krr"),
    "kappa-tau": ("", "kt"),
    "kappa-tau,rho": ("", "r", "rr", "kt", "ktr", "ktrr"),
    "tau,kappa": ("", "t", "k", "kt"),
    "tau,rho": ("", "r", "rr", "t", "tr", "trr"),
    "tau,rho,kappa": ("", "r", "rr", "k", "kr", "krr", "t", "tr", "trr", "tk", "tkr", "tkrr"),
}


@dataclass
class FamilySpec:
    variant: str = "ppbox"
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    e: int = 0
    n: int = 0
    group: str = "1"
    q_mode: str = "none"          # none | cube | orbit
    wrong_parity: bool = False
    lam: tuple = ()
    mu: tuple = ()

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.group not in _GROUPS:
            raise DomainError(f"unknown group {self.group!r}")
        if self.q_mode not in ("none", "cube", "orbit"):
            raise DomainError(f"unknown q_mode {self.q_mode!r}")
        self.lam = tuple(self.lam)
        self.mu = tuple(self.mu)
        if min(self.a, self.b, self.c, self.n, 0) < 0:
            raise DomainError("parameters must be nonnegative")
        if _needs_rho(self.group) and not (self.a == self.b == self.c):
            raise DomainError(f"group {self.group} needs a = b = c")
        if _needs_tau(self.group) and self.b != self.c:
            raise DomainError(f"group {self.group} needs b = c")

    def to_json(self):
        return asdict(self)

    @staticmethod
    def from_json(data):
        return FamilySpec(**data)


def _needs_rho(group):
    return any("r" in word for word in _GROUPS[group])


def _needs_tau(group):
    return any("t" in word for word in _GROUPS[group])


# ---------------------------------------------------------------------------
# triangle-region graphs


def _tri_center(tri):
    kind, x, y = tri
    if kind == "U":
        return (6 * x + 3 * y + 3, 3 * y + 1)
    return (6 * x + 3 * y + 6, 3 * y + 2)


def _tri_neighbors(tri):
    kind, x, y = tri
    if kind == "U":
        return [("D", x, y), ("D", x - 1, y), ("D", x, y - 1)]
    return [("U", x, y), ("U", x + 1, y), ("U", x, y + 1)]


def _tri_corners(tri):
    kind, x, y = tri
    if kind == "U":
        return {(x, y), (x + 1, y), (x, y + 1)}
    return {(x + 1, y), (x, y + 1), (x + 1, y + 1)}


def triangle_region_graph(tris, exclude_edges=()):
    """Dual graph of a set of unit triangles: vertices are triangles
    (U black, D white), edges are shared sides, faces traced from the
    embedding.  Face lattice points are recorded for q-weighting."""
    tris = set(tris)
    excl = {frozenset(p) for p in exclude_edges}
    order = sorted(tris, key=lambda t: (t[1], t[2], t[0]))
    vid = {t: i for i, t in enumerate(order)}
    verts = [
        Vertex(i, MONO, "black" if t[0] == "U" else "white", f"{t[0]}({t[1]},{t[2]})")
        for i, t in enumerate(order)
    ]
    coords = {i: _tri_center(t) for i, t in enumerate(order)}
    edges = []
    for t in order:
        if t[0] != "U":
            continue
        for nb in _tri_neighbors(t):
            if nb in tris and not (excl and frozenset((t, nb)) in excl):
                edges.append(Edge(len(edges), vid[t], vid[nb]))
    faces, outer = trace_faces(coords, [(e.id, e.u, e.v) for e in edges])
    G = EmbeddedGraph(verts, edges, faces, "sphere", outer, coords)
    # face -> lattice point (the unique point shared by all its triangles)
    corners = [_tri_corners(t) for t in order]
    points = []
    for fi, walk in enumerate(faces):
        if fi == outer or not walk:
            points.append(None)
            continue
        common = set.intersection(*(corners[v] for v in G.walk_vertices(walk)))
        points.append(common.pop() if len(common) == 1 else None)
    G.flags["face_points"] = points
    G.flags["triangles"] = dict(enumerate(order))
    G.validate()
    return G


def _band_tris(X, Y, S1, S2):
    """Triangles of the box 0 <= x <= X, 0 <= y <= Y whose corners all lie
    in the band S1 <= x + y <= S2."""
    tris = set()
    for x in range(X):
        for y in range(Y):
            if S1 <= x + y <= S2 - 1:
                tris.add(("U", x, y))
            if S1 - 1 <= x + y <= S2 - 2:
                tris.add(("D", x, y))
    return tris


def hexagon_tris(a, b, c):
    """Triangles of the (a, b, c) semiregular hexagon."""
    return _band_tris(b + c, a + c, c, a + b + c)


def build_hexagon_graph(a, b, c):
    """Dual graph Z(a, b, c) of the lozenge tilings of the (a,b,c) hexagon."""
    if min(a, b, c) < 1:
        raise DomainError("hexagon dimensions must be positive")
    return triangle_region_graph(hexagon_tris(a, b, c))


def hexagon_minus_triangle_tris(a, b, c, d, e):
    """Hexagon with sides (a, b+d, c, a+d, b, c+d) minus a centered triangle
    of size |e| (upside-down when e < 0)."""
    if min(a, b, c) < 1 or d < 0:
        raise DomainError("bad hexagon-minus-triangle parameters")
    X, Y, S1, S2 = a + b + d, b + c + d, b, a + b + c + d
    tris = _band_tris(X, Y, S1, S2)
    if e == 0:
        return tris
    cx = Fraction(S1 + S2 + 2 * X - Y, 6)
    cy = Fraction(S1 + S2 + 2 * Y - X, 6)

    def rnd(t):
        return floor(t + Fraction(1, 2))

    removed = set()
    if e > 0:
        x0 = rnd(cx - Fraction(e, 3))
        y0 = rnd(cy - Fraction(e, 3))
        for x in range(x0, x0 + e):
            for y in range(y0, y0 + e):
                if x + y <= x0 + y0 + e - 1:
                    removed.add(("U", x, y))
                if x + y <= x0 + y0 + e - 2:
                    removed.add(("D", x, y))
    else:
        m = -e
        x0 = rnd(cx + Fraction(m, 3))
        y0 = rnd(cy + Fraction(m, 3))
        s0 = x0 + y0 - m
        for x in range(x0 - m, x0):
            for y in range(y0 - m, y0):
                if x + y >= s0:
                    removed.add(("U", x, y))
                if x + y >= s0 - 1:
                    removed.add(("D", x, y))
    if not removed <= tris:
        raise DomainError("removed triangle does not fit inside the hexagon")
    return tris - removed


def build_hex_minus_triangle(a, b, c, d, e):
    return triangle_region_graph(hexagon_minus_triangle_tris(a, b, c, d, e))


# ---------------------------------------------------------------------------
# symmetry maps on triangles and lattice points


def tri_map_rho(a):
    def f(tri):
        k, x, y = tri
        if k == "U":
            return ("U", 3 * a - x - y - 1, x)
        return ("D", 3 * a - x - y - 2, x)
    return f


def pt_map_rho(a):
    return lambda p: (3 * a - p[0] - p[1], p[0])


def tri_map_kappa(a, b, c):
    def f(tri):
        k, x, y = tri
        if k == "U":
            return ("D", b + c - 1 - x, a + c - 1 - y)
        return ("U", b + c - 1 - x, a + c - 1 - y)
    return f


def pt_map_kappa(a, b, c):
    return lambda p: (b + c - p[0], a + c - p[1])


def tri_map_tau(a, b):
    def f(tri):
        k, x, y = tri
        if k == "U":
            return ("D", 2 * b - 1 - x, x + y - b)
        return ("U", 2 * b - 1 - x, x + y - b + 1)
    return f


def pt_map_tau(a, b):
    return lambda p: (2 * b - p[0], p[0] + p[1] - b)


def _compose(f, g):
    return lambda t: f(g(t))


def _word_maps(words, rho, kappa, tau):
    """The maps spelled by words over r = rho, k = kappa and t = tau; the
    rightmost letter acts first."""
    gens = {"r": rho, "k": kappa, "t": tau}
    return [reduce(_compose, [gens[g] for g in w]) if w else (lambda x: x) for w in words]


def _group_words(group):
    if group not in _GROUPS:
        raise DomainError(f"unknown group {group!r}")
    return _GROUPS[group]


def group_tri_maps(group, a, b, c):
    """All elements of the symmetry group as triangle maps (identity first)."""
    return _word_maps(_group_words(group), tri_map_rho(a), tri_map_kappa(a, b, c),
                      tri_map_tau(a, b))


def group_pt_maps(group, a, b, c):
    """The elements of group_tri_maps, in the same order, as lattice-point maps."""
    return _word_maps(_group_words(group), pt_map_rho(a), pt_map_kappa(a, b, c),
                      pt_map_tau(a, b))


def _tau_conjugates(group, a, b, c):
    """The reflections of the group whose axes bisect edges: tau, and for
    groups with rho also its two conjugates by rho."""
    words = ("t", "rtrr", "rrtr") if _needs_rho(group) else ("t",)
    return _word_maps(words, tri_map_rho(a), tri_map_kappa(a, b, c), tri_map_tau(a, b))


def _vertex_perm_from_tri_map(G, tri_map):
    """Vertex permutation induced on a triangle-region graph."""
    vid_of = {t: i for i, t in G.flags["triangles"].items()}
    return {vid_of[t]: vid_of[img] for t, img in _tri_images(vid_of, tri_map)}


def _edge_perm_from_vertex_perm(G, vperm):
    by_pair = {}
    for e in G.edges:
        by_pair[frozenset((e.u, e.v))] = e.id
    out = {}
    for e in G.edges:
        key = frozenset((vperm[e.u], vperm[e.v]))
        if key not in by_pair:
            raise DomainError("vertex permutation is not a graph automorphism")
        out[e.id] = by_pair[key]
    return out


# ---------------------------------------------------------------------------
# rotation quotients


def quotient_by_rotations(G, tri_maps):
    """Quotient of a triangle-region graph by a group of orientation
    preserving automorphisms given as triangle maps (identity included)."""
    n_el = len(tri_maps)
    vperms = [_vertex_perm_from_tri_map(G, f) for f in tri_maps]
    eperms = [_edge_perm_from_vertex_perm(G, vp) for vp in vperms]

    def orbit_rep(x, perms):
        return min(p[x] for p in perms)

    v_rep = {v.id: orbit_rep(v.id, vperms) for v in G.vertices}
    e_rep = {e.id: orbit_rep(e.id, eperms) for e in G.edges}
    kept_vs = sorted(set(v_rep.values()))
    kept_es = sorted(set(e_rep.values()))

    # direction flip of each edge relative to its orbit representative
    flip = {}
    for e in G.edges:
        rep = e_rep[e.id]
        for vp, ep in zip(vperms, eperms):
            if ep[rep] == e.id:
                flip[e.id] = e.u != vp[G.edge(rep).u]
                break

    # orbits that merge the two color classes make the quotient non-bipartite
    orbit_of = {}
    for v in G.vertices:
        orbit_of.setdefault(v_rep[v.id], set()).add(v.color)
    mixed = any(len(cols) > 1 for cols in orbit_of.values())
    verts = []
    for v in kept_vs:
        rec = G.vertex(v)
        verts.append(Vertex(v, rec.kind, None if mixed else rec.color, rec.label))
    edges = []
    for eid in kept_es:
        e = G.edge(eid)
        edges.append(Edge(eid, v_rep[e.u], v_rep[e.v], e.weight))

    # face orbits: every dart lies on exactly one face walk, so a group
    # element maps a face onto the face of the image of its first dart; a
    # face with stabilizer of order t contributes one walk of one period
    # (len / t)
    face_of = {dart: fi for fi, walk in enumerate(G.faces) for dart in walk}
    face_orbits = {}
    for fi, walk in enumerate(G.faces):
        eid, fwd = walk[0]
        e = G.edge(eid)
        tail = e.u if fwd else e.v
        members = set()
        for vp, ep in zip(vperms, eperms):
            img = G.edge(ep[eid])
            members.add(face_of[img.id, img.u == vp[tail]])
        face_orbits[fi] = frozenset(members)

    done = set()
    faces = []
    infinite = None
    points = []
    src_points = G.flags.get("face_points")
    for fi in range(len(G.faces)):
        orb = face_orbits[fi]
        if orb in done:
            continue
        done.add(orb)
        rep = min(orb)
        walk = list(G.faces[rep])
        t = n_el // len(orb)
        L = len(walk)
        if L % t:
            raise DomainError("face stabilizer does not divide the walk length")
        period = L // t
        qwalk = [(e_rep[eid], fwd != flip[eid]) for eid, fwd in walk[:period]]
        if t > 1:
            # check periodicity of the quotient image
            full = [(e_rep[eid], fwd != flip[eid]) for eid, fwd in walk]
            for i in range(L):
                if full[i][0] != full[i % period][0]:
                    raise DomainError("face walk is not periodic under the stabilizer")
        faces.append(qwalk)
        if rep == G.infinite_face or G.infinite_face in orb:
            infinite = len(faces) - 1
        if src_points is not None:
            points.append(src_points[rep])
    out = EmbeddedGraph(verts, edges, faces, "sphere", infinite,
                        {v: G.coords[v] for v in kept_vs})
    out.flags["face_points"] = points
    if "triangles" in G.flags:
        out.flags["triangles"] = {v: G.flags["triangles"][v] for v in kept_vs}
    out.validate()
    return out


# ---------------------------------------------------------------------------
# cut-and-tie quotients (reflections with bisected edges)


def tie_quotient(G, bisected, wrong_parity=False):
    """Remove the bisected edges, keep the component containing the smallest
    vertex id, and tie its cut stubs to one polygamous vertex (parity per the
    even-total rule, flipped by wrong_parity)."""
    bis = set(bisected)
    comp = G._components(bis)
    kept_root = min(comp.values())
    kept = {v for v, r in comp.items() if r == kept_root}
    if all((G.edge(eid).u in kept) == (G.edge(eid).v in kept) for eid in bis):
        raise DomainError("tie quotient found no cut stubs on the kept side")
    return _cut_and_tie(G, kept, bis, wrong_parity)


def _fixed_edges(G, tri_map):
    """Edges mapped to themselves with endpoints swapped (bisected)."""
    vperm = _vertex_perm_from_tri_map(G, tri_map)
    out = []
    for e in G.edges:
        if vperm[e.u] == e.v and vperm[e.v] == e.u:
            out.append(e.id)
    return out


def _tri_images(tris, tri_map):
    """The pairs (t, tri_map(t)) over a region of triangles; the map must
    send the region into itself."""
    out = []
    for t in tris:
        img = tri_map(t)
        if img not in tris:
            raise DomainError(f"triangle map leaves the region at {t} -> {img}")
        out.append((t, img))
    return out


def _central_pair(a, b, c):
    """The two triangles of the (a, b, c) hexagon whose shared side, the
    central edge of Z(a, b, c), the half-turn maps to itself; None if
    there is no such side."""
    pairs = [(t, img) for t, img in _tri_images(hexagon_tris(a, b, c), tri_map_kappa(a, b, c))
             if t[0] == "U" and img in _tri_neighbors(t)]
    if len(pairs) > 1:
        raise DomainError("more than one central edge")
    return pairs[0] if pairs else None


def _keep_component(tris, dropped):
    """Connected component (triangle adjacency) containing the smallest
    remaining triangle after dropping some triangles."""
    remain = set(tris) - set(dropped)
    if not remain:
        raise DomainError("nothing remains after the cut")
    start = min(remain, key=lambda t: (t[1], t[2], t[0]))
    comp = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for nb in _tri_neighbors(t):
            if nb in remain and nb not in comp:
                comp.add(nb)
                stack.append(nb)
    return comp


def _kappa_quotient(a, b, c, flipped):
    """The half-turn quotient Z_kappa.  Around a central edge it deletes the
    edge's two triangles when exactly one dimension is even and the edge
    alone otherwise; flipped swaps the two conventions (Z'_kappa), so that
    the vertex count comes out odd."""
    pair = _central_pair(a, b, c)
    if pair is None:
        return quotient_by_rotations(build_hexagon_graph(a, b, c),
                                     group_tri_maps("kappa", a, b, c))
    one_even = sum(1 for t in (a, b, c) if t % 2 == 0) == 1
    if one_even != flipped:
        sub = triangle_region_graph(hexagon_tris(a, b, c) - set(pair))
    else:
        sub = triangle_region_graph(hexagon_tris(a, b, c), exclude_edges=[pair])
    return quotient_by_rotations(sub, group_tri_maps("kappa", a, b, c))


def symmetry_quotient(spec):
    """The modified quotient graph Z_G(a,b,c), case by case.  The hexagon
    graph Z(a,b,c) is built only where the quotient is taken of it; the
    central edge and the fixed triangles are found on the triangles."""
    a, b, c, g = spec.a, spec.b, spec.c, spec.group
    if min(a, b, c) < 1:
        raise DomainError("hexagon dimensions must be positive")
    if g == "1":
        return build_hexagon_graph(a, b, c)
    if g in ("rho", "rho,kappa"):
        return quotient_by_rotations(build_hexagon_graph(a, b, c), group_tri_maps(g, a, b, c))
    if g == "kappa":
        return _kappa_quotient(a, b, c, flipped=False)
    if g in ("tau", "tau,rho"):
        Z = build_hexagon_graph(a, b, c)
        bis = set()
        for f in _tau_conjugates(g, a, b, c):
            bis.update(_fixed_edges(Z, f))
        return tie_quotient(Z, bis, spec.wrong_parity)
    if g in ("kappa-tau", "kappa-tau,rho", "tau,kappa", "tau,rho,kappa"):
        # cut along the points fixed by the kappa-tau elements; keep a sector
        h_group = "kappa-tau,rho" if _needs_rho(g) else "kappa-tau"
        tris = hexagon_tris(a, b, c)
        fixed = set()
        for f in group_tri_maps(h_group, a, b, c)[1:]:
            fixed.update(t for t, img in _tri_images(tris, f) if img == t)
        sub = triangle_region_graph(_keep_component(tris, fixed))
        if g == h_group:
            return sub
        # the kept sector is bisected by exactly one conjugate of tau
        for cand in _tau_conjugates(g, a, b, c):
            try:
                bis = _fixed_edges(sub, cand)
            except DomainError:
                continue
            if bis:
                return tie_quotient(sub, bis, spec.wrong_parity)
        raise DomainError("no tau conjugate acts on the kept sector")
    raise DomainError(f"unsupported quotient group {g!r}")


def impossible_variant(spec):
    """The deliberately-matchless variants: all-odd kappa quotients, the
    flipped central-edge conventions Z'_kappa, wrong-parity polygamous
    quotients Z'_G, and hexagons minus an off-size triangle."""
    a, b, c, g = spec.a, spec.b, spec.c, spec.group
    if spec.variant == "hex-minus-triangle":
        if spec.d == spec.e:
            raise DomainError("d = e is the possible variant, not an impossible one")
        return build_hex_minus_triangle(a, b, c, spec.d, spec.e)
    if g == "kappa":
        # without a central edge (all dimensions odd, or all even) this is
        # the plain quotient; all-odd has odd vertex count, the impossible
        # enumeration
        return _kappa_quotient(a, b, c, flipped=True)
    if g == "rho,kappa" or _needs_tau(g):
        return symmetry_quotient(replace(spec, wrong_parity=True))
    raise DomainError(f"no impossible variant for group {g!r}")


# ---------------------------------------------------------------------------
# q-weights


def apply_q_weights(Z, spec, mode):
    """Power-of-q edge weights realizing the cube or orbit q-enumeration.

    For the plain box the ascending rule is closed-form; for quotients the
    exponents are solved from the face system: around every finite face the
    alternating exponent sum equals the face's cube-orbit size (cube mode)
    or 1 (orbit mode)."""
    if mode not in ("cube", "orbit"):
        raise DomainError(f"unknown q-weight mode {mode!r}")
    if spec.group == "1":
        return _weight_plain_box(Z)
    return _weight_by_face_system(Z, spec, mode)


def _weight_plain_box(Z):
    out = Z.clone()
    tri_of = out.flags["triangles"]
    for e in out.edges:
        tu, tv = tri_of[e.u], tri_of[e.v]
        up, dn = (tu, tv) if tu[0] == "U" else (tv, tu)
        if (dn[1], dn[2]) == (up[1], up[2] - 1):
            e.weight = LaurentPoly.q_power(up[1])
    return out


def _face_entry_sign(G, eid, fwd):
    e = G.edge(eid)
    tail = e.u if fwd else e.v
    return 1 if G.vertex(tail).color == "black" else -1


def _weight_by_face_system(Z, spec, mode):
    pts = Z.flags.get("face_points")
    if pts is None:
        raise DomainError("quotient lacks face lattice points; cannot q-weight")
    pmaps = group_pt_maps(spec.group, spec.a, spec.b, spec.c)
    eids = sorted(e.id for e in Z.edges)
    col = {eid: i for i, eid in enumerate(eids)}
    rows = []
    rhs = []
    for fi, walk in enumerate(Z.faces):
        if fi == Z.infinite_face:
            continue
        if mode == "cube":
            p = pts[fi]
            if p is None:
                raise DomainError("face without a lattice point cannot be q-weighted")
            delta = len({f(p) for f in pmaps})
        else:
            delta = 1
        row = {}
        for eid, fwd in walk:
            j = col[eid]
            row[j] = row.get(j, 0) + _face_entry_sign(Z, eid, fwd)
        rows.append({j: x for j, x in row.items() if x})
        rhs.append(delta)
    sol = _solve_rational(rows, rhs, len(eids))
    if sol is None:
        raise DomainError("face exponent system is insoluble")
    out = Z.clone()
    for e in out.edges:
        x = sol[col[e.id]]
        if x.denominator != 1:
            raise DomainError("face exponent system has no integer solution")
        if x:
            e.weight = LaurentPoly.q_power(int(x))
    return out


def _solve_rational(rows, rhs, n):
    """A rational solution of the system sum_j rows[i][j] x_j = rhs[i] in n
    unknowns, each row a map column -> nonzero int, with every free
    unknown 0; None if the system is insoluble.  Gauss-Jordan on sparse
    rows, pivoting on the columns in increasing order: the solution is
    read off the reduced row echelon form, which is unique."""
    # the right-hand side rides along as column n; entries stay ints until
    # a pivot other than 1 or -1 divides them
    A = [dict(row) for row in rows]
    for row, b in zip(A, rhs):
        if b:
            row[n] = b
    m = len(A)
    piv_cols = []
    r = 0
    for cidx in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if cidx in A[i]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        prow = A[r]
        pv = prow[cidx]
        if pv == -1:
            prow = A[r] = {j: -x for j, x in prow.items()}
        elif pv != 1:
            prow = A[r] = {j: Fraction(x) / pv for j, x in prow.items()}
        for i in range(m):
            f = A[i].get(cidx) if i != r else None
            if f:
                row = A[i]
                for j, x in prow.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        piv_cols.append(cidx)
        r += 1
    if any(n in A[i] for i in range(r, m)):
        return None
    sol = [Fraction(0)] * n
    for i, cidx in enumerate(piv_cols):
        sol[cidx] = Fraction(A[i].get(n, 0))
    return sol


# ---------------------------------------------------------------------------
# Gessel-Viennot graphs


class GVGraph:
    """Acyclic directed weighted graph with ordered left/right endpoints and
    an optional straight-line embedding for the planar operations."""

    def __init__(self, vertices, edges, lefts, rights, coords=None):
        self.vertices = sorted(vertices)
        self.edges = list(edges)          # (id, tail, head, weight)
        self.lefts = list(lefts)
        self.rights = list(rights)
        self.coords = dict(coords) if coords else {}
        vs = set(self.vertices)
        for _, t, h, _ in self.edges:
            if t not in vs or h not in vs:
                raise DomainError("edge endpoint missing from the vertex set")

    def topo_order(self):
        indeg = {v: 0 for v in self.vertices}
        outs = {v: [] for v in self.vertices}
        for eid, t, h, w in self.edges:
            indeg[h] += 1
            outs[t].append((eid, h, w))
        # a sorted list is a heap
        ready = sorted(v for v in self.vertices if indeg[v] == 0)
        order = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for _, h, _ in outs[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    heappush(ready, h)
        if len(order) != len(self.vertices):
            raise DomainError("Gessel-Viennot graph has a directed cycle")
        return order, outs


def gv_matrix(g):
    """V[i][j] = total weight of directed paths from left i to right j; a
    coinciding left/right endpoint contributes the empty path."""
    if len(g.lefts) != len(g.rights):
        raise DomainError("need equally many left and right endpoints")
    order, outs = g.topo_order()
    laurent = any(isinstance(w, LaurentPoly) for _, _, _, w in g.edges)
    ring = "laurent" if laurent else "z"
    zero = LaurentPoly.zero() if laurent else 0
    one = LaurentPoly.one() if laurent else 1
    grid = []
    for left in g.lefts:
        ways = {v: zero for v in g.vertices}
        ways[left] = one
        for v in order:
            wv = ways[v]
            if wv == zero:
                continue
            for _, h, w in outs[v]:
                ways[h] = ways[h] + wv * (LaurentPoly.coerce(w) if laurent else w)
        grid.append([ways[r] for r in g.rights])
    return ExactMatrix.from_rows(grid, ring) if grid else ExactMatrix(0, 0, ring, [])


def transit_free_resolution(g):
    """Split every transit vertex into a sink and a source joined by a
    weight -1 edge; the matchings of the resulting bipartite planar graph
    are bijective with the disjoint path families of g.

    The faces of the reduced graph are traced from its coordinates, and a
    `_Surgeon` built on the traced vertices, edges and walks makes every
    split with `split_off`; no graph is built in between.  A split keeps
    V - E + F, the two face sides of every edge, closed walks and the
    component count, so the output's `validate()` checks the trace too.

    Vertex ids in the output: sources (left endpoints in order, then the
    split source-copies) take 0..B-1, sinks take B..B+W-1, so the signed
    bipartite adjacency matrix equals the Gessel-Viennot matrix of the
    resolution entrywise.
    """
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
    s = _Surgeon(
        {v: Vertex(v) for v in sorted(verts)},
        {i: Edge(i, t, h, weight[i]) for i, t, h in plain_edges},
        faces, outer, coords,
    )

    # indeg and outdeg now count the edges kept
    transit = sorted(v for v in verts if indeg[v] > 0 and outdeg[v] > 0)
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


# ---------------------------------------------------------------------------
# skew shapes


def skew_gv_graph(lam, mu, a):
    """The square-grid path model of skew tableaux with parts bounded by a:
    horizontal edges in height-j rows point left with weight q^j, vertical
    edges point up; left endpoints sit on the bottom at the lambda notches,
    right endpoints on top at the mu notches."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if not lam.contains(mu):
        raise DomainError("mu must be contained in lambda")
    if a < 1:
        raise DomainError("need at least one part bound")
    if len(lam) == 0:
        raise DomainError("lambda must be nonempty")
    bb = len(lam)
    w = lam[0] + bb
    ids = {}
    coords = {}
    k = 0
    for col in range(1, w + 1):
        for row in range(a):
            ids[col, row] = k
            coords[k] = (2 * col, 2 * row)
            k += 1
    edges = []
    eid = 0
    for col in range(1, w + 1):
        for row in range(a):
            if col > 1:
                edges.append((eid, ids[col, row], ids[col - 1, row], LaurentPoly.q_power(row)))
                eid += 1
            if row + 1 < a:
                edges.append((eid, ids[col, row], ids[col, row + 1], 1))
                eid += 1
    lefts = [ids[lam[i - 1] + bb + 1 - i, 0] for i in range(1, bb + 1)]
    rights = [ids[mu[i - 1] + bb + 1 - i, a - 1] for i in range(1, bb + 1)]
    return GVGraph(sorted(ids.values()), edges, lefts, rights, coords)


def build_skew_graph(lam, mu, a):
    """Z(lambda/mu; q_a): the dual graph of the notched-strip lozenge region,
    realized as the transit-free resolution of the grid path model."""
    return transit_free_resolution(skew_gv_graph(lam, mu, a))


def h_at_q(m, a):
    """Complete symmetric function h_m at (1, q, ..., q^(a-1))."""
    if m < 0:
        return LaurentPoly.zero()
    return gaussian_binomial(m + a - 1, m)


def e_at_q(m, a):
    """Elementary symmetric function e_m at (1, q, ..., q^(a-1))."""
    if m < 0:
        return LaurentPoly.zero()
    return LaurentPoly.q_power(m * (m - 1) // 2) * gaussian_binomial(a, m)


def jacobi_trudi(lam, mu=(), a=1, dual=False):
    """J(lambda/mu; q_a) (size = #parts) or its dual D (size = lambda_1)."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if not lam.contains(mu):
        raise DomainError("mu must be contained in lambda")
    if dual:
        lamc, muc = lam.conjugate(), mu.conjugate()
        n = len(lamc)
        grid = [
            [e_at_q(lamc[i] - muc[j] - i + j, a) for j in range(n)]
            for i in range(n)
        ]
    else:
        n = len(lam)
        grid = [
            [h_at_q(lam[i] - mu[j] - i + j, a) for j in range(n)]
            for i in range(n)
        ]
    if n == 0:
        return ExactMatrix(0, 0, "laurent", [])
    return ExactMatrix.from_rows(grid, "laurent")


# ---------------------------------------------------------------------------
# Aztec diamonds and Delannoy matrices


def build_aztec_graph(n):
    """Dual graph Z_A(n) of the order-n Aztec diamond, squares as vertices."""
    if n < 1:
        raise DomainError("Aztec order must be positive")
    squares = []
    for i in range(-n - 1, n + 1):
        for j in range(-n - 1, n + 1):
            if abs(2 * i + 1) + abs(2 * j + 1) <= 2 * n:
                squares.append((i, j))
    squares.sort()
    vid = {sq: k for k, sq in enumerate(squares)}
    verts = [
        Vertex(k, MONO, "black" if (sq[0] + sq[1]) % 2 == 0 else "white", f"sq({sq[0]},{sq[1]})")
        for k, sq in enumerate(squares)
    ]
    coords = {vid[sq]: (2 * sq[0] + 1, 2 * sq[1] + 1) for sq in squares}
    edges = []
    eid = 0
    for sq in squares:
        for d in ((1, 0), (0, 1)):
            nb = (sq[0] + d[0], sq[1] + d[1])
            if nb in vid:
                edges.append(Edge(eid, vid[sq], vid[nb]))
                eid += 1
    faces, outer = trace_faces(coords, [(e.id, e.u, e.v) for e in edges])
    G = EmbeddedGraph(verts, edges, faces, "sphere", outer, coords)
    G.flags["squares"] = {k: sq for sq, k in vid.items()}
    G.validate()
    return G


def aztec_reflection_maps(G):
    """Vertical-mirror data for Z_A(n): vertex map, edge map, bisected edges."""
    squares = G.flags["squares"]
    vid = {sq: k for k, sq in squares.items()}
    vmap = {k: vid[(-1 - sq[0], sq[1])] for k, sq in squares.items()}
    bisected = [e.id for e in G.edges if vmap[e.u] == e.v]
    return vmap, _edge_perm_from_vertex_perm(G, vmap), bisected


def binomial_matrix(n):
    return ExactMatrix.from_rows(
        [[comb(i, j) for j in range(n)] for i in range(n)], "z"
    )


def binomial_matrix_inverse(n):
    return ExactMatrix.from_rows(
        [[(-1) ** ((i - j) % 2) * comb(i, j) for j in range(n)] for i in range(n)], "z"
    )


def left_shift_matrix(n):
    """L(n): the n x n identity left of a null column."""
    return ExactMatrix.from_rows(
        [[1 if i == j else 0 for j in range(n + 1)] for i in range(n)], "z"
    )


def right_shift_matrix(n):
    """R(n): the n x n identity right of a null column."""
    return ExactMatrix.from_rows(
        [[1 if j == i + 1 else 0 for j in range(n + 1)] for i in range(n)], "z"
    )


def aztec_matrix_closed_form(n):
    """M_A(n) as the four-term Kronecker combination."""
    L, R = left_shift_matrix(n), right_shift_matrix(n)
    Lt, Rt = L.transpose(), R.transpose()
    return R.kron(Rt) + L.kron(Rt) + R.kron(Lt) - L.kron(Lt)


def aztec_matrix_reduced(n):
    """M'(n) = R kron R^T - 2 L kron L^T, equivalent to M_A(n)."""
    L, R = left_shift_matrix(n), right_shift_matrix(n)
    return R.kron(R.transpose()) - (L.kron(L.transpose()) * 2)


def aztec_x_block(k):
    return ExactMatrix.from_rows(
        [[1 if i == j else (-2 if j == i + 1 else 0) for j in range(k)] for i in range(k)],
        "z",
    )


def aztec_y_block(k):
    return ExactMatrix.from_rows(
        [[-2 if i == j else (1 if j == i + 1 else 0) for j in range(k)] for i in range(k)],
        "z",
    )


def delannoy_matrix(n):
    """V(n)[i][j] = Delannoy number D(i, j), filled by the recurrence."""
    if n < 1:
        raise DomainError("Delannoy size must be positive")
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == 0 or j == 0:
                grid[i][j] = 1
            else:
                grid[i][j] = grid[i][j - 1] + grid[i - 1][j] + grid[i - 1][j - 1]
    return ExactMatrix.from_rows(grid, "z")


def delannoy_closed_form(n):
    return ExactMatrix.from_rows(
        [
            [sum(comb(i, k) * comb(j, k) * 2 ** k for k in range(min(i, j) + 1)) for j in range(n)]
            for i in range(n)
        ],
        "z",
    )


def delannoy_gv_graph(n):
    """The diamond-grid path model of the Aztec diamond: its transit-free
    resolution is Z_A(n), and its Gessel-Viennot matrix has Delannoy
    entries (the first left and right endpoints coincide)."""
    if n < 1:
        raise DomainError("order must be positive")
    ids = {}
    coords = {}
    k = 0
    for u in range(n + 1):
        for v in range(n + 1):
            ids[u, v] = k
            coords[k] = (u + v - n, v - u)
            k += 1
    edges = []
    eid = 0
    for u in range(n + 1):
        for v in range(n + 1):
            if u + 1 <= n:
                edges.append((eid, ids[u, v], ids[u + 1, v], 1))
                eid += 1
            if v - 1 >= 0:
                edges.append((eid, ids[u, v], ids[u, v - 1], 1))
                eid += 1
            if u + 1 <= n and v - 1 >= 0:
                edges.append((eid, ids[u, v], ids[u + 1, v - 1], 1))
                eid += 1
    lefts = [ids[0, kk] for kk in range(n + 1)]
    rights = [ids[kk, 0] for kk in range(n + 1)]
    return GVGraph(sorted(ids.values()), edges, lefts, rights, coords)


# ---------------------------------------------------------------------------
# fixtures: the antipodal cube quotient on the projective plane


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


# ---------------------------------------------------------------------------
# family dispatch


def build_family_graph(spec):
    """Build the embedded graph for a family instance, q-weighted when the
    spec asks for it."""
    if spec.variant == "ppbox":
        G = build_hexagon_graph(spec.a, spec.b, spec.c)
    elif spec.variant == "ppbox-quotient":
        G = symmetry_quotient(spec)
    elif spec.variant == "ppbox-impossible":
        G = impossible_variant(spec)
    elif spec.variant == "hex-minus-triangle":
        G = build_hex_minus_triangle(spec.a, spec.b, spec.c, spec.d, spec.e)
    elif spec.variant == "skew-shape":
        G = build_skew_graph(Partition(spec.lam), Partition(spec.mu), spec.a)
    elif spec.variant == "aztec":
        G = build_aztec_graph(spec.n)
    elif spec.variant == "delannoy":
        raise DomainError("delannoy is a matrix family; use delannoy_matrix")
    else:
        raise DomainError(f"unknown variant {spec.variant!r}")
    if spec.q_mode != "none" and spec.variant in ("ppbox", "ppbox-quotient", "ppbox-impossible"):
        G = apply_q_weights(G, spec, spec.q_mode)
    return G


def family_matrix(spec):
    """The family's Kasteleyn-Percus matrix M (bipartite monogamous cases)
    or Kasteleyn matrix A (after monogamous resolution); returns
    (matrix, kind) with kind "M" or "A"."""
    if spec.variant == "delannoy":
        return delannoy_matrix(spec.n), "M"
    M, kind, _ = _decorated_matrix(build_family_graph(spec), spec.variant)
    return M, kind


def _decorated_matrix(G, variant, tree_seed=0):
    """Resolve polygamy, then sign (bipartite) or orient G along the dual
    spanning tree chosen by tree_seed; returns (matrix, kind, resolved G)."""
    if any(v.kind != MONO for v in G.vertices):
        G = monogamous_resolution(G)
    if variant == "skew-shape":
        # the transit-free resolution already carries a flat signing
        return adjacency_matrix(G, "bipartite"), "M", G
    if G.is_bipartite_colored():
        return adjacency_matrix(kasteleyn_percus_sign(G, tree_seed), "bipartite"), "M", G
    return adjacency_matrix(kasteleyn_orient(G, tree_seed), "alternating"), "A", G
