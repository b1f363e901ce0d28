"""Embedded graphs with explicit faces, Kasteleyn-flat decorations,
matching enumeration, polygamy machinery and reflection quotients.

Faces are first-class data (cyclic walks of (edge_id, forward) entries),
never silently recomputed: the cokernel of a Kasteleyn matrix depends on
the embedding, so builders emit faces and operations transform them.
"""

from __future__ import annotations

import json
import random
from functools import cmp_to_key
from itertools import combinations

from kasteleyn.matrices import ExactMatrix, ring_adapter
from kasteleyn.rings import (
    DomainError,
    GuardExceeded,
    LaurentPoly,
    _kronecker_pack,
    _kronecker_unpack,
    _kronecker_width,
    format_laurent,
    parse_laurent,
)

MONO = "mono"
ODD = "odd"
EVEN = "even"

_KINDS = (MONO, ODD, EVEN)

# the matching oracle's default vertex guard, which every report keeps
_ORACLE_GUARD = 64


class Vertex:
    __slots__ = ("id", "kind", "color", "label")

    def __init__(self, vid, kind=MONO, color=None, label=None):
        if kind not in _KINDS:
            raise DomainError(f"bad vertex kind {kind!r}")
        if color not in (None, "black", "white"):
            raise DomainError(f"bad color {color!r}")
        self.id = vid
        self.kind = kind
        self.color = color
        self.label = label

    def clone(self):
        return Vertex(self.id, self.kind, self.color, self.label)

    def __repr__(self):
        return f"V({self.id},{self.kind},{self.color})"


class Edge:
    __slots__ = ("id", "u", "v", "weight", "sign", "orient")

    def __init__(self, eid, u, v, weight=1, sign=None, orient=None):
        if sign not in (None, 1, -1):
            raise DomainError("sign must be None, 1 or -1")
        if orient not in (None, 1, -1):
            raise DomainError("orient must be None, 1 (u->v) or -1 (v->u)")
        self.id = eid
        self.u = u
        self.v = v
        self.weight = weight
        self.sign = sign
        self.orient = orient

    def other(self, w):
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise DomainError(f"vertex {w} not on edge {self.id}")

    def is_loop(self):
        return self.u == self.v

    def clone(self):
        return Edge(self.id, self.u, self.v, self.weight, self.sign, self.orient)

    def __repr__(self):
        return f"E({self.id}:{self.u}-{self.v})"


class EmbeddedGraph:
    """Planar (sphere with marked infinite face) or projective-plane graph.

    faces: list of walks, each walk a sequence of (edge_id, forward)
    tuples, stored as a tuple; forward means the walk traverses the edge
    u -> v.  Entries are taken as given: `graph_from_json` coerces text.
    """

    def __init__(self, vertices, edges, faces, surface="sphere",
                 infinite_face=None, coords=None, flags=None):
        if surface not in ("sphere", "projective"):
            raise DomainError(f"bad surface {surface!r}")
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.faces = [tuple(walk) for walk in faces]
        self.surface = surface
        self.infinite_face = infinite_face
        self.coords = dict(coords) if coords else {}
        self.flags = dict(flags) if flags else {}
        self._vmap = {v.id: v for v in self.vertices}
        self._emap = {e.id: e for e in self.edges}
        if len(self._vmap) != len(self.vertices):
            raise DomainError("duplicate vertex ids")
        if len(self._emap) != len(self.edges):
            raise DomainError("duplicate edge ids")
        adj = self._adj = {v.id: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e.id)
            if e.v != e.u:
                adj[e.v].append(e.id)
        for lst in adj.values():
            lst.sort()

    # -- access

    def vertex(self, vid):
        return self._vmap[vid]

    def edge(self, eid):
        return self._emap[eid]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def ring(self):
        return "laurent" if any(isinstance(e.weight, LaurentPoly) for e in self.edges) else "z"

    def is_bipartite_colored(self):
        if any(v.color is None for v in self.vertices):
            return False
        for e in self.edges:
            if not e.is_loop() and self.vertex(e.u).color == self.vertex(e.v).color:
                return False
        return True

    def _components(self, cut=()):
        """(root, parity): the component root (its smallest vertex id) of
        every vertex and its depth parity, 0 or 1, in the search tree from
        that root, with the edges whose ids are in `cut` removed."""
        emap, adj = self._emap, self._adj
        root, parity = {}, {}
        for start in sorted(self._vmap):
            if start in root:
                continue
            root[start], parity[start] = start, 0
            stack = [start]
            while stack:
                v = stack.pop()
                for eid in adj[v]:
                    if eid in cut:
                        continue
                    e = emap[eid]
                    w = e.v if e.u == v else e.u
                    if w not in root:
                        root[w], parity[w] = start, parity[v] ^ 1
                        stack.append(w)
        return root, parity

    def is_bipartite(self):
        """Two-colorability test, ignoring stored colors: no edge, a loop
        included, joins two vertices of one search-tree parity."""
        parity = self._components()[1]
        return all(parity[e.u] != parity[e.v] for e in self.edges)

    def walk_vertices(self, walk):
        """Vertex sequence visited by a face walk (start vertex of each entry)."""
        out = []
        for eid, fwd in walk:
            e = self._emap[eid]
            out.append(e.u if fwd else e.v)
        return out

    def validate(self):
        emap = self._emap
        seen = {}
        for walk in self.faces:
            prev_head = None
            for eid, fwd in walk:
                e = emap.get(eid)
                if e is None:
                    raise DomainError(f"face walk names unknown edge {eid!r}")
                seen[eid] = seen.get(eid, 0) + 1
                tail, head = (e.u, e.v) if fwd else (e.v, e.u)
                if prev_head is not None and tail != prev_head:
                    raise DomainError(f"face walk not connected at edge {eid}")
                prev_head = head
            if walk:
                first = emap[walk[0][0]]
                tail0 = first.u if walk[0][1] else first.v
                if prev_head != tail0:
                    raise DomainError("face walk does not close")
        for e in self.edges:
            if seen.get(e.id, 0) != 2:
                raise DomainError(
                    f"edge {e.id} lies on {seen.get(e.id, 0)} face sides, expected 2"
                )
        euler = self.n_vertices - self.n_edges + len(self.faces)
        if self.surface == "sphere":
            # every component carries its own face walks (an isolated vertex
            # contributes one empty walk), so V - E + F = 2 per component
            target = 2 * len(set(self._components()[0].values()))
        else:
            target = 1
        if euler != target:
            raise DomainError(f"Euler check failed: V-E+F = {euler}, expected {target}")
        if self.surface == "sphere" and self.faces:
            if self.infinite_face is None or not (0 <= self.infinite_face < len(self.faces)):
                raise DomainError("sphere graphs need a designated infinite face")
        if all(v.color is not None for v in self.vertices):
            vmap = self._vmap
            for e in self.edges:
                if e.u != e.v and vmap[e.u].color == vmap[e.v].color:
                    raise DomainError(f"coloring not proper at edge {e.id}")
        return True

    def clone(self):
        return EmbeddedGraph(
            [v.clone() for v in self.vertices],
            [e.clone() for e in self.edges],
            self.faces,
            self.surface,
            self.infinite_face,
            self.coords,
            self.flags,
        )

    def __repr__(self):
        return (
            f"<EmbeddedGraph V={self.n_vertices} E={self.n_edges} "
            f"F={len(self.faces)} {self.surface}>"
        )


# ---------------------------------------------------------------------------
# JSON format


def _weight_str(w):
    if isinstance(w, LaurentPoly):
        return format_laurent(w, compact=True)
    return ring_adapter("z").to_str(w)


def _weight_parse(value, where):
    """An edge weight from JSON: an integer as `_json_int` reads it, else
    Laurent text."""
    try:
        return _json_int(value, where)
    except DomainError:
        if isinstance(value, str):
            return parse_laurent(value)
        raise


def graph_to_json(G):
    data = {
        "surface": G.surface,
        "infinite_face": G.infinite_face,
        "vertices": [
            {"id": v.id, "kind": v.kind, "color": v.color, "label": v.label}
            for v in G.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "u": e.u,
                "v": e.v,
                "weight": _weight_str(e.weight),
                "sign": e.sign,
                "orientation": e.orient,
            }
            for e in G.edges
        ],
        "faces": [[[eid, bool(d)] for eid, d in walk] for walk in G.faces],
    }
    if G.coords:
        data["coords"] = {str(k): list(v) for k, v in G.coords.items()}
    if G.flags:
        data["flags"] = G.flags
    return data


def _json_field(record, key, where):
    try:
        return record[key]
    except (KeyError, TypeError):
        raise DomainError(f"graph JSON: {where} lacks the field {key!r}") from None


def _json_int(value, where):
    """An integer id from JSON: a JSON integer, or text that `_IntRing.parse`
    reads (an optional sign and ASCII digits); bools are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return ring_adapter("z").parse(value)
        except DomainError:
            pass
    raise DomainError(f"graph JSON: {where} is not an integer: {value!r}")


def _json_array(value, where):
    """`value` when it is a JSON array, else DomainError naming `where`."""
    if isinstance(value, (list, tuple)):
        return value
    raise DomainError(f"graph JSON: {where} is not an array: {value!r}")


def _json_object(value, where):
    """`value` when it is a JSON object or absent (None gives {}), else
    DomainError naming `where`."""
    if value is None or isinstance(value, dict):
        return value or {}
    raise DomainError(f"graph JSON: {where} is not an object: {value!r}")


def _json_unit(value, where):
    """A sign or orientation from JSON: null, or 1 or -1 as `_json_int`
    reads it."""
    if value is None:
        return None
    unit = _json_int(value, where)
    if unit not in (1, -1):
        raise DomainError(f"graph JSON: {where} is not 1, -1 or null: {value!r}")
    return unit


def graph_from_json(data):
    """The graph of `graph_to_json`; malformed data raises DomainError
    naming the field."""
    verts = [
        Vertex(_json_int(_json_field(v, "id", "a vertex"), "vertex id"),
               v.get("kind", MONO), v.get("color"), v.get("label"))
        for v in _json_array(_json_field(data, "vertices", "the graph"), "vertices")
    ]
    vids = {v.id for v in verts}
    edges = []
    for e in _json_array(_json_field(data, "edges", "the graph"), "edges"):
        eid = _json_int(_json_field(e, "id", "an edge"), "edge id")
        u, v = (_json_int(_json_field(e, end, f"edge {eid}"), f"edge {eid} end {end}")
                for end in ("u", "v"))
        if u not in vids or v not in vids:
            raise DomainError(f"graph JSON: edge {eid} ends at an unknown vertex")
        weight = _weight_parse(e.get("weight", "1"), f"edge {eid} weight")
        sign, orient = (_json_unit(e.get(key), f"edge {eid} {key}")
                        for key in ("sign", "orientation"))
        edges.append(Edge(eid, u, v, weight, sign, orient))
    faces = []
    for fi, walk in enumerate(_json_array(_json_field(data, "faces", "the graph"), "faces")):
        entries = []
        for entry in _json_array(walk, f"face {fi}"):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise DomainError(f"graph JSON: an entry of face {fi} is not an "
                                  f"[edge id, forward] pair: {entry!r}")
            if type(entry[1]) not in (bool, int) or entry[1] not in (0, 1):
                raise DomainError(f"graph JSON: a direction of face {fi} is not a "
                                  f"boolean: {entry[1]!r}")
            entries.append((_json_int(entry[0], f"an edge id of face {fi}"), bool(entry[1])))
        faces.append(entries)
    coords = {}
    for k, xy in _json_object(data.get("coords"), "coords").items():
        vid = _json_int(k, "a coordinate key")
        if len(_json_array(xy, f"the coordinate pair of vertex {vid}")) != 2:
            raise DomainError(f"graph JSON: the coordinate pair of vertex {vid} "
                              f"has not two entries: {xy!r}")
        coords[vid] = tuple(_json_int(x, f"a coordinate of vertex {vid}") for x in xy)
    infinite = data.get("infinite_face")
    return EmbeddedGraph(
        verts, edges, faces, data.get("surface", "sphere"),
        infinite if infinite is None else _json_int(infinite, "the infinite face"),
        coords, _json_object(data.get("flags"), "flags"),
    )


def dump_graph(G):
    return json.dumps(graph_to_json(G), indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# face tracing from integer coordinates


def _direction(x, y):
    """The nonzero integer vector (x, y) as (half, x, y) for `_angle_cmp`:
    half is 0 from the positive x-axis up to, not including, the negative
    x-axis, and 1 from there on."""
    return (0 if y > 0 or (y == 0 and x > 0) else 1, x, y)


def _angle_cmp(a, b):
    """Counterclockwise comparison of two `_direction` triples: negative
    when a comes first, 0 when they point the same way."""
    return (a[0] - b[0]) or (a[2] * b[1] - a[1] * b[2])


def trace_faces(coords, edge_list):
    """Trace all faces of a straight-line plane embedding.

    coords: vertex id -> integer pair (the y coordinate may carry an
    implicit constant scale; only angle comparisons are used).
    edge_list: (edge_id, u, v) triples; parallel directions at a vertex are
    rejected.  Returns (faces, outer_index) with faces as walks of
    (edge_id, forward) entries; the outer face is the clockwise one, face 0
    when nothing was traced.  Each vertex without edges adds one empty walk
    after the traced ones, in vertex id order.
    """
    out_darts = {v: [] for v in coords}
    vec = {}
    cross = {}
    for eid, u, v in edge_list:
        if u == v:
            raise DomainError("face tracing does not handle self-loops")
        out_darts[u].append((eid, True))
        out_darts[v].append((eid, False))
        (x1, y1), (x2, y2) = coords[u], coords[v]
        vec[eid, True] = _direction(x2 - x1, y2 - y1)
        vec[eid, False] = _direction(x1 - x2, y1 - y2)
        # twice the signed area the dart sweeps about the origin
        cross[eid, True] = x1 * y2 - x2 * y1
        cross[eid, False] = x2 * y1 - x1 * y2

    def rotation_cmp(a, b):
        # compares two darts leaving v, the vertex being sorted below; a
        # sort compares every two darts that end up adjacent, so two darts
        # in one direction always meet here
        c = _angle_cmp(vec[a], vec[b])
        if c == 0:
            raise DomainError(f"parallel edge directions at vertex {v}")
        return c

    # the dart after each dart on its face: at the head, the clockwise
    # neighbour of the reversed dart, which keeps the face on the left
    nxt = {}
    for v, darts in out_darts.items():
        darts.sort(key=cmp_to_key(rotation_cmp))
        for i, (eid, d) in enumerate(darts):
            nxt[eid, not d] = darts[i - 1]

    # each walk starts at its least dart; a traced dart leaves nxt
    faces = []
    for start in sorted(nxt):
        if start not in nxt:
            continue
        walk = []
        dart = start
        while True:
            walk.append(dart)
            dart = nxt.pop(dart)
            if dart == start:
                break
        faces.append(walk)

    # the outer face is the most-clockwise walk (holes and the outer walks of
    # other components are also clockwise but enclose less area)
    outer = 0
    if len(faces) > 1:
        area = [sum(cross[dart] for dart in walk) for walk in faces]
        outer = min(range(len(faces)), key=lambda i: (area[i], faces[i][0]))
    # a vertex without edges is a component of its own, with one empty walk
    faces += [[] for v in sorted(coords) if not out_darts[v]]
    return faces, outer


# ---------------------------------------------------------------------------
# Kasteleyn-flat decorations


def _edge_faces(G):
    inc = {e.id: [] for e in G.edges}
    for fi, walk in enumerate(G.faces):
        for eid, _ in walk:
            inc[eid].append(fi)
    return inc


def _dual_tree_order(G, root, tree_seed=0):
    """BFS tree of the dual graph: returns list of (face, parent_face,
    connecting_edge) in visit order, root first with (root, None, None)."""
    inc = _edge_faces(G)
    adj = {fi: [] for fi in range(len(G.faces))}
    for eid, fs in inc.items():
        if len(fs) == 2 and fs[0] != fs[1]:
            adj[fs[0]].append((eid, fs[1]))
            adj[fs[1]].append((eid, fs[0]))
    rng = random.Random(tree_seed)
    order = [(root, None, None)]
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for f in frontier:
            neigh = sorted(adj[f])
            if tree_seed:
                rng.shuffle(neigh)
            for eid, g in neigh:
                if g not in seen:
                    seen.add(g)
                    order.append((g, f, eid))
                    nxt.append(g)
        frontier = nxt
    if len(seen) != len(G.faces):
        raise DomainError("dual graph is disconnected")
    return order


def _face_minus_count(G, walk):
    c = 0
    for eid, _ in walk:
        if G.edge(eid).sign == -1:
            c += 1
    return c


def _agree_count(G, walk):
    agree = 0
    for eid, fwd in walk:
        e = G.edge(eid)
        if (e.orient == 1) == fwd:
            agree += 1
    return agree


def _percus_rule(sides, minus):
    """Percus rule: an odd number of minus signs iff the face has 4k sides."""
    return (minus % 2 == 1) == (sides % 4 == 0)


def _kasteleyn_rule(sides, agree):
    """Kasteleyn rule: an odd number of edges agreeing with the walk."""
    return agree % 2 == 1


# a face rule: the count it reads off a face walk, and the verdict on
# (number of sides, count)
_PERCUS = (_face_minus_count, _percus_rule)
_KASTELEYN = (_agree_count, _kasteleyn_rule)


def _flatten(G, rule, root, tree_seed, sign=None, orient=None):
    """A clone of G with every edge's sign and orient set to the given
    values, then flattened along the dual spanning tree from root: leaf to
    root, each face that fails the face rule flips the decorated value of
    the edge to its parent face.  An odd vertex count is flagged
    (`flags["odd_vertex_count"]`)."""
    count, flat = rule
    out = G.clone()
    for e in out.edges:
        e.sign = sign
        e.orient = orient
    for f, parent, eid in reversed(_dual_tree_order(out, root, tree_seed)):
        walk = out.faces[f]
        if parent is not None and not flat(len(walk), count(out, walk)):
            e = out.edge(eid)
            if sign:
                e.sign = -e.sign
            else:
                e.orient = -e.orient
    if out.n_vertices % 2 == 1:
        out.flags["odd_vertex_count"] = True
    return out


def kasteleyn_percus_sign(G, tree_seed=0):
    """Kasteleyn-flat sign decoration of a bipartite monogamous sphere graph
    by dual-spanning-tree propagation, faces fixed leaf-to-root."""
    if G.surface != "sphere":
        raise DomainError("Percus signing is for sphere embeddings")
    if any(v.kind != MONO for v in G.vertices):
        raise DomainError("resolve polygamous vertices before signing")
    if not G.is_bipartite_colored():
        raise DomainError("Percus signing needs a properly 2-colored graph")
    out = _flatten(G, _PERCUS, G.infinite_face, tree_seed, sign=1)
    if verify_flatness(out):
        raise AssertionError("sign propagation failed to flatten a finite face")
    return out


def kasteleyn_orient(G, tree_seed=0):
    """Kasteleyn-flat orientation.

    Sphere: odd number of walk-agreeing edges on every finite face, by
    dual-tree propagation.  Projective plane: the rule is odd in each
    direction on every face; the input must be locally but not globally
    bipartite (all faces even, graph non-bipartite) and pass `validate`.
    The same propagation from face 0 flattens every other face; when face 0
    is left not flat, no set of flipped edges can flatten it, and the
    result carries `flags["not_flat_faces"] = [0]`.
    """
    if any(v.kind != MONO for v in G.vertices):
        raise DomainError("resolve polygamous vertices before orienting")
    if G.surface == "sphere":
        out = _flatten(G, _KASTELEYN, G.infinite_face, tree_seed, orient=1)
        if verify_flatness(out):
            raise AssertionError("orientation propagation failed on a finite face")
        return out

    # projective plane
    for walk in G.faces:
        if len(walk) % 2 == 1:
            raise DomainError("projective rule needs all faces even (a contractible odd cycle exists)")
    if G.is_bipartite():
        raise DomainError("projective rule needs a non-bipartite (locally-only) graph")
    G.validate()
    out = _flatten(G, _KASTELEYN, 0, tree_seed, orient=1)
    # every edge lies on two face sides, so a flip changes the parity of an
    # even number of faces and cannot flatten face 0 alone
    bad = verify_flatness(out)
    if bad:
        out.flags["not_flat_faces"] = bad
    return out


def verify_flatness(G):
    """The faces of a decorated graph that fail their face rule, in face
    order.  The infinite face of a sphere graph with an odd vertex count is
    skipped: the face conditions of a connected sphere graph sum to V mod
    2, so all its faces can be flat only when V is even."""
    signed = all(e.sign is not None for e in G.edges)
    oriented = all(e.orient is not None for e in G.edges)
    if not signed and not oriented:
        raise DomainError("no decoration to verify")
    count, flat = _PERCUS if signed else _KASTELEYN
    # projective: odd in each direction, an odd agreeing count on an even face
    projective = not signed and G.surface != "sphere"
    skip = G.infinite_face if G.surface == "sphere" and G.n_vertices % 2 == 1 else None
    return [fi for fi, walk in enumerate(G.faces)
            if fi != skip and not (flat(len(walk), count(G, walk))
                                   and (not projective or len(walk) % 2 == 0))]


# ---------------------------------------------------------------------------
# adjacency matrices


def adjacency_matrix(G, mode):
    """Signed bipartite (black x white) or alternating adjacency matrix."""
    ring = G.ring()
    ad = ring_adapter(ring)
    zero, coerce = ad.zero, ad.coerce

    def put(row, j, x):
        # each weight is coerced once and stored as it is; only parallel
        # edges add, and sums of canonical entries stay canonical
        row[j] = x if row[j] is zero else row[j] + x

    if mode == "bipartite":
        if not G.is_bipartite_colored():
            raise DomainError("bipartite matrix needs a properly colored graph")
        if any(e.sign is None for e in G.edges):
            raise DomainError("bipartite matrix needs a sign decoration")
        blacks = sorted(v.id for v in G.vertices if v.color == "black")
        whites = sorted(v.id for v in G.vertices if v.color == "white")
        bi = {v: i for i, v in enumerate(blacks)}
        wi = {v: i for i, v in enumerate(whites)}
        grid = [[zero] * len(whites) for _ in blacks]
        for e in G.edges:
            if e.is_loop():
                continue
            b, w = (e.u, e.v) if G.vertex(e.u).color == "black" else (e.v, e.u)
            x = coerce(e.weight)
            put(grid[bi[b]], wi[w], x if e.sign == 1 else -x)
        return ExactMatrix._of_ring_elements(len(blacks), len(whites), ring, grid)
    if mode == "alternating":
        if any(e.orient is None for e in G.edges):
            raise DomainError("alternating matrix needs an orientation")
        ids = sorted(v.id for v in G.vertices)
        pos = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        grid = [[zero] * n for _ in range(n)]
        for e in G.edges:
            if e.is_loop():
                continue
            i, j = (pos[e.u], pos[e.v]) if e.orient == 1 else (pos[e.v], pos[e.u])
            w = coerce(e.weight)
            put(grid[i], j, w)
            put(grid[j], i, -w)
        return ExactMatrix._of_ring_elements(n, n, ring, grid)
    raise DomainError(f"unknown adjacency mode {mode!r}")


# ---------------------------------------------------------------------------
# matching enumeration (the ground-truth oracle)


class MatchingSet:
    def __init__(self, count, total_weight):
        self.count = count
        self.total_weight = total_weight

    def __repr__(self):
        return f"<MatchingSet count={self.count} total={self.total_weight}>"


def enumerate_matchings(G, count_guard=_ORACLE_GUARD):
    """Count and weigh the generalized matchings of G.

    Monogamous vertices are covered exactly once, odd-polygamous an odd
    number of times, even-polygamous an even number of times.  Self-loops
    never participate.  The result does not depend on edge signs.

    Frontier dynamic program over a fixed vertex order (monogamous ids
    sorted, then polygamous ids sorted); each non-loop edge belongs to its
    earlier end.  After a vertex is processed, the state is an int bitmask
    of the later vertices whose degree bit is 1 ("covered" for a monogamous
    vertex, the degree parity for a polygamous one), bit 0 the next vertex
    in the order.  Processing v picks a subset of its forward edges whose
    size completes v's rule and which touches no covered monogamous vertex.
    Each state carries [count, total weight]; states that meet are merged,
    so the cost grows with the number of boundary states, not with the
    number of matchings.  `total_weight` is the weighted count (a
    generating function for q-weighted graphs).  Nothing is listed: the
    test oracle `enumerate_matchings_reference` lists the matchings of
    small graphs.

    Over Z the totals are ints.  Over Z[q, q^-1] every total is an int too,
    its value at q = 2^b (the Kronecker codec of `rings`, as for `determinant`):
    a move is one int product and one shift (a monomial c q^k packs to
    c << b k), a merge one int sum.  Each vertex's move weights are first
    divided by q^lo_v, lo_v the least exponent over all its moves in both
    bit cases; every matching takes one move per vertex, so each total is
    shifted by the constant sum of the lo_v.  The L1 norm of every total
    is at most the product over v of the larger of its two sums of
    move-weight L1 norms, and b is the codec width `_kronecker_width` for
    that bound, so `_kronecker_unpack` reads every total back exactly.

    Raises GuardExceeded above `count_guard` vertices.
    """
    if G.n_vertices > count_guard:
        raise GuardExceeded(
            f"{G.n_vertices} vertices exceed the matching-oracle guard {count_guard}"
        )
    monos = sorted(v.id for v in G.vertices if v.kind == MONO)
    polys = sorted(v.id for v in G.vertices if v.kind != MONO)
    order = monos + polys
    rank = {v: i for i, v in enumerate(order)}
    kind = {v.id: v.kind for v in G.vertices}
    forward = {v: [] for v in order}
    for e in sorted(G.edges, key=lambda e: e.id):
        if e.is_loop():
            continue
        forward[e.u if rank[e.u] < rank[e.v] else e.v].append(e)
    laurent = G.ring() == "laurent"
    one = LaurentPoly.one() if laurent else 1
    table = []
    for i, v in enumerate(order):
        # a move is (ends covered, ends toggled, weight, shift), each end as
        # its bit relative to the vertex after v; the shift is set when the
        # weights are packed
        fwd = []
        for e in forward[v]:
            w = e.other(v)
            bit_w = 1 << (rank[w] - i - 1)
            x = LaurentPoly.coerce(e.weight) if laurent else e.weight
            fwd.append((bit_w if kind[w] == MONO else 0, bit_w, x, 0))
        if kind[v] == MONO:
            # one edge at bit 0, none at bit 1
            table.append((fwd, [(0, 0, one, 0)]))
            continue
        # monogamous vertices come first in the order, so no move of a
        # polygamous v covers one
        options = ([], [])
        for bit in (0, 1):
            par = (1 - bit) % 2 if kind[v] == ODD else bit
            for size in range(par, len(fwd) + 1, 2):
                for combo in combinations(fwd, size):
                    flips = 0
                    weight = one
                    for _, flip, x, _ in combo:
                        flips ^= flip
                        weight = weight * x
                    options[bit].append((0, flips, weight, 0))
        table.append(options)
    if laurent:
        bound = 1
        los = []
        for options in table:
            lo = None
            norm = 0
            for ms in options:
                l1 = 0
                for m in ms:
                    t = m[2]._terms
                    if t:
                        low = min(t)
                        if lo is None or low < lo:
                            lo = low
                        for c in t.values():
                            l1 += abs(c)
                norm = max(norm, l1)
            lo = 0 if lo is None else lo
            los.append(lo)
            bound *= norm
        b = _kronecker_width(bound)

        def pack(t, lo):
            """(f, s) with f << s the value at q = 2^b of t / q^lo."""
            if not t:
                return 0, 0
            m = min(t)
            return _kronecker_pack(t, b, m), b * (m - lo)

    states = {0: [1, 1]}
    for i, options in enumerate(table):
        if not states:
            break
        if laurent:
            options = [[(covers, flips, *pack(w._terms, los[i]))
                        for covers, flips, w, _ in ms] for ms in options]
        nxt = {}
        for state, (count, total) in states.items():
            rest = state >> 1
            for covers, flips, factor, s in options[state & 1]:
                if covers & rest:
                    continue
                key = rest ^ flips
                slot = nxt.get(key)
                if slot is None:
                    nxt[key] = [count, total * factor << s]
                else:
                    slot[0] += count
                    slot[1] += total * factor << s
        states = nxt
    count, total = states.get(0, (0, 0))
    if laurent:
        total = LaurentPoly._from_terms(_kronecker_unpack(total, b, sum(los)))
    return MatchingSet(count, total)


# ---------------------------------------------------------------------------
# rotation/corner machinery for surgeries


def _corners_at(edges, faces, vid, arrivals):
    """Corners at vid: arriving-edge-id -> (departing-edge-id, face index,
    position of the departing entry in the face walk), one for each
    (face index, position) in `arrivals`, the face-walk entries that arrive
    at vid; edges maps ids to edges."""
    corners = {}
    for fi, pos in arrivals:
        walk = faces[fi]
        nxt_pos = (pos + 1) % len(walk)
        nid, nfwd = walk[nxt_pos]
        ne = edges[nid]
        if (ne.u if nfwd else ne.v) != vid:
            raise DomainError("face walk corner mismatch")
        corners[walk[pos][0]] = (nid, fi, nxt_pos)
    return corners


def _rotation(corners, vid):
    """Cyclic edge order at vid, following its corners from the least edge."""
    if not corners:
        return []
    start = min(corners)
    cycle = [start]
    cur = corners[start][0]
    while cur != start:
        cycle.append(cur)
        cur = corners[cur][0]
    if len(cycle) != len(corners):
        raise DomainError(f"rotation at vertex {vid} is not a single cycle")
    return cycle


# ---------------------------------------------------------------------------
# polygamy resolution


class _Surgeon:
    """Mutable graph editor used by the polygamy resolution, edge tripling
    and the transit split of a Gessel-Viennot graph.  It edits the vertex
    and edge maps, face walks and coordinates it is given, in place:
    `copy_of(G)` gives it copies of a graph's, while the transit split
    hands it the parts it has just traced, which nothing else holds.

    It keeps `edges_at[v]`, the ids of the edges at v, and
    `dart_at[dart]`, the face index of every face-walk entry (eid, fwd)
    with a position at or before the entry in that walk, so that the
    corners at a vertex are found from its edges alone, without walking a
    face.  Every change of a face walk goes through `insert_entries`,
    `set_face`, `add_face` or `delete_face`, which keep `dart_at` so."""

    def __init__(self, verts, edges, faces, infinite, coords, surface="sphere", flags=None):
        """verts: id -> Vertex; edges: id -> Edge; faces: walks as lists;
        all of them, and coords, become the surgeon's own."""
        self.verts = verts
        self.edges = edges
        self.faces = faces
        self.surface = surface
        self.infinite = infinite
        self.coords = coords
        self.flags = flags if flags is not None else {}
        self.next_vid = max(verts, default=-1) + 1
        self.next_eid = max(edges, default=-1) + 1
        self.edges_at = {v: set() for v in verts}
        for e in edges.values():
            self.edges_at[e.u].add(e.id)
            self.edges_at[e.v].add(e.id)
        self.dart_at = {}
        for fi in range(len(faces)):
            self._index(fi)

    @classmethod
    def copy_of(cls, G):
        """A surgeon on a copy of the graph G."""
        return cls({v.id: v.clone() for v in G.vertices}, {e.id: e.clone() for e in G.edges},
                   [list(w) for w in G.faces], G.infinite_face, dict(G.coords), G.surface,
                   dict(G.flags))

    def _index(self, fi):
        """Record the position of every entry of face fi."""
        dart_at = self.dart_at
        for pos, dart in enumerate(self.faces[fi]):
            dart_at[dart] = (fi, pos)

    def corners_at(self, vid):
        """`_corners_at` for vid, a vertex without loops, read off the
        recorded positions of the entries arriving at vid: O(degree).  An
        insertion only moves the entries after it forward, so a recorded
        position is at or before its entry; it is moved up to the entry and
        kept."""
        dart_at, edges, faces = self.dart_at, self.edges, self.faces
        arrivals = []
        for eid in self.edges_at[vid]:
            dart = (eid, edges[eid].v == vid)
            found = dart_at.get(dart)
            if found is None:
                raise DomainError(f"edge {eid} arrives at vertex {vid} on no face")
            fi, pos = found
            walk = faces[fi]
            if walk[pos] != dart:
                pos = walk.index(dart, pos)
                dart_at[dart] = (fi, pos)
            arrivals.append((fi, pos))
        return _corners_at(edges, faces, vid, arrivals)

    def insert_entries(self, inserts):
        """Insert face entries at (face, position, entry) spots; each spot
        is a position before any insertion."""
        for fi, pos, entry in sorted(inserts, key=lambda t: (t[0], -t[1])):
            self.faces[fi].insert(pos, entry)
            self.dart_at[entry] = (fi, pos)

    def set_face(self, fi, walk):
        """Replace the walk of face fi."""
        for dart in self.faces[fi]:
            del self.dart_at[dart]
        self.faces[fi] = walk
        self._index(fi)

    def add_face(self, walk):
        self.faces.append(walk)
        self._index(len(self.faces) - 1)

    def delete_face(self, fi):
        """Delete face fi, an empty walk; later faces move down one index."""
        del self.faces[fi]
        self.dart_at = {dart: (f - (f > fi), pos)
                        for dart, (f, pos) in self.dart_at.items()}

    def graph(self):
        return EmbeddedGraph(
            sorted(self.verts.values(), key=lambda v: v.id),
            sorted(self.edges.values(), key=lambda e: e.id),
            self.faces,
            self.surface,
            self.infinite,
            self.coords,
            self.flags,
        )

    def new_vertex(self, kind, color, label):
        vid = self.next_vid
        self.next_vid += 1
        self.verts[vid] = Vertex(vid, kind, color, label)
        self.edges_at[vid] = set()
        return vid

    def remove_vertex(self, vid):
        del self.verts[vid], self.edges_at[vid]

    def new_edge(self, u, v):
        eid = self.next_eid
        self.next_eid += 1
        self.edges[eid] = Edge(eid, u, v)
        self.edges_at[u].add(eid)
        self.edges_at[v].add(eid)
        return eid

    def remove_edge(self, eid):
        e = self.edges.pop(eid)
        self.edges_at[e.u].discard(eid)
        self.edges_at[e.v].discard(eid)

    def reattach(self, eid, old, new):
        e = self.edges[eid]
        if e.u == old:
            e.u = new
        elif e.v == old:
            e.v = new
        else:
            raise DomainError("reattach endpoint mismatch")
        self.edges_at[old].discard(eid)
        self.edges_at[new].add(eid)

    def split_off(self, vid, corners, before, run, kind, label):
        """Move the rotation run `run` at vid (entered from the corner
        before -> run[0]) onto a new vertex w, joined to vid by a new edge m
        spliced into the two cut corners; returns (w, m)."""
        self.verts[vid].color = None
        w = self.new_vertex(kind, None, label)
        m = self.new_edge(vid, w)
        self.insert_entries([
            corners[before][1:] + ((m, True),),    # vid -> w before run[0]
            corners[run[-1]][1:] + ((m, False),),  # w -> vid after run[-1]
        ])
        for eid in run:
            self.reattach(eid, vid, w)
        return w, m


def _resolve_step(s, vid):
    """Apply one monogamy move at polygamous vertex vid."""
    v = s.verts[vid]
    inc = [s.edges[eid] for eid in s.edges_at[vid]]
    if any(e.is_loop() for e in inc):
        raise DomainError("self-loop at a polygamous vertex is not supported")
    d = len(inc)
    if d == 0:
        if v.kind == EVEN:
            s.remove_vertex(vid)
            empty = next((i for i, w in enumerate(s.faces) if not w), None)
            if empty is not None:
                if s.infinite is not None and s.infinite > empty:
                    s.infinite -= 1
                elif s.infinite == empty:
                    s.infinite = 0 if len(s.faces) > 1 else None
                s.delete_face(empty)
        else:
            v.kind = MONO
        return
    if d == 1:
        if v.kind == ODD:
            v.kind = MONO
            return
        e = inc[0]
        sides = [s.dart_at.get((e.id, fwd)) for fwd in (True, False)]
        if None in sides or sides[0][0] != sides[1][0]:
            raise DomainError("pendant edge should be a bridge on one face")
        fi = sides[0][0]
        s.set_face(fi, [ent for ent in s.faces[fi] if ent[0] != e.id])
        s.remove_edge(e.id)
        s.remove_vertex(vid)
        return
    if d == 2 and v.kind == ODD:
        v.kind = MONO
        return
    corners = s.corners_at(vid)
    rot = _rotation(corners, vid)
    if d <= 3 and v.kind == EVEN:
        # degree 2 becomes a monogamous path; degree 3 keeps one edge on vid
        # and moves two onto a new odd vertex joined back by a fresh edge
        v.kind = MONO if d == 2 else ODD
        s.split_off(vid, corners, rot[0], rot[1:], v.kind,
                    f"{v.label}+" if v.label else None)
        return
    if d == 3 and v.kind == ODD:
        e1, e2, e3 = rot
        v.kind = MONO
        v.color = None
        v2 = s.new_vertex(MONO, None, None)
        v3 = s.new_vertex(MONO, None, None)
        t12 = s.new_edge(vid, v2)
        t23 = s.new_edge(v2, v3)
        t31 = s.new_edge(v3, vid)
        s.insert_entries([
            corners[e1][1:] + ((t12, True),),   # corner e1 -> e2
            corners[e2][1:] + ((t23, True),),   # corner e2 -> e3
            corners[e3][1:] + ((t31, True),),   # corner e3 -> e1
        ])
        s.reattach(e2, vid, v2)
        s.reattach(e3, vid, v3)
        # the triangle v2, v3, vid becomes a new face at the end
        s.add_face([(t12, False), (t31, False), (t23, False)])
        return
    # d >= 4: move two rotation-consecutive edges onto a new even-polygamous
    # vertex joined back by a fresh edge (the connecting edge makes the
    # matching sets bijective and the total parity work out)
    s.split_off(vid, corners, rot[-1], rot[:2], EVEN,
                f"{v.label}*" if v.label else None)


def _opposite(color):
    if color == "black":
        return "white"
    if color == "white":
        return "black"
    return None


def monogamous_resolution(G):
    """Replace polygamous vertices by monogamous gadgets; matchings are
    preserved bijectively and the sphere embedding is maintained."""
    if G.surface != "sphere":
        raise DomainError("resolution implemented for sphere embeddings")
    s = _Surgeon.copy_of(G)
    while True:
        poly = sorted(v for v, rec in s.verts.items() if rec.kind != MONO)
        if not poly:
            break
        _resolve_step(s, poly[0])
    out = s.graph()
    out.validate()
    return out


# ---------------------------------------------------------------------------
# edge tripling


def triple_edges(G):
    """Make a multigraph simple by replacing each extra parallel edge with a
    three-edge path; matchings correspond bijectively."""
    s = _Surgeon.copy_of(G)
    classes = {}
    for e in G.edges:
        if e.is_loop():
            continue
        key = (min(e.u, e.v), max(e.u, e.v))
        classes.setdefault(key, []).append(e.id)
    for key, eids in sorted(classes.items()):
        if len(eids) < 2:
            continue
        for eid in sorted(eids)[1:]:
            e = s.edges[eid]
            u, v = e.u, e.v
            x = s.new_vertex(MONO, _opposite(s.verts[u].color), None)
            y = s.new_vertex(MONO, s.verts[u].color, None)
            e_mid = s.new_edge(x, y)
            e_end = s.new_edge(y, v)
            # reuse eid for the u-x stub, keeping its weight
            s.reattach(eid, v, x)
            for fi in sorted({s.dart_at[eid, fwd][0] for fwd in (True, False)}):
                new_walk = []
                for ent_eid, fwd in s.faces[fi]:
                    if ent_eid != eid:
                        new_walk.append((ent_eid, fwd))
                    elif fwd:
                        new_walk.extend([(eid, True), (e_mid, True), (e_end, True)])
                    else:
                        new_walk.extend([(e_end, False), (e_mid, False), (eid, False)])
                s.set_face(fi, new_walk)
    out = s.graph()
    out.validate()
    return out


# ---------------------------------------------------------------------------
# cut-and-tie quotients (reflections with bisected edges)


def _cut_and_tie(G, kept, bisected, wrong_parity=False):
    """Keep the vertices in `kept`, tie every bisected edge with exactly one
    kept end to one new polygamous vertex omega (added only when there are
    such stubs), and splice each crossed face walk through omega along its
    one kept arc.  Omega's parity makes (odd-polygamous + monogamous) even,
    unless wrong_parity deliberately flips it.  Face points and triangles
    are carried when G has them."""
    bis = set(bisected)
    verts = [G.vertex(v).clone() for v in sorted(kept)]
    omega_id = max(v.id for v in G.vertices) + 1
    odd_total = sum(1 for v in verts if v.kind in (MONO, ODD)) % 2 == 1
    omega_kind = ODD if odd_total != wrong_parity else EVEN
    stub_colors = set()
    stubs = set()
    edges = []
    for e in G.edges:
        if e.id in bis:
            if (e.u in kept) != (e.v in kept):
                k = e.u if e.u in kept else e.v
                stub_colors.add(G.vertex(k).color)
                stubs.add(e.id)
                edges.append(Edge(e.id, k, omega_id, e.weight))
        elif e.u in kept and e.v in kept:
            edges.append(Edge(e.id, e.u, e.v, e.weight))
    if stubs:
        omega_color = _opposite(stub_colors.pop()) if len(stub_colors) == 1 else None
        verts.append(Vertex(omega_id, omega_kind, omega_color, "omega"))

    faces = []
    points = []
    src_points = G.flags.get("face_points")
    infinite = None
    for fi, walk in enumerate(G.faces):
        bpos = [p for p, (eid, _) in enumerate(walk) if eid in bis]
        if not bpos:
            if not walk or not set(G.walk_vertices(walk)) <= kept:
                continue
            new_walk = list(walk)
        else:
            L = len(walk)
            arcs = []
            for p_in, p_out in zip(bpos, bpos[1:] + bpos[:1]):
                arc = [walk[t % L] for t in range(p_in + 1, p_out + L * (p_out <= p_in))]
                # the arc's vertices are the tails of its entries and of the exit
                if set(G.walk_vertices(arc + [walk[p_out]])) <= kept:
                    arcs.append((walk[p_in][0], arc, walk[p_out][0]))
            if not arcs:
                continue
            if len(arcs) != 1:
                raise DomainError(f"crossed face {fi} has {len(arcs)} kept arcs")
            ein, arc, eout = arcs[0]
            if ein not in stubs or eout not in stubs:
                raise DomainError("crossed face boundary stub missing from the kept side")
            # stub edges are stored (kept, omega): entering the kept side
            # is omega -> kept (backward), leaving is kept -> omega
            new_walk = [(ein, False)] + arc + [(eout, True)]
        if fi == G.infinite_face:
            infinite = len(faces)
        faces.append(new_walk)
        if src_points is not None:
            points.append(src_points[fi])

    # isolated vertices each carry exactly one empty walk
    touched = {e.u for e in edges} | {e.v for e in edges}
    for v in verts:
        if v.id not in touched:
            faces.append([])
            points.append(None)
    if infinite is None and faces:
        infinite = 0
    out = EmbeddedGraph(verts, edges, faces, "sphere", infinite)
    if src_points is not None:
        out.flags["face_points"] = points
    if "triangles" in G.flags:
        tri_of = G.flags["triangles"]
        out.flags["triangles"] = {v.id: tri_of[v.id] for v in verts if v.id in tri_of}
    out.validate()
    return out


def reflection_quotient(G, vertex_map, edge_map, bisected, wrong_parity=False):
    """Quotient by an involutive reflection whose axis bisects the given
    edges; the bisected edges are tied to a single polygamous vertex whose
    parity makes (odd-polygamous + monogamous) even, unless wrong_parity
    deliberately flips it."""
    bis = set(bisected)
    if set(vertex_map) != {v.id for v in G.vertices}:
        raise DomainError("vertex map does not cover exactly the graph's vertices")
    if set(edge_map) != {e.id for e in G.edges}:
        raise DomainError("edge map does not cover exactly the graph's edges")
    if not bis <= set(edge_map):
        raise DomainError("a bisected edge is not an edge of the graph")
    for v, w in vertex_map.items():
        if vertex_map.get(w) != v:
            raise DomainError("vertex map is not an involution")
    for e, f in edge_map.items():
        if edge_map.get(f) != e:
            raise DomainError("edge map is not an involution")
    for eid in bis:
        e = G.edge(eid)
        if edge_map[eid] != eid or vertex_map.get(e.u) != e.v:
            raise DomainError(f"edge {eid} is not bisected by the reflection")
    for e in G.edges:
        img = G.edge(edge_map[e.id])
        if {vertex_map[e.u], vertex_map[e.v]} != {img.u, img.v}:
            raise DomainError("edge map does not follow the vertex map")

    # components of G minus the bisected edges pair up under the reflection;
    # keep the one with the smaller root of each pair
    comp = G._components(bis)[0]
    kept_roots = set()
    for r in set(comp.values()):
        mirror = comp[vertex_map[r]]
        if mirror == r:
            raise DomainError("a component is fixed by the reflection")
        kept_roots.add(min(r, mirror))
    kept = {v for v, root in comp.items() if root in kept_roots}
    return _cut_and_tie(G, kept, bis, wrong_parity)
