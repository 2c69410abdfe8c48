"""Combinatorial maps for graphs embedded in a disk.

The embedding of a graph drawn in a disk is stored purely combinatorially
as a rotation system: at every vertex, the cyclic sequence of edge ends in
clockwise order as drawn.  The disk boundary is materialized as phantom
arcs b_1 -> b_2 -> ... -> b_n -> b_1 so that face tracing, the outer face,
and left/right sides of an edge are all well defined without coordinates.

Darts.  An edge e = (tail, head) has two darts: (e, 0) anchored at the
tail and (e, 1) anchored at the head.  A dart travels from its anchor to
the opposite end.  With clockwise rotations, the orbit rule

    next(d) = clockwise successor of rev(d) at the vertex d travels to

walks every face keeping that face on the LEFT of the travel direction.
Consequently face_left(d) = orbit(d) and face_right(d) = orbit(rev(d)).

`_DiskGraph` is the core that planar directed networks and plabic graphs
share: boundary vertices 1..n, the rotation system and its DiskMap, the
implied rotations, the connected components, the fresh-id rule and the
tokenizer of their text formats.
"""

from bisect import bisect
from functools import cached_property
from itertools import count


def rev(dart):
    e, end = dart
    return (e, 1 - end)


class DiskMap:
    """Rotation-system embedding of a graph with n boundary vertices.

    boundary: tuple of vertex ids b_1..b_n in clockwise order.
    edges: dict eid -> (tail, head).  eids must be integers.
    rot: dict vertex -> tuple of darts anchored there, clockwise as drawn.
          Every dart of every edge must appear exactly once.

    Faces are traced when the map is built: the vertices are visited in str
    order and each one's darts in rotation order, and every dart not yet on
    a face starts the next one.  So each face starts at its least dart by
    (str of its vertex, rotation position), and the faces come in that order.
    """

    def __init__(self, boundary, edges, rot):
        self.boundary = tuple(boundary)
        self.n = len(self.boundary)
        self.edges = dict(edges)
        self.rot = {v: tuple(ds) for v, ds in rot.items()}
        self._check_rotations()
        self._at = {b: i for i, b in enumerate(self.boundary)}
        self._aug_rot = {v: self._augmented(v) for v in (*self.rot, *self.boundary)}
        self._faces, self._face_of = [], {}
        for v in sorted(self._aug_rot, key=str):
            for d in self._aug_rot[v]:
                if d not in self._face_of:
                    orbit = self._orbit(d)
                    self._faces.append(orbit)
                    for x in orbit:
                        self._face_of[x] = orbit
        self.validate_planarity()

    def derive(self, edges, rot):
        """The map of a local rewrite of this graph, without re-validation.

        edges and rot describe the rewritten graph on the same boundary and
        are taken as they are.  A face none of whose darts arrives at a
        vertex whose rotation changed is kept; only the faces through those
        vertices are traced again, each placed and started where a fresh
        trace would put it.  So faces(), face_left and inner_faces equal
        those of DiskMap(self.boundary, edges, rot).
        """
        changed = {v for v, _ in self.rot.items() ^ rot.items()}
        if not changed:
            return self         # equal rotations: equal edges and faces
        new = object.__new__(DiskMap)
        new.boundary, new.n, new._at = self.boundary, self.n, self._at
        new.edges, new.rot = edges, rot
        new._aug_rot = aug = dict(self._aug_rot)
        new._faces, new._face_of = list(self._faces), dict(self._face_of)
        new._starts, new._inner = list(self._starts), list(self._inner)   # set, not lazy, here
        gone = {id(f): f for f in (self._face_of[d] for v in changed for d in aug.get(v, ()))}
        for orbit in gone.values():
            i = new._faces.index(orbit)
            del new._faces[i], new._starts[i], new._inner[i]
            for d in orbit:
                del new._face_of[d]
        for v in changed:
            if v in rot or v in self._at:
                aug[v] = new._augmented(v)
            else:
                del aug[v]
        for v in changed:
            for d in aug.get(v, ()):
                if d not in new._face_of:
                    orbit = new._orbit(d)
                    keys = [new._key(x) for x in orbit]
                    first = keys.index(min(keys))
                    orbit = orbit[first:] + orbit[:first]
                    i = bisect(new._starts, keys[first])
                    new._faces.insert(i, orbit)
                    new._starts.insert(i, keys[first])
                    new._inner.insert(i, _drop_arcs(orbit))
                    for x in orbit:
                        new._face_of[x] = orbit
        return new

    # -- construction helpers ------------------------------------------------

    def _check_rotations(self):
        seen = {}
        for v, ds in self.rot.items():
            for d in ds:
                e, end = d
                if e not in self.edges or end not in (0, 1):
                    raise ValueError(f"unknown dart {d} at vertex {v}")
                if self.anchor(d) != v:
                    raise ValueError(f"dart {d} listed at {v} but anchored at {self.anchor(d)}")
                if d in seen:
                    raise ValueError(f"dart {d} appears twice")
                seen[d] = v
        for e, (u, w) in self.edges.items():
            for d in ((e, 0), (e, 1)):
                if d not in seen:
                    raise ValueError(f"dart {d} of edge {e}=({u},{w}) missing from rotations")

    def anchor(self, dart):
        e, end = dart
        return self.edges[e][end]

    def other_end(self, dart):
        e, end = dart
        return self.edges[e][1 - end]

    def _augmented(self, v):
        """The darts at v with the boundary arcs spliced in.

        At b_i the clockwise order is: arc towards b_{i+1}, then the real
        darts clockwise (pointing into the disk), then the arc from b_{i-1}.
        """
        ds = self.rot.get(v, ())
        i = self._at.get(v)
        if i is None:
            return ds
        return ((("arc", i), 0), *ds, (("arc", (i - 1) % self.n), 1))

    # -- face tracing ---------------------------------------------------------

    def _orbit(self, dart):
        """The face through the dart, from that dart: each step takes the
        clockwise successor of the reversed dart at the vertex it travels to."""
        aug, edges, b = self._aug_rot, self.edges, self.boundary
        orbit, cur = [], dart
        while True:
            orbit.append(cur)
            e, end = cur
            if isinstance(e, tuple):        # arc e[1] runs b_j -> b_{j+1}
                ds = aug[b[(e[1] + 1 - end) % self.n]]
            else:
                ds = aug[edges[e][1 - end]]
            i = ds.index((e, 1 - end)) + 1
            cur = ds[i] if i < len(ds) else ds[0]
            if cur == dart:
                return tuple(orbit)

    def _key(self, dart):
        """Where the face trace meets the dart: (str of its vertex, rotation position)."""
        e, end = dart
        v = self.boundary[(e[1] + end) % self.n] if isinstance(e, tuple) else self.edges[e][end]
        return (str(v), self._aug_rot[v].index(dart))

    @cached_property
    def _starts(self):
        """The _key of each face's first dart, in the order of faces()."""
        return [self._key(orbit[0]) for orbit in self._faces]

    @cached_property
    def _inner(self):
        """Each face of faces() with its boundary arcs dropped."""
        return [_drop_arcs(orbit) for orbit in self._faces]

    def faces(self):
        """All dart orbits, each a tuple of darts with the face on the left."""
        return self._faces

    def orbit(self, dart):
        """The face on the left of the dart, as its orbit."""
        return self._face_of[dart]

    def face_left(self, dart):
        """The index in faces() of the face on the left of the dart."""
        return self._faces.index(self._face_of[dart])

    def face_right(self, dart):
        return self.face_left(rev(dart))

    def outer_face(self):
        """The face outside the disk boundary circle."""
        if self.n == 0:
            raise ValueError("no boundary circle")
        return self.face_left((("arc", 0), 0))

    @cached_property
    def inner_faces(self):
        """Every face but the outer one, boundary arcs dropped, in the order of faces()."""
        if self.n == 0:         # no boundary circle: every face is inside
            return tuple(self._inner)
        outer = self.outer_face()
        return (*self._inner[:outer], *self._inner[outer + 1:])

    # -- validation ------------------------------------------------------------

    def validate_planarity(self):
        """Per-component Euler check V - E + F = 2 for the rotation data."""
        b = self.boundary
        arcs = [(b[i], b[(i + 1) % self.n]) for i in range(self.n)]
        for comp in components(self._aug_rot, [*self.edges.values(), *arcs]):
            ne = sum(1 for (u, w) in self.edges.values() if u in comp)
            if comp & set(self.boundary):
                ne += self.n
            if ne == 0:
                continue  # singleton components carry no embedding data
            face_ids = {id(self._face_of[d]) for v in comp for d in self._aug_rot[v]}
            if len(comp) - ne + len(face_ids) != 2:
                raise ValueError(
                    "rotation system is not a planar disk embedding "
                    f"(component with {len(comp)} vertices, {ne} edges, {len(face_ids)} faces)")


def _drop_arcs(orbit):
    return tuple(d for d in orbit if not isinstance(d[0], tuple))


def rotations_from_edge_lists(edges, rot_ids):
    """Turn per-vertex clockwise edge-id lists into dart rotations.

    A loop's id appears twice in its vertex's list; the first occurrence is
    taken to be the tail end.
    """
    rot = {}
    for v, ids in rot_ids.items():
        seen_loop = set()
        darts = []
        for e in ids:
            if e not in edges:
                raise ValueError(f"vertex {v} lists unknown edge {e}")
            u, w = edges[e]
            if u == w:
                end = 0 if e not in seen_loop else 1
                seen_loop.add(e)
            else:
                if u == v:
                    end = 0
                elif w == v:
                    end = 1
                else:
                    raise ValueError(f"edge {e} not incident to vertex {v}")
            darts.append((e, end))
        rot[v] = tuple(darts)
    return rot


def components(vertices, pairs):
    """Connected components, as sets, of the graph on `vertices` with edges `pairs`."""
    adj = {v: set() for v in vertices}
    for u, w in pairs:
        adj[u].add(w)
        adj[w].add(u)
    comps, left = [], set(adj)
    while left:
        start = left.pop()
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        left -= comp
        comps.append(comp)
    return comps


def _dual_forest(faces):
    """A spanning forest of the dual graph of `faces`, a list of dart tuples.

    Grown breadth-first across real edges, never boundary arcs, from the
    first face of each part.  Returns a (face index, dart) pair for every
    face but the roots, where the dart is the face's dart whose edge was
    crossed to reach it.  Reversed, the list puts every face after the
    faces below it, so each face can fix its own edge last.
    """
    face_of = {d: f for f, orbit in enumerate(faces) for d in orbit}
    seen, forest = set(), []
    for root in range(len(faces)):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for f in queue:
            for e, end in faces[f]:
                if isinstance(e, tuple):
                    continue            # a boundary arc
                dart = (e, 1 - end)
                g = face_of[dart]
                if g not in seen:
                    seen.add(g)
                    forest.append((g, dart))
                    queue.append(g)
    return forest


def _reanchor(edges, darts, v):
    """Anchor every dart (e, end) of `darts` at v: edges[e][end] = v."""
    for e, end in darts:
        edges[e] = (v, *edges[e][1:]) if end == 0 else (edges[e][0], v, *edges[e][2:])


def fresh_ids(*pools):
    """Unused ids, counting up from one above every integer id in the pools."""
    return count(1 + max((x for pool in pools for x in pool if isinstance(x, int)), default=0))


class _DiskGraph:
    """A graph in the disk with boundary vertices 1..n, clockwise.

    The core of PlanarDirectedNetwork and PlabicGraph: the vertex set, the
    rotation system and its DiskMap.  A vertex may omit its rotation only
    when the rotation is unique: an internal vertex with at most two darts
    (a loop counts twice), or a boundary vertex with at most one, since the
    boundary arcs put the darts at b_i in a linear order.  `boundary` is
    the range 1..n, so `v in G.boundary` is the boundary test.
    """

    def __init__(self, n, shape, verts, rot_ids, rot):
        """shape: eid -> (u, w); verts: a fresh set of the boundary and of
        any vertex without edges (the end vertices are added to it)."""
        self.n = n
        self.boundary = range(1, n + 1)
        for u, w in shape.values():
            verts.add(u)
            verts.add(w)
        if rot is None:
            rot_ids = dict(rot_ids or {})
            incident = {}
            for e, (u, w) in shape.items():
                incident.setdefault(u, []).append(e)
                incident.setdefault(w, []).append(e)
            for v in verts:
                if v not in rot_ids:
                    rot_ids[v] = incident.get(v, [])
                    if len(rot_ids[v]) > (1 if v in self.boundary else 2):
                        raise ValueError(f"vertex {v} has degree {len(rot_ids[v])}; "
                                         "give its rotation explicitly")
            rot = rotations_from_edge_lists(shape, rot_ids)
        missing = [v for v in verts if v not in rot]
        if missing:
            rot = {**rot, **dict.fromkeys(missing, ())}
        self.map = DiskMap(self.boundary, shape, rot)
        self.rot = self.map.rot

    def internal_vertices(self):
        return frozenset(v for v in self.rot if v not in self.boundary)

    def degree(self, v):
        return len(self.rot[v])

    def components(self):
        return components(self.rot, self.map.edges.values())

    def _shape(self):
        """edges as the map takes them: eid -> (u, w)."""
        return self.edges

    def replace(self, **kw):
        """This graph with the fields in kw replaced: how every rewrite builds its result.

        The new values are taken as they are, and the map is derived from
        this one's (DiskMap.derive), so only the faces at the rewritten
        vertices are traced again and nothing is validated: a rewrite of a
        valid graph is valid.  Graphs from outside go through the constructor.
        """
        new = object.__new__(type(self))
        for name in self._fields:
            setattr(new, name, kw.get(name, getattr(self, name)))
        new.boundary = self.boundary
        new.map = self.map.derive(new._shape(), new.rot)
        return new


def parse_disk_text(text, what, vertex_label, edge_tail, other):
    """Read the lines that network and plabic text share.

    `#` starts a comment.  `n <count>` gives n; `vertex v [label] : ids`
    gives the clockwise edge ids at v and vertex_label(label tokens);
    `edge e : u w [more]` gives the edge (u, w, *edge_tail(more tokens)).
    The colons may be left out.  Every other line goes to
    other(tokens, line number).
    Returns (n, labels, rot_ids, edges); every error is one ValueError
    naming the line number and the line.
    """
    n = None
    labels, rot_ids, edges = {}, {}, {}
    for number, line in enumerate(text.splitlines(), 1):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        try:
            colon = toks.index(":") if ":" in toks else None
            if toks[0] == "n":
                if len(toks) != 2 or int(toks[1]) < 0:
                    raise ValueError("expected 'n <count>' with a count >= 0")
                n = int(toks[1])
            elif toks[0] == "vertex":
                head, ids = (toks[1:3], toks[3:]) if colon is None else (toks[1:colon], toks[colon + 1:])
                if not head:
                    raise ValueError("a vertex line needs an id")
                v = int(head[0])
                labels[v] = vertex_label(head[1:])
                rot_ids[v] = [int(t) for t in ids]
            elif toks[0] == "edge":
                head, body = (toks[1:2], toks[2:]) if colon is None else (toks[1:colon], toks[colon + 1:])
                if len(head) != 1 or len(body) < 2:
                    raise ValueError("expected 'edge e : u w ...'")
                edges[int(head[0])] = (int(body[0]), int(body[1]), *edge_tail(body[2:]))
            else:
                other(toks, number)
        except ValueError as ex:
            raise ValueError(f"{what} text line {number}: {ex}: {line.strip()!r}") from None
    if n is None:
        raise ValueError(f"{what} text needs an 'n <count>' line")
    return n, labels, rot_ids, edges


def rotations_from_coordinates(edges, pos):
    """Clockwise rotations computed from straight-line coordinates.

    Intended for tests and builders that lay vertices out geometrically.
    Loops are not supported here.
    """
    from math import atan2
    incident = {}
    for e, (u, w) in edges.items():
        if u == w:
            raise ValueError("loops need explicit rotations")
        incident.setdefault(u, []).append((e, 0))
        incident.setdefault(w, []).append((e, 1))
    rot = {}
    for v, darts in incident.items():
        def angle(d):
            e, end = d
            u, w = edges[e]
            ox, oy = pos[w if end == 0 else u]
            return atan2(oy - pos[v][1], ox - pos[v][0])
        rot[v] = tuple(sorted(darts, key=lambda d: -angle(d)))
    return rot
