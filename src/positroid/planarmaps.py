"""Combinatorial maps for graphs embedded in a disk.

The embedding of a graph drawn in a disk is stored purely combinatorially
as a rotation system: at every vertex, the cyclic sequence of edge ends in
clockwise order as drawn.  The disk boundary is materialized as phantom
arcs b_1 -> b_2 -> ... -> b_n -> b_1 so that face tracing, the outer face,
and left/right sides of an edge are all well defined without coordinates.

Darts.  An edge e = (tail, head) has two darts: (e, 0) anchored at the
tail and (e, 1) anchored at the head.  A dart travels from its anchor to
the opposite end.  Edge ids are nonnegative integers, and the boundary
arc ~i = -i - 1, which runs b_i -> b_{i+1}, has the darts (~i, 0) and
(~i, 1): every dart is a pair of integers, and a dart is an arc's
exactly when its first entry is negative.  With clockwise rotations, the
orbit rule

    next(d) = clockwise successor of rev(d) at the vertex d travels to

walks every face keeping that face on the LEFT of the travel direction.
Consequently the face on the left of d is orbit(d), on its right orbit(rev(d)).
DiskMap walks it with one tracer, for a fresh map and for one derived
from a rewrite alike, finding each successor in a vertex's rotation.  A
rewrite that keeps every face but those it empties (contracting an
edge, gluing a bend, removing a bigon) is not traced: its map relabels
the faces it touched, taking the darts of the removed edges out or
renaming them.  The faces are kept as traced or relabelled, in no fixed
order, and each face's key (face_key) is found once and kept with the
face.  The one order the library puts faces in
is that of faces_of_length: each small face started at its least dart,
the faces by those darts.  A fresh map is planar when one Euler sum over
the whole map gives V - E + F = 2 per component: no component of a
rotation system exceeds 2, so none can make up for another (Mohar and
Thomassen, Graphs on Surfaces, 2001, sections 3-4).

`_DiskGraph` is the core that planar directed networks and plabic graphs
share: boundary vertices 1..n, the rotation system and its DiskMap, the
implied rotations, the connected components, the fresh-id rule and the
tokenizer of their text formats.
"""

from functools import cached_property, lru_cache
from itertools import chain, count, filterfalse, product

# DiskMap.faces_of_length serves faces of at most this many darts
SMALL = 4


def rev(dart):
    e, end = dart
    return (e, 1 - end)


class DiskMap:
    """Rotation-system embedding of a graph with n boundary vertices.

    boundary: tuple of vertex ids b_1..b_n in clockwise order.
    edges: dict eid -> (tail, head, ...), kept as it is.  eids must be
          nonnegative integers: the negative ones name the boundary arcs.
    rot: dict vertex -> tuple of darts anchored there, clockwise as drawn.
          Every dart of every edge must appear exactly once.
    rot_ids: in place of rot, dict vertex -> clockwise edge ids, read and
          checked in one pass by rotations_from_edge_lists.
    verts: vertices besides the boundary that may have no darts (given ()).

    Every map traces its faces with _trace, a fresh one all of them and a
    derived one (see derive) those a rewrite changed, and keeps them as
    traced; a relabelled one (see relabel) traces none and keeps each face
    a rewrite touched as its dart cycle with the darts of removed edges
    taken out or renamed.  orbit(d) gives the face of d from whichever dart
    it was traced or relabelled, and faces() and inner_faces() list them in
    no fixed order.  Only faces_of_length, which the rewriting engine walks
    for sites, starts each face at its least dart and lists them in the
    order of those darts.  A map and the maps derived or relabelled from
    it share one table of face keys (face_key), so a face that a rewrite
    keeps keeps its key, and each face is keyed once.
    """

    # the components without a boundary vertex that a fresh map's planarity check found
    _isolated = None

    # _stamp is a token of the map.  The maps derived from it keep it as their
    # _base: it stays unique while they hold it, and it does not keep this map
    # alive as a reference to the map would.
    _base = None

    # On a map relabel made, the image of each face that left, in the order
    # of face_changes, () where the face vanished; None on any other map.
    # Finding them from the renaming instead, as on a derived map, took
    # plabic_rewrite from ~391 to ~363 tasks/s on a shared 2-vCPU machine.
    _images = None

    def __init__(self, boundary, edges, rot=None, rot_ids=None, verts=()):
        if rot is None:
            rot = rotations_from_edge_lists(edges, rot_ids, boundary, verts)
        else:
            rot = {v: tuple(ds) for v, ds in rot.items()}
            _check_darts(edges, rot)
            for v in chain(boundary, verts):
                rot.setdefault(v, ())
        self.edges, self.rot = edges, rot
        self.boundary = tuple(boundary)
        self.n = n = len(self.boundary)
        self._at = {b: i for i, b in enumerate(self.boundary)}
        self._arcs = _arc_darts(n)
        self._aug_rot = aug = self.rot.copy()
        for i, b in enumerate(self.boundary):
            aug[b] = _spliced(i, aug.get(b, ()), n)
        self._face_of, self._keys = {}, {}
        self._count = len(self._trace(chain.from_iterable(aug.values())))
        self._stamp = object()
        self.validate_planarity()

    def derive(self, edges, rot, changed):
        """The map of a local rewrite of this graph, without re-validation.

        edges and rot describe the rewritten graph on the same boundary and
        are taken as they are.  changed names every vertex whose rotation
        the rewrite changed (naming more is harmless).  Only a dart that
        arrives at one of those vertices can get a new successor, and only
        the faces with a dart whose successor did change leave: their darts
        are traced again, and the other faces are kept as they are.  So
        the faces of faces(), orbit and inner_faces() are the dart cycles of
        DiskMap(self.boundary, edges, rot), faces_of_length equals its, and
        face_changes(self) returns the faces that left and arrived.
        """
        old_aug, at = self._aug_rot, self._at
        aug, was_pairs, now_pairs = None, set(), set()      # (dart, its clockwise successor)
        for v in changed:
            was = old_aug.get(v)
            now = rot.get(v) if v not in at else _spliced(at[v], rot.get(v, ()), self.n)
            if now == was:
                continue
            if aug is None:
                aug = old_aug.copy()
            if was:
                was_pairs.update(_cyclic_pairs(was))
            if now is None:
                del aug[v]
            else:
                aug[v] = now
                now_pairs.update(_cyclic_pairs(now))
        if aug is None:
            return self         # equal rotations: equal edges and faces

        # the dart arriving as the reverse of y leaves along y's successor,
        # so where that successor changed, the face of the arriving dart did
        lost, made = was_pairs - now_pairs, now_pairs - was_pairs
        gone = {}
        for (e, end), _ in lost:
            f = self._face_of[(e, 1 - end)]
            gone[id(f)] = f
        left, face_of = list(gone.values()), self._face_of.copy()
        for f in left:      # the darts of removed edges are on faces that left
            for d in f:
                del face_of[d]
        new = self._successor(edges, rot, aug, face_of)
        return self._changed(new, left, new._trace((e, 1 - end) for (e, end), _ in made))

    def relabel(self, edges, rot, changed, rename):
        """The map of a local rewrite that keeps every face it does not
        empty, without tracing.

        edges, rot and changed are derive's.  The rewrite removes the edges
        of this map that edges lacks, and may make new ones under ids no
        removed edge had; rename maps each dart of a removed edge that lives
        on to its new dart, on the same face, and the other darts of removed
        edges are dropped.  Gluing a bend (M3r) renames the far darts of its
        two edges and drops the near ones; contracting an edge (M2) renames
        none and drops both of its darts; removing a bigon (R1) renames the
        far darts of its ends' third edges and drops the other darts of its
        four edges, the bigon's among them.  Each face with a dart of a
        removed edge becomes the same dart cycle with the dropped darts
        taken out and the renamed ones renamed, and vanishes when no dart is
        left; every other face is kept.  So the result is derive's, with no
        face traced and no rotations compared, and face_changes(self)
        returns the faces that left and arrived, and _images each left
        face's image.
        """
        at, n = self._at, self.n
        aug = self._aug_rot.copy()
        for v in changed:
            now = rot.get(v)
            if now is None:
                aug.pop(v, None)
            else:
                aug[v] = now if v not in at else _spliced(at[v], now, n)
        # each dart of a removed edge -> its new dart, or None where it is dropped
        image = dict.fromkeys(product(self.edges.keys() - edges.keys(), (0, 1)))
        face_of = self._face_of
        fs = list(map(face_of.__getitem__, image))
        left = list(dict(zip(map(id, fs), fs)).values())
        face_of = face_of.copy()
        for d in image:
            del face_of[d]
        image.update(rename)
        images = []
        for f in left:
            g = tuple(filter(None, map(image.get, f, f)))
            face_of.update(dict.fromkeys(g, g))
            images.append(g)
        new = self._successor(edges, rot, aug, face_of)
        new._images = images
        return self._changed(new, left, [g for g in images if g])

    def _successor(self, edges, rot, aug, face_of):
        """A map of edges and rot on this map's boundary, with the given
        spliced rotations and dart -> face table."""
        new = object.__new__(DiskMap)
        new.boundary, new.n, new._at, new._arcs = self.boundary, self.n, self._at, self._arcs
        new.edges, new.rot, new._aug_rot, new._face_of = edges, rot, aug, face_of
        new._keys = self._keys
        return new

    def _changed(self, new, left, arrived):
        """new, a map derived or relabelled from this one, with the faces left
        and arrived recorded and its face count and small faces updated from
        them."""
        if "_small" in self.__dict__:
            # only a face of at most SMALL darts can be in _small, or join it;
            # finding it anew per map took plabic_rewrite's setup_s from ~0.47 to ~0.52 s
            gone = [f for f in left if len(f) <= SMALL]
            came = [f for f in arrived if len(f) <= SMALL and self._arcs.isdisjoint(f)]
            new._small = self._small.difference(gone).union(came) if gone or came else self._small
        new._count = self._count - len(left) + len(arrived)
        new._stamp, new._base, new._left, new._arrived = object(), self._stamp, left, arrived
        return new

    def face_changes(self, base):
        """(left, arrived): the faces of base, the map this one was derived
        or relabelled from (or this map itself), that are not faces of this
        map, and this map's faces that are not base's, as orbit() gives them
        and as derive or relabel recorded them.  A face is a dart cycle,
        whichever dart its tuple starts at."""
        if self is base:
            return [], []
        if self._base is None or self._base is not base._stamp:
            raise ValueError("the map was not derived from this base")
        return self._left, self._arrived

    # -- face tracing ---------------------------------------------------------

    def _trace(self, darts):
        """Trace the face through each of the darts that is on no face in
        _face_of yet, and record it there as traced: from that dart.  Each
        step takes the clockwise successor of the reversed dart at the
        vertex it travels to, found in that vertex's rotation.  Returns the
        faces traced."""
        aug, edges, b, n, face_of = self._aug_rot, self.edges, self.boundary, self.n, self._face_of
        traced = []
        for dart in darts:
            if dart in face_of:
                continue
            orbit, cur = [], dart
            while True:
                orbit.append(cur)
                e, end = cur
                if e < 0:           # the arc ~j runs b_j -> b_{j+1}
                    ds = aug[b[(~e + 1 - end) % n]]
                else:
                    ds = aug[edges[e][1 - end]]
                i = ds.index((e, 1 - end)) + 1
                cur = ds[i] if i < len(ds) else ds[0]
                if cur == dart:
                    break
            orbit = tuple(orbit)
            for d in orbit:
                face_of[d] = orbit
            traced.append(orbit)
        return traced

    def faces(self):
        """Every face once, as orbit() gives it, in no fixed order: each is
        found at the dart _trace started it from, its first dart."""
        return [f for d, f in self._face_of.items() if f[0] == d]

    @cached_property
    def _small(self):
        """The faces of at most SMALL darts and no boundary arc, as traced."""
        arcs = self._arcs
        return {orbit for orbit in self.faces() if len(orbit) <= SMALL and arcs.isdisjoint(orbit)}

    def _inside(self, orbit):
        """The face with its boundary arcs dropped."""
        arcs = self._arcs
        return orbit if arcs.isdisjoint(orbit) else tuple(filterfalse(arcs.__contains__, orbit))

    def face_key(self, orbit):
        """The key of the face orbit, as traced or relabelled: its least
        dart that is no boundary arc, or ("disk",) when it has none.  The
        key is found once per face and kept in the table the maps of one
        fresh build share, by the id of the orbit; the table holds the
        orbit, so no other face can take that id."""
        # keying anew on each call took plabic_rewrite from ~391 to ~381 tasks/s
        entry = self._keys.get(id(orbit))
        if entry is None:
            entry = self._keys[id(orbit)] = orbit, _least_real(orbit, self._arcs)
        return entry[1]

    def face_count(self):
        """len(faces()), without listing the faces."""
        return self._count

    def faces_of_length(self, k):
        """The faces of k <= SMALL darts and no boundary arc, each started at
        its least dart, in the order of those darts."""
        if k > SMALL:
            raise ValueError(f"only faces of at most {SMALL} darts are indexed")
        placed = []
        for f in self._small:
            if len(f) == k:
                i = f.index(min(f))
                placed.append(f[i:] + f[:i])
        return tuple(sorted(placed))

    def orbit(self, dart):
        """The face on the left of the dart, as its orbit (from any of its darts)."""
        return self._face_of[dart]

    def inner_faces(self):
        """Every face but the outer one, boundary arcs dropped, in no fixed
        order; each face's darts come in their cyclic order."""
        outer = self._face_of.get((~0, 0))
        return [self._inside(f) for f in self.faces() if f is not outer]

    # -- validation ------------------------------------------------------------

    def validate_planarity(self):
        """One Euler sum V - E + F = 2 * (components) for the rotation data.

        V counts the vertices with darts, boundary arcs included among the
        edges, and F the traced faces.  Each component of a rotation system
        has V - E + F = 2 - 2g with genus g >= 0, so the sum over the
        components reaches twice their number exactly when each is planar.
        The components are walked once over the rotations, the boundary,
        which the arcs join, as one block, and those without a boundary
        vertex are kept, singletons included, for isolated_components.
        """
        edges, rot = self.edges, self.rot
        seen, self._isolated = _reach(set(self.boundary), rot, edges), []
        for v in rot:
            if v not in seen:
                self._isolated.append(_reach({v}, rot, edges))
                seen |= self._isolated[-1]
        bare = sum(1 for ds in self._aug_rot.values() if not ds)
        chi = len(self._aug_rot) - bare - len(edges) - self.n + self._count
        comps = (self.n > 0) + len(self._isolated) - bare
        if chi != 2 * comps:
            raise ValueError(
                "rotation system is not a planar disk embedding "
                f"(V - E + F = {chi} over {comps} components)")


@lru_cache(maxsize=None)
def _arc_darts(n):
    """The darts of the boundary arcs of a disk with n boundary vertices."""
    return frozenset((~i, end) for i in range(n) for end in (0, 1))


def _least_real(orbit, arcs):
    """The least dart of the orbit that is not in arcs, or ("disk",) when every one is."""
    least = min(orbit)
    return least if least[0] >= 0 else min(filterfalse(arcs.__contains__, orbit), default=("disk",))


def _spliced(i, ds, n):
    """The darts ds at b_i with the boundary arcs spliced in, clockwise: the
    arc towards b_{i+1}, ds (into the disk), then the arc from b_{i-1}."""
    return ((~i, 0), *ds, (~((i - 1) % n), 1))


def _cyclic_pairs(ds):
    """(ds[i], ds[i + 1]) for every i, cyclically: each dart of a rotation
    with its clockwise successor."""
    return zip(ds, ds[1:] + ds[:1])


def _check_darts(edges, rot):
    """Check that the edge ids are nonnegative and that rot lists each dart
    once, at its anchor; the error names the first fault, in rot's order."""
    seen = set()
    if min(edges, default=0) < 0:
        raise ValueError(f"edge id {min(edges)} is negative; negative ids name the boundary arcs")
    for v, ds in rot.items():
        for d in ds:
            e, end = d
            if e not in edges or end not in (0, 1):
                raise ValueError(f"unknown dart {d} at vertex {v}")
            if edges[e][end] != v:
                raise ValueError(f"dart {d} listed at {v} but anchored at {edges[e][end]}")
            if d in seen:
                raise ValueError(f"dart {d} appears twice")
            seen.add(d)
    if len(seen) < 2 * len(edges):     # the darts seen are distinct darts of edges
        for e, uw in edges.items():
            for d in ((e, 0), (e, 1)):
                if d not in seen:
                    raise ValueError(f"dart {d} of edge {e}=({uw[0]},{uw[1]}) missing from rotations")


def rotations_from_edge_lists(edges, rot_ids, boundary, verts):
    """Turn per-vertex clockwise edge-id lists into dart rotations, checked
    in one pass, for each vertex of rot_ids, boundary and verts and each end
    of an edge (eid -> (tail, head, ...)).  A vertex without a list takes its
    edges, first checked to have one rotation: at most one edge end at a
    boundary vertex and two elsewhere (a loop counts twice), else it raises
    "vertex v has degree d; give its rotation explicitly".  A loop's id
    appears twice in a list, the first time as its tail, unless a list names
    a dart (e, end) outright, as text names (e, 1) e'.  An id of no edge, or
    of an edge not at its vertex, raises as it is read; unless the darts read
    are then every dart once, at its anchor, _check_darts names the first fault.
    """
    free = {v: [] for v in chain(boundary, verts) if v not in rot_ids}
    for e, uw in edges.items():
        if uw[0] not in rot_ids:
            free.setdefault(uw[0], []).append(e)
        if uw[1] not in rot_ids:
            free.setdefault(uw[1], []).append(e)
    for v, ids in free.items():
        if len(ids) > (1 if v in boundary else 2):
            raise ValueError(f"vertex {v} has degree {len(ids)}; give its rotation explicitly")
    rot, seen, listed, loose = {}, set(), 0, False
    for v, ids in chain(rot_ids.items(), free.items()):
        darts = []
        for e in ids:
            uw = edges.get(e)
            if uw is None:      # no edge id: unknown, or a dart named outright
                d = e if e.__class__ is tuple else (e, 0)
                if d[0] not in edges:
                    raise ValueError(f"vertex {v} lists unknown edge {d[0]}")
                darts.append(d)
                loose = True
                continue
            u, w = uw[0], uw[1]
            if u == w:
                end = 1 if (e, 0) in darts else 0
                loose = loose or u != v
            elif u == v:
                end = 0
            elif w == v:
                end = 1
            else:
                raise ValueError(f"edge {e} not incident to vertex {v}")
            darts.append((e, end))
        rot[v] = darts = tuple(darts)
        seen.update(darts)
        listed += len(darts)
    if loose or not len(seen) == listed == 2 * len(edges) or min(edges, default=0) < 0:
        _check_darts(edges, rot)
    return rot


def _rotation_ids(darts):
    """The edge ids of the darts at a vertex, clockwise, as text writes them for
    rotations_from_edge_lists, which reads a loop's first id as its tail:
    from the first dart, with each loop's head that comes before its tail
    written e', which names the dart (e, 1)."""
    ids = [e for e, _ in darts]
    if len(set(ids)) < len(ids):        # a loop
        for i, (e, end) in enumerate(darts):
            if end and (e, 0) in darts[i + 1:]:
                ids[i] = f"{e}'"
    return ids


def _reach(comp, rot, edges):
    """The vertex set comp, grown in place by every vertex joined to it in
    the rotation system rot of edges (eid -> (tail, head, ...))."""
    stack = list(comp)
    while stack:
        for e, end in rot.get(stack.pop(), ()):
            w = edges[e][1 - end]
            if w not in comp:
                comp.add(w)
                stack.append(w)
    return comp


def _dual_forest(faces, face_of=None):
    """A spanning forest of the dual graph of `faces`, a list of dart tuples.

    Grown breadth-first across real edges, never boundary arcs, from the
    first face of each part.  Returns a (face index, dart) pair for every
    face but the roots, where the dart is the face's dart whose edge was
    crossed to reach it.  Reversed, the list puts every face after the
    faces below it, so each face can fix its own edge last.  face_of maps
    every real dart to its face, the very tuple of `faces`, as the
    _face_of of the DiskMap that traced them does; without it, that index
    is built here.
    """
    if face_of is None:
        face_of = {d: orbit for orbit in faces for d in orbit}
    index = {id(orbit): f for f, orbit in enumerate(faces)}
    seen, forest = set(), []
    for root in range(len(faces)):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for f in queue:
            for e, end in faces[f]:
                if e < 0:
                    continue            # a boundary arc
                dart = (e, 1 - end)
                g = index[id(face_of[dart])]
                if g not in seen:
                    seen.add(g)
                    forest.append((g, dart))
                    queue.append(g)
    return forest


def _reanchor(edges, darts, v):
    """Anchor every dart (e, end) of `darts` at v: edges[e][end] = v."""
    for e, end in darts:
        edges[e] = (v, *edges[e][1:]) if end == 0 else (edges[e][0], v, *edges[e][2:])


def _rename_far(rot, rename, ends):
    """Rename in place, by rename {old dart: new dart}, the darts at the far ends, each end once."""
    for x in set(ends):
        ds = rot[x]
        rot[x] = tuple(map(rename.get, ds, ds))


def _glue(rot, edges, v, e):
    """Remove the bend v (two darts of two edges) in place, gluing its edges
    into the new edge e = (a, b), from the far end a of v's first dart to
    that of its second.  Returns a, b and the renaming {old dart: new
    dart} of the far darts of the glued edges."""
    (e1, end1), (e2, end2) = rot.pop(v)
    d1, d2 = (e1, 1 - end1), (e2, 1 - end2)
    a, b = edges.pop(e1)[d1[1]], edges.pop(e2)[d2[1]]
    edges[e] = (a, b)
    rename = {d1: (e, 0), d2: (e, 1)}
    _rename_far(rot, rename, (a, b))
    return a, b, rename


def fresh_ids(*pools):
    """Unused ids, counting up from one above every id in the pools."""
    return count(1 + max(chain(*pools), default=0))


class _DiskGraph:
    """A graph in the disk with boundary vertices 1..n, clockwise.

    The core of PlanarDirectedNetwork and PlabicGraph: the vertex set, the
    rotation system and its DiskMap.  A vertex may omit its rotation only
    when the rotation is unique: an internal vertex with at most two darts
    (a loop counts twice), or a boundary vertex with at most one, since the
    boundary arcs put the darts at b_i in a linear order.  `boundary` is
    the range 1..n, so `v in G.boundary` is the boundary test.  Vertex and
    edge ids are integers, as every parser and builder makes them, and a
    rewrite draws new ones from fresh_ids(G.rot, G.edges) or fresh_ids(G.edges).
    """

    def __init__(self, n, verts, rot_ids, rot):
        """The map of self.edges and rot_ids or rot, with the vertices verts (see DiskMap)."""
        self.n = n
        self.boundary = range(1, n + 1)
        self.map = DiskMap(self.boundary, self.edges, rot, rot_ids or {}, verts)
        self.rot = self.map.rot

    def internal_vertices(self):
        return frozenset(filterfalse(self.map._at.__contains__, self.rot))

    def degree(self, v):
        return len(self.rot[v])

    def components(self):
        """The connected components, as vertex sets."""
        comps, left = [], set(self.rot)
        while left:
            comps.append(_reach({left.pop()}, self.rot, self.map.edges))
            left -= comps[-1]
        return comps

    def isolated_components(self):
        """The components without a boundary vertex, singletons included:
        those the planarity check of a fresh map recorded, or on a derived
        map those found here."""
        m = self.map
        if m._isolated is None:
            m._isolated = [c for c in self.components() if m._at.keys().isdisjoint(c)]
        return m._isolated

    def replace(self, changed, kept=None, **kw):
        """This graph with the fields in kw replaced: how every rewrite builds its result.

        changed names every vertex the rewrite added, removed, or changed
        the rotation or any other field of (naming more is harmless).  The
        new values are taken as they are, and the map is made from this
        one's: when the rewrite keeps every face it does not empty, kept is
        its renaming of the darts of removed edges that live on ({} when it
        renames none) and the map is relabelled (DiskMap.relabel), with
        nothing traced; otherwise it is derived (DiskMap.derive), and only
        the faces at the changed vertices are traced again.  Nothing is
        validated: a rewrite of a valid graph is valid, and nothing else
        is carried over: a plabic graph finds its reduce sites on first use
        (PlabicGraph._sites).  Graphs from outside go through the constructor.
        """
        new = object.__new__(type(self))
        for name in self._fields:
            setattr(new, name, kw.get(name, getattr(self, name)))
        new.boundary = self.boundary
        if kept is None:
            new.map = self.map.derive(new.edges, new.rot, changed)
        else:
            new.map = self.map.relabel(new.edges, new.rot, changed, kept)
        return new


def parse_disk_text(text, what, vertex_label, edge_tail, other):
    """Read the lines that network and plabic text share.

    `#` starts a comment; the rest of a line must be ASCII without `_`, one
    check per line, so int() reads exactly the integers of exactmath.integer.
    `n <count>` gives n; `vertex v [label] : ids` gives the clockwise edge
    ids at v, e' naming the dart (e, 1), and vertex_label(label tokens);
    `edge e : u w [more]` gives the edge (u, w, *edge_tail(more tokens)).
    The colons may be left out, and n, a vertex or an edge given twice is
    an error.  Every other line goes to other(tokens, line number).
    Returns (n, labels, rot_ids, edges), which the constructor's rotation
    pass (rotations_from_edge_lists) turns into checked dart rotations;
    every error is one ValueError naming the line number and the line.
    Each line is split once, and a colon is looked for where the canonical
    form puts it first.
    """
    n = None
    labels, rot_ids, edges = {}, {}, {}
    try:
        for number, line in enumerate(text.splitlines(), 1):
            cut = line.split("#", 1)[0] if "#" in line else line
            if not cut.isascii() or "_" in cut:
                raise ValueError("expected ASCII text without '_'")
            toks = cut.split()
            if not toks:
                continue
            key = toks[0]
            if key == "edge":
                if len(toks) < 5 or toks[2] != ":" or toks[1] == ":":     # not the canonical form
                    head, body = _around_colon(toks, 2)
                    if len(head) != 1 or len(body) < 2:
                        raise ValueError("expected 'edge e : u w ...'")
                    toks = [key, *head, ":", *body]
                e = int(toks[1])
                if e in edges:
                    raise ValueError(f"edge {e} is given twice")
                edges[e] = (int(toks[3]), int(toks[4]), *edge_tail(toks[5:]))
            elif key == "vertex":
                if len(toks) > 3 and toks[3] == ":" and ":" not in (toks[1], toks[2]):
                    head, ids = toks[1:3], toks[4:]
                else:
                    head, ids = _around_colon(toks, 3)
                if not head:
                    raise ValueError("a vertex line needs an id")
                v = int(head[0])
                if v in labels:
                    raise ValueError(f"vertex {v} is given twice")
                labels[v] = vertex_label(head[1:])
                rot_ids[v] = [(int(t[:-1]), 1) if t[-1] == "'" else int(t) for t in ids]
            elif key == "n":
                if n is not None:
                    raise ValueError("a second 'n' line")
                if len(toks) != 2 or int(toks[1]) < 0:
                    raise ValueError("expected 'n <count>' with a count >= 0")
                n = int(toks[1])
            else:
                other(toks, number)
    except ValueError as ex:
        raise ValueError(f"{what} text line {number}: {ex}: {line.strip()!r}") from None
    if n is None:
        raise ValueError(f"{what} text needs an 'n <count>' line")
    return n, labels, rot_ids, edges


def _around_colon(toks, at):
    """The tokens after the keyword before and after the first ':', or
    without one, those before toks[at] and from it."""
    if ":" in toks:
        at = toks.index(":")
        return toks[1:at], toks[at + 1:]
    return toks[1:at], toks[at:]


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
