"""Plabic graphs and networks: faces, orientations, trips, moves, reductions.

A plabic graph is an undirected graph in the disk whose internal vertices
are colored black (+1) or white (-1) and whose boundary vertices 1..n each
carry exactly one edge.  A plabic network additionally weights every face
with a positive rational, the weights multiplying to 1.

Orientations in which every black vertex has one outgoing edge and every
white vertex one incoming edge turn the graph into a perfect directed
network; all such orientations measure to the same projective point, and
their source sets form the graph's matroid.  None are enumerated: one is
found by augmenting paths, reversing paths in it walks it through the
Grassmann necklace, and the bases follow from the necklace by Oh's
theorem.  Trips (turn right at black, left at white) give the decorated
trip permutation, the complete move invariant of reduced graphs.

The moves M1-M3 and reductions R1-R3 (Postnikov §12) are one rule per
site kind on plain dicts, in one table, SITE_RULES, applied by one
applier that derives the new graph once and carries the face weights.
reduce_graph runs the rows of REDUCE_ROWS, each of which finds its own
first site and removes it through that applier; the batched rows
(glue_bends, remove_bigons) run the same dict rules.
"""

from fractions import Fraction
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import combinations, islice, repeat
from math import prod

from .exactmath import Matroid, format_rational, integer, rational
from .lediagram import _hook_layout, invert_measurement
from .network import (PlanarDirectedNetwork, boundary_measurement_matrix, is_perfect, color as net_color,
                      measure)
from .permutations import (BLACK, WHITE, DecoratedPermutation, GrassmannNecklace, le_from_perm,
                           perm_from_necklace)
from .planarmaps import (_DiskGraph, _dual_forest, _glue, _reanchor, _rename_far, _rotation_ids, fresh_ids,
                         parse_disk_text, rev)


class PlabicGraph(_DiskGraph):
    """Immutable bicolored graph in the disk with degree-1 boundary vertices."""

    _fields = ("n", "col", "edges", "rot")

    def __init__(self, n, col, edges, rot_ids=None, rot=None):
        self.col = dict(col)
        self.edges = {e: (u, w) for e, (u, w) in edges.items()}
        super().__init__(n, self.col, rot_ids, rot)
        for i in self.boundary:
            if len(self.rot[i]) != 1:
                raise ValueError(f"boundary vertex {i} has degree {len(self.rot[i])}, need 1")
            if i in self.col:
                raise ValueError("boundary vertices are not colored")
        for v in self.internal_vertices():
            if self.col.get(v) not in (BLACK, WHITE):
                raise ValueError(f"internal vertex {v} has no color")

    def other_end(self, e, v):
        u, w = self.edges[e]
        return w if u == v else u

    def incident(self, v):
        return [e for e, _ in self.rot[v]]

    def type(self):
        """(k, n) with 2k - n = sum of col(v) (deg(v) - 2)."""
        s = sum(self.col[v] * (self.degree(v) - 2) for v in self.internal_vertices())
        if (s + self.n) % 2:
            raise ValueError("graph has no consistent type")
        return ((s + self.n) // 2, self.n)

    @cached_property
    def _sites(self):
        """The candidates that the rows of REDUCE_ROWS take their sites from,
        by kind: internal vertices without darts (singleton), internal
        degree-2 vertices on two edges (M3r), internal leaves on an internal
        neighbour (leaf), unicoloured edges (M2) and loops (loop)."""
        sites = {row: set() for row in (*_VERTEX_ROWS, *_EDGE_ROWS)}
        _index_sites(self, sites, self.rot, self.edges)
        return sites

    def _carry(self, parent, changed):
        sites = parent.__dict__.get("_sites")
        if sites is not None:
            # a vertex's row depends on its own darts and on whether their far
            # ends are boundary vertices, which no rewrite changes for a kept
            # vertex; an edge's row on its ends and their colours, so only an
            # edge with an end at a changed vertex, before or after, can move:
            # one there now, or one the rewrite removed (an edge it kept that
            # ended at a changed vertex before ends at one now)
            edges = parent.edges.keys() - self.edges.keys()
            edges.update(e for v in changed for e, _ in self.rot.get(v, ()))
            now = {row: set() for row in sites}
            _index_sites(self, now, changed, edges)
            self._sites = {row: s.difference(changed if row in _VERTEX_ROWS else edges).union(now[row])
                           for row, s in sites.items()}

    def boundary_leaf(self, i):
        """The internal leaf at b_i, when the boundary edge ends in one."""
        (e, _), = self.rot[i]
        v = self.other_end(e, i)
        if v not in self.boundary and self.degree(v) == 1:
            return v
        return None

    def __repr__(self):
        k, n = self.type()
        return f"PlabicGraph(type=({k},{n}), {len(self.edges)} edges, {len(self.internal_vertices())} internal)"

    def to_text(self):
        lines = [f"n {self.n}"]
        for v in sorted(self.internal_vertices()):
            cname = "black" if self.col[v] == BLACK else "white"
            ids = " ".join(map(str, _rotation_ids(self.rot[v])))
            lines.append(f"vertex {v} {cname} : {ids}")
        for e in sorted(self.edges):
            u, w = self.edges[e]
            lines.append(f"edge {e} : {u} {w}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """The graph, or the network when a `faces` header follows: then one
        line `name : weight` per face, in the sorted order of to_text."""
        lines = []                  # (line number, face name, weight)
        in_faces = False

        def other(toks, number):
            nonlocal in_faces
            if toks == ["faces"]:
                if in_faces:
                    raise ValueError("a second 'faces' header")
                in_faces = True
            elif in_faces and len(toks) in (2, 3) and toks[1:-1] in ([], [":"]):
                lines.append((number, toks[0], rational(toks[-1])))
            else:
                raise ValueError("expected 'name : weight'" if in_faces else "unrecognized line")

        n, col, rot_ids, edges = parse_disk_text(text, "plabic", _color, _no_tail, other)
        G = cls(n, col, edges, rot_ids=rot_ids)
        if in_faces:
            keys = sorted(face_weight_keys(G))
            if len(lines) != len(keys):
                raise ValueError(f"{len(lines)} face weights for {len(keys)} faces")
            for (number, name, _), key in zip(lines, keys):
                if name != _face_name(key):
                    raise ValueError(f"plabic text line {number}: expected face "
                                     f"{_face_name(key)!r}, not {name!r}")
            return PlabicNetwork._of_faces(G, {key: w for key, (_, _, w) in zip(keys, lines)})
        return G


_COLOURS = {"black": BLACK, "white": WHITE}


def _color(labels):
    color = _COLOURS.get(labels[0].lower()) if len(labels) == 1 else None
    if color is None:
        raise ValueError("expected 'vertex v black|white : edge ids'")
    return color


def _no_tail(toks):
    if toks:
        raise ValueError("expected 'edge e : u w'")
    return ()


def faces(G):
    """Interior faces, in no fixed order, as tuples of real darts (arc darts
    dropped): |V| - |E| + |F| = 1 + c, each of the c isolated components
    adding its outer walk as a face."""
    return G.map.inner_faces()


def face_key(darts):
    return min(darts) if darts else ("disk",)


def face_weight_keys(G):
    """The face_key of every interior face, in no fixed order, as the map keys them."""
    m = G.map
    outer = m._face_of.get((~0, 0))
    return [m.face_key(f) for f in m.faces() if f is not outer]


def _face_name(key):
    """The name of a face in plabic network text: `e.end` of its key dart, or `disk`."""
    return "disk" if key == ("disk",) else f"{key[0]}.{key[1]}"


class PlabicNetwork:
    """A plabic graph with positive face weights multiplying to 1."""

    def __init__(self, graph, weights):
        self.graph = graph
        self.weights = {k: rational(x) for k, x in weights.items()}
        if self.weights.keys() != set(face_weight_keys(graph)):
            raise ValueError("weights do not match the faces of the graph")
        self._check()

    @classmethod
    def _of_faces(cls, graph, weights):
        """The constructor for Fractions keyed by exactly graph's face keys, taken as they are."""
        net = object.__new__(cls)
        net.graph, net.weights = graph, weights
        net._check()
        return net

    def _check(self):
        """Positive weights, multiplying to 1, and weight 1 on each isolated tree."""
        graph, ws = self.graph, self.weights.values()
        if any(x <= 0 for x in ws):
            raise ValueError("face weights must be positive")
        # in lowest terms, a product of positive fractions is 1 when the integer products agree
        num, den = prod(x.numerator for x in ws), prod(x.denominator for x in ws)
        if num != den:
            raise ValueError(f"face weights multiply to {Fraction(num, den)}, not 1")
        for comp in graph.isolated_components():
            comp_edges = [e for e, (u, w) in graph.edges.items() if u in comp]
            if len(comp_edges) >= len(comp):
                raise ValueError("isolated component with a cycle: containment is ambiguous")
            if comp_edges:
                # a tree's boundary walk bounds no area: weight forced to 1
                key = min((e, end) for e in comp_edges for end in (0, 1))
                if self.weights.get(key) != 1:
                    raise ValueError("isolated tree component must carry face weight 1")

    def __repr__(self):
        return f"PlabicNetwork({self.graph!r}, {len(self.weights)} faces)"

    def weight_of(self, darts):
        return self.weights[face_key(darts)]

    def to_text(self):
        lines = [self.graph.to_text().rstrip("\n"), "faces"]
        for key in sorted(face_weight_keys(self.graph)):
            lines.append(f"{_face_name(key)} : {format_rational(self.weights[key])}")
        return "\n".join(lines) + "\n"


# -- perfect orientations and the matroid -------------------------------------------


def perfect_orientation(G):
    """One orientation with one out-edge per black and one in-edge per white, or None.

    Returned as a dict eid -> (tail, head).  An internal vertex needs
    out-degree 1 if black and deg - 1 if white (a loop counts once in and
    once out); a boundary vertex may have out-degree 0 or 1.  Starting from
    the stored directions, each surplus out-edge is passed forward and each
    missing one fetched from behind by reversing a shortest path.  When no
    such path exists, the vertices reachable from the unbalanced one have
    too many (or too few) edges among them for any orientation, so there is
    none.  O(V E) in all.
    """
    orient = dict(G.edges)
    out = dict.fromkeys(G.rot, 0)
    for t, _ in orient.values():
        out[t] += 1
    need = {v: 1 if G.col[v] == BLACK else G.degree(v) - 1 for v in G.internal_vertices()}

    def reverse_path(v, forward, end):
        """Reverse a directed path from v (forward) or into v to some x with end(x)."""
        prev = {v: None}
        queue = [v]
        for x in queue:
            if x != v and end(x):
                out[x] += 1 if forward else -1
                while prev[x] is not None:
                    e, x = prev[x]
                    orient[e] = orient[e][::-1]
                out[v] -= 1 if forward else -1
                return True
            for e, _ in G.rot[x]:
                t, h = orient[e] if forward else orient[e][::-1]
                if t == x and h not in prev:
                    prev[h] = (e, x)
                    queue.append(h)
        return False

    # a boundary vertex may take out-degree 0..1, an internal one exactly need[v]
    for v in sorted(need):
        while out[v] > need[v]:
            if not reverse_path(v, True, lambda x: out[x] < need.get(x, 1)):
                return None
    for v in sorted(need):
        while out[v] < need[v]:
            if not reverse_path(v, False, lambda x: out[x] > need.get(x, 0)):
                return None
    return orient


class NotPerfectlyOrientable(ValueError):
    """The graph has no perfect orientation, which its necklace, its
    measurement and its reduction need."""


def _oriented(G):
    """perfect_orientation(G), or NotPerfectlyOrientable when there is none."""
    orient = perfect_orientation(G)
    if orient is None:
        raise NotPerfectlyOrientable("graph is not perfectly orientable")
    return orient


def orientation_sources(G, orient):
    """Boundary vertices whose single edge points into the disk."""
    return frozenset(i for i in G.boundary if orient[G.rot[i][0][0]][0] == i)


def necklace(G):
    """The Grassmann necklace I_1, ..., I_n of G's positroid (Postnikov §16-17).

    I_i is the lex-min basis in the shifted order i < i+1 < ... < i-1.  In
    a perfect orientation with sources B, B - b + j is a basis exactly when
    a directed path leads from the source b to the sink j, and reversing
    that path leaves a perfect orientation with sources B - b + j.

    I_1: a basis is lex-min when no source b reaches a sink j < b (greedy
    optimality).  One search from the sources in decreasing order, each
    entering only vertices no larger source reached, finds the largest
    source b that reaches each sink j.  While some j < b, the smallest such
    j is swapped in and the search repeated; j then stays, so that happens
    at most min(k, n - k) times.  I_{i+1} contains I_i - {i} (Lemma 16.3),
    so when i is in I_i one search from i swaps it for the first sink after
    i in the shifted order that i reaches, if there is one.  At most 2n
    searches, O(n E) in all.
    """
    orient = _oriented(G)
    k, n = G.type()
    sources = set(orientation_sources(G, orient))
    if len(sources) != k:
        raise AssertionError("orientation source set disagrees with the type")
    ahead = {v: {} for v in G.rot}      # ahead[t][e] = h for each arc t -> h
    for e, (t, h) in orient.items():
        if t != h:
            ahead[t][e] = h
    boundary, edges = G.boundary, G.edges

    def search(starts):
        """Breadth-first search from each start in turn, entering only vertices
        no earlier start reached.  Returns the search tree {vertex: edge to
        its parent} and the boundary vertices reached, as (start, j)."""
        prev, found = {}, []
        for s in starts:
            prev[s] = None
            queue = [s]
            for x in queue:
                for e, y in ahead[x].items():
                    if y not in prev:
                        prev[y] = e
                        queue.append(y)
                        if y in boundary:
                            found.append((s, y))
        return prev, found

    def swap(prev, j):
        """Reverse the search-tree path to the sink j, whose source becomes a sink."""
        x, e = j, prev[j]
        while e is not None:
            u, w = edges[e]
            t = w if u == x else u          # the tail of the arc t -> x
            del ahead[t][e]
            ahead[x][e] = t
            x, e = t, prev[t]
        sources.symmetric_difference_update((x, j))

    while True:
        prev, found = search(sorted(sources, reverse=True))
        better = [j for b, j in found if j < b]
        if not better:
            break
        swap(prev, min(better))
    subsets = []
    for i in range(1, n + 1):
        subsets.append(frozenset(sources))
        if i in sources and i < n:
            prev, found = search([i])
            if found:
                swap(prev, min((j for _, j in found), key=lambda j: (j - i) % n))
    return GrassmannNecklace(subsets)


def matroid(G):
    """Bases = source sets of the perfect orientations of G, read off its
    necklace (O(n E)) by positroid_bases."""
    neck = necklace(G)
    return Matroid(neck.k, neck.n, positroid_bases(neck))


def positroid_bases(neck):
    """The bases of the positroid of a Grassmann necklace, as increasing
    k-tuples in lex order.

    By Oh's theorem ("Positroids and Schubert matroids", JCTA 118, 2011) a
    k-subset J is a basis exactly when J >=_i I_i in the Gale order of the
    shifted order <_i, for every i: when a is the (s+1)-th element of I_i
    in <_i, J has at most s elements in the cyclic interval [i, a).  Only
    the caps with s below the interval's length can fail.  The listing
    tests the C(n, k) subsets, which combinations gives in lex order,
    against at most nk caps.
    """
    k, n = neck.k, neck.n
    caps = []                           # (bitmask of [i, a), s)
    for i in range(1, n + 1):
        # d is the place of a in <_i, so [i, a) holds the d places before it
        for s, d in enumerate(sorted((a - i) % n for a in neck[i])):
            if s < d:
                caps.append((sum(1 << x for x in range(1, n + 1) if (x - i) % n < d), s))
    masks = map(sum, combinations([1 << x for x in range(1, n + 1)], k))
    return (J for J, mask in zip(combinations(range(1, n + 1), k), masks)
            if all((mask & m).bit_count() <= c for m, c in caps))


# -- trips ---------------------------------------------------------------------------


class FixedPointWithoutLeaf(ValueError):
    """A trip fixes b_i, whose edge ends in no leaf to colour the fixed point."""


class TripDecomposition:
    """One-way trips, round trips, and the decorated trip permutation."""

    def __init__(self, one_way, round_trips, n):
        self.one_way = one_way      # dict i -> (end j, dart list)
        self.round_trips = round_trips
        self.n = n

    def permutation(self):
        return tuple(self.one_way[i][0] for i in range(1, self.n + 1))

    def decorated(self, G):
        perm = self.permutation()
        col = {}
        for i in range(1, self.n + 1):
            if perm[i - 1] == i:
                leaf = G.boundary_leaf(i)
                if leaf is None:
                    raise FixedPointWithoutLeaf(f"trip at b_{i} is a fixed point without a boundary leaf")
                col[i] = G.col[leaf]
        return DecoratedPermutation(perm, col)


def trips(G):
    """All trips of the plabic graph; every travel dart is used exactly once.

    The rules of the road (right at black, left at white) are applied in
    the walk: the dart (e, end) arrives at v as (e, 1 - end) and leaves
    along the dart col[v] places before that one in v's clockwise rotation.
    """
    edges, rot, col, boundary = G.edges, G.rot, G.col, G.boundary
    used = set()

    def walk(cur):
        """(the boundary vertex or None, the darts from cur up to it or up to a used dart)."""
        path = []
        while cur not in used:
            path.append(cur)
            used.add(cur)
            e, end = cur
            v = edges[e][1 - end]
            if v in boundary:
                return v, path
            ds = rot[v]
            cur = ds[(ds.index((e, 1 - end)) - col[v]) % len(ds)]
        return None, path

    one_way = {i: walk(rot[i][0]) for i in boundary}
    round_trips = [walk(dart)[1] for v in sorted(rot) for dart in rot[v] if dart not in used]
    return TripDecomposition(one_way, round_trips, G.n)


def trip_permutation(G):
    return trips(G).decorated(G)


# -- contraction and normalization ----------------------------------------------------


def _split(rot, edges, col, v, i, j, m, e):
    """(M2u) in place: move the darts rot[v][i:j] (cyclically) to the new vertex
    m of v's colour, behind the new edge e, (e, 0) in the block's place at
    v.  Returns the darts moved and kept; (e, 0) and (e, 1) are on the faces
    of the first of each."""
    ds = rot[v]
    take = ds[i:j] if i <= j else ds[i:] + ds[:j]
    keep = (ds[j:] + ds[:i]) if i <= j else ds[j:i]
    edges[e] = (v, m)
    _reanchor(edges, take, m)
    rot[v] = ((e, 0), *keep)
    rot[m] = ((e, 1), *take)
    col[m] = col[v]
    return take, keep


def glue_bends(G):
    """(M3) remove every bend, an internal degree-2 vertex on two edges, as one rewrite.

    The bends leave one at a time, in the order (by id) and with the ids
    of one M3r site at a time, on plain dicts; no glue makes a bend.
    Every face is kept, so the new graph's map is G's relabelled by the
    renaming.  Returns the new graph, the renaming {old dart: new dart} of
    G's darts on glued edges that survive, and the bends in the order they
    left.
    """
    bends = set(G._sites["M3r"])
    rot, edges, col = G.rot.copy(), G.edges.copy(), G.col.copy()
    ids = fresh_ids(edges)      # each glue's new edge takes the largest id: one iterator serves the run
    order, changed, origin = [], set(), {}      # origin: current dart -> G's dart
    for v in sorted(bends):
        if v not in bends:
            continue
        a, b, step = _glue(rot, edges, v, next(ids))
        del col[v]
        for old, new in step.items():
            origin[new] = origin.pop(old, old)
        # a far end keeps its degree, so it stays a bend unless both edges went to it
        if a == b:
            bends.discard(a)
        order.append(v)
        changed.update((v, a, b))
    rename = {old: new for new, old in origin.items() if new[0] in edges}
    return G.replace(changed, rename, col=col, edges=edges, rot=rot), rename, order


def _far_dart(edges, e, v):
    """The dart of the edge e, of the edges, anchored at the endpoint other than v."""
    return (e, 1) if edges[e][0] == v else (e, 0)


def contracted(G):
    """Repeatedly remove degree-2 vertices and contract unicolored edges."""
    return _reduce_directly(G, (_bends, partial(_least, "M2")), [])


# -- reducedness ---------------------------------------------------------------------


def reducedness_certificate(G):
    """(True, None) when G is reduced, else (False, reason).

    Works on the contracted form; the criterion (Postnikov Thm 13.2): no
    isolated components, no round trips, no essential self-intersections,
    no bad double crossings, fixed points only at boundary leaves.

    The last condition follows from the others on the contracted form H,
    which has no bends, no unicolored edges but loops and, past the leaf
    check, no internal leaf on an internal vertex.  Draw each trip as a
    strand beside its edges that passes each vertex in the corner between
    the two edges it turns between: on its left at white, on its right at
    black.  Two strands meet only where they cross, at the middle of a
    bicolored edge, which carries one strand each way.  Let the trip T
    from b_i come back to b_i, through b_i's edge e to v.  With no
    essential self-intersection, T is a simple closed curve through b_i,
    and the disk R inside it holds e and v and no other boundary vertex.
    A strand in R is therefore T, a round trip, or a trip that crosses
    into R and out.  If T crosses no strand, every strand along v's edges
    is T, so they are e and loops; an innermost loop, its darts rotation
    neighbours, carries a round trip of one dart, so v is a leaf.
    Otherwise T first crosses a strand S on a bicolored edge from v's
    colour to the other.  R lies on T's right when v is white and on its
    left when v is black, and S crosses T from T's left to its right where
    T runs white to black and the other way where T runs black to white,
    so S enters R there.  S leaves R at a later crossing of T, and T and S
    cross at two edges in the same order: a bad double crossing.
    """
    if G.isolated_components():
        return False, "isolated component"
    H = contracted(G)
    leaf = min(H._sites["leaf"], default=None)
    if leaf is not None:
        return False, f"internal leaf at vertex {leaf} (leaf reduction applies)"
    T = trips(H)
    if T.round_trips:
        return False, "round trip"
    # essential (self-)intersections happen at bicolored edges
    where = {}
    for i, (_, darts) in T.one_way.items():
        for pos, dart in enumerate(darts):
            if _bicolored(H, dart[0]):
                where.setdefault(dart[0], []).append((i, pos))
    pair_meets = {}
    for e, hits in where.items():
        if len(hits) != 2:
            raise AssertionError("an edge must carry exactly two trip passages")
        (i, pi_), (j, pj) = hits
        if i == j:
            return False, f"essential self-intersection of the trip from b_{i} at edge {e}"
        keypair = (min(i, j), max(i, j))
        a, b = (pi_, pj) if keypair == (i, j) else (pj, pi_)
        pair_meets.setdefault(keypair, []).append((e, a, b))
    for (i, j), meets in pair_meets.items():
        for e1, a1, b1 in meets:
            for e2, a2, b2 in meets:
                if e1 != e2 and a1 < a2 and b1 < b2:
                    return False, f"bad double crossing of trips from b_{i}, b_{j} at edges {e1}, {e2}"
    return True, None


def is_reduced(G):
    return reducedness_certificate(G)[0]


def _bicolored(G, e):
    """Whether edge e joins internal vertices of opposite colours."""
    u, w = G.edges[e]
    cu, cw = G.col.get(u), G.col.get(w)
    return cu is not None and cw is not None and cu != cw


# -- moves with face weights -----------------------------------------------------------


def _key_left_of(G, dart):
    """Key of the interior face on the left of a real dart."""
    return G.map.face_key(G.map.orbit(dart))


_ONE = Fraction(1)


def _transfer_weights(old_net, new_graph, adjust=None, rename=None):
    """Carry face weights across a rewrite, from the faces that left to those
    that arrived, as new_graph's map (made by _DiskGraph.replace) records them.

    A face the rewrite left alone keeps its weight.  Every face is keyed
    as the maps key it (DiskMap.face_key), once per face.  On a relabelled
    map (DiskMap.relabel) each face that left has one image, which takes
    its weight, or vanished, and rename is not read.  On a derived map each
    face that arrived gets the product of the weights of the faces that
    left which share a real dart with it, or 1 without one (a fresh
    isolated tree); rename: dict old dart -> a new dart on the same face
    (by face, not by which dart replaced which), so a face bounded only by
    rewritten edges still finds its region.  adjust: dict old face key ->
    factor; a face whose region disappears must be scaled to weight 1, and
    a lost face of any other weight is a bug.  Only the faces that left and
    arrived and the adjusted faces are checked: positive, with their
    product kept, so all still multiply to 1.
    """
    adjust = adjust or {}
    new_map, old_map = new_graph.map, old_net.graph.map
    gone, came = new_map.face_changes(old_map)
    key_of = {id(f): new_map.face_key(f) for f in came}     # by the id of the orbit
    left = {old_map.face_key(f): f for f in gone}
    kept = [key for key in adjust if key not in left]
    weights = old_net.weights.copy()
    before = [weights.pop(key) for key in left]
    images, face_of, rename = new_map._images, new_map._face_of, rename or {}
    for (key, f), w, image in zip(left.items(), before, images or repeat(None)):
        if key in adjust:
            w = w * adjust[key]
        if images is not None:
            hit = [key_of[id(image)]] if image else []
        else:
            darts = new_map._inside(f)
            landed = set(map(id, map(face_of.get, map(rename.get, darts, darts))))
            hit = {key_of[i] for i in landed.intersection(key_of)}
        if not hit and w != 1:
            raise AssertionError(f"face {key} with weight {w} lost in the rewrite")
        for k in hit:
            weights[k] = weights[k] * w if k in weights else w
    for key in key_of.values():
        weights.setdefault(key, _ONE)
    before += [old_net.weights[key] for key in kept]
    for key in kept:
        weights[key] *= adjust[key]
    after = [weights[key] for key in {*key_of.values(), *kept}]
    # compare the products as a/b = c/d <=> ad = bc without reducing fractions
    if any(x.numerator <= 0 for x in after):
        raise ValueError("a rewrite made a face weight nonpositive")
    if (prod(x.numerator for x in after) * prod(x.denominator for x in before)
            != prod(x.numerator for x in before) * prod(x.denominator for x in after)):
        raise ValueError("a rewrite changed the product of the face weights")
    net = object.__new__(PlabicNetwork)     # PlabicNetwork's checks hold: see above
    net.graph, net.weights = new_graph, weights
    return net


def _sides(darts, key, edges, col):
    """For each dart of a face: key(its reverse), the face across, and its anchor's colour."""
    return [(key(rev(d)), col[edges[d[0]][d[1]]]) for d in darts]


def _neighbour_factors(sides, y0, adjust):
    """Multiply into adjust the factor of each face across a face of weight y0,
    given by the face's _sides: across an edge walked white -> black it is
    1 + y0, black -> white 1 / (1 + 1/y0).  Shared by M1 and R1."""
    up = 1 + y0
    down = y0 / up          # 1 / (1 + 1/y0)
    for other, colour in sides:
        factor = up if colour == WHITE else down
        adjust[other] = adjust[other] * factor if other in adjust else factor
    return adjust


def _graph_of(obj):
    return obj.graph if isinstance(obj, PlabicNetwork) else obj


def square_faces(G):
    """Face keys where the square move applies."""
    return [face_key(darts) for darts in _squares(G)]


def _squares(G):
    """The faces where the square move applies, in the order of faces_of_length(4).

    A face with a boundary arc has a dart into a boundary vertex, which has
    no colour, so only the map's faces of four real darts can qualify."""
    out = []
    for darts in G.map.faces_of_length(4):
        vs = [G.edges[e][1 - end] for e, end in darts]
        cols = [G.col.get(v) for v in vs]
        if (len(set(vs)) == 4 and len({e for e, _ in darts}) == 4
                and all(c is not None for c in cols)
                and all(G.degree(v) == 3 for v in vs)
                and all(cols[i] != cols[(i + 1) % 4] for i in range(4))):
            out.append(darts)
    return out


def bigon_faces(G):
    """Two-dart faces of two bicolored edges, any degrees: R1 sites once their
    high-degree endpoints are uncontracted.  A face with a boundary arc has
    only darts at the boundary, none bicoloured, so only the map's faces of
    two real darts can qualify."""
    return [darts for darts in G.map.faces_of_length(2)
            if darts[0][0] != darts[1][0] and _bicolored(G, darts[0][0])]


def parallel_pairs(G):
    """R1 sites: (e1, e2) bounding a bigon between trivalent bicolored vertices."""
    return sorted({(min(e1, e2), max(e1, e2))
                   for (e1, _), (e2, _) in bigon_faces(G) if _parallel(G.rot, G.edges, e1, e2)})


def _parallel(rot, edges, e1, e2):
    """Whether the edges of a bigon of bigon_faces, in the graph of the rotations
    rot and the edges, join trivalent vertices whose other two edges differ."""
    u, w = edges[e1]
    return len(rot[u]) == len(rot[w]) == 3 and len({e for v in (u, w) for e, _ in rot[v]} - {e1, e2}) == 2


def _r1(rot, edges, col, e1, e2, e):
    """(R1) in place at the bigon of the edges e1 < e2, if it is an R1 site
    (_parallel; else None, the dicts untouched): between the ends u, w of
    e1, delete the bigon and u's and w's third edges a and b, and join
    their far ends by the new edge e, from a's to b's.  Returns the changed
    vertices and the renaming {far dart of a: (e, 0), of b: (e, 1)}, each
    new dart on the face of the old one."""
    if not _parallel(rot, edges, e1, e2):
        return None
    u, w = edges[e1]
    a, b = (next(x for x, _ in rot[v] if x not in (e1, e2)) for v in (u, w))
    da, db = _far_dart(edges, a, u), _far_dart(edges, b, w)
    za, zb = edges[a][da[1]], edges[b][db[1]]
    del edges[e1], edges[e2], edges[a], edges[b], rot[u], rot[w], col[u], col[w]
    edges[e] = (za, zb)
    step = {da: (e, 0), db: (e, 1)}
    _rename_far(rot, step, (za, zb))
    return {u, w, za, zb}, step


def remove_bigons(G):
    """The bigon row in one rewrite, on plain dicts: each bigon of G, and each
    one its R1 sites make, split off its endpoints of degree above 3 (M2u)
    and removed (R1), with the sites, order and ids of one site at a time.

    The bigons wait by their least dart; one whose edge an earlier R1
    removed is skipped.  Only an R1 makes bigons, of the two faces of its
    new edge, so those are walked after it.  Each dart the row makes keeps
    a dart of G on the face to its left, taken over from the dart its rule
    names (_split, _r1).  Each split edge is the third edge of the R1 after
    it, so the row keeps every face of G but its bigons, which it empties,
    and the new graph's map is G's relabelled by the renaming {dart of G: a
    dart made on its face}, the one _transfer_weights gets too.  Returns the
    new graph, that renaming, the sites, and for each R1 the record
    _bigon_adjust reads: its bigon's face key and _sides, the faces keyed
    in G.  Raises _no_r1_site at a bigon that is no R1 site.
    """
    rot, edges, col, boundary = G.rot.copy(), G.edges.copy(), G.col.copy(), G.map._at
    pending = list(bigon_faces(G))      # sorted, so a heap
    origin = {}         # a dart the row made -> a dart of G on the face to its left
    sites, records, changed = [], [], set()
    top_v, top_e = max(rot), max(edges)     # the largest ids, as fresh_ids reads them

    def key(d):
        return _key_left_of(G, origin.get(d, d))

    while pending:
        darts = heappop(pending)
        e1, e2 = sorted(e for e, _ in darts)
        if e1 not in edges or e2 not in edges:
            continue
        for v in sorted(set(edges[e1])):
            if len(rot[v]) > 3:
                site = _split_pair(rot, v, (e1, e2))
                top_v, top_e = 1 + max(top_v, top_e), top_e + 1
                take, keep = _split(rot, edges, col, v, *site[2:], top_v, top_e)
                origin[(top_e, 0)], origin[(top_e, 1)] = (origin.get(d, d) for d in (take[0], keep[0]))
                sites.append(site)
                changed.update((v, top_v))
        records.append((key(darts[0]), _sides(darts, key, edges, col)))
        top_e += 1
        ends = _r1(rot, edges, col, e1, e2, top_e)
        if ends is None:        # trivalent endpoints whose third edge is one edge
            raise _no_r1_site(e1, e2)
        changed |= ends[0]
        origin.update((d, origin.get(old, old)) for old, d in ends[1].items())
        if top_v not in rot:
            top_v = max(rot)
        sites.append(("R1", e1, e2))
        za, zb = edges[top_e]
        if za not in boundary and zb not in boundary and col[za] != col[zb]:
            for d in ends[1].values():
                after = _face_step(rot, edges, d)
                if after[0] != top_e and _face_step(rot, edges, after) == d:
                    heappush(pending, (after, d))      # after's edge is the older one
    rename = {old: new for new, old in origin.items() if new[0] in edges}
    return G.replace(changed, rename, col=col, edges=edges, rot=rot), rename, sites, records


def _face_step(rot, edges, dart):
    """The next dart on the face left of dart: its reverse's successor where it arrives."""
    e, end = dart
    ds = rot[edges[e][1 - end]]
    return ds[(ds.index((e, 1 - end)) + 1) % len(ds)]


def _bigon_adjust(N, records):
    """The adjust of _transfer_weights for the R1 sites of remove_bigons's
    records, in order: a bigon's y0 is its weight in N times the factors of
    the earlier sites, its neighbours take y0's factors (_neighbour_factors),
    and its adjust ends at 1 / (its weight in N), to weight 1."""
    adjust = {}
    for key, sides in records:
        w = N.weights[key]
        _neighbour_factors(sides, w * adjust[key] if key in adjust else w, adjust)
        adjust[key] = 1 / w
    return adjust


# -- one rule per site kind ------------------------------------------------------------


def _square_move(G, rot, edges, col, key):
    """(M1) the square move at the face key: its four vertices change colour,
    its weight y0 becomes 1 / y0 and each face across takes a factor of y0."""
    darts = next((f for f in _squares(G) if face_key(f) == key), None)
    if darts is None:
        raise ValueError(f"face {key} is not a square-move site")
    square = {G.edges[e][1 - end] for e, end in darts}
    for v in square:
        col[v] = -col[v]

    def adjust(N):
        y0 = N.weights[key]
        sides = _sides(darts, partial(_key_left_of, G), G.edges, G.col)
        return _neighbour_factors(sides, y0, {key: y0 ** -2})  # y0 -> 1/y0
    return square, None, adjust


def _contract(G, rot, edges, col, e):
    """(M2) contract the unicolored non-loop edge e into one new vertex."""
    u, w = G.edges[e]
    if u == w:
        raise ValueError("cannot contract a loop")
    if u in G.boundary or w in G.boundary:
        raise ValueError("cannot contract into the boundary")
    if G.col[u] != G.col[w]:
        raise ValueError(f"edge {e} is not unicolored")
    m = next(fresh_ids(G.rot, G.edges))
    ru, rw = rot.pop(u), rot.pop(w)
    iu, iw = ru.index((e, 0)), rw.index((e, 1))
    merged = ru[iu + 1:] + ru[:iu] + rw[iw + 1:] + rw[:iw]
    del edges[e]
    _reanchor(edges, merged, m)
    rot[m] = merged
    col[m] = col.pop(u)
    del col[w]
    return {u, w, m}, None, None


def _uncontract(G, rot, edges, col, v, i, j):
    """(M2u) split v into an edge: the darts rot[v][i:j] (cyclically) move out (_split)."""
    d = len(rot[v])
    if not (0 <= i < d and 0 <= j < d):
        raise _bad_site(("M2u", v, i, j), f"vertex {v} has degree {d}, so i and j must lie in 0..{d - 1}")
    m = next(fresh_ids(G.rot, G.edges))
    _split(rot, edges, col, v, i, j, m, next(fresh_ids(G.edges)))
    return {v, m}, None, None


def _insert(G, rot, edges, col, e, colr):
    """(M3) insert a middle vertex of the colour colr into the edge e."""
    u, w = edges.pop(e)
    m = next(fresh_ids(G.rot, G.edges))
    e1, e2 = islice(fresh_ids(G.edges), 2)
    edges[e1] = (u, m)
    edges[e2] = (m, w)
    rename = {(e, 0): (e1, 0), (e, 1): (e2, 1)}
    _rename_far(rot, rename, (u, w))
    rot[m] = ((e1, 1), (e2, 0))
    col[m] = colr
    return {u, w, m}, rename, None


def _unbend(G, rot, edges, col, v):
    """(M3r) remove the internal degree-2 vertex v, gluing its edges (planarmaps._glue)."""
    if G.degree(v) != 2:
        raise ValueError(f"{v} is not an internal degree-2 vertex")
    if rot[v][0][0] == rot[v][1][0]:
        raise ValueError("vertex carries a loop; remove the loop instead")
    a, b, rename = _glue(rot, edges, v, next(fresh_ids(G.edges)))
    del col[v]
    return {v, a, b}, rename, None


def _parallel_pair(G, rot, edges, col, e1, e2):
    """(R1) remove the bigon of the edges e1 and e2 (_r1); it goes to weight 1."""
    bigon = next((darts for darts in bigon_faces(G) if {d[0] for d in darts} == {e1, e2}), None)
    ends = bigon and _r1(rot, edges, col, *sorted((e1, e2)), next(fresh_ids(G.edges)))
    if not ends:
        raise _no_r1_site(e1, e2)

    def adjust(N):
        sides = _sides(bigon, partial(_key_left_of, G), G.edges, G.col)
        return _bigon_adjust(N, [(face_key(bigon), sides)])
    return *ends, adjust


def _leaf(G, rot, edges, col, u):
    """(R2) remove the internal leaf u and its neighbour v, of the other colour
    and of degree at least 3; each other edge at v ends in a new leaf of u's colour."""
    if G.degree(u) != 1:
        raise ValueError(f"{u} is not an internal leaf")
    e = G.incident(u)[0]
    v = G.other_end(e, u)
    if v in G.boundary:
        raise ValueError("boundary leaves cannot be reduced")
    if G.col[u] == G.col[v] or G.degree(v) < 3:
        raise ValueError(f"leaf reduction does not apply at {u}")
    del edges[e], rot[u], rot[v], col[u], col[v]
    others = [d for d in G.rot[v] if d[0] != e]
    changed = {u, v}
    for m, dart in zip(fresh_ids(G.rot, G.edges), others):
        _reanchor(edges, [dart], m)
        rot[m] = (dart,)
        col[m] = G.col[u]
        changed.add(m)
    return changed, None, None


def _dipole(G, rot, edges, col, a):
    """(R3) remove the bicoloured dipole of a; its walk carries weight 1 (a tree
    orbit), so it just vanishes."""
    b = G.other_end(G.incident(a)[0], a) if G.degree(a) == 1 else None
    if b is None or b in G.boundary or G.degree(b) != 1 or G.col[a] == G.col[b]:
        raise ValueError(f"{a} is not in a bicolored dipole")
    del edges[G.incident(a)[0]], rot[a], rot[b], col[a], col[b]
    return {a, b}, None, None


def _lollipop(G, rot, edges, col, e):
    """(Rloop) lollipop removal: a trivalent vertex w carrying the loop e is a
    dead end for directed paths, so w, its loop, and its attaching edge
    vanish together; the loop's inside face folds into the ambient face.  A
    boundary lollipop leaves an oppositely colored leaf (the vertex colors
    swap roles of source and sink there)."""
    w, w1 = G.edges[e]
    if w != w1:
        raise ValueError(f"edge {e} is not a loop")
    if G.degree(w) != 3:
        raise ValueError(f"loop vertex {w} is not trivalent")
    e2 = next(f for f, _ in G.rot[w] if f != e)
    u = G.other_end(e2, w)
    boundary = u in G.boundary
    if not boundary and G.col[u] == G.col[w]:
        raise ValueError("lollipop neighbor has the same color; insert a middle vertex first")
    del edges[e], edges[e2], rot[w], col[w]
    rot[u] = tuple(d for d in rot[u] if d[0] != e2)
    changed, rename = {w, u}, None
    if boundary:
        lv, eL = next(fresh_ids(G.rot, G.edges)), next(fresh_ids(G.edges))
        edges[eL] = (u, lv)
        rot[u], rot[lv] = ((eL, 0),), ((eL, 1),)
        col[lv] = -G.col[w]
        rename = {_far_dart(G.edges, e2, w): (eL, 0)}
        changed.add(lv)

    def adjust(N):
        # the loop's two darts are neighbours in w's rotation of three, so
        # one of them is a face of its own: the inside of the loop
        inner = min(G.map.orbit((e, 0)), G.map.orbit((e, 1)), key=len)
        y = N.weight_of(inner)
        return {_key_left_of(G, rev(inner[0])): y, face_key(inner): 1 / y}
    return changed, rename, adjust


def _singleton(G, rot, edges, col, v):
    """Remove the vertex v, which has no edges."""
    if G.degree(v):
        raise ValueError(f"vertex {v} is not a singleton")
    del rot[v], col[v]
    return {v}, None, None


# Each kind of site: (its arguments, its rule).  The arguments: e an edge
# id, v an internal vertex, i a rotation index, c a colour, f a face key
# (two integers in site text).  Kinds that start with "M" are moves;
# construct (see reduce_graph) takes no arguments and has no rule; the
# others are reductions.  rule(G, rot, edges, col, *args) checks its site
# on G and rewrites rot, edges and col, copies of G's, in place, drawing
# fresh ids from G's own; it returns the changed vertices (replace's), the
# renaming {old dart: new dart on the same face} or None, and
# _transfer_weights's adjust as a function of the network, or None.
SITE_RULES = {"M1": ("f", _square_move), "M2": ("e", _contract), "M2u": ("vii", _uncontract),
              "M3": ("ec", _insert), "M3r": ("v", _unbend), "R1": ("ee", _parallel_pair),
              "R2": ("v", _leaf), "R3": ("v", _dipole), "Rloop": ("e", _lollipop),
              "singleton": ("v", _singleton), "construct": ("", None)}

# The kinds whose rules keep every face but those they empty, and so every
# face weight but a face's that goes to 1 first (the bigon of R1), and only
# drop and rename darts: the applier relabels their maps (DiskMap.relabel)
# by the renaming the rule returns.
_FACE_KEEPING = frozenset({"M2", "M3r", "R1"})


def parse_site(text):
    """The site written as text, e.g. 'M1 4 1', 'M2 7', 'M3 5 black', 'R1 2 3' or 'construct'."""
    kind, *toks = text.split() or [""]
    args = SITE_RULES.get(kind, (None,))[0]
    if args is None or len(toks) != len(args) + args.count("f"):
        raise ValueError(f"bad site {text!r}: expected e.g. 'M1 4 1', 'M2 7', 'M3 5 black', 'R1 2 3'")
    colours = []
    if args.endswith("c"):
        colours = [_COLOURS.get(toks.pop().lower())]
        if colours == [None]:
            raise ValueError(f"bad site {text!r}: the colour must be black or white")
    try:
        ids = [*map(integer, toks), *colours]
    except ValueError:
        raise ValueError(f"bad site {text!r}: ids and indices must be integers") from None
    return (kind, tuple(ids)) if args == "f" else (kind, *ids)


def _bad_site(site, why):
    return ValueError(f"bad {site[0]} site ({', '.join(map(str, site[1:]))}): {why}")


def _check_site_ids(G, site):
    """Reject a site that names an unknown edge or vertex, or a boundary vertex."""
    for what, x in zip(SITE_RULES.get(site[0], ("",))[0], site[1:]):
        if what == "e" and x not in G.edges:
            raise _bad_site(site, f"no edge {x}")
        if what == "v" and x not in G.rot:
            raise _bad_site(site, f"no vertex {x}")
        if what == "v" and x in G.boundary:
            raise _bad_site(site, f"{x} is a boundary vertex")


def _apply(x, site, what):
    """The rule of SITE_RULES at the site, applied to x, a PlabicGraph or
    PlabicNetwork, as the same kind: the ids checked, G's dicts copied once,
    the rule run on the copies, one replace (which relabels the map for the
    kinds of _FACE_KEEPING), and the weights carried (_carried).  what names
    the kinds taken: "move" (M...) or "reduction"."""
    G = _graph_of(x)
    _check_site_ids(G, site)
    rule = SITE_RULES.get(site[0], (None, None))[1]
    if rule is None or site[0].startswith("M") != (what == "move"):
        raise ValueError(f"unknown {what} {site!r}")
    rot, edges, col = G.rot.copy(), G.edges.copy(), G.col.copy()
    changed, rename, adjust = rule(G, rot, edges, col, *site[1:])
    kept = (rename or {}) if site[0] in _FACE_KEEPING else None
    return _carried(x, G.replace(changed, kept, col=col, edges=edges, rot=rot), rename, adjust)


def _carried(x, H, rename, adjust):
    """H, a rewrite of x's graph, or when x is a network H weighted by
    _transfer_weights with the renaming and adjust(x)."""
    if isinstance(x, PlabicNetwork):
        return _transfer_weights(x, H, adjust and adjust(x), rename)
    return H


def apply_move(x, move):
    """Apply M1 (square, site=face key), M2 (contract edge / uncontract
    vertex), or M3 (insert into edge / remove degree-2 vertex).

    x may be a PlabicGraph or PlabicNetwork; the same kind is returned.
    Sites: ("M1", face_key), ("M2", eid), ("M2u", v, i, j),
    ("M3", eid, color), ("M3r", v).
    """
    return _apply(x, move, "move")


def apply_reduction(x, red):
    """Apply R1 (parallel pair), R2 (leaf), R3 (dipole), Rloop (loop), or
    remove a vertex without edges.

    Sites: ("R1", e1, e2), ("R2", leaf vertex), ("R3", vertex in dipole),
    ("Rloop", eid), ("singleton", v).
    """
    return _apply(x, red, "reduction")


def apply_site(x, site):
    """apply_move at a move site, _construct at ("construct",), apply_reduction at any other."""
    if site == ("construct",):
        return _construct(x)
    return (apply_move if site[0][0] == "M" else apply_reduction)(x, site)


def remove_singleton(G, v):
    """G without the vertex v, which has no edges."""
    return _apply(G, ("singleton", v), "reduction")


# -- the rows of reduce ---------------------------------------------------------------


# The sets of candidates that PlabicGraph._sites keeps, by vertex and by
# edge.  _index_sites decides membership from a candidate's own rotation,
# edges and colours and its neighbours' boundary status.
_VERTEX_ROWS = ("singleton", "M3r", "leaf")
_EDGE_ROWS = ("M2", "loop")


def _index_sites(G, sites, vertices, edges):
    """Add to sites the candidates among the given vertices and edges of G."""
    rot, ends, col, boundary = G.rot, G.edges, G.col, G.map._at
    for v in vertices:
        ds = rot.get(v)
        if ds is None or v in boundary:
            continue
        if not ds:
            sites["singleton"].add(v)
        elif len(ds) == 2 and ds[0][0] != ds[1][0]:
            sites["M3r"].add(v)
        elif len(ds) == 1 and G.other_end(ds[0][0], v) not in boundary:
            sites["leaf"].add(v)
    for e in edges:
        u, w = ends.get(e, (None, None))
        if u is not None and u == w:
            sites["loop"].add(e)
        elif col.get(u) is not None and col.get(u) == col.get(w):
            sites["M2"].add(e)


def _split_pair(rot, v, es):
    """The M2u site moving the two darts of the edges es off v in the rotations
    rot, or None when they are no rotation neighbours (a bigon's always are)."""
    d = len(rot[v])
    a, b = (t for t, (e, _) in enumerate(rot[v]) if e in es)
    if (a - b) % d == 1:
        a, b = b, a
    return ("M2u", v, a, (b + 1) % d) if (b - a) % d == 1 else None


def _no_r1_site(e1, e2):
    return ValueError(f"edges {e1}, {e2} are not an R1 site")


def _least(kind, G, run):
    """Apply the site (kind, c) at the candidate c of least id of its kind:
    the singleton row, and the M2 row, which contracts unicoloured edges."""
    c = min(G._sites[kind], default=None)
    if c is not None:
        run((kind, c))
    return c is not None


def _bends(G, run):
    """Glue every bend in one rewrite (glue_bends); the trace names each M3r site."""
    if not G._sites["M3r"]:
        return False
    H, rename, bends = glue_bends(G)
    run(*(("M3r", v) for v in bends), rewritten=(H, rename, None))
    return True


def _bigons(G, run):
    """Remove the whole bigon row in one rewrite (remove_bigons); the trace names its M2u and R1 sites."""
    if not bigon_faces(G):
        return False
    H, rename, sites, records = remove_bigons(G)
    run(*sites, rewritten=(H, rename, lambda N: _bigon_adjust(N, records)))
    return True


def _loops(G, run):
    """At the least loop whose two darts are rotation neighbours (nothing hangs
    inside it): split it off a vertex of degree above 3, separate a neighbour
    of its colour by an M3 vertex of the other colour, then Rloop."""
    loop = next((e for e in sorted(G._sites["loop"]) if _split_pair(G.rot, G.edges[e][0], (e,))), None)
    if loop is None:
        return False
    v = G.edges[loop][0]
    if G.degree(v) > 3:
        G = run(_split_pair(G.rot, v, (loop,)))
        v = G.edges[loop][0]
    e2 = next((f for f, _ in G.rot[v] if f != loop), None)
    if e2 is None:
        raise ValueError(f"no reduction removes the isolated loop {loop}")
    u = G.other_end(e2, v)
    if u not in G.boundary and G.col[u] == G.col[v]:
        run(("M3", e2, -G.col[v]))
    run(("Rloop", loop))
    return True


def _leaves(G, run):
    """Remove the internal leaf of least id on an internal neighbour.
    Unicoloured edges are contracted first, so the leaf ends a dipole (R3)
    or hangs off a vertex of the other colour and of degree >= 3 (R2)."""
    leaf = min(G._sites["leaf"], default=None)
    if leaf is not None:
        run(("R3" if G.degree(G.other_end(G.incident(leaf)[0], leaf)) == 1 else "R2", leaf))
    return leaf is not None


# The rows of reduce_graph in priority order.  row(G, run) finds the row's
# first site, removes it through run with the composite that removes it,
# preparatory moves included, and returns whether it acted.  run(s) applies
# the site s, records it in the trace and returns the new graph; run(*sites,
# rewritten=(graph, renaming, adjust)) records sites and takes one rewrite's
# result for them (glue_bends, remove_bigons), weighted as _carried weights
# a rule's.
REDUCE_ROWS = (partial(_least, "singleton"), _bends, _bigons, partial(_least, "M2"), _loops, _leaves)


def _size(G):
    """Faces plus edges, a singleton counting as the face of its empty walk (the
    map's orbits add the outer face: a constant); each acting row lowers it."""
    return G.map.face_count() + len(G.edges) + len(G._sites["singleton"])


def _reduce_directly(x, rows, trace):
    """Apply the first of the rows that acts until none does: at most _size(x)
    composites, as each shrinks _size."""
    def run(*sites, rewritten=None):
        nonlocal x
        trace.extend(sites)
        x = apply_site(x, *sites) if rewritten is None else _carried(x, *rewritten)
        return _graph_of(x)

    size = _size(_graph_of(x))
    while any(row(_graph_of(x), run) for row in rows):
        size, before = _size(_graph_of(x)), size
        if size >= before:
            raise AssertionError(f"the composite ending in {trace[-1]} did not shrink the graph")
    return x


def move_sites(G):
    """The sites of M1, M2, M3r and R1; M2 lists every unicolored edge."""
    return {"M1": square_faces(G),
            "M2": sorted(G._sites["M2"]),
            "M3r": sorted(G._sites["M3r"]),
            "R1": parallel_pairs(G)}


def reduce_graph(x):
    """(reduced plabic graph or network, singletons removed, trace).

    The trace lists the applied sites and replays with apply_site.  The
    rows of REDUCE_ROWS run, the first that finds a site each time, and
    each lowers _size (faces + edges + singletons); when none acts and the
    graph is not reduced, the trace ends in one ("construct",) step,
    _construct's object of the cell and the point.  The singleton row goes
    first (no singleton can be oriented); then the graph must have a
    perfect orientation, or NotPerfectlyOrientable is raised before any
    other rewrite.
    """
    trace = []
    x = _reduce_directly(x, REDUCE_ROWS[:1], trace)
    _oriented(_graph_of(x))
    x = _reduce_directly(x, REDUCE_ROWS, trace)
    if not is_reduced(_graph_of(x)):
        trace.append(("construct",))
        x = _construct(x)
    return x, sum(site[0] == "singleton" for site in trace), trace


def _construct(x):
    """The reduced plabic graph of x's cell, or network of its point: graph_from_perm
    of the permutation of its necklace, or network_from_le of the Le-tableau that
    invert_measurement reads off its boundary measurement matrix."""
    G = _graph_of(x)
    if isinstance(x, PlabicNetwork):
        A = boundary_measurement_matrix(edge_weights_from_faces(x, _oriented(G)))
        return network_from_le(invert_measurement(A))
    return graph_from_perm(perm_from_necklace(necklace(G)))


# -- weights <-> edge weights ----------------------------------------------------------


def _face_product(darts, x):
    """Product around a face of x_e over the darts (e, 1) and 1/x_e over
    the darts (e, 0): each edge with the face on its right counts x_e."""
    y = Fraction(1)
    for e, end in darts:
        y *= x[e] if end else 1 / x[e]
    return y


def face_weights(net):
    """Face weights of a perfect directed network; the plabic quotient.

    Every face gets the product of x_e over edges with the face on their
    right times 1/x_e over edges with it on their left; the weights are
    gauge invariant and multiply to 1.
    """
    if not is_perfect(net):
        raise ValueError("face weights need a perfect network")
    col = {v: net_color(net, v) for v in net.internal_vertices()}
    G = PlabicGraph(net.n, col, {e: (u, w) for e, (u, w, _) in net.edges.items()}, rot=net.rot)
    return _face_network(G, {e: w for e, (_, _, w) in net.edges.items()})


def _face_network(G, x):
    """The plabic network on G whose faces weigh _face_product of the edge weights x."""
    return PlabicNetwork._of_faces(G, {face_key(darts): _face_product(darts, x) for darts in faces(G)})


def edge_weights_from_faces(N, orient):
    """A directed network in the gauge class reproducing the face weights.

    Edges off a spanning forest of the dual graph keep weight 1; each
    forest edge is then set, leaves first, so that its face gets its
    weight.  The first face of each part needs no edge of its own: the
    weights multiply to 1, and an isolated tree's walk has weight 1
    whatever its edges weigh.
    """
    G = N.graph
    flips = {e for e, (u, w) in G.edges.items() if orient[e] != (u, w)}
    fs = faces(G)
    keys = [face_key(darts) for darts in fs]
    darts = [tuple((e, 1 - end) if e in flips else (e, end) for e, end in f) for f in fs]
    x = dict.fromkeys(G.edges, Fraction(1))
    for f, (e, end) in reversed(_dual_forest(darts)):
        r = N.weights[keys[f]] / _face_product(darts[f], x)
        x[e] *= r if end else 1 / r
    edges = {e: (*orient[e], x[e]) for e in G.edges}
    rot = {v: tuple((e, 1 - end) if e in flips else (e, end) for e, end in ds)
           for v, ds in G.rot.items()}
    sources = orientation_sources(G, orient)
    return PlanarDirectedNetwork(G.n, [i in sources for i in G.boundary], edges, rot=rot)


def measure_plabic(N):
    """Plucker point of a plabic network via any perfect orientation."""
    return measure(edge_weights_from_faces(N, _oriented(N.graph)))


# -- conversions --------------------------------------------------------------------


def graph_from_le(D):
    """Reduced plabic graph of a Le-diagram.

    Hook vertices with one edge out become black, the others white;
    four-valent crossings split into a black/white pair; lonely corners
    stay degree 2.  Empty rows give white boundary leaves, empty columns
    black ones.  The hook layout is built on D's 0/1 fill: no tableau.

    The ids, which `perm2graph` prints, are kept stable by one rule: the
    hook network's ids are those of `lediagram.gamma_network`, and the new
    ids count up from two above the largest of them (one id is skipped).
    The split crossings draw a half and then an edge each, by id, and the
    empty boundary vertices a leaf and then an edge each, from 1 to n.
    """
    return _le_graph(D.k, D.n, D.shape, D.fill)[0]


def network_from_le(T):
    """Plabic network of a Le-tableau: the face weights of its hook network.

    The graph, ids included, is graph_from_le's for T's diagram; each face
    weighs the product of x_e over the edges with the face on their right
    times 1/x_e over those with it on their left.
    """
    return _face_network(*_le_graph(T.k, T.n, T.shape, T.rows))


def _le_graph(k, n, shape, rows):
    """The Le-graph of a filling and its edge weights, built on one map.

    The hook network's parts (`lediagram._hook_layout`) are made perfect in
    place: a four-valent vertex, clockwise N-in, E-in, S-out, W-out, keeps
    {N, E} and gives {S, W} to a new half behind a weight-1 edge, and an
    isolated boundary vertex gets a leaf on a weight-1 edge out of a source
    or into a sink.  Then a vertex with one out-edge is black and every
    other one, having one in-edge, white.  Returns (graph, eid -> weight):
    for a tableau's rows the weights are Fractions, as _face_product needs.
    """
    boundary = range(1, n + 1)
    flags, edges, rot = _hook_layout(k, n, shape, rows)
    one = Fraction(1)
    ids = fresh_ids(rot, edges)
    next(ids)  # the first fresh id is skipped; the output's ids depend on it
    fresh = ids.__next__

    for v in sorted(rot):
        if len(rot[v]) == 4:        # a crossing: a boundary vertex has at most one edge
            dn, de, ds, dw = rot[v]
            v2, ep = fresh(), fresh()
            edges[ep] = (v, v2, one)
            _reanchor(edges, (ds, dw), v2)
            rot[v] = (dn, de, (ep, 0))
            rot[v2] = ((ep, 1), ds, dw)
    for i in boundary:
        if rot[i]:
            continue
        leaf, e = fresh(), fresh()
        end = 0 if flags[i - 1] else 1      # the end of e at i
        edges[e] = (i, leaf, one) if end == 0 else (leaf, i, one)
        rot[i] = ((e, end),)
        rot[leaf] = ((e, 1 - end),)

    outs = {}
    for u, _, _ in edges.values():
        outs[u] = outs.get(u, 0) + 1
    col = {v: BLACK if outs.get(v) == 1 else WHITE for v in rot if v not in boundary}
    G = PlabicGraph(n, col, {e: (u, w) for e, (u, w, _) in edges.items()}, rot=rot)
    return G, {e: x for e, (_, _, x) in edges.items()}


def graph_from_perm(pi):
    """Reduced plabic graph with the given decorated trip permutation."""
    return graph_from_le(le_from_perm(pi))


def export_dot(x):
    """DOT description of a plabic graph or network for external rendering."""
    G = _graph_of(x)
    lines = ["graph plabic {"]
    for i in range(1, G.n + 1):
        lines.append(f'  b{i} [shape=plaintext, label="b{i}"];')
    for v in sorted(G.internal_vertices()):
        fill = "black" if G.col[v] == BLACK else "white"
        lines.append(f'  v{v} [shape=circle, style=filled, fillcolor={fill}, label=""];')

    def name(v):
        return f"b{v}" if v in G.boundary else f"v{v}"

    for e in sorted(G.edges):
        u, w = G.edges[e]
        lines.append(f"  {name(u)} -- {name(w)} [label=\"{e}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
