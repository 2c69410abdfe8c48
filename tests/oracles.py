"""Exhaustive oracles, kept out of the library.

Plabic matroid: `perfect_orientations` lists every perfect orientation by
backtracking, `path_matroid` finds the bases reachable from one
orientation by searching families of vertex-disjoint paths, and
`flow_matroid` tests each k-subset by one unit-capacity flow on one
orientation.  The tests use them to cross-check `plabic.perfect_orientation`
and `plabic.matroid`, which reads the bases off `plabic.necklace`.

Boundary measurement: `exhaustive_measurement` sums every entry over
self-avoiding paths with nested excursion denominators,

    M_ij = sum over self-avoiding paths P of
           x_P / prod over vertices v_j of P of D(v_j, earlier vertices),

where D(v, F) = 1 + sum over simple cycles C at v avoiding F of x_C
divided by the D-values of the intermediate cycle vertices (with v and
the earlier cycle vertices added to F).  `formal_series` enumerates the
walks themselves, signed by the parity of their erased cycles, and
`rational_series` expands the closed form; the two agree coefficientwise.
`minor_loop_erased` and `minor_by_bijections` evaluate maximal minors
from path families.  These cross-check `network.boundary_measurement_matrix`,
which agrees with them on the perfect trivalent form of a network (and on
the network itself when no vertex alternates in, out, in, out).
`fraction_walk_sums` and `fraction_path_sums` are the Kasteleyn-signed
elimination and the acyclic path sums on Fraction entries; they
cross-check the integer rows of `network._signed_walk_sums` and the
integer pairs of `network._path_sums`.  `path_signs` finds eps(P_ij) by
one search per source, to check that every nonzero entry of (I - W)^-1
has the sign of the paths, which `network._measurements` takes for granted
when it reads M_ij as the entry's absolute value.

Chords and necklaces: `chord_class` names the position of two chords by
the cyclic order of their four endpoints, `aligned_pair` and
`reversal_misaligned` give alignments and the reversal definition of a
misalignment, `necklace_by_shifted_orders` reads each I_r as an
anti-exceedance set in the shifted order <_r, and `r_table_by_walks`
counts I_a on walked arcs.  They cross-check `permutations.classify_pair`,
`necklace_from_perm` and `r_table`.

Covers by edge removal (Postnikov §17-18): `removable_edges` lists the
edges of a reduced contracted graph whose two trips make a simple
crossing, with the cell that removing one covers, `delete_edge` removes
one, and `trip_through` finds the trip of a travel dart.  They
cross-check `permutations.covers`, which uncrosses chords.

Runs of bends: `glue_bends_stepwise` removes every internal degree-2
vertex on two edges one `M3r` move at a time, each a rewrite of its own,
to cross-check `plabic.glue_bends`, which glues the whole run in one.
Bigon rows: `reduce_one_r1_at_a_time` reduces with each `M2u` split and
each `R1` a rewrite of its own (`bigon_row_one_r1`), to cross-check
`plabic.remove_bigons`, which removes the whole row in one.

Symmetries of the disk: `swap_colours`, `turn_boundary` (b_i renamed
b_{i+1}) and `mirror` (b_i renamed b_{n+1-i}, every rotation reversed)
act on plabic graphs, and `conjugated` on decorated permutations, to
check that trips and `reduce` commute with them.

Le-networks: `hook_layout_by_coordinates` lays the hook network out on
grid coordinates and sorts each vertex's darts by compass heading, to
cross-check `lediagram._hook_layout`, which reads the rotations off the
grid.  `le_network` takes a Le-tableau's plabic network the long
way, through three validated maps (`gamma_network`, `perfect_gamma`,
`face_weights`), to cross-check `plabic.network_from_le` and
`graph_from_le`, which build it on one.  `gamma_vertical_edges` and
`vertical_normalizing_gauge` decode the hook network's grid ids to undo
a gauge transform.

Cell counts and matrices: `eulerian_by_descents` and `staircase_check`
count permutations and Le-fills directly, `williams_printed_formula` and
`poly_eval` document a misprinted closed form, `is_tnn` checks every
maximal minor and `verify_exchange_axiom` every basis pair.
`procedure_tableau` is Postnikov's recursive inverse, which peels one
column off the echelon form per level; with a re-measurement of its
tableau it cross-checks `lediagram.invert_measurement`, which reads the
tableau off in one sweep of the hook grid.
`bruhat_interval_count` counts the u <= w_lambda in S_n, to match the
Le-diagram counts, and `check_grassmann_plucker` tests every three-term
Grassmann-Plucker relation of a Plucker vector, and `plucker_by_minors`
takes every maximal minor as a determinant of its own.  `matroid_of` reads a
matrix's matroid off all C(n,k) minors and `necklace_from_matroid` its
Grassmann necklace off the shifted lex-min bases: the matrix-side route
to a positroid, beside `plabic.matroid` and `necklace_from_perm`.

`le_fill_by_quadruples` tests the Le-property box by box, four nested
loops, to cross-check `lediagram.is_le_fill`, which takes one pass per row.

Readers: `two_pass_rational` gates a token with a pattern and then parses
it again with `Fraction(str)`, to cross-check `exactmath.rational`, which
builds integers and fractions from their digits.  `planar_by_components`
runs the Euler check V - E + F = 2 on each component of a map, to
cross-check `DiskMap.validate_planarity`, which sums over all of them;
`components` finds the components from an edge list.

Text readers as they were before each object was read and checked once:
`reference_network_from_text`, `reference_plabic_from_text`,
`reference_tableau_from_text` and `reference_matrix_from_text` read
the graph text into edge-id lists, give each vertex without a list its
incident edges, turn the lists into darts in a second pass and build
the object through its validating constructor; the tableau reader
checks the entries as Fractions and the support through a LeDiagram,
and the matrix reader parses each entry through a helper of its own.
They are the reference of the parity test in `tests/test_parsers.py`
for `PlanarDirectedNetwork.from_text`, `PlabicGraph.from_text`,
`LeTableau.from_text` and `RationalMatrix.from_text`.

Network order: `reference_topological_order` runs Kahn's algorithm on
the network's `in_edges`, `out_edges` and `head` views, to cross-check
`PlanarDirectedNetwork.topological_order`, which takes in-degrees and
heads from one pass over the edges.

Command line: `argparse_cli` is the argparse parser the CLI used before
its command table, kept to check that `cli._parse` fills the same fields
on every command line both accept.

Small helpers only tests call: `canonical` encodes a plabic graph, ids
kept, for equality tests, `singletons` lists its internal vertices
without darts by id, `weights_by_travel` keys face weights by
travel pairs, `count_le_diagrams` and `enumerate_le_diagrams` count and
list the Le-diagrams of a shape, `total_cells` is the recursion for the
number of cells, `inversions` counts inversions and
`minimal_permutation` is the identity with given fixed-point colours.

All of them are exponential; fine at desk scale.
"""

import argparse
import functools
import heapq
import re
from fractions import Fraction
from itertools import chain, combinations, count, permutations
from math import comb

from positroid.exactmath import (Matroid, PluckerVector, RationalMatrix, _row_reduce, echelon_form,
                                 lex_min_base, maximal_minor, plucker_vector, rational, subset_to_lambda)
from positroid.lediagram import (LeDiagram, LeTableau, _boundary_labels, gamma_network, le_count_poly,
                                 le_fills)
from positroid.network import PlanarDirectedNetwork, _at_most_one
from positroid.permutations import (BLACK, WHITE, DecoratedPermutation, GrassmannNecklace,
                                    _uncross, crossing_roles, w_lambda)
from positroid import plabic
from positroid.plabic import (PlabicGraph, PlabicNetwork, _color, _face_name, _no_tail, _split_pair, apply_move,
                              bigon_faces, contracted, face_key, face_weight_keys, face_weights, faces,
                              orientation_sources, perfect_orientation, reduce_graph, reducedness_certificate,
                              trips)
from positroid.planarmaps import _around_colon, _check_darts, _reanchor, fresh_ids


def perfect_orientations(G):
    """All orientations with one out-edge per black and one in-edge per white.

    Each orientation is a dict eid -> (tail, head).  Exponential
    backtracking; fine at desk scale.
    """
    eids = sorted(G.edges)
    need = {}
    for v in G.internal_vertices():
        # black: exactly one outgoing; white: exactly one incoming
        need[v] = 1
    out_count = {v: 0 for v in need}
    in_count = {v: 0 for v in need}
    remaining = {v: G.degree(v) for v in need}
    results = []

    def feasible(v):
        cnt = out_count[v] if G.col[v] == BLACK else in_count[v]
        return cnt <= 1 and cnt + remaining[v] >= 1

    def assign(idx, orient):
        if idx == len(eids):
            if any((out_count[v] if G.col[v] == BLACK else in_count[v]) != 1 for v in need):
                return
            results.append(dict(orient))
            return
        e = eids[idx]
        u, w = G.edges[e]
        for tail, head in ((u, w), (w, u)):
            touched = []
            ok = True
            for v, as_tail in ((tail, True), (head, False)):
                if v in need:
                    if as_tail:
                        out_count[v] += 1
                    else:
                        in_count[v] += 1
                    remaining[v] -= 1
                    touched.append((v, as_tail))
            for v in {tail, head} & set(need):
                if not feasible(v):
                    ok = False
            if ok:
                orient[e] = (tail, head)
                assign(idx + 1, orient)
                del orient[e]
            for v, as_tail in touched:
                if as_tail:
                    out_count[v] -= 1
                else:
                    in_count[v] -= 1
                remaining[v] += 1
            if u == w:
                break  # a loop has only one distinguishable direction here

    # loops: a loop at v contributes one in and one out whichever way
    assign(0, {})
    return results


def exhaustive_matroid(G):
    """Bases = source sets of all perfect orientations, or None when there is none."""
    orients = perfect_orientations(G)
    if not orients:
        return None
    k, n = G.type()
    return Matroid(k, n, {orientation_sources(G, o) for o in orients})


def path_matroid(G, orient):
    """k-subsets J reachable from the fixed orientation by noncrossing paths.

    Equivalent to matroid(G); used as the independent cross-check.
    """
    base = orientation_sources(G, orient)
    k, n = G.type()
    adj = {}
    for e, (t, h) in orient.items():
        adj.setdefault(t, []).append((e, h))
    bases = set()

    def vertex_disjoint_families(sources, targets):
        # families of vertex-disjoint directed paths pairing sources with targets
        if not sources:
            yield []
            return
        s = sources[0]
        paths = []

        def dfs(v, seen):
            if v in G.boundary and v != s:
                if v in targets:
                    paths.append((list(seen), v))
                return
            for e, w in adj.get(v, []):
                if w not in seen:
                    dfs(w, seen + [w])

        dfs(s, [s])
        for verts, t in paths:
            for rest in vertex_disjoint_families(sources[1:], [x for x in targets if x != t]):
                if all(not (set(verts) & set(rv)) for rv, _ in rest):
                    yield [(verts, t)] + rest

    for J in combinations(range(1, n + 1), k):
        J = frozenset(J)
        K = sorted(base - J)
        L = sorted(J - base)
        if not K or next(vertex_disjoint_families(K, L), None) is not None:
            bases.add(J)
    return Matroid(k, n, bases)


def flow_matroid(G):
    """Bases by one unit-capacity max flow per k-subset, O(C(n, k) k E).

    With I the sources of one perfect orientation, a k-subset J is a basis
    exactly when |I - J| edge-disjoint paths of that orientation lead from
    I - J to J - I: reversing them gives an orientation with sources J, and
    any orientation with sources J differs from the first by such paths
    (and cycles).  Cross-checks `plabic.matroid`, which reads the bases off
    the Grassmann necklace.
    """
    orient = perfect_orientation(G)
    if orient is None:
        raise ValueError("graph is not perfectly orientable")
    k, n = G.type()
    base = orientation_sources(G, orient)
    ahead = {v: [] for v in G.rot}      # residual arcs: (eid, next vertex)
    behind = {v: [] for v in G.rot}
    for e, (t, h) in orient.items():
        if t != h:
            ahead[t].append((e, h))
            behind[h].append((e, t))
    return Matroid(k, n, (J for J in combinations(range(1, n + 1), k)
                          if _disjoint_paths(ahead, behind, base.difference(J), set(J) - base)))


def _disjoint_paths(ahead, behind, sources, targets):
    """Whether edge-disjoint directed paths join every source to its own target.

    Augmenting paths of a unit-capacity flow: an arc is usable forward when
    unused and backward when used.  Each target is a boundary sink, so a
    path that reaches one fills it.
    """
    used = set()
    for s in sources:
        prev = {s: None}
        queue = [s]
        for x in queue:
            if x in targets:
                break
            for e, y in ahead[x]:
                if e not in used and y not in prev:
                    prev[y] = (e, x)
                    queue.append(y)
            for e, y in behind[x]:
                if e in used and y not in prev:
                    prev[y] = (e, x)
                    queue.append(y)
        else:
            return False
        while prev[x] is not None:
            e, x = prev[x]
            used ^= {e}
    return True


# -- walks and winding ---------------------------------------------------------


def cycle_orientation(dmap, cycle_eids):
    """+1 if the directed simple cycle runs counterclockwise, -1 clockwise.

    cycle_eids: edge ids of a simple directed cycle of the DiskMap, traversed
    along the edge directions.  The cycle is counterclockwise exactly when
    the face on its right reaches the outer face without crossing the cycle
    (a union-find over the faces, by the id of their orbit() tuples, joined
    across every other edge and arc).
    """
    parent = {}

    def find(dart):
        x = id(dmap.orbit(dart))
        while x in parent:
            x = parent[x]
        return x

    cycle = set(cycle_eids)
    darts = [(e, 0) for e in dmap.edges if e not in cycle]
    for d in darts + [(~i, 0) for i in range(dmap.n)]:
        left, right = find(d), find((d[0], 1 - d[1]))
        if left != right:
            parent[left] = right
    right = find((next(iter(cycle_eids)), 1))
    return 1 if right == find((~0, 0)) else -1


def successor_faces(dmap):
    """The faces of a DiskMap, traced by a table of clockwise successors.

    The vertices are visited in str order and each one's darts in
    clockwise order, with the boundary arcs spliced in at b_i: the arc
    towards b_{i+1} first, the arc from b_{i-1} last.  Every dart not yet on
    a face starts the next one, walked by next(d) = succ[rev(d)], the
    clockwise successor of the reversed dart.  So each face starts at its
    least dart by (str of its vertex, rotation position), in that order.
    This str-ordered walk is not the library's order (faces_of_length
    starts each face at its least dart and sorts by it); it now only fixes
    the chord corpus that helpers.chord_graph draws.
    """
    n, at = dmap.n, {b: i for i, b in enumerate(dmap.boundary)}
    rot = {v: dmap.rot.get(v, ()) for v in (*dmap.rot, *dmap.boundary)}
    for b, i in at.items():
        rot[b] = ((~i, 0), *rot[b], (~((i - 1) % n), 1))
    succ = {d: ds[(j + 1) % len(ds)] for ds in rot.values() for j, d in enumerate(ds)}
    faces, seen = [], set()
    for v in sorted(rot, key=str):
        for d in rot[v]:
            if d in seen:
                continue
            orbit, cur = [d], succ[(d[0], 1 - d[1])]
            while cur != d:
                orbit.append(cur)
                cur = succ[(cur[0], 1 - cur[1])]
            seen.update(orbit)
            faces.append(tuple(orbit))
    return faces


def _cycles(faces):
    """The number of faces and every dart's successor on its face: the
    faces as dart cycles, whatever their order and first darts."""
    return len(faces), {d: f[(i + 1) % len(f)] for f in faces for i, d in enumerate(f)}


def check_faces(dmap):
    """Assert that the faces, inner faces and face count of a DiskMap are
    the dart cycles successor_faces traces, and that its small faces are
    those faces, each started at its least dart, in the order of those darts."""
    faces = successor_faces(dmap)
    arcs = {d for f in faces for d in f if d[0] < 0}
    inner = [tuple(d for d in f if d not in arcs) for f in faces if (~0, 0) not in f]
    assert _cycles(dmap.faces()) == _cycles(faces)
    assert _cycles(dmap.inner_faces()) == _cycles(inner)
    assert dmap.face_count() == len(faces)
    small = [f[f.index(min(f)):] + f[:f.index(min(f))] for f in faces if arcs.isdisjoint(f)]
    for k in range(1, 5):
        assert dmap.faces_of_length(k) == tuple(sorted(f for f in small if len(f) == k))


class Walk:
    """A directed walk given by its edge-id sequence."""

    def __init__(self, eids):
        self.eids = tuple(eids)

    def vertices(self, net):
        if not self.eids:
            raise ValueError("empty walk")
        verts = [net.tail(self.eids[0])]
        for e in self.eids:
            if net.tail(e) != verts[-1]:
                raise ValueError(f"walk breaks at edge {e}")
            verts.append(net.head(e))
        return verts


def _erasable_cycles(verts):
    """All (j, i) with verts[j] == verts[i] and verts[j..i-1] distinct."""
    out = []
    for i in range(1, len(verts)):
        for j in range(i):
            if verts[j] == verts[i] and len(set(verts[j:i])) == i - j:
                out.append((j, i))
    return out


def winding_index(net, walk, rng=None):
    """Winding index of a boundary-to-boundary walk.

    Computed by repeatedly erasing a simple cycle and adding +1 when the
    cycle runs counterclockwise, -1 when clockwise; the result does not
    depend on the erasure order.  By default the first self-intersection
    is erased; pass a random generator to randomize the choice.
    """
    if isinstance(walk, Walk):
        eids = list(walk.eids)
    else:
        eids = list(walk)
    verts = Walk(eids).vertices(net)
    for v in (verts[0], verts[-1]):
        if v not in net.boundary:
            raise ValueError("winding index is defined for boundary-to-boundary walks")
    wind = 0
    while True:
        cands = _erasable_cycles(verts)
        if not cands:
            return wind
        j, i = cands[0] if rng is None else rng.choice(cands)
        wind += cycle_orientation(net.map, eids[j:i])
        del verts[j:i]
        del eids[j:i]


# -- path and cycle enumeration --------------------------------------------------


def _simple_paths(net, src, dst):
    """Self-avoiding directed paths from src to dst as edge-id lists."""
    out = []
    path = []
    visited = {src}

    def dfs(v):
        if v == dst:
            out.append(list(path))
            return
        for e in net.out_edges(v):
            w = net.head(e)
            if w in visited:
                continue
            visited.add(w)
            path.append(e)
            dfs(w)
            path.pop()
            visited.remove(w)

    dfs(src)
    return out


def _simple_cycles_at(net, v, forbidden):
    """Simple directed cycles from v back to v avoiding the forbidden set."""
    out = []
    path = []
    visited = set()

    def dfs(u):
        for e in net.out_edges(u):
            w = net.head(e)
            if w == v:
                out.append(path + [e])
            elif w not in visited and w not in forbidden:
                visited.add(w)
                path.append(e)
                dfs(w)
                path.pop()
                visited.remove(w)

    if v not in forbidden:
        dfs(v)
    return out


def _path_weight(net, eids):
    x = Fraction(1)
    for e in eids:
        x *= net.weight(e)
    return x


def _excursion_denominator(net, v, forbidden, memo):
    """1 + the signed-collapsed weight of closed excursions at v.

    A closed walk at v avoiding the forbidden set is a sequence of
    irreducible loops; each loop erases to a simple cycle C at v carrying
    its own nested excursions at the later cycle vertices.  Summing the
    geometric series over loop sequences, the excursion generating
    function is the reciprocal of

        1 + sum over simple cycles C at v (avoiding forbidden) of
            x_C / prod over intermediate vertices w of C (in order) of
            the denominator at w with v and the earlier cycle vertices
            also forbidden.

    The naive 1 + sum of x_C misses loops nested inside inserted cycles;
    the recursion is what the signed walk sum actually collapses to, and
    it is validated coefficientwise against the formal series.
    """
    key = (v, frozenset(forbidden))
    if key in memo:
        return memo[key]
    total = Fraction(0)
    for cyc in _simple_cycles_at(net, v, forbidden):
        term = _path_weight(net, cyc)
        inner = set(forbidden)
        inner.add(v)
        for w in Walk(cyc).vertices(net)[1:-1]:
            term /= _excursion_denominator(net, w, inner, memo)
            inner.add(w)
        total += term
    memo[key] = 1 + total
    return memo[key]


def _cycle_correction(net, path_vertices, upto, extra_forbidden=(), memo=None):
    """prod over path vertices of the excursion factors, exact."""
    factor = Fraction(1)
    forbidden = set(extra_forbidden)
    if memo is None:
        memo = {}
    for v in path_vertices[:upto]:
        factor /= _excursion_denominator(net, v, forbidden, memo)
        forbidden.add(v)
    return factor


def exhaustive_measurement(net, i, j):
    """M_ij, the exact signed walk sum from source b_i to sink b_j."""
    if i not in net.sources():
        raise ValueError(f"b_{i} is not a source")
    if j not in net.sinks():
        raise ValueError(f"b_{j} is not a sink")
    total = Fraction(0)
    memo = {}
    for eids in _simple_paths(net, i, j):
        verts = Walk(eids).vertices(net)
        total += _path_weight(net, eids) * _cycle_correction(net, verts, len(verts), memo=memo)
    return total

def exhaustive_matrix(net):
    """A(N) entry by entry from the exhaustive walk-sum evaluator."""
    I = sorted(net.sources())
    rows = []
    for ir in I:
        row = [Fraction(int(j == ir)) for j in range(1, net.n + 1)]
        for j in sorted(net.sinks()):
            s = sum(1 for x in I if min(ir, j) < x < max(ir, j))
            row[j - 1] = (-1) ** s * exhaustive_measurement(net, ir, j)
        rows.append(row)
    return RationalMatrix(rows)


def fraction_walk_sums(P, sign):
    """[(I - W)^-1]_ij for every source i of P as a dict sink -> Fraction, by
    Gaussian elimination on Fraction entries in the pivot order of
    `network._signed_walk_sums`: eliminating v adds W_uv W_vw / (1 - W_vv)
    to W_uw.  A zero pivot raises ZeroDivisionError."""
    out = {v: {} for v in P.rot}
    into = {v: set() for v in P.rot}
    for e, (u, w, x) in P.edges.items():
        out[u][w] = out[u].get(w, 0) + sign[e] * x
        into[w].add(u)

    def cost(v):
        return (len(into[v]) - (v in into[v])) * (len(out[v]) - (v in out[v]))

    tick = count()
    now = {v: cost(v) for v in P.internal_vertices()}
    heap = [(c, next(tick), v) for v, c in now.items()]
    heapq.heapify(heap)
    while heap:
        c, _, v = heapq.heappop(heap)
        if now.get(v) != c:
            continue
        del now[v]
        succ, pred = out.pop(v), into.pop(v)
        loop = succ.pop(v, 0)
        pred.discard(v)
        scale = 1 / (1 - Fraction(loop))
        succ = {w: b * scale for w, b in succ.items()}
        for w in succ:
            into[w].discard(v)
        for u in pred:
            row = out[u]
            a = row.pop(v)
            for w, b in succ.items():
                row[w] = row.get(w, 0) + a * b
                into[w].add(u)
        for t in pred | succ.keys():
            if t in now and now[t] != cost(t):
                now[t] = cost(t)
                heapq.heappush(heap, (now[t], next(tick), t))
    return {i: out[i] for i in P.sources()}


def path_signs(P, sign, i):
    """eps(P_ij) for every vertex j that a directed path from b_i reaches in
    the split form P: the product of the signs along the path that one
    depth-first search from b_i takes."""
    steps = {v: [] for v in P.rot}
    for e, (u, w, _) in P.edges.items():
        steps[u].append((w, sign[e]))
    eps = {i: 1}
    stack = [i]
    while stack:
        v = stack.pop()
        for w, s in steps[v]:
            if w not in eps:
                eps[w] = eps[v] * s
                stack.append(w)
    return eps


def fraction_path_sums(net, order, src):
    """Weighted path counts from src to every vertex of an acyclic network,
    one Fraction pass over the topological order."""
    total = {src: Fraction(1)}
    for v in order:
        x = total.get(v)
        if x is None:
            continue
        for e in net.out_edges(v):
            w = net.head(e)
            total[w] = total.get(w, 0) + x * net.weight(e)
    return total


# -- chords and necklaces ------------------------------------------------------------


def chord_class(n, a, pa, b, pb):
    """Mutual position of directed chords a->pa and b->pb on the circle.

    All four endpoints must be distinct.  Walking clockwise from a, the
    point met second decides: pa means the endpoints interleave, a
    'crossing'; pb means the chords run side by side, an 'alignment'; b
    means they run against each other, a 'misalignment'.
    """
    if len({a, pa, b, pb}) != 4:
        raise ValueError("chord endpoints must be distinct")
    middle = sorted((pa, b, pb), key=lambda x: (x - a) % n)[1]
    return {pa: "crossing", pb: "alignment", b: "misalignment"}[middle]


def _clockwise(a, b, n):
    """The points a, a+1, ..., b of [n] met walking clockwise, both ends included."""
    points = [a]
    while points[-1] != b:
        points.append(points[-1] % n + 1)
    return points


def _aligned_chords(n, first, second):
    """Chords (x, px, colour) in alignment in the roles (first, second):
    clockwise from x lie px, then py, then y.  A loop takes part as the
    first chord only when black and as the second only when white."""
    (x, px, cx), (y, py, cy) = first, second
    if (x == px and cx != BLACK) or (y == py and cy != WHITE):
        return False
    return px in _clockwise(x, py, n) and y in _clockwise(py, x, n)


def _chord(pi, x, reverse=False):
    """The chord of pi at x as (tail, head, colour); reversing a loop flips its colour."""
    c = pi.col.get(x)
    if reverse:
        return (pi(x), x, -c if c else None)
    return (x, pi(x), c)


def aligned_pair(pi, i, j):
    """The chords of pi at i and j are aligned in one of the two roles."""
    a, b = _chord(pi, i), _chord(pi, j)
    return _aligned_chords(pi.n, a, b) or _aligned_chords(pi.n, b, a)


def reversal_misaligned(pi, i, j):
    """The chords of pi at i and j are not aligned, but reversing the one at
    i, the one at j, or both makes them aligned."""
    if aligned_pair(pi, i, j):
        return False
    for ri, rj in ((True, False), (False, True), (True, True)):
        a, b = _chord(pi, i, ri), _chord(pi, j, rj)
        if _aligned_chords(pi.n, a, b) or _aligned_chords(pi.n, b, a):
            return True
    return False


def necklace_by_shifted_orders(pi):
    """I_r = the anti-exceedances of pi in the order r < r+1 < ... < r-1:
    the i with pi^{-1}(i) after i in that order, plus the white loops."""
    n = pi.n
    inverse = {pi(i): i for i in range(1, n + 1)}
    return [frozenset(i for i in range(1, n + 1)
                      if (inverse[i] == i and pi.col[i] == WHITE)
                      or (i - r) % n < (inverse[i] - r) % n)
            for r in range(1, n + 1)]


def r_table_by_walks(pi):
    """r_ab = |I_a intersect {a, a+1, ..., b}| on the shifted-order necklace."""
    n, neck = pi.n, necklace_by_shifted_orders(pi)
    return {(a, b): len(neck[a - 1] & set(_clockwise(a, b, n)))
            for a in range(1, n + 1) for b in range(1, n + 1)}


# -- covers by edge removal ----------------------------------------------------------


def trip_through(T, dart):
    """(kind, label, position) of the trip of the TripDecomposition T that
    traverses the travel dart: kind 'one_way' with its start i, or 'round'
    with its index."""
    for i, (_, darts) in T.one_way.items():
        if dart in darts:
            return ("one_way", i, darts.index(dart))
    for t, darts in enumerate(T.round_trips):
        if dart in darts:
            return ("round", t, darts.index(dart))
    raise KeyError(dart)


def singletons(G):
    """The internal vertices without darts of a plabic graph, by id."""
    return sorted(G._sites["singleton"])


def canonical(G):
    """A hashable encoding of a plabic graph, ids kept: equal exactly when the
    graphs have the same colours, edges and rotations."""
    return (G.n,
            tuple(sorted(G.col.items())),
            tuple(sorted((e, min(uw), max(uw)) for e, uw in G.edges.items())),
            tuple(sorted(G.rot.items())))


def removable_edges(G):
    """Edges whose removal covers a boundary cell, with the covered data.

    G must be reduced and contracted.  An edge is removable exactly when
    its two trips make a simple crossing; the covered cell's decorated
    permutation replaces that crossing by the alignment.
    """
    ok, cert = reducedness_certificate(G)
    if not ok:
        raise ValueError(f"graph is not reduced: {cert}")
    H = contracted(G)
    if canonical(H) != canonical(G):
        raise ValueError("graph is not contracted")
    T = trips(G)
    pi = T.decorated(G)
    out = []
    for e in sorted(G.edges):
        u, w = G.edges[e]
        if (u in G.boundary or w in G.boundary) and (G.degree(u) == 1 and G.degree(w) == 1):
            continue  # boundary leaves cannot be removed
        kind_a = trip_through(T, (e, 0))
        kind_b = trip_through(T, (e, 1))
        if kind_a[0] != "one_way" or kind_b[0] != "one_way":
            continue
        i, j = kind_a[1], kind_b[1]
        if i == j:
            continue
        roles = crossing_roles(pi, i, j)
        covered = _uncross(pi, *roles) if roles else None
        if covered is not None:
            out.append((e, covered))
    return out


def delete_edge(G, e, boundary_color=None):
    """G minus edge e, adding opposite-color leaves at stranded boundary ends.

    For an edge joining two boundary vertices the two new leaves take
    opposite colors; boundary_color picks the color at the lower-numbered
    end (required then).
    """
    u, w = G.edges[e]
    edges, rot, col = G.edges.copy(), G.rot.copy(), G.col.copy()
    del edges[e]
    changed = {u, w}
    for v in {u, w}:
        rot[v] = tuple(d for d in rot[v] if d[0] != e)
    bdry = [v for v in (u, w) if v in G.boundary]
    if len(bdry) == 2:
        if boundary_color not in (BLACK, WHITE):
            raise ValueError("removing a boundary-to-boundary edge needs boundary_color")
        colors = {min(bdry): boundary_color, max(bdry): -boundary_color}
    elif len(bdry) == 1:
        other = w if bdry[0] == u else u
        colors = {bdry[0]: -G.col[other]}
    else:
        colors = {}
    for (i, c), leaf, enew in zip(colors.items(), fresh_ids(rot, edges), fresh_ids(edges)):
        edges[enew] = (i, leaf)
        rot[i] = ((enew, 0),)
        rot[leaf] = ((enew, 1),)
        col[leaf] = c
        changed.add(leaf)
    return G.replace(changed, col=col, edges=edges, rot=rot)


# -- runs of bends -------------------------------------------------------------------


def glue_bends_stepwise(x):
    """apply_move(x, ("M3r", v)) at the least bend v until none is left; x a
    graph or a network.  Returns the result and the sites' vertices."""
    order = []
    while (v := min((x.graph if isinstance(x, PlabicNetwork) else x)._sites["M3r"], default=None)) is not None:
        x = apply_move(x, ("M3r", v))
        order.append(v)
    return x, order


def bigon_row_one_r1(G, run):
    """The bigon row with one rewrite per site: at the first bigon of G, an
    M2u split of its darts off each endpoint of degree above 3, then R1
    there.  Returns whether G had a bigon."""
    darts = next(iter(bigon_faces(G)), None)
    if darts is None:
        return False
    es = {e for e, _ in darts}
    for v in sorted(set(G.edges[min(es)])):
        if G.degree(v) > 3:
            G = run(_split_pair(G.rot, v, es))
    run(("R1", min(es), max(es)))
    return True


def reduce_one_r1_at_a_time(x):
    """reduce_graph(x) with bigon_row_one_r1 in place of the bigon row of
    plabic.REDUCE_ROWS, so that every R1 is a rewrite of its own, at the
    first bigon of the graph then."""
    rows = plabic.REDUCE_ROWS
    plabic.REDUCE_ROWS = tuple(bigon_row_one_r1 if row is plabic._bigons else row for row in rows)
    try:
        return reduce_graph(x)
    finally:
        plabic.REDUCE_ROWS = rows


# -- symmetries of the disk -------------------------------------------------------


def swap_colours(G):
    """The plabic graph G with black and white swapped."""
    return PlabicGraph(G.n, {v: -c for v, c in G.col.items()}, G.edges, rot=G.rot)


def turn_boundary(G):
    """G with each boundary vertex i renamed i + 1, and n renamed 1."""
    return _boundary_renamed(G, {i: i % G.n + 1 for i in G.boundary}, 1)


def mirror(G):
    """G reflected: each boundary vertex i renamed n + 1 - i, every rotation reversed."""
    return _boundary_renamed(G, {i: G.n + 1 - i for i in G.boundary}, -1)


def _boundary_renamed(G, name, step):
    """G with the boundary vertices renamed by the dict name and each
    rotation read with the given step, 1 or -1."""
    edges = {e: (name.get(u, u), name.get(w, w)) for e, (u, w) in G.edges.items()}
    rot = {name.get(v, v): ds[::step] for v, ds in G.rot.items()}
    return PlabicGraph(G.n, G.col, edges, rot=rot)


def conjugated(pi, g, invert=False, swap=False):
    """g pi g^-1, or g pi^-1 g^-1 when invert, for a bijection g of [n]: the
    decorated permutation that sends g(i) to g(pi(i)), or g(pi(i)) to g(i).
    The fixed point i becomes g(i), with its colour swapped when swap."""
    perm = [0] * pi.n
    for i, j in enumerate(pi.perm, 1):
        a, b = (j, i) if invert else (i, j)
        perm[g(a) - 1] = g(b)
    return DecoratedPermutation(perm, {g(i): -c if swap else c for i, c in pi.col.items()})


# -- the Le-network by way of its hook network -------------------------------------


def hook_layout_by_coordinates(T):
    """lediagram._hook_layout of T's rows with rotations sorted by compass heading.

    Every vertex gets grid coordinates, dot (r, c) at (c, -r), the source
    of row r to its east and the sink of column c below it, and each
    vertex's darts are sorted clockwise from north by the direction of the
    other end.  Edges are numbered as the library numbers them: rows
    right to left first, then columns top to bottom.
    """
    k, n = T.k, T.n
    width = n - k
    row_label, col_label = _boundary_labels(T.shape, k, n)
    flags = [i + 1 in row_label.values() for i in range(n)]

    def vid(r, c):
        return n + (r - 1) * max(width, 1) + c

    dots = {r: [c for c in range(len(row), 0, -1) if row[c - 1] != 0] for r, row in enumerate(T.rows, 1)}
    edges = {}
    for r in range(1, k + 1):
        prev = row_label[r]
        for c in dots[r]:
            edges[len(edges) + 1] = (prev, vid(r, c), T.entry(r, c))
            prev = vid(r, c)
    for c in range(1, width + 1):
        col = sorted(r for r in range(1, k + 1) if c in dots[r])
        for above, below in zip(col, col[1:]):
            edges[len(edges) + 1] = (vid(above, c), vid(below, c), Fraction(1))
        if col:
            edges[len(edges) + 1] = (vid(col[-1], c), col_label[c], Fraction(1))

    pos = {}
    for r in range(1, k + 1):
        for c in dots[r]:
            pos[vid(r, c)] = (c, -r)
        pos[row_label[r]] = (width + 1, -r)
    for c in range(1, width + 1):
        pos[col_label[c]] = (c, -(k + 1))

    incident = {}
    for e, (u, w, _) in edges.items():
        incident.setdefault(u, []).append((e, 0))
        incident.setdefault(w, []).append((e, 1))

    def heading(v, dart):           # 0, 1, 2, 3 for N, E, S, W
        e, end = dart
        (ox, oy), (x, y) = pos[edges[e][1 - end]], pos[v]
        if oy == y:
            return 1 if ox > x else 3
        return 0 if oy > y else 2

    rot = {v: tuple(sorted(darts, key=lambda d: heading(v, d))) for v, darts in incident.items()}
    for i in range(1, n + 1):
        rot.setdefault(i, ())
    return flags, edges, rot


def perfect_gamma(net):
    """A gamma_network output made perfect: split the 4-valent hook vertices
    and leaf-pad the isolated boundary vertices, on a new network."""
    edges = dict(net.edges)
    rot = {v: list(ds) for v, ds in net.rot.items()}
    flags = net.source_flags
    ids = fresh_ids(rot, edges)
    next(ids)  # the first fresh id is skipped; the output's ids depend on it
    fresh = ids.__next__

    for v in sorted(net.internal_vertices()):
        if len(rot[v]) == 4:
            # clockwise order [N-in, E-in, S-out, W-out]; black keeps {N, E}
            dn, de, ds_, dw = rot[v]
            v2 = fresh()
            ep = fresh()
            edges[ep] = (v, v2, Fraction(1))
            _reanchor(edges, (ds_, dw), v2)
            rot[v] = [dn, de, (ep, 0)]
            rot[v2] = [(ep, 1), ds_, dw]
    for i in net.boundary:
        if rot[i]:
            continue
        leaf = fresh()
        e = fresh()
        if flags[i - 1]:
            edges[e] = (i, leaf, Fraction(1))
            rot[i] = [(e, 0)]
            rot[leaf] = [(e, 1)]
        else:
            edges[e] = (leaf, i, Fraction(1))
            rot[i] = [(e, 1)]
            rot[leaf] = [(e, 0)]
    return PlanarDirectedNetwork(net.n, flags, edges, rot={v: tuple(d) for v, d in rot.items()})


def le_network(T):
    """The plabic network of a Le-tableau through three validated maps:
    gamma_network, perfect_gamma, then face_weights."""
    return face_weights(perfect_gamma(gamma_network(T)))


def gamma_vertical_edges(net):
    """The column (weight-1 by construction) edges of a gamma_network output.

    Internal ids encode grid positions, so verticals are the edges between
    internal vertices in one column plus the edges into boundary sinks.
    Valid for any reweighting of such a network (gauge images included).
    """
    n = net.n
    width = max(n - len(net.sources()), 1)

    def column(v):
        return (v - n - 1) % width + 1

    verticals = []
    for e, (u, w, _) in net.edges.items():
        if u in net.boundary:
            continue  # horizontal edge out of a boundary source
        if w in net.boundary:
            verticals.append(e)  # drops into a boundary sink
        elif column(u) == column(w):
            verticals.append(e)
    return verticals


def vertical_normalizing_gauge(net, vertical_eids):
    """The unique gauge making the given downward tree of edges weight 1.

    vertical_eids must form downward chains ending at boundary sinks, with
    every internal vertex the tail of exactly one of them (as in a hook
    network).  Returns the vertex -> factor map for gauge_transform.
    """
    t = {}
    pending = set(vertical_eids)

    def known(v):
        return v in net.boundary or v in t

    def value(v):
        return Fraction(1) if v in net.boundary else t[v]

    while pending:
        progress = False
        for e in list(pending):
            u, w, x = net.edges[e]
            if known(w):
                t[u] = value(w) / x
                pending.discard(e)
                progress = True
        if not progress:
            raise ValueError("vertical edges do not form boundary-rooted chains")
    return t


# -- the general loop-erased minor formula ---------------------------------------


def minor_loop_erased(net, J):
    """Delta_J(A(N)) evaluated directly by the admissible-collection formula.

    Sums over families of pairwise compatible self-avoiding paths from the
    sources K = I \\ J to the sinks L = J \\ I whose connection pattern has
    no crossings and whose aligned members are disjoint, each corrected by
    the geometric series over insertable simple cycles.  This is the
    independent evaluator used to cross-check the minor computed through
    the boundary measurement matrix.
    """
    I = sorted(net.sources())
    J = sorted(J)
    if len(J) != len(I):
        raise ValueError(f"J must be a {len(I)}-subset")
    K = [i for i in I if i not in J]
    L = [j for j in J if j not in I]
    if not K:
        return Fraction(1)
    paths = {a: {} for a in K}
    for a in K:
        for b in L:
            paths[a][b] = _simple_paths(net, a, b)
    total = Fraction(0)
    for targets in permutations(L):
        pi = dict(zip(K, targets))
        if any(chord_class(net.n, K[s], pi[K[s]], K[t], pi[K[t]]) == "crossing"
               for s, t in combinations(range(len(K)), 2)):
            continue
        aligned = {(s, t) for s, t in combinations(range(len(K)), 2)
                   if chord_class(net.n, K[s], pi[K[s]], K[t], pi[K[t]]) == "alignment"}

        def collect(idx, chosen):
            nonlocal total
            if idx == len(K):
                contrib = Fraction(1)
                for t, eids in enumerate(chosen):
                    verts = Walk(eids).vertices(net)
                    blocked = set()
                    for s in range(t):
                        if (s, t) in aligned:
                            blocked |= set(Walk(chosen[s]).vertices(net))
                    contrib *= _path_weight(net, eids)
                    contrib *= _cycle_correction(net, verts, len(verts), blocked)
                total += contrib
                return
            a = K[idx]
            for eids in paths[a][pi[a]]:
                vs = set(Walk(eids).vertices(net))
                ok = True
                for s in range(idx):
                    if (s, idx) in aligned:
                        prev = set(Walk(chosen[s]).vertices(net))
                        if vs & prev:
                            ok = False
                            break
                if ok:
                    collect(idx + 1, chosen + [eids])

        collect(0, [])
    return total


def minor_by_bijections(net, J):
    """Delta_J(A(N)) via the signed sum over source-to-sink bijections."""
    I = sorted(net.sources())
    J = sorted(J)
    K = [i for i in I if i not in J]
    L = [j for j in J if j not in I]
    if not K:
        return Fraction(1)
    total = Fraction(0)
    for targets in permutations(L):
        pi = dict(zip(K, targets))
        xing = sum(1 for s, t in combinations(range(len(K)), 2)
                   if chord_class(net.n, K[s], pi[K[s]], K[t], pi[K[t]]) == "crossing")
        term = Fraction(1)
        for a in K:
            term *= exhaustive_measurement(net, a, pi[a])
        total += (-1) ** xing * term
    return total


# -- formal power series in the grading variable t -------------------------------


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def _series_inv(a, order):
    if a[0] == 0:
        raise ZeroDivisionError("series with zero constant term")
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / a[0]
    for m in range(1, order + 1):
        s = Fraction(0)
        for t in range(1, min(m, len(a) - 1) + 1):
            s += a[t] * inv[m - t]
        inv[m] = -s / a[0]
    return inv


def formal_series(net, i, j, order):
    """Coefficients of M_ij^form with x_e graded by t, up to t^order.

    Enumerates every directed walk from b_i to b_j with at most `order`
    edges, signed by the parity of its winding index (equivalently, of the
    number of cycles erased from it).
    """
    coeffs = [Fraction(0)] * (order + 1)

    def sign_of(eids):
        verts = Walk(eids).vertices(net)
        flips = 0
        while True:
            cands = _erasable_cycles(verts)
            if not cands:
                return -1 if flips % 2 else 1
            a, b = cands[0]
            del verts[a:b]
            flips += 1

    def dfs(v, eids, weight):
        if v == j and eids:
            coeffs[len(eids)] += sign_of(eids) * weight
        if len(eids) == order:
            return
        for e in net.out_edges(v):
            eids.append(e)
            dfs(net.head(e), eids, weight * net.weight(e))
            eids.pop()

    dfs(i, [], Fraction(1))
    return coeffs


def _excursion_denominator_series(net, v, forbidden, order, memo):
    """t-graded version of the nested excursion denominator."""
    key = (v, frozenset(forbidden))
    if key in memo:
        return memo[key]
    total = [Fraction(0)] * (order + 1)
    total[0] = Fraction(1)
    for cyc in _simple_cycles_at(net, v, forbidden):
        if len(cyc) > order:
            continue
        term = [Fraction(0)] * (order + 1)
        term[len(cyc)] = _path_weight(net, cyc)
        inner = set(forbidden)
        inner.add(v)
        for w in Walk(cyc).vertices(net)[1:-1]:
            inv = _series_inv(_excursion_denominator_series(net, w, inner, order, memo), order)
            term = _series_mul(term, inv, order)
            inner.add(w)
        total = [a + b for a, b in zip(total, term)]
    memo[key] = total
    return total


def rational_series(net, i, j, order):
    """Taylor coefficients in t of the exact rational M_ij with x_e -> x_e t."""
    coeffs = [Fraction(0)] * (order + 1)
    memo = {}
    for eids in _simple_paths(net, i, j):
        if len(eids) > order:
            continue
        verts = Walk(eids).vertices(net)
        term = [Fraction(0)] * (order + 1)
        term[len(eids)] = _path_weight(net, eids)
        forbidden = set()
        for v in verts:
            denom = _excursion_denominator_series(net, v, forbidden, order, memo)
            term = _series_mul(term, _series_inv(denom, order), order)
            forbidden.add(v)
        coeffs = [a + b for a, b in zip(coeffs, term)]
    return coeffs


# -- cell counts and matrices ---------------------------------------------------------


def eulerian_by_descents(k, n):
    """Brute-force oracle: count descent sets directly (n <= 8)."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for w in permutations(range(1, n + 1)):
        des = sum(1 for i in range(n - 1) if w[i] > w[i + 1])
        if des == k - 1:
            count += 1
    return count


def staircase_check(n):
    """Le-fills of the staircase (n, n-1, ..., 1) with empty corners.

    The count equals n!.
    """
    shape = tuple(range(n, 0, -1))
    count = 0
    for fill in le_fills(shape):
        if all(fill[r][-1] == 0 for r in range(n)):
            count += 1
    return count


def williams_printed_formula(k, n, q):
    """The printed closed form for N_kn(q), evaluated literally at q.

    The source text sums i = 1..k-1 with bracket arguments like [i-k]_q,
    which cannot be literally correct (the sum is empty for k = 1); this
    helper exists to document the discrepancy, not to compute.
    """
    q = Fraction(q)

    def bracket(m):
        if q == 1:
            return Fraction(m)
        return (1 - q ** m) / (1 - q)

    total = Fraction(0)
    for i in range(1, k):
        term = (bracket(i - k) ** i) * (bracket(k - i + 1) ** (n - i))
        term -= (bracket(i - k + 1) ** i) * (bracket(k - i) ** (n - i))
        total += comb(n, i) * q ** (-(k - i) ** 2) * term
    return total


def poly_eval(coeffs, q):
    q = Fraction(q)
    return sum(Fraction(c) * q ** e for e, c in enumerate(coeffs))


def is_tnn(A):
    """True iff A has rank k and every maximal minor is >= 0."""
    rows, pivots = _row_reduce([list(r) for r in A.rows])
    if len(pivots) != A.k:
        return False
    return all(maximal_minor(A, J) >= 0 for J in combinations(range(1, A.n + 1), A.k))


def _pivot_columns(rows):
    out = []
    for row in rows:
        for c, x in enumerate(row):
            if x != 0:
                out.append(c)
                break
    return out


def _procedure(rows, n):
    """Recursive core of the inverse map; rows are echelon, tnn.

    Returns the tableau rows (lists of Fractions) for the shape carved out
    by the pivots of the current matrix.
    """
    k = len(rows)
    if k == 0:
        return []
    if n == k:
        return [[] for _ in range(k)]
    pivots = _pivot_columns(rows)
    d = 0
    while d < k and pivots[d] == d:
        d += 1
    if d < k and d == n:
        raise AssertionError("echelon bookkeeping broke")
    if d == 0:
        if any(row[0] != 0 for row in rows):
            raise AssertionError("column 1 should be zero when 1 is not a pivot")
        return _procedure([row[1:] for row in rows], n - 1)
    x = [(-1) ** (d - 1 - i) * rows[i][d] for i in range(d)]
    if any(v < 0 for v in x):
        raise ValueError("matrix is not totally nonnegative")
    blocked = [r for r in range(d) if x[r] == 0 and any(x[i] != 0 for i in range(r))]
    if blocked:
        flip = [sum(1 for r in blocked if r > i) % 2 for i in range(k)]
        keep = [i for i in range(k) if i not in blocked]
        cols = [c for c in range(n) if c not in blocked]
        sub = []
        for i in keep:
            row = [rows[i][c] * (-1 if flip[i] and c >= d else 1) for c in cols]
            sub.append(row)
        inner = _procedure(sub, n - len(blocked))
        width = n - k
        out = []
        ptr = 0
        for i in range(k):
            if i in blocked:
                out.append([Fraction(0)] * width)
            else:
                out.append(inner[ptr])
                ptr += 1
        return out
    s = 0
    while s < d and x[s] == 0:
        s += 1
    sub = []
    for i in range(k):
        row = [Fraction(1) if c == i else Fraction(0) for c in range(d)]
        for j in range(d + 1, n):
            if i < s or i >= d:
                row.append(rows[i][j])
            elif i < d - 1:
                row.append(rows[i][j] / x[i] + rows[i + 1][j] / x[i + 1])
            else:
                row.append(rows[i][j] / x[i])
        sub.append(row)
    inner = _procedure(sub, n - 1)
    for i in range(d):
        inner[i] = inner[i] + [x[i]]
    return inner


def procedure_tableau(A):
    """Postnikov's recursive inverse on the echelon form of a full-rank A.

    Column 1 is either not a pivot, and is dropped, or heads a run of d
    pivots whose entries in column d + 1 (signs undone) are the last
    entries of the first d rows; the rows are rescaled and the recursion
    goes on with one column fewer.  The tableau is not checked against A:
    a matrix that is not tnn can still give a valid-looking one, so a
    caller re-measures it.  Raises ValueError or AssertionError when the
    recursion breaks down.
    """
    B, I = echelon_form(A)
    return LeTableau(A.k, A.n, subset_to_lambda(I, A.n), _procedure([list(r) for r in B.rows], A.n))


def verify_exchange_axiom(M):
    """Check the basis exchange axiom by direct enumeration."""
    for I in M.bases:
        for J in M.bases:
            for i in I:
                if not any(frozenset(I - {i} | {j}) in M.bases for j in J):
                    return False
    return True


def bruhat_interval_count(lam, k, n):
    """|{u in S_n : u <= w_lambda}| by the componentwise criterion.

    Brute force over S_n; guarded to n <= 9.
    """
    if n > 9:
        raise ValueError("factorial enumeration guarded at n <= 9")
    w = w_lambda(lam, k, n)
    count = 0
    for u in permutations(range(1, n + 1)):
        if all(u[m] <= w[m] for m in range(k)) and all(u[m] >= w[m] for m in range(k, n)):
            count += 1
    return count


def check_grassmann_plucker(p):
    """Brute-force check of the three-term relations of the PluckerVector p
    over all index tuples.

    Exponential in n; meant for n <= 5 sanity checking.
    """
    idx = range(1, p.n + 1)
    for iseq in permutations(idx, p.k):
        for jseq in permutations(idx, p.k):
            lhs = p[iseq] * p[jseq]
            rhs = Fraction(0)
            for s in range(p.k):
                left = (jseq[s],) + iseq[1:]
                right = jseq[:s] + (iseq[0],) + jseq[s + 1:]
                rhs += p[left] * p[right]
            if lhs != rhs:
                return False
    return True


def plucker_by_minors(A):
    """The Plucker vector of a full-rank A, one determinant per maximal
    minor, to cross-check `exactmath.plucker_vector`, which reads them off
    the echelon form."""
    echelon_form(A)     # the rank check
    return PluckerVector(A.k, A.n, {J: maximal_minor(A, J) for J in combinations(range(1, A.n + 1), A.k)})


def matroid_of(A):
    """Matroid of column dependencies: bases are subsets with Delta != 0."""
    return Matroid(A.k, A.n, plucker_vector(A).support())


def necklace_from_matroid(M):
    """I_i = lexicographically minimal base of M under the shift <_i."""
    if not isinstance(M, Matroid):
        raise TypeError("expected a Matroid")
    return GrassmannNecklace([lex_min_base(M, i) for i in range(1, M.n + 1)])


# -- small helpers only tests call ----------------------------------------------------


def weights_by_travel(N):
    """Face weights keyed independently of the stored edge directions.

    Each face is named by the travel pairs (eid, from, to) of its darts,
    which survive reorientation of the underlying edges; loops keep their
    dart end as a tiebreaker.
    """
    G = N.graph
    out = {}
    for darts in faces(G):
        key = []
        for e, end in darts:
            u, w = G.edges[e]
            a, b = (u, w) if end == 0 else (w, u)
            key.append((e, a, b) if u != w else (e, a, b, end))
        out[tuple(sorted(key))] = N.weights[face_key(darts)]
    return out


def le_fill_by_quadruples(shape, fill):
    """The Le-property by its definition: for every zero box b, every nonzero
    box a left of it in its row and every nonzero box c above it in its column."""
    rows = [tuple(row) for row in fill]
    rows += [()] * (len(shape) - len(rows))
    for ip in range(len(shape)):            # lower row i' (0-indexed)
        for i in range(ip):                 # upper row i
            for j in range(len(rows[ip])):  # left column j
                if not rows[ip][j]:
                    continue
                for jp in range(j + 1, len(rows[ip])):
                    if rows[ip][jp]:
                        continue
                    if jp < len(rows[i]) and rows[i][jp]:
                        return False        # a and c nonzero but b zero
    return True


def count_le_diagrams(shape):
    return sum(le_count_poly(tuple(shape)))


def enumerate_le_diagrams(k, n, shape):
    """Stream of LeDiagram objects of the given shape in the (k, n) box."""
    shape_full = tuple(shape) + (0,) * (k - len(tuple(shape)))
    for fill in le_fills(shape_full):
        yield LeDiagram(k, n, shape_full, fill, check=False)


def total_cells(n):
    """N_n = n N_{n-1} + 1 with N_0 = 1; the total number of cells."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = 1
    for m in range(1, n + 1):
        value = m * value + 1
    return value


def inversions(u):
    u = tuple(u)
    return sum(1 for a, b in combinations(range(len(u)), 2) if u[a] > u[b])


def minimal_permutation(I, n):
    """The identity with white fixed points on I, black elsewhere."""
    I = frozenset(I)
    return DecoratedPermutation(range(1, n + 1),
                                {i: (WHITE if i in I else BLACK) for i in range(1, n + 1)})


_TWO_PASS_TOKEN = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


def two_pass_rational(x):
    """A rational token read twice: the pattern decides, Fraction(str) parses."""
    if _TWO_PASS_TOKEN.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
    raise ValueError(f"{x!r} is not a rational number")


def components(vertices, pairs):
    """Connected components, as sets, of the graph on `vertices` with edges
    `pairs`, to cross-check the rotation walks of `planarmaps._reach`."""
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


def planar_by_components(dmap):
    """Whether every component of the map, boundary arcs included, has
    V - E + F = 2; a component without edges carries no embedding."""
    b, aug, face_of = dmap.boundary, dmap._aug_rot, dmap._face_of
    arcs = [(b[i], b[(i + 1) % dmap.n]) for i in range(dmap.n)]
    for comp in components(aug, [*dmap.edges.values(), *arcs]):
        ne = sum(1 for (u, w) in dmap.edges.values() if u in comp)
        if comp & set(b):
            ne += dmap.n
        if ne == 0:
            continue
        face_ids = {id(face_of[d]) for v in comp for d in aug[v]}
        if len(comp) - ne + len(face_ids) != 2:
            return False
    return True


@functools.cache
def argparse_cli():
    """The argparse parser that `cli._parse` replaced, built once per process."""
    ap = argparse.ArgumentParser(prog="positroid",
                                 description="exact combinatorics of nonnegative Grassmann cells")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("measure", help="boundary measurements of a network file")
    p.add_argument("file")
    p.add_argument("--matrix", action="store_true", help="print A(N) instead of Plucker coordinates")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("invert", help="recover the Le-tableau of a tnn matrix")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("perfect", help="perfect trivalent form of a network")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    for name, helptext in [("le2net", "hook network of a Le-tableau"),
                           ("le2perm", "decorated permutation of a Le-tableau")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("perm2le", help="Le-diagram of a decorated permutation")
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("perm2graph", help="reduced plabic graph of a decorated permutation")
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")

    for name, helptext in [("trips", "decorated trip permutation"),
                           ("reduce", "reduce a plabic graph/network"),
                           ("matroid", "matroid of perfect orientations"),
                           ("moves", "list applicable move/reduction sites")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("move", help="apply a move/reduction at a site")
    p.add_argument("file")
    p.add_argument("--site", required=True, help="e.g. 'M1 4 1', 'M2 7', 'R1 2 3'")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("leq", help="circular Bruhat comparison of two permutations")
    p.add_argument("perm1")
    p.add_argument("perm2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("poset", help="covers or full cell list")
    p.add_argument("--covers", help="decorated permutation")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="cell-count table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", action="store_true", help="q-polynomials by dimension")
    p.add_argument("--check-all", action="store_true", dest="check_all")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("export-dot", help="DOT rendering of a plabic file")
    p.add_argument("file")

    p = sub.add_parser("selfcheck", help="run the invariant suite at size n")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    return ap


# -- text readers as they were -----------------------------------------------------


def _reference_parse_disk_text(text, what, vertex_label, edge_tail, other):
    """The lines network and plabic text share, read into (n, labels,
    rot_ids, edges) as planarmaps.parse_disk_text read them before its
    one check per line and the e' mark."""
    n = None
    labels, rot_ids, edges = {}, {}, {}
    try:
        for number, line in enumerate(text.splitlines(), 1):
            toks = (line.split("#", 1)[0] if "#" in line else line).split()
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
                rot_ids[v] = list(map(int, ids))
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


def _reference_rotations(n, shape, verts, rot_ids):
    """The dart rotations of the edge-id lists rot_ids of shape (eid -> (u, w)):
    each vertex of verts or an edge without a list first gets its incident
    edges, then every list is turned into darts in a pass of its own."""
    verts.update(chain.from_iterable(shape.values()))
    rot_ids = dict(rot_ids)
    incident = {v: [] for v in verts if v not in rot_ids}
    for e, (u, w) in shape.items():
        if u in incident:
            incident[u].append(e)
        if w in incident:
            incident[w].append(e)
    for v, ids in incident.items():
        if len(ids) > (1 if v in range(1, n + 1) else 2):
            raise ValueError(f"vertex {v} has degree {len(ids)}; give its rotation explicitly")
    rot_ids.update(incident)
    rot, seen, listed, loose = {}, set(), 0, False
    for v, ids in rot_ids.items():
        darts = []
        for e in ids:
            if e not in shape:
                raise ValueError(f"vertex {v} lists unknown edge {e}")
            u, w = shape[e]
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
    if loose or not len(seen) == listed == 2 * len(shape) or min(shape, default=0) < 0:
        _check_darts(shape, rot)
    return rot


def reference_topological_order(net):
    """Kahn's order through the network's own views, a method call per
    vertex and per edge, to cross-check
    `PlanarDirectedNetwork.topological_order`, which counts in-degrees and
    collects heads in one pass over the edges."""
    indegree = {v: len(net.in_edges(v)) for v in net.rot}
    order = [v for v, d in indegree.items() if d == 0]
    for v in order:
        for e in net.out_edges(v):
            w = net.head(e)
            indegree[w] -= 1
            if indegree[w] == 0:
                order.append(w)
    return order if len(order) == len(indegree) else None


def reference_network_from_text(text):
    """PlanarDirectedNetwork.from_text as it read before the rotation pass."""
    sources = None

    def other(toks, number):
        nonlocal sources
        if toks[0] != "sources":
            raise ValueError("unrecognized line")
        if sources is not None:
            raise ValueError("a second 'sources' line")
        sources = [int(t) for t in toks[1:]]
        twice = next((i for i in sources if sources.count(i) > 1), None)
        if twice is not None:
            raise ValueError(f"source {twice} is listed twice")

    def weight(toks):
        if len(toks) != 1:
            raise ValueError("expected 'edge e : u w weight'")
        return (rational(toks[0]),)

    n, _, rot_ids, edges = _reference_parse_disk_text(text, "network", _at_most_one, weight, other)
    sources = sources or []
    if any(i not in range(1, n + 1) for i in sources):
        raise ValueError(f"sources {sources} are not all boundary vertices 1..{n}")
    rot = _reference_rotations(n, {e: (u, w) for e, (u, w, _) in edges.items()}, set(range(1, n + 1)), rot_ids)
    return PlanarDirectedNetwork(n, [i in sources for i in range(1, n + 1)], edges, rot=rot)


def reference_plabic_from_text(text):
    """PlabicGraph.from_text as it read before the rotation pass."""
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

    n, col, rot_ids, edges = _reference_parse_disk_text(text, "plabic", _color, _no_tail, other)
    G = PlabicGraph(n, col, edges, rot=_reference_rotations(n, dict(edges), set(range(1, n + 1)) | set(col),
                                                           rot_ids))
    if in_faces:
        keys = sorted(face_weight_keys(G))
        if len(lines) != len(keys):
            raise ValueError(f"{len(lines)} face weights for {len(keys)} faces")
        for (number, name, _), key in zip(lines, keys):
            if name != _face_name(key):
                raise ValueError(f"plabic text line {number}: expected face "
                                 f"{_face_name(key)!r}, not {name!r}")
        return PlabicNetwork(G, {key: w for key, (_, _, w) in zip(keys, lines)})
    return G


def _reference_line(line, number, parse):
    out = []
    for pos, tok in enumerate(line.split(), 1):
        try:
            out.append(parse(tok))
        except ValueError as ex:
            raise ValueError(f"tableau text line {number}, entry {pos}: {ex}") from None
    return out


def _reference_part(tok):
    if not tok.isdecimal():
        raise ValueError(f"{tok!r} is not a nonnegative integer")
    return int(tok)


def reference_tableau_from_text(text):
    """LeTableau.from_text as it read before the integer support: each
    entry parsed on its own, the entries checked as Fractions and the
    support through a validated LeDiagram."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or not all(t.isdecimal() for t in head) or int(head[0]) > int(head[1]):
        raise ValueError("tableau text needs a 'k n' header with 0 <= k <= n")
    k, n = int(head[0]), int(head[1])
    shape = tuple(_reference_line(lines[1], 2, _reference_part)) if len(lines) > 1 else ()
    rows = [_reference_line(ln, number, rational) for number, ln in enumerate(lines[2:], 3) if ln.strip()]
    shape = shape + (0,) * (k - len(shape))
    rows = [tuple(row) for row in rows] + [()] * (k - len(rows))
    if len(rows) != k or any(len(r) != p for r, p in zip(rows, shape)):
        raise ValueError("tableau rows do not match the shape")
    if any(x < 0 for row in rows for x in row):
        raise ValueError("tableau entries must be nonnegative")
    LeDiagram(k, n, shape, [[1 if x else 0 for x in row] for row in rows])
    return LeTableau(k, n, shape, rows, check=False)


def reference_matrix_from_text(text):
    """RationalMatrix.from_text as it read before the constructor for rows
    of Fractions: each entry parsed on its own and coerced again."""
    toks = text.split()
    if len(toks) < 2 or not all(t.isdecimal() for t in toks[:2]):
        raise ValueError("matrix text needs a 'k n' header of nonnegative integers")
    k, n = int(toks[0]), int(toks[1])
    vals = toks[2:]
    if len(vals) != k * n:
        raise ValueError(f"expected {k * n} entries, got {len(vals)}")

    def entry(i, j):
        try:
            return rational(vals[i * n + j])
        except ValueError as ex:
            raise ValueError(f"row {i + 1}, column {j + 1}: {ex}") from None

    return RationalMatrix([[entry(i, j) for j in range(n)] for i in range(k)], n)
