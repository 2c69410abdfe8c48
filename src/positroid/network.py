"""Planar directed networks in a disk and their boundary measurements.

A network carries positive rational edge weights and a rotation-system
embedding (see planarmaps).  Boundary vertices are the integers 1..n in
clockwise order; every one of them is flagged as a source or a sink, even
when isolated.  Internal vertices are any other integer ids.

The boundary measurement M_ij sums over all directed walks from b_i to
b_j, each weighted by its edge-weight product and signed by the parity of
its winding index.

Acyclic networks have no cycles and no signs: M_ij is a path sum, one
pass per source in topological order.  A cyclic network is measured on
its split form (`_split_form`), which keeps every M_ij: internal sources
and sinks are dropped, cascading, then the components without a boundary
vertex, and each internal vertex whose in-darts are not side by side is
split by pull-outs and a blow-up, as in `perfect_and_trivalent`.  Nothing
else changes, whatever the degrees; where no step applies, as on every
Manhattan grid, the split form is the network itself.  At a vertex whose
in-darts sit side by side every walk is smooth, and the vertex splits
planarly into v_in -> v_out (in-edges at v_in, out-edges at v_out), so
erasing a simple cycle from a walk flips its winding parity; at a vertex
whose edges run in, out, in, out, erasing a loop need not.

On the split form, edge signs eps_e = +-1 with eps(C) = -1 on every
simple directed cycle C (Kasteleyn signs of the form with each internal
vertex halved) turn the winding sign of a walk into eps(walk) eps(P_ij),
by loop erasure, where P_ij is any path from b_i to b_j.  So

    M_ij = eps(P_ij) [(I - W)^-1]_ij,   W_vw = sum of eps_e x_e over e: v -> w,

and one exact sparse elimination of I - W gives the whole matrix
(Talaska's flow ratios as determinants, after Speyer's "Variations on a
theme of Kasteleyn").  M_ij is subtraction-free in the positive weights
(Postnikov, Lemma 4.3), so M_ij >= 0 and M_ij = |[(I - W)^-1]_ij|.

All arithmetic is exact, and both routes run on plain integers: the
elimination keeps each row of W as integer entries over one positive
denominator, reduced by their gcd after every update, and the path sums
carry (numerator, denominator) pairs.  Signs go on the integer
numerators, and each output entry becomes one Fraction at the end.
"""

import heapq
from bisect import bisect
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, lcm, prod

from .exactmath import RationalMatrix, format_rational, plucker_vector, rational
from .planarmaps import (_cyclic_pairs, _DiskGraph, _dual_forest, _glue, _reach, _reanchor, _rotation_ids,
                         fresh_ids, parse_disk_text)


class PlanarDirectedNetwork(_DiskGraph):
    """Immutable planar directed network with positive rational weights."""

    _fields = ("n", "source_flags", "edges", "rot")

    def __init__(self, n, source_flags, edges, rot_ids=None, rot=None):
        """
        n: number of boundary vertices (ids 1..n, clockwise).
        source_flags: iterable of n bools, True where b_i is a source.
        edges: dict eid -> (tail, head, weight).
        rot_ids: dict vertex -> clockwise list of incident edge ids
                 (a loop id appears twice, first occurrence = tail end), or
        rot: dict vertex -> clockwise dart tuples, given directly.
        """
        self.source_flags = tuple(bool(b) for b in source_flags)
        if len(self.source_flags) != n:
            raise ValueError("need one source/sink flag per boundary vertex")
        self.edges = {e: (u, w, x if isinstance(x, Fraction) else rational(x)) for e, (u, w, x) in edges.items()}
        super().__init__(n, (), rot_ids, rot)
        self._validate()

    @cached_property
    def _arcs(self):
        """(out-edges, in-edges) of each vertex that has some."""
        out, into = {}, {}
        for e, (u, w, _) in self.edges.items():
            out.setdefault(u, []).append(e)
            into.setdefault(w, []).append(e)
        return out, into

    def _validate(self):
        for e, (u, w, x) in self.edges.items():
            if x.numerator <= 0:
                raise ValueError(f"edge {e} has nonpositive weight {x}")
            if u == w and u in self.boundary:
                raise ValueError(f"loop at boundary vertex {u}")
            if w in self.boundary and self.source_flags[w - 1]:
                raise ValueError(f"source b_{w} has incoming edge {e}")
            if u in self.boundary and not self.source_flags[u - 1]:
                raise ValueError(f"sink b_{u} has outgoing edge {e}")

    # -- basic views -----------------------------------------------------------

    def sources(self):
        return frozenset(i for i in range(1, self.n + 1) if self.source_flags[i - 1])

    def sinks(self):
        return frozenset(i for i in range(1, self.n + 1) if not self.source_flags[i - 1])

    def weight(self, e):
        return self.edges[e][2]

    def tail(self, e):
        return self.edges[e][0]

    def head(self, e):
        return self.edges[e][1]

    def out_edges(self, v):
        return self._arcs[0].get(v, [])

    def in_edges(self, v):
        return self._arcs[1].get(v, [])

    def topological_order(self):
        """All vertices with every edge pointing forward, or None if cyclic.

        Kahn's algorithm, O(V + E); a loop keeps its vertex out of the order.
        """
        indegree = {v: len(self.in_edges(v)) for v in self.rot}
        order = [v for v, d in indegree.items() if d == 0]
        for v in order:
            for e in self.out_edges(v):
                w = self.head(e)
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        return order if len(order) == len(indegree) else None

    def is_acyclic(self):
        return self.topological_order() is not None

    def __repr__(self):
        return (f"PlanarDirectedNetwork(n={self.n}, sources={sorted(self.sources())}, "
                f"{len(self.edges)} edges, {len(self.internal_vertices())} internal)")

    # -- serialization ---------------------------------------------------------

    def to_text(self):
        lines = [f"n {self.n}", " ".join(["sources", *map(str, sorted(self.sources()))])]
        for v in sorted(self.rot):
            if len(self.rot[v]) <= 1 and v in self.boundary:
                continue
            kind = "boundary" if v in self.boundary else "internal"
            ids = " ".join(map(str, _rotation_ids(self.rot[v])))
            lines.append(f"vertex {v} {kind} : {ids}")
        for e in sorted(self.edges):
            u, w, x = self.edges[e]
            lines.append(f"edge {e} : {u} {w} {format_rational(x)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
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

        n, _, rot_ids, edges = parse_disk_text(text, "network", _at_most_one, weight, other)
        sources = sources or []
        if any(i not in range(1, n + 1) for i in sources):
            raise ValueError(f"sources {sources} are not all boundary vertices 1..{n}")
        return cls(n, [i in sources for i in range(1, n + 1)], edges, rot_ids=rot_ids)


def _at_most_one(labels):
    if len(labels) > 1:
        raise ValueError("expected 'vertex v [kind] : edge ids'")


# -- boundary measurements -------------------------------------------------------


def _path_sums(arcs, order, src):
    """Weighted path counts from src to every vertex of an acyclic network,
    as integer pairs (numerator, denominator > 0) in lowest terms.

    arcs maps each vertex to its out-edges as (head, numerator,
    denominator) triples.  One pass over a topological order: with no
    cycles there are no winding signs and no excursion denominators, so
    M_ij is the plain path sum.
    """
    total = {src: (1, 1)}
    for v in order:
        x = total.get(v)
        if x is None:
            continue
        a, b = x
        for w, p, q in arcs[v]:
            c, d = a * p, b * q
            y = total.get(w)
            if y is not None:
                c, d = c * y[1] + y[0] * d, d * y[1]
            g = gcd(c, d)
            total[w] = (c // g, d // g)
    return total


def _integer_arcs(net):
    """The out-edges of each vertex as (head, numerator, denominator)."""
    arcs = {v: [] for v in net.rot}
    for u, w, x in net.edges.values():
        arcs[u].append((w, x.numerator, x.denominator))
    return arcs


def _kasteleyn_signs(P):
    """Edge signs eps_e = +-1 of a split form P (see `_split_form`) with
    eps(C) = -1 on every simple directed cycle C.

    Halve every internal vertex v into v_in - v_out, in-edges at v_in and
    out-edges at v_out, whatever its degree, and sign the identity edges
    +1.  The halving is planar because the in-darts of every internal
    vertex of P sit side by side, and it leaves no pendant half because
    every internal vertex has in- and out-edges.  A boundary vertex is one
    half already: a source has only out-edges, a sink only in-edges.
    Kasteleyn's rule on that bipartite graph, with eps = -kappa on the
    edges of P, asks each interior face f (no boundary arc) for

        prod over e in f of eps_e = (-1)^(len f + (len f + transit f)/2 + 1),

    where transit f counts the corners of f between an in- and an
    out-edge, the consecutive darts of f with the same end: each crosses
    one identity edge.  No directed cycle meets the boundary, so the faces
    on the boundary circle need no rule.  Every component of P reaches the
    boundary, so the faces are disks.  The faces on the boundary circle
    come first, so the dual forest is rooted at one of them; edges off it
    keep +1, and each interior face then fixes its forest edge, leaves
    first.
    """
    arcs, circle, inner = P.map._arcs, [], []
    for orbit in P.map.faces():
        (inner if arcs.isdisjoint(orbit) else circle).append(orbit)
    faces = circle + inner
    sign = dict.fromkeys(P.edges, 1)
    for f, (e, _) in reversed(_dual_forest(faces, P.map._face_of)):
        if f < len(circle):
            continue
        orbit = faces[f]
        transit = sum(1 for a, b in zip(orbit, orbit[1:] + orbit[:1]) if a[1] == b[1])
        want = (-1) ** (len(orbit) + (len(orbit) + transit) // 2 + 1)
        if prod(sign[d] for d, _ in orbit) != want:
            sign[e] = -sign[e]
    return sign


def _signed_walk_sums(P, sign):
    """[(I - W)^-1]_ij for every source i and sink j of P, where W_vw sums
    sign_e x_e over the edges v -> w, as integer rows: walks[i] is
    (d, {j: a}) with [(I - W)^-1]_ij = a / d.

    Gaussian elimination of I - W one internal vertex at a time, which on
    the graph reads: every walk u -> v -> w through an eliminated v adds
    W_uv W_vw / (1 - W_vv) to W_uw.  What is left joins sources to sinks
    directly.  Every principal minor of I - W is a positive sum over
    families of disjoint cycles (eps(C) = -1), so no pivot is zero.  The
    pivot order is Markowitz's: the fewest in- times out-neighbours next,
    ties to the earliest pushed; a vertex is pushed again when its cost changes.

    Each row u of W is held as integer entries a over one denominator
    d_u > 0, starting at the lcm of the row's weight denominators, and
    stays reduced: gcd(d_u, a) = 1 after every update (see `_eliminate`).
    So no Fraction is made, and the bit sizes stay those of the exact
    Schur complement.
    """
    out = {v: {} for v in P.rot}
    den = dict.fromkeys(P.rot, 1)
    into = {v: set() for v in P.rot}
    for u, w, x in P.edges.values():
        den[u] = lcm(den[u], x.denominator)
        into[w].add(u)
    for e, (u, w, x) in P.edges.items():
        row = out[u]
        row[w] = row.get(w, 0) + sign[e] * x.numerator * (den[u] // x.denominator)
    for u, row in out.items():
        den[u] = _reduce(den[u], row)

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
        for t in _eliminate(v, out, den, into):
            if t in now and now[t] != (c := cost(t)):
                now[t] = c
                heapq.heappush(heap, (c, next(tick), t))
    return {i: (den[i], out[i]) for i in P.sources()}


def _eliminate(v, out, den, into):
    """Remove v from the integer rows of W; returns v's former neighbours.

    With the loop entry l of v's row b / d_v, the pivot is p = d_v - l and
    v's row becomes b / p; each predecessor row a / d_u becomes
    (a_w p + a_v b_w) / (d_u p), reduced.  A zero pivot raises
    ZeroDivisionError.
    """
    succ, pred = out.pop(v), into.pop(v)
    p = den.pop(v) - succ.pop(v, 0)
    if not p:
        raise ZeroDivisionError(f"zero pivot at vertex {v}")
    if p < 0:
        p = -p
        for w in succ:
            succ[w] = -succ[w]
    pred.discard(v)
    for w in succ:
        into[w].discard(v)
    for u in pred:
        row = out[u]
        a = row.pop(v)
        if p > 1:
            for w in row:
                row[w] *= p
        for w, b in succ.items():
            row[w] = row.get(w, 0) + a * b
            into[w].add(u)
        den[u] = _reduce(den[u] * p, row)
    return pred | succ.keys()


def _reduce(d, row):
    """Divide the integer row (in place) and its denominator d > 0 by their
    gcd; returns the new denominator."""
    g = gcd(d, *row.values())
    if g > 1:
        for w in row:
            row[w] //= g
        d //= g
    return d


def _measurements(net, I):
    """M_ij for each source i in I, as a dict sink -> (numerator,
    denominator > 0); some zero entries may be left out.

    Acyclic networks: one path-sum pass per source.  Cyclic ones: one
    Kasteleyn-signed elimination on the split form P of the network, and
    M_ij = eps(P_ij) [(I - W)^-1]_ij for any directed path P_ij from b_i
    to b_j.  M_ij is subtraction-free in the weights, so never negative,
    and M_ij = |[(I - W)^-1]_ij| needs no path.
    """
    order = net.topological_order()
    if order is not None:
        arcs = _integer_arcs(net)
        return {i: _path_sums(arcs, order, i) for i in I}
    P = _split_form(net)
    walks = _signed_walk_sums(P, _kasteleyn_signs(P))
    return {i: {j: (abs(a), walks[i][0]) for j, a in walks[i][1].items()} for i in I}


def boundary_measurement(net, i, j):
    """M_ij, the exact signed walk sum from source b_i to sink b_j."""
    if i not in net.sources():
        raise ValueError(f"b_{i} is not a source")
    if j not in net.sinks():
        raise ValueError(f"b_{j} is not a sink")
    return Fraction(*_measurements(net, [i])[i].get(j, (0, 1)))


def boundary_measurement_matrix(net):
    """The k x n matrix A(N) with A_I = Id and signed measurements elsewhere.

    Row r (for the r-th source i_r) has entry (-1)^s M_{i_r, j} in each sink
    column j, where s counts sources strictly between i_r and j.  Both the
    acyclic and the cyclic route take polynomial time (see `_measurements`).
    A network without sources (k = 0) gives the 0 x n matrix.
    """
    I = sorted(net.sources())
    if not I:
        return RationalMatrix._of_rows((), net.n)
    M = _measurements(net, I)
    left = {j: bisect(I, j) for j in net.sinks()}     # the sources left of j
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * net.n for _ in I]
    for r, ir in enumerate(I):
        rows[r][ir - 1] = one
        for j, q in left.items():
            a, d = M[ir].get(j, (0, 1))
            if a:
                s = q - r - 1 if j > ir else r - q
                rows[r][j - 1] = Fraction(-a if s % 2 else a, d)
    return RationalMatrix._of_rows(tuple(map(tuple, rows)), net.n)


def measure(net):
    """The Plucker vector of the boundary measurement matrix."""
    return plucker_vector(boundary_measurement_matrix(net))


# -- measurement-preserving transformations --------------------------------------


def gauge_transform(net, t):
    """Rescale edge weights by x_e -> x_e * t_tail / t_head.

    t maps internal vertices to positive rationals; boundary vertices are
    implicitly fixed at 1.  Boundary measurements are unchanged.
    """
    t = {v: rational(x) for v, x in t.items()}
    for v, x in t.items():
        if v in net.boundary and x != 1:
            raise ValueError("gauge must fix boundary vertices")
        if x <= 0:
            raise ValueError(f"gauge value at {v} must be positive")

    def tv(v):
        return t.get(v, Fraction(1))

    edges = {e: (u, w, x * tv(u) / tv(w)) for e, (u, w, x) in net.edges.items()}
    return net.replace((), edges=edges)


def is_perfect(net):
    """Each internal vertex has exactly one out-edge or exactly one in-edge,
    and every boundary vertex has degree 1."""
    for i in range(1, net.n + 1):
        if net.degree(i) != 1:
            return False
    for v in net.internal_vertices():
        if len(net.out_edges(v)) != 1 and len(net.in_edges(v)) != 1:
            return False
    return True


def color(net, v):
    """+1 (black) for a unique out-edge, -1 (white) for a unique in-edge."""
    outs, ins = len(net.out_edges(v)), len(net.in_edges(v))
    if outs == 1:
        return 1
    if ins == 1:
        return -1
    raise ValueError(f"vertex {v} has no color (in={ins}, out={outs})")


def switch_orientation(net, H):
    """Reverse the edges of H, inverting their weights.

    H must meet every internal vertex in equally many in- and out-edges
    (so it decomposes into boundary-to-boundary directed paths and closed
    cycles and vertex colors survive).  The measurement point is unchanged
    projectively; boundary flags along reversed paths flip.
    """
    H = set(H)
    for v in net.internal_vertices():
        if sum(1 for e in net.in_edges(v) if e in H) != sum(1 for e in net.out_edges(v) if e in H):
            raise ValueError(f"reversing H changes the color of vertex {v}")
    edges = {}
    for e, (u, w, x) in net.edges.items():
        edges[e] = (w, u, 1 / x) if e in H else (u, w, x)
    flags = list(net.source_flags)
    for i in range(1, net.n + 1):
        touched = [e for e in H if i in (net.tail(e), net.head(e))]
        if len(touched) > 1:
            raise ValueError(f"boundary vertex {i} meets H twice")
        if touched:
            flags[i - 1] = not flags[i - 1]
    rot = {v: tuple((e, 1 - end) if e in H else (e, end) for e, end in ds)
           for v, ds in net.rot.items()}
    return PlanarDirectedNetwork(net.n, flags, edges, rot=rot)


def perfect_and_trivalent(net):
    """Equivalent perfect network with trivalent internal vertices.

    Applies, in order: removal of internal sources/sinks and then of
    components without a boundary vertex, merging of internal degree-2
    vertices, pulling boundary vertices to degree 1, then splitting
    high-degree vertices (same-direction neighbor pull-outs, and blow-up
    of alternating vertices into weight-1 cycles, doubling the weights of
    edges leaving the new cycle).  Boundary measurements are preserved exactly.
    At a vertex v, the dart (e, 0) is an out-edge and (e, 1) an in-edge.
    The pruning and the splits are those of the split form (`_split_form`).
    """
    out = _split_form(net, perfect=True)
    if not is_perfect(out) or any(out.degree(v) != 3 for v in out.internal_vertices()):
        raise AssertionError("perfection pipeline left a bad vertex")
    return out


def _apart(ds):
    """Whether the in-darts of a rotation are not side by side: its darts
    change direction more than twice around it."""
    return sum(a[1] != b[1] for a, b in _cyclic_pairs(ds)) > 2


def _split_form(net, perfect=False):
    """The split form of net, on which the Kasteleyn route measures, or
    with perfect, its perfect trivalent form.

    Both drop internal sources and sinks, cascading, and then the
    components without a boundary vertex.  The split form then splits the
    internal vertices whose in-darts are not side by side, and only those;
    the perfect form merges internal degree-2 vertices, pulls boundary
    vertices to degree 1 and splits every internal vertex of degree > 3.
    A split is a run of pull-outs of two neighbouring darts of one
    direction, then a blow-up once the vertex alternates.  Where no step
    applies, the form is net itself.
    """
    outs, ins = net._arcs
    stack = [v for v in net.rot if v not in net.boundary and (v not in outs or v not in ins)]
    if not (perfect or stack or net.isolated_components()
            or any(_apart(ds) for v, ds in net.rot.items() if v not in net.boundary)):
        return net
    edges = dict(net.edges)
    rot = dict(net.rot)
    flags = net.source_flags
    ids = fresh_ids(rot, edges)
    next(ids)  # the first fresh id is skipped; the output's ids depend on it
    new_id = ids.__next__
    changed = set()

    def drop_vertex(v):
        changed.add(v)
        for e, end in rot.pop(v):
            if e in edges:              # a loop lists e twice
                u = edges.pop(e)[1 - end]
                if u != v:
                    rot[u] = [d for d in rot[u] if d[0] != e]
                    changed.add(u)

    # cascade removal of internal sources and sinks
    while stack:
        v = stack.pop()
        if v in rot and v not in net.boundary and {end for _, end in rot[v]} != {0, 1}:
            stack += [edges[e][1 - end] for e, end in rot[v]]
            drop_vertex(v)

    # components without a boundary vertex, the vertices that no search
    # from the boundary reaches, never touch a boundary path; a cycle can
    # lose its last boundary contact in the cascade above, and if that dropped
    # nothing, only an isolated component of the network holds such vertices
    if changed or net.isolated_components():
        reached = _reach(set(net.boundary), rot, edges)
        for v in [v for v in rot if v not in reached]:
            drop_vertex(v)

    if perfect:
        # merge internal degree-2 vertices, one in-dart and one out-dart of two edges
        # after the pruning; a merge keeps every degree, so one pass finds them all
        for v in [v for v in rot if v not in net.boundary and len(rot[v]) == 2]:
            rot[v] = sorted(rot[v], key=lambda d: -d[1])    # the in-dart first, so the glue runs forward
            x = prod(edges[e][2] for e, _ in rot[v])
            e = new_id()
            a, b, _ = _glue(rot, edges, v, e)
            edges[e] += (x,)
            changed.update((v, a, b))

        # boundary vertices of degree != 1
        for i in [i for i in net.boundary if len(rot[i]) != 1]:
            vp = new_id()
            eb = new_id()
            src = flags[i - 1]
            edges[eb] = (i, vp, Fraction(1)) if src else (vp, i, Fraction(1))
            bdart = (eb, 1) if src else (eb, 0)
            if not rot[i]:
                lp = new_id()
                edges[lp] = (vp, vp, Fraction(1))
                rot[vp] = [bdart, (lp, 0), (lp, 1)]
            else:
                _reanchor(edges, rot[i], vp)
                rot[vp] = [bdart, *rot[i]]
            rot[i] = [(eb, 0) if src else (eb, 1)]
            changed.update((i, vp))

    # split, one pull-out per vertex per pass; the vertices a split makes
    # have degree 3, so none of them needs one
    splits = (lambda ds: len(ds) > 3) if perfect else _apart
    todo = [v for v in rot if v not in net.boundary and splits(rot[v])]
    while todo:
        for v in todo:
            ds = rot[v]
            d = len(ds)
            idx = next((t for t in range(d) if ds[t][1] == ds[(t + 1) % d][1]), None)
            if idx is not None:
                # two neighbouring darts of one direction move out to vp
                d1, d2, *keep = ds[idx:] + ds[:idx]
                out = 1 - d1[1]
                vp = new_id()
                ep = new_id()
                edges[ep] = (v, vp, Fraction(1)) if out else (vp, v, Fraction(1))
                _reanchor(edges, (d1, d2), vp)
                rot[vp] = [(ep, out), d1, d2]
                rot[v] = [(ep, 1 - out)] + keep
                changed.update((v, vp))
                continue
            # perfectly alternating vertex: blow up into a clockwise cycle
            cyc_v = [new_id() for _ in range(d)]
            cyc_e = [new_id() for _ in range(d)]
            for t in range(d):
                edges[cyc_e[t]] = (cyc_v[t], cyc_v[(t + 1) % d], Fraction(1))
            for t, (e, end) in enumerate(ds):
                if end == 0:
                    a, b, x = edges[e]
                    edges[e] = (a, b, 2 * x)
                _reanchor(edges, [(e, end)], cyc_v[t])
                rot[cyc_v[t]] = [(e, end), (cyc_e[t], 0), (cyc_e[(t - 1) % d], 1)]
            del rot[v]
            changed.add(v)
            changed.update(cyc_v)
        todo = [v for v in todo if v in rot and splits(rot[v])]

    if not changed:
        return net
    rot = {v: tuple(ds) for v, ds in rot.items()}
    return net.replace(changed, edges=edges, rot=rot)
