"""Planar directed networks in a disk and their boundary measurements.

A network carries positive rational edge weights and a rotation-system
embedding (see planarmaps).  Boundary vertices are the integers 1..n in
clockwise order; every one of them is flagged as a source or a sink, even
when isolated.  Internal vertices are any other integer ids.

The boundary measurement M_ij sums over all directed walks from b_i to
b_j, each weighted by its edge-weight product and signed by the parity of
its winding index.  The walk sum is evaluated in closed form: every walk
decomposes uniquely into a self-avoiding path with closed excursions at
its vertices, each avoiding the earlier path vertices, and the signed
excursion sums collapse to

    M_ij = sum over self-avoiding paths P of
           x_P / prod over vertices v_j of P of D(v_j, earlier vertices),

where D(v, F) = 1 + sum over simple cycles C at v avoiding F of x_C
divided by the D-values of the intermediate cycle vertices (with v and
the earlier cycle vertices added to F).  The recursive denominators
account for cycles nested inside inserted cycles; the truncated formal
series cross-check pins this down coefficientwise.

All arithmetic is exact rational.
"""

from fractions import Fraction
from itertools import combinations, permutations

from .exactmath import RationalMatrix, format_rational, plucker_vector, rational
from .permutations import _alignment_cond, _crossing_cond
from .planarmaps import _DiskGraph, components, fresh_ids, parse_disk_text


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
        self.edges = {e: (u, w, rational(x)) for e, (u, w, x) in edges.items()}
        shape = {e: (u, w) for e, (u, w, _) in self.edges.items()}
        super().__init__(n, shape, set(range(1, n + 1)), rot_ids, rot)
        self._validate()
        self._out = {}
        self._in = {}
        for e, (u, w, x) in self.edges.items():
            self._out.setdefault(u, []).append(e)
            self._in.setdefault(w, []).append(e)

    def _validate(self):
        for e, (u, w, x) in self.edges.items():
            if x <= 0:
                raise ValueError(f"edge {e} has nonpositive weight {x}")
        for i in self.boundary:
            for e, (u, w, _) in self.edges.items():
                if u == w and u == i:
                    raise ValueError(f"loop at boundary vertex {i}")
                if self.source_flags[i - 1] and w == i:
                    raise ValueError(f"source b_{i} has incoming edge {e}")
                if not self.source_flags[i - 1] and u == i:
                    raise ValueError(f"sink b_{i} has outgoing edge {e}")

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
        return self._out.get(v, [])

    def in_edges(self, v):
        return self._in.get(v, [])

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
        lines = [f"n {self.n}", "sources " + " ".join(str(i) for i in sorted(self.sources()))]
        for v in sorted(self.rot, key=lambda x: (isinstance(x, str), x)):
            if len(self.rot[v]) <= 1 and v in self.boundary:
                continue
            kind = "boundary" if v in self.boundary else "internal"
            ids = " ".join(str(e) for e, _ in self.rot[v])
            lines.append(f"vertex {v} {kind} : {ids}")
        for e in sorted(self.edges):
            u, w, x = self.edges[e]
            lines.append(f"edge {e} : {u} {w} {format_rational(x)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        sources = []

        def other(toks):
            if toks[0] != "sources":
                raise ValueError("unrecognized line")
            sources[:] = [int(t) for t in toks[1:]]

        def weight(toks):
            if len(toks) != 1:
                raise ValueError("expected 'edge e : u w weight'")
            return (rational(toks[0]),)

        n, _, rot_ids, edges = parse_disk_text(text, "network", _at_most_one, weight, other)
        if any(i not in range(1, n + 1) for i in sources):
            raise ValueError(f"sources {sources} are not all boundary vertices 1..{n}")
        return cls(n, [i in sources for i in range(1, n + 1)], edges, rot_ids=rot_ids)


def _at_most_one(labels):
    if len(labels) > 1:
        raise ValueError("expected 'vertex v [kind] : edge ids'")


# -- walks and winding ---------------------------------------------------------


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
        wind += net.map.cycle_orientation(eids[j:i])
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


def boundary_measurement(net, i, j):
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


def _path_sums(net, order, src):
    """Weighted path counts from src to every vertex of an acyclic network.

    One pass over a topological order: with no cycles there are no winding
    signs and no excursion denominators, so M_ij is the plain path sum.
    """
    total = {src: Fraction(1)}
    for v in order:
        x = total.get(v)
        if x is None:
            continue
        for e in net.out_edges(v):
            w = net.head(e)
            total[w] = total.get(w, 0) + x * net.weight(e)
    return total


def boundary_measurement_matrix(net):
    """The k x n matrix A(N) with A_I = Id and signed measurements elsewhere.

    Row r (for the r-th source i_r) has entry (-1)^s M_{i_r, j} in each sink
    column j, where s counts sources strictly between i_r and j.  Acyclic
    networks take one path-sum pass per source, in polynomial time; cyclic
    ones sum each entry with the exhaustive `boundary_measurement`.
    """
    I = sorted(net.sources())
    if not I:
        raise ValueError("network has no sources")
    k = len(I)
    order = net.topological_order()
    rows = [[Fraction(0)] * net.n for _ in range(k)]
    for r, ir in enumerate(I):
        rows[r][ir - 1] = Fraction(1)
        reach = None if order is None else _path_sums(net, order, ir)
        for j in sorted(net.sinks()):
            lo, hi = min(ir, j), max(ir, j)
            s = sum(1 for x in I if lo < x < hi)
            m = boundary_measurement(net, ir, j) if reach is None else reach.get(j, 0)
            rows[r][j - 1] = (-1) ** s * m
    return RationalMatrix(rows)


def measure(net):
    """The Plucker vector of the boundary measurement matrix."""
    return plucker_vector(boundary_measurement_matrix(net))


# -- the general loop-erased minor formula ---------------------------------------


def chord_class(n, a, pa, b, pb):
    """Mutual position of directed chords a->pa and b->pb on the circle.

    All four endpoints must be distinct.  Returns 'crossing', 'alignment'
    or 'misalignment'.
    """
    if len({a, pa, b, pb}) != 4:
        raise ValueError("chord endpoints must be distinct")
    if _crossing_cond(n, a, pa, b, pb) or _crossing_cond(n, b, pb, a, pa):
        return "crossing"
    if _alignment_cond(n, a, pa, b, pb) or _alignment_cond(n, b, pb, a, pa):
        return "alignment"
    return "misalignment"


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
            term *= boundary_measurement(net, a, pi[a])
        total += (-1) ** xing * term
    return total


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
    return net.replace(edges=edges)


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

    Applies, in order: removal of isolated components and of internal
    sources/sinks, merging of internal degree-2 vertices, pulling boundary
    vertices to degree 1, then splitting high-degree vertices (same-
    direction neighbor pull-outs, and blow-up of alternating vertices
    into weight-1 cycles, doubling the weights of edges leaving the new
    cycle).  Boundary measurements are preserved exactly.
    """
    edges = dict(net.edges)
    rot = {v: list(ds) for v, ds in net.rot.items()}
    flags = net.source_flags
    n = net.n
    ids = fresh_ids(rot, edges)
    next(ids)  # the first fresh id is skipped; the output's ids depend on it
    new_id = ids.__next__

    def drop_vertex(v):
        for e in [e for e, (a, b, _) in edges.items() if v in (a, b)]:
            a, b, _ = edges.pop(e)
            for u in {a, b}:
                rot[u] = [d for d in rot[u] if d[0] != e]
        del rot[v]

    # isolated components never touch a boundary path
    seen = set()
    for comp in components(rot, [(a, b) for a, b, _ in edges.values()]):
        if any(v in net.boundary for v in comp):
            seen |= comp
    for v in [v for v in rot if v not in seen]:
        drop_vertex(v)

    # cascade removal of internal sources and sinks
    changed = True
    while changed:
        changed = False
        for v in list(rot):
            if v in net.boundary or v not in rot:
                continue
            outs = [e for e, (a, b, _) in edges.items() if a == v]
            ins = [e for e, (a, b, _) in edges.items() if b == v]
            if not outs or not ins:
                drop_vertex(v)
                changed = True

    # merge internal degree-2 vertices
    changed = True
    while changed:
        changed = False
        for v in list(rot):
            if v in net.boundary or v not in rot or len(rot[v]) != 2:
                continue
            ins = [e for e, (a, b, _) in edges.items() if b == v]
            outs = [e for e, (a, b, _) in edges.items() if a == v]
            if len(ins) != 1 or len(outs) != 1 or ins[0] == outs[0]:
                continue
            e1, e2 = ins[0], outs[0]
            u, _, x1 = edges[e1]
            _, w, x2 = edges[e2]
            e = new_id()
            edges[e] = (u, w, x1 * x2)
            rot[u] = [(e, 0) if d == (e1, 0) else d for d in rot[u]]
            rot[w] = [(e, 1) if d == (e2, 1) else d for d in rot[w]]
            del edges[e1], edges[e2], rot[v]
            changed = True

    # boundary vertices of degree != 1
    for i in range(1, n + 1):
        deg = len(rot[i])
        if deg == 1:
            continue
        vp = new_id()
        eb = new_id()
        src = flags[i - 1]
        edges[eb] = (i, vp, Fraction(1)) if src else (vp, i, Fraction(1))
        bdart = (eb, 1) if src else (eb, 0)
        if deg == 0:
            lp = new_id()
            edges[lp] = (vp, vp, Fraction(1))
            rot[vp] = [bdart, (lp, 0), (lp, 1)]
        else:
            moved = []
            for e, end in rot[i]:
                a, b, x = edges[e]
                edges[e] = (vp if a == i else a, vp if b == i else b, x)
                moved.append((e, end))
            rot[vp] = [bdart] + moved
        rot[i] = [(eb, 0) if src else (eb, 1)]

    # split internal vertices of degree > 3
    work = True
    while work:
        work = False
        for v in list(rot):
            if v in net.boundary or v not in rot or len(rot[v]) <= 3:
                continue
            ds = rot[v]
            d = len(ds)

            def outgoing(dart):
                e, end = dart
                return edges[e][0] == v and end == 0

            pulled = False
            for idx in range(d):
                d1, d2 = ds[idx], ds[(idx + 1) % d]
                if outgoing(d1) != outgoing(d2):
                    continue
                vp = new_id()
                ep = new_id()
                out = outgoing(d1)
                edges[ep] = (v, vp, Fraction(1)) if out else (vp, v, Fraction(1))
                for dd in (d1, d2):
                    e, end = dd
                    a, b, x = edges[e]
                    edges[e] = (vp if (end == 0) else a, vp if (end == 1) else b, x)
                    if end == 0 and a != v or end == 1 and b != v:
                        raise AssertionError("dart bookkeeping")
                rot[vp] = [(ep, 1 if out else 0), d1, d2]
                keep = [ds[(idx + 2 + t) % d] for t in range(d - 2)]
                rot[v] = [(ep, 0 if out else 1)] + keep
                pulled = True
                work = True
                break
            if pulled:
                continue
            # perfectly alternating vertex: blow up into a clockwise cycle
            cyc_v = [new_id() for _ in range(d)]
            cyc_e = [new_id() for _ in range(d)]
            for t in range(d):
                edges[cyc_e[t]] = (cyc_v[t], cyc_v[(t + 1) % d], Fraction(1))
            for t, (e, end) in enumerate(ds):
                a, b, x = edges[e]
                if outgoing((e, end)):
                    x = 2 * x
                edges[e] = (cyc_v[t] if end == 0 else a, cyc_v[t] if end == 1 else b, x)
                rot[cyc_v[t]] = [(e, end), (cyc_e[t], 0), (cyc_e[(t - 1) % d], 1)]
            del rot[v]
            work = True

    out = PlanarDirectedNetwork(n, flags, edges, rot={v: tuple(ds) for v, ds in rot.items()})
    if not is_perfect(out) or any(out.degree(v) != 3 for v in out.internal_vertices()):
        raise AssertionError("perfection pipeline left a bad vertex")
    return out


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
