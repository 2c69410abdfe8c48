"""Shared generators for the test suite.

Random planar directed networks are built on an integer grid: vertices
sit at lattice points, edges join axis-aligned neighbors (so straight-
line drawings never cross), boundary vertices are chosen along the
perimeter in clockwise order, and rotations are computed from the
coordinates.  Geometry lives only here; the library itself stays purely
combinatorial.
"""

import random
from fractions import Fraction

from positroid.network import PlanarDirectedNetwork
from positroid.planarmaps import rotations_from_coordinates
from positroid.plabic import PlabicGraph, PlabicNetwork, face_weight_keys


def random_rational(rng, lo=1, hi=40):
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def grid_perimeter(w, h):
    """Perimeter lattice points of [0,w] x [0,h] in clockwise order."""
    top = [(x, h) for x in range(w + 1)]
    right = [(w, y) for y in range(h - 1, -1, -1)]
    bottom = [(x, 0) for x in range(w - 1, -1, -1)]
    left = [(0, y) for y in range(1, h)]
    return top + right + bottom + left


def random_grid_network(rng, n=4, w=3, h=3, keep=0.75, max_internal=12,
                        require_cycle=False, tries=400):
    """A random planar directed network with n boundary vertices.

    Edges are a random subset of the grid edges with random orientations
    and weights; boundary flags are random, with incident edges forced to
    match.  Returns None if no valid network is found.
    """
    for _ in range(tries):
        pts = [(x, y) for x in range(w + 1) for y in range(h + 1)]
        perim = grid_perimeter(w, h)
        start = rng.randrange(len(perim))
        order = perim[start:] + perim[:start]
        bpts = sorted(rng.sample(range(len(order)), n))
        boundary_pts = [order[i] for i in bpts]
        interior = [p for p in pts if p not in boundary_pts]
        rng.shuffle(interior)
        drop = set(interior[max_internal:]) if len(interior) > max_internal else set()
        alive = [p for p in pts if p not in drop]
        index = {p: i + 1 for i, p in enumerate(boundary_pts)}
        nid = n
        for p in alive:
            if p not in index:
                nid += 1
                index[p] = nid
        flags = [rng.random() < 0.5 for _ in range(n)]
        edges = {}
        eid = 0
        for (x, y) in alive:
            for q in ((x + 1, y), (x, y + 1)):
                if q in drop or q not in index:
                    continue
                if rng.random() > keep:
                    continue
                a, b = index[(x, y)], index[q]
                if rng.random() < 0.5:
                    a, b = b, a
                for v in (a, b):
                    if v <= n:
                        want_tail = flags[v - 1]
                        if (v == a) != want_tail:
                            a, b = b, a
                if a <= n and b <= n and not (flags[a - 1] and not flags[b - 1]):
                    continue  # boundary-to-boundary edge with incompatible flags
                eid += 1
                edges[eid] = (a, b, random_rational(rng))
        # drop edges that violate a boundary flag after the flip dance
        bad = [e for e, (a, b, _) in edges.items()
               if (a <= n and not flags[a - 1]) or (b <= n and flags[b - 1])]
        for e in bad:
            del edges[e]
        pos = {index[p]: p for p in alive}
        shape = {e: (a, b) for e, (a, b, _) in edges.items()}
        try:
            rot = rotations_from_coordinates(shape, pos)
            for v in index.values():
                rot.setdefault(v, ())
            net = PlanarDirectedNetwork(n, flags, edges, rot=rot)
        except (ValueError, ZeroDivisionError):
            continue
        if not net.sources() or not net.sinks():
            continue
        if require_cycle and net.is_acyclic():
            continue
        return net
    return None


def manhattan_grid(rng, L, M, east, north):
    """Weighted Manhattan street grid: L east-west streets, M north-south avenues.

    Street i runs east when east[i - 1], avenue j north when north[j - 1];
    both ends of every street are boundary vertices (n = 2(L + M)), and
    every crossing has its two in-edges side by side, so no vertex
    alternates.  Weights are a/b with 1 <= a, b <= 9.
    """
    n = 2 * (L + M)
    ends = ([(j, L + 1) for j in range(1, M + 1)] + [(M + 1, i) for i in range(L, 0, -1)]
            + [(j, 0) for j in range(M, 0, -1)] + [(0, i) for i in range(1, L + 1)])
    vid = {p: b for b, p in enumerate(ends, start=1)}
    for i in range(1, L + 1):
        for j in range(1, M + 1):
            vid[(j, i)] = n + (i - 1) * M + j
    lines = [[(x, i) for x in range(M + 2)][::1 if east[i - 1] else -1] for i in range(1, L + 1)]
    lines += [[(j, y) for y in range(L + 2)][::1 if north[j - 1] else -1] for j in range(1, M + 1)]
    edges = {}
    for line in lines:
        for a, b in zip(line, line[1:]):
            edges[len(edges) + 1] = (vid[a], vid[b], random_rational(rng, 1, 9))
    flags = [False] * n
    for line in lines:
        flags[vid[line[0]] - 1] = True
    shape = {e: (u, w) for e, (u, w, _) in edges.items()}
    rot = rotations_from_coordinates(shape, {v: p for p, v in vid.items()})
    return PlanarDirectedNetwork(n, flags, edges, rot=rot)


def has_alternating_vertex(net):
    """Some vertex has its in-edges apart in the rotation (in, out, in, out)."""
    for v, ds in net.rot.items():
        ins = [end == 1 for _, end in ds]
        if sum(a != b for a, b in zip(ins, ins[1:] + ins[:1])) > 2:
            return True
    return False


def reweight(G, rng, special=None):
    """Random positive face weights with product 1 (tree orbits forced 1)."""
    keys = sorted(face_weight_keys(G))
    weights = dict(special or {})
    for comp in G.isolated_components():
        comp_edges = [e for e, (u, w) in G.edges.items() if u in comp]
        if comp_edges:
            weights[min((e, end) for e in comp_edges for end in (0, 1))] = Fraction(1)
    free = [k for k in keys if k not in weights]
    prod = Fraction(1)
    for v in weights.values():
        prod *= v
    for k in free[:-1]:
        weights[k] = random_rational(rng, 1, 8)
        prod *= weights[k]
    weights[free[-1]] = 1 / prod
    return PlabicNetwork(G, weights)


def random_le_data(rng, k, n):
    from positroid.exactmath import partitions_in_box
    from positroid.lediagram import LeDiagram, le_fills, diagram_to_tableau
    shapes = list(partitions_in_box(k, n - k))
    lam = rng.choice(shapes)
    fills = list(le_fills(tuple(lam) + (0,) * (k - len(lam))))
    D = LeDiagram(k, n, lam, rng.choice(fills))
    vals = {b: random_rational(rng, 1, 30) for b in D.boxes()}
    return D, diagram_to_tableau(D, vals)


def random_plabic_network(rng, nmax=5, scrambles=6):
    """A random perfectly orientable plabic network, scrambled by moves."""
    from positroid.plabic import apply_move, square_faces
    from positroid.permutations import BLACK, WHITE
    from positroid.plabic import network_from_le
    n = rng.randint(2, nmax)
    k = rng.randint(0, n)
    _, T = random_le_data(rng, k, n)
    N = network_from_le(T)
    N = reweight(N.graph, rng)
    for _ in range(scrambles):
        G = N.graph
        choices = [("M1", key) for key in square_faces(G)]
        choices += [("M3", e, rng.choice([BLACK, WHITE])) for e in sorted(G.edges)]
        choices += [("M3r", v) for v in G.internal_vertices()
                    if G.degree(v) == 2 and len({e for e, _ in G.rot[v]}) == 2]
        choices += [("M2", e) for e, (u, w) in sorted(G.edges.items())
                    if u != w and G.col.get(u) is not None and G.col.get(u) == G.col.get(w)]
        for v in sorted(G.internal_vertices(), key=str):
            d = G.degree(v)
            if d >= 2:
                i = rng.randrange(d)
                j = (i + rng.randrange(1, d)) % d
                choices.append(("M2u", v, i, j))
        if not choices:
            break
        mv = rng.choice(choices)
        try:
            N = apply_move(N, mv)
        except (ValueError, AssertionError):
            continue
    return N


def attach_leaf(G, v, colr, pos=0):
    """Structural surgery for building R2 test sites."""
    nid = max([G.n] + [x for x in G.rot if isinstance(x, int)]) + 1
    eid = max(G.edges, default=0) + 1
    edges = dict(G.edges)
    edges[eid] = (v, nid)
    rot = dict(G.rot)
    ds = list(rot[v])
    ds.insert(pos % (len(ds) + 1), (eid, 0))
    rot[v] = tuple(ds)
    rot[nid] = ((eid, 1),)
    col = dict(G.col)
    col[nid] = colr
    return PlabicGraph(G.n, col, edges, rot=rot), nid


def insert_bigon(G, e, rng):
    """Replace edge e by a path with a parallel bigon in the middle (R1 site)."""
    from positroid.permutations import BLACK, WHITE
    u, w = G.edges[e]
    nid = max([G.n] + [x for x in G.rot if isinstance(x, int)]) + 1
    m1, m2 = nid, nid + 1
    base = max(G.edges) + 1
    ea, ep, eq, eb = base, base + 1, base + 2, base + 3
    edges = {f: ab for f, ab in G.edges.items() if f != e}
    edges[ea] = (u, m1)
    edges[ep] = (m1, m2)
    edges[eq] = (m1, m2)
    edges[eb] = (m2, w)
    rot = {}
    for v, ds in G.rot.items():
        new = []
        for dart in ds:
            if dart == (e, 0):
                new.append((ea, 0))
            elif dart == (e, 1):
                new.append((eb, 1))
            else:
                new.append(dart)
        rot[v] = tuple(new)
    rot[m1] = ((ea, 1), (ep, 0), (eq, 0))
    rot[m2] = ((eb, 0), (eq, 1), (ep, 1))
    col = dict(G.col)
    col[m1] = rng.choice([BLACK, WHITE])
    col[m2] = -col[m1]
    return PlabicGraph(G.n, col, edges, rot=rot), (ep, eq)


def random_decorated_permutation(rng, n):
    from positroid.permutations import BLACK, WHITE, DecoratedPermutation
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    fixed = [i for i in perm if perm[i - 1] == i]
    return DecoratedPermutation(perm, {i: rng.choice([BLACK, WHITE]) for i in fixed})


def _middle_vertex(G, dart, colr, chord):
    """M3 on the dart's edge, leaving room for the chord's dart at the new vertex.

    Returns the new graph, the middle vertex m, and m's rotation with the
    chord's dart on the dart's left: the face on the left of the dart then
    turns into the chord at m.
    """
    from positroid.plabic import apply_move
    H = apply_move(G, ("M3", dart[0], colr))
    (m,) = set(H.rot) - set(G.rot)
    first, second = H.rot[m]        # towards the edge's tail, towards its head
    return H, m, (first, chord, second) if dart[1] == 0 else (first, second, chord)


def chord_graph(rng, n, chords):
    """graph_from_perm of a random cell of n, with chords drawn across faces.

    Each chord joins middle vertices (M3, random colours) put on two
    distinct edges of one face.  Chords make round trips, bad double
    crossings, bigons, loops (once unicolored edges are contracted) and
    vertices of high degree, which reduce_graph must undo.
    """
    from oracles import successor_faces
    from positroid.permutations import BLACK, WHITE
    from positroid.plabic import graph_from_perm
    G = graph_from_perm(random_decorated_permutation(rng, n))
    for _ in range(chords):
        # the inner faces in successor_faces order, which fixes the corpus:
        # plabic.faces(G) is in no fixed order
        inner = [tuple(d for d in f if d[0] >= 0)
                 for f in successor_faces(G.map) if (~0, 0) not in f]
        face = rng.choice([f for f in inner if len({e for e, _ in f}) >= 2])
        d1 = rng.choice(face)
        d2 = rng.choice([d for d in face if d[0] != d1[0]])
        c = max(G.edges) + 5        # above the four edge ids the two M3 take
        H, m1, r1 = _middle_vertex(G, d1, rng.choice([BLACK, WHITE]), (c, 0))
        H, m2, r2 = _middle_vertex(H, d2, rng.choice([BLACK, WHITE]), (c, 1))
        G = PlabicGraph(n, H.col, {**H.edges, c: (m1, m2)}, rot={**H.rot, m1: r1, m2: r2})
    return G
