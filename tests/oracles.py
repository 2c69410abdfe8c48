"""Exhaustive oracles for the plabic matroid, kept out of the library.

`perfect_orientations` lists every perfect orientation by backtracking and
`path_matroid` finds the bases reachable from one orientation by searching
families of vertex-disjoint paths.  Both are exponential; the tests use
them to cross-check `plabic.perfect_orientation` and `plabic.matroid`.
"""

from itertools import combinations

from positroid.exactmath import Matroid
from positroid.permutations import BLACK
from positroid.plabic import orientation_sources


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
