import copy
import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from helpers import (attach_leaf, chord_graph, insert_bigon, manhattan_grid, random_decorated_permutation,
                     random_le_data, random_plabic_network, random_rational, reweight)
from oracles import (canonical, check_faces, components, delete_edge, glue_bends_stepwise,
                     le_network, minimal_permutation, necklace_from_matroid, path_matroid,
                     perfect_gamma, perfect_orientations, planar_by_components,
                     reduce_one_r1_at_a_time, removable_edges, singletons)
from positroid import plabic, planarmaps
from positroid.exactmath import matroid_of_plucker, partitions_in_box
from positroid.lediagram import LeDiagram, diagram_to_tableau, le_fills, meas_D
from positroid.network import PlanarDirectedNetwork, measure
from positroid.planarmaps import DiskMap, _DiskGraph, _cyclic_pairs
from positroid.permutations import (BLACK, WHITE, DecoratedPermutation, covers, rank,
                                    le_from_perm, all_decorated_permutations,
                                    perm_from_necklace, rank, top_permutation)
from positroid.plabic import (REDUCE_ROWS, NotPerfectlyOrientable, PlabicGraph, PlabicNetwork,
                              _graph_of, _key_left_of, _reduce_directly, _transfer_weights, apply_move,
                              apply_reduction, apply_site, bigon_faces, contracted,
                              edge_weights_from_faces, export_dot, face_key,
                              face_weight_keys, face_weights, faces, glue_bends,
                              graph_from_le, graph_from_perm, is_reduced,
                              matroid, measure_plabic, necklace, network_from_le,
                              parallel_pairs, perfect_orientation, reduce_graph,
                              reducedness_certificate, square_faces, trip_permutation, trips)

rng = random.Random(31337)


def bridge_graph():
    """A single edge straight across the disk: b1 - u(W) - v(B) - b2."""
    col = {10: WHITE, 11: BLACK}
    edges = {1: (1, 10), 2: (10, 11), 3: (11, 2)}
    return PlabicGraph(2, col, edges)


def test_faces_single_chord():
    G = bridge_graph()
    fs = faces(G)
    assert len(fs) == 2  # the chord splits the disk in two


def test_euler_identity():
    for _ in range(10):
        N = random_plabic_network(rng, nmax=5, scrambles=3)
        G = N.graph
        V = len(G.internal_vertices()) + G.n
        E = len(G.edges)
        F = len(faces(G))
        c = len(G.isolated_components())
        # the paper counts only internal vertices
        assert len(G.internal_vertices()) - E + F == 1 + c


def test_le_graph_face_count_is_dimension():
    for k, n in [(2, 4), (2, 5), (3, 5)]:
        for lam in partitions_in_box(k, n - k):
            full = tuple(lam) + (0,) * (k - len(lam))
            for fill in le_fills(full):
                D = LeDiagram(k, n, full, fill)
                G = graph_from_le(D)
                assert len(faces(G)) - 1 == D.size()


def test_face_weights_unit_edges():
    D = LeDiagram(2, 4, (2, 2), [(1, 1), (1, 1)])
    T = diagram_to_tableau(D)  # all entries 1
    N = network_from_le(T)
    assert all(v == 1 for v in N.weights.values())


def test_face_weights_pattern_example():
    """A region bounded by six edges with a bridge inside and a hole.

    Geometrically the region's weight is the product of its boundary-walk
    orbit and the hole component's walk: the six hexagon edges contribute
    x1 x2^-1 x3^-1 x4^-1 x5^-1 x6 (two agree with the clockwise exterior,
    four disagree), the bridge cancels as x7 x7^-1, and the hole's walk
    gives x8^-1 (x9^-1 x9).
    """
    from math import cos, sin, pi as PI
    from positroid.planarmaps import rotations_from_coordinates
    vals = {e: Fraction(p) for e, p in
            zip(range(1, 11), (2, 3, 5, 7, 11, 13, 17, 19, 23, 1))}
    # hexagon 20..25 clockwise, bridge to 26 inside, pendant tie to b1
    hexpos = {20 + i: (cos(PI / 2 - i * PI / 3), sin(PI / 2 - i * PI / 3))
              for i in range(6)}
    pos = {**hexpos, 26: (0.05, 0.15), 1: (0.0, 3.0)}
    shape = {
        1: (20, 21), 2: (22, 21), 3: (23, 22), 4: (24, 23), 5: (25, 24),
        6: (25, 20), 7: (21, 26), 10: (20, 1),
    }
    rot = rotations_from_coordinates(shape, pos)
    col = {v: (BLACK if v % 2 else WHITE) for v in (20, 21, 22, 23, 24, 25, 26)}
    # the hole: loop 8 at 27 with pendant 9 to 28, rotations by hand
    shape[8] = (27, 27)
    shape[9] = (27, 28)
    rot[27] = ((9, 0), (8, 0), (8, 1))
    rot[28] = ((9, 1),)
    col[27] = BLACK
    col[28] = WHITE
    G = PlabicGraph(1, col, shape, rot=rot)
    fd = faces(G)
    inner = next(darts for darts in fd if any(e == 7 for e, _ in darts))
    hole_walk = next(darts for darts in fd
                     if {e for e, _ in darts} == {8, 9} and len(darts) == 3)

    def weight(darts):
        y = Fraction(1)
        for e, end in darts:
            y *= vals[e] if end == 1 else 1 / vals[e]
        return y

    region = weight(inner) * weight(hole_walk)
    hexpart = vals[1] * vals[6] / (vals[2] * vals[3] * vals[4] * vals[5])
    assert region in (hexpart / vals[8], hexpart * vals[8])
    # the loop's two sides give the lens x8 and the walk x8^-1; the walk
    # side (counterclockwise around the hole) is the one in the region
    assert region == hexpart / vals[8]


def test_face_weights_gauge_invariant():
    from positroid.network import gauge_transform, is_perfect
    from positroid.lediagram import gamma_network
    for _ in range(6):
        D, T = random_le_data(rng, 2, 5)
        net = perfect_gamma(gamma_network(T))
        assert is_perfect(net)
        N1 = face_weights(net)
        t = {v: random_rational(rng, 1, 9) for v in net.internal_vertices()}
        N2 = face_weights(gauge_transform(net, t))
        assert N1.weights == N2.weights


def test_le_graph_matches_three_map_route():
    # same vertex and edge ids, colours and rotations as the long route; in
    # the n = 10 cell the crossings split in an order other than by id
    from positroid.lediagram import diagram_to_tableau
    cells = [pi for n in range(7) for pi in all_decorated_permutations(n)]
    for pi in cells + [DecoratedPermutation.parse("5 1 4 3 9 2 6 7 10 8")]:
        assert graph_from_perm(pi).to_text() == \
            le_network(diagram_to_tableau(le_from_perm(pi))).graph.to_text()


def test_perm2graph_text_is_pinned():
    """`perm2graph` prints graph_from_perm(pi).to_text(), ids included, and
    no other check fixes those ids: hash the texts of all 2,372 decorated
    permutations with n <= 6, concatenated."""
    h, cells = hashlib.sha256(), 0
    for n in range(7):
        for pi in all_decorated_permutations(n):
            h.update(graph_from_perm(pi).to_text().encode())
            cells += 1
    assert cells == 2372
    assert h.hexdigest() == "ee43a440fd02ba39d45f69696458dfc6eceaa5bb6f793fe3c07d5b354f45b5a0"


def test_le_network_matches_three_map_route():
    wrng = random.Random(2024)
    for n in range(1, 9):
        for k in range(n + 1):
            for _ in range(3):
                _, T = random_le_data(wrng, k, n)
                N, oracle = network_from_le(T), le_network(T)
                assert N.graph.to_text() == oracle.graph.to_text()
                assert N.weights == oracle.weights


def test_graph_from_le_builds_one_map(monkeypatch):
    built = []
    init = _DiskGraph.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(_DiskGraph, "__init__", counted)
    D = le_from_perm(top_permutation(3, 6))
    G = graph_from_le(D)
    assert built == ["PlabicGraph"]
    # the graph passes the full validation again when read back from its text
    assert PlabicGraph.from_text(G.to_text()).to_text() == G.to_text()


def test_face_weights_product_one():
    for _ in range(8):
        N = random_plabic_network(rng, nmax=5, scrambles=4)
        prod = Fraction(1)
        for v in N.weights.values():
            prod *= v
        assert prod == 1


def test_edge_weights_round_trip():
    from oracles import weights_by_travel
    for _ in range(8):
        N = random_plabic_network(rng, nmax=5, scrambles=2)
        for orient in perfect_orientations(N.graph)[:3]:
            net = edge_weights_from_faces(N, orient)
            back = face_weights(net)
            assert weights_by_travel(back) == weights_by_travel(N)


def test_edge_weights_round_trip_with_isolated_dipoles():
    # each dipole's walk is a part of the dual graph of its own, whose one
    # face fixes no edge and keeps weight 1
    from oracles import weights_by_travel
    for _ in range(8):
        G = random_plabic_network(rng, nmax=5, scrambles=2).graph
        col, edges, rot = dict(G.col), dict(G.edges), dict(G.rot)
        top = max([G.n, *G.rot, *G.edges])
        for b, w in ((top + 1, top + 2), (top + 3, top + 4)):
            col[b], col[w] = BLACK, WHITE
            edges[b] = (b, w)
            rot[b], rot[w] = ((b, 0),), ((b, 1),)
        N = reweight(PlabicGraph(G.n, col, edges, rot=rot), rng)
        assert len(N.graph.isolated_components()) == 2
        for orient in perfect_orientations(N.graph)[:3]:
            back = face_weights(edge_weights_from_faces(N, orient))
            assert weights_by_travel(back) == weights_by_travel(N)


def test_measure_independent_of_orientation_choice():
    # the gauge representative may differ but the measured point may not
    for _ in range(8):
        N = random_plabic_network(rng, nmax=4, scrambles=2)
        k, n = N.graph.type()
        if k == 0:
            continue
        orients = perfect_orientations(N.graph)
        pts = [measure(edge_weights_from_faces(N, o)) for o in orients[:4]]
        for p in pts[1:]:
            assert p.projectively_equal(pts[0])


def test_perfect_orientations_dipole():
    # isolated black-white dipole admits exactly one orientation
    col = {10: BLACK, 11: WHITE, 20: WHITE, 21: BLACK}
    edges = {1: (10, 11), 2: (1, 20), 3: (2, 21)}
    G = PlabicGraph(2, col, edges, rot_ids={10: [1], 11: [1], 20: [2], 21: [3], 1: [2], 2: [3]})
    orients = perfect_orientations(G)
    assert all(o[1] == (10, 11) for o in orients)


def test_singleton_not_orientable():
    col = {10: BLACK, 20: WHITE}
    edges = {1: (1, 10)}
    G = PlabicGraph(1, col, edges, rot_ids={1: [1], 10: [1], 20: []})
    assert perfect_orientations(G) == []
    with pytest.raises(ValueError):
        matroid(G)


def test_matroid_five_orientations_cell():
    G = contracted(graph_from_le(le_from_perm(DecoratedPermutation((4, 3, 1, 2)))))
    assert len(perfect_orientations(G)) == 5
    M = matroid(G)
    assert M.bases == frozenset(frozenset(b) for b in
                                [{1, 4}, {1, 2}, {1, 3}, {2, 4}, {3, 4}])


def test_matroid_leaf_colors():
    G = graph_from_le(le_from_perm(minimal_permutation({2, 3}, 4)))
    M = matroid(G)
    assert M.bases == frozenset({frozenset({2, 3})})


def test_path_matroid_agrees():
    for _ in range(6):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 5)
        D, _ = random_le_data(rng, k, n)
        G = graph_from_le(D)
        orient = perfect_orientations(G)[0]
        assert path_matroid(G, orient) == matroid(G)


def test_matroid_equals_algebraic():
    for k, n in [(2, 4), (2, 5)]:
        for lam in partitions_in_box(k, n - k):
            full = tuple(lam) + (0,) * (k - len(lam))
            for fill in le_fills(full):
                D = LeDiagram(k, n, full, fill)
                T = diagram_to_tableau(D, {b: random_rational(rng, 1, 9)
                                           for b in D.boxes()})
                assert matroid(graph_from_le(D)) == matroid_of_plucker(meas_D(T))


def test_trips_white_leaf_fixed_point():
    G = graph_from_le(le_from_perm(minimal_permutation({1}, 2)))
    pi = trip_permutation(G)
    assert pi == minimal_permutation({1}, 2)


def test_trips_full_box_1x1():
    D = LeDiagram(1, 2, (1,), [(1,)])
    assert trip_permutation(graph_from_le(D)).perm == (2, 1)


def test_trips_roundtrip_all_n4():
    for pi in all_decorated_permutations(4):
        G = graph_from_perm(pi)
        assert trip_permutation(G) == pi
        assert is_reduced(G)


def test_reduced_criterion_bigon_false():
    G = bridge_graph()
    G2, (ep, eq) = insert_bigon(G, 2, rng)
    ok, cert = reducedness_certificate(G2)
    assert not ok


def test_reduced_criterion_roundtrip_false():
    # an isolated 2-cycle: round trip
    col = {10: BLACK, 11: WHITE, 20: WHITE, 21: BLACK}
    edges = {1: (1, 10), 2: (2, 11), 3: (20, 21), 4: (20, 21)}
    G = PlabicGraph(2, col, edges,
                    rot_ids={1: [1], 2: [2], 10: [1], 11: [2],
                             20: [3, 4], 21: [3, 4]})
    ok, cert = reducedness_certificate(G)
    assert not ok and "isolated" in cert


@pytest.mark.parametrize("seed, reason", [
    (0, "essential self-intersection of the trip from b_3 at edge 14"),
    (1, "round trip"),
    (56, "internal leaf at vertex 12 (leaf reduction applies)"),
])
def test_reducedness_certificate_names_the_reason(seed, reason):
    # raw chord graphs: reduce_graph removes these sites before it asks the certificate
    r = random.Random(seed)
    G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
    assert reducedness_certificate(G) == (False, reason)


def _random_plabic_graph(r):
    """A plabic graph on n <= 3 boundary vertices and at most 5 internal
    ones, with up to 6 internal edges, loops among them, or None when the
    shuffled rotations are not planar."""
    n, m = r.randint(1, 3), r.randint(1, 5)
    inner = range(n + 1, n + m + 1)
    edges = {i: (i, r.choice(inner)) for i in range(1, n + 1)}
    for e in range(n + 1, n + 1 + r.randint(0, 6)):
        u = r.choice(inner)
        edges[e] = (u, u if r.random() < 0.3 else r.choice(inner))
    rot = {v: [] for v in range(1, n + m + 1)}
    for e, (u, w) in edges.items():
        rot[u].append((e, 0))
        rot[w].append((e, 1))
    for ds in rot.values():
        r.shuffle(ds)
    try:
        return PlabicGraph(n, {v: r.choice((BLACK, WHITE)) for v in inner}, edges, rot=rot)
    except ValueError:
        return None


def test_certified_graphs_have_boundary_leaves_at_their_fixed_points():
    # reducedness_certificate does not check the fixed points: its docstring
    # shows that the checks it makes leave them only at boundary leaves
    r, fixed = random.Random(2024), Counter()
    for _ in range(30000):
        G = _random_plabic_graph(r)
        if G is not None and is_reduced(G):
            H = contracted(G)
            perm = trips(H).permutation()
            for i in H.boundary:
                if perm[i - 1] == i:
                    assert H.boundary_leaf(i) is not None
                    fixed["fixed"] += 1
            fixed["graphs"] += 1
    assert fixed["graphs"] >= 1000 and fixed["fixed"] >= 500


def _boundary_lollipops():
    """(cell, graph, i, loop): a cell's Le-graph with the boundary leaf at
    b_i swapped for a trivalent vertex of the other colour carrying a loop."""
    for n in range(1, 5):
        for pi in all_decorated_permutations(n):
            G = graph_from_perm(pi)
            for i in G.boundary:
                w = G.boundary_leaf(i)
                if w is not None:
                    loop = max(G.edges) + 1
                    yield pi, PlabicGraph(n, {**G.col, w: -G.col[w]}, {**G.edges, loop: (w, w)},
                                          rot={**G.rot, w: G.rot[w] + ((loop, 0), (loop, 1))}), i, loop


def test_rloop_at_the_boundary_leaves_a_leaf_of_the_other_colour():
    r = random.Random(11)
    for pi, G, i, loop in _boundary_lollipops():
        N = reweight(G, r)
        M = apply_reduction(N, ("Rloop", loop))
        for H in (apply_reduction(G, ("Rloop", loop)), M.graph):
            leaf = H.boundary_leaf(i)
            assert leaf is not None and H.col[leaf] == -G.col[G.edges[loop][0]]
            assert trip_permutation(H) == pi
            fresh = PlabicGraph(H.n, H.col, H.edges, rot=H.rot)
            assert set(face_weight_keys(H)) == set(face_weight_keys(fresh))
        PlabicNetwork(M.graph, M.weights)       # positive weights multiplying to 1
        assert measure_plabic(M).projectively_equal(measure_plabic(N))


def test_reduced_all_le_graphs():
    for k, n in [(2, 4), (3, 6)]:
        for lam in partitions_in_box(k, n - k):
            full = tuple(lam) + (0,) * (k - len(lam))
            for fill in le_fills(full):
                assert is_reduced(graph_from_le(LeDiagram(k, n, full, fill)))


def test_move_m1_weights_at_unit():
    # y0 = 1: inner inverts to 1, neighbours scale by 2 or 1/2
    D = LeDiagram(2, 4, (2, 2), [(1, 1), (1, 1)])
    N = network_from_le(diagram_to_tableau(D))
    while True:
        G = N.graph
        v = next((v for v in G.internal_vertices()
                  if G.degree(v) == 2 and len({e for e, _ in G.rot[v]}) == 2), None)
        if v is None:
            break
        N = apply_move(N, ("M3r", v))
    (key,) = square_faces(N.graph)
    before = dict(N.weights)
    assert before[key] == 1
    after = apply_move(N, ("M1", key)).weights
    ratios = sorted(str(after[k] / before[k]) for k in before)
    assert ratios == ["1", "1/2", "1/2", "2", "2"]


def _contract_network(N):
    while True:
        G = N.graph
        v = next((v for v in G.internal_vertices()
                  if G.degree(v) == 2 and len({e for e, _ in G.rot[v]}) == 2), None)
        if v is not None:
            N = apply_move(N, ("M3r", v))
            continue
        e = next((e for e, (u, w) in sorted(G.edges.items())
                  if u != w and G.col.get(u) is not None
                  and G.col.get(u) == G.col.get(w)), None)
        if e is not None:
            N = apply_move(N, ("M2", e))
            continue
        return N


def test_move_m1_involution_and_invariance():
    done = 0
    seeds = [top_permutation(2, 4), top_permutation(2, 5), top_permutation(3, 5)]
    worklist = []
    for pi in seeds:
        N = _contract_network(reweight(graph_from_perm(pi), rng))
        worklist.append(N)
        G = N.graph
        # splitting a degree-4 corner exposes further square faces
        for v in sorted(G.internal_vertices()):
            if G.degree(v) == 4:
                for i in range(4):
                    try:
                        worklist.append(apply_move(N, ("M2u", v, i, (i + 2) % 4)))
                    except (ValueError, AssertionError):
                        pass
    for N in worklist:
        sites = square_faces(N.graph)
        if not sites:
            continue
        p0 = measure_plabic(N)
        for key in sites:
            N1 = apply_move(N, ("M1", key))
            assert measure_plabic(N1).projectively_equal(p0)
            N2 = apply_move(N1, ("M1", key))
            assert N2.weights == N.weights and N2.graph.col == N.graph.col
            assert trip_permutation(contracted(N1.graph)) == trip_permutation(contracted(N.graph))
            done += 1
    assert done >= 5


def test_moves_m2_m3_weights_unchanged():
    N = random_plabic_network(rng, nmax=4, scrambles=0)
    G = N.graph
    e = sorted(G.edges)[0]
    N1 = apply_move(N, ("M3", e, BLACK))
    assert sorted(N1.weights.values()) == sorted(N.weights.values())
    assert measure_plabic(N1).projectively_equal(measure_plabic(N))
    # M2 keeps every face but that of an isolated edge, which weighs 1 and vanishes
    for name, (G, e) in _hand_contractions().items():
        N = reweight(G, rng)
        gone = {(e, 0)} if name == "isolated" else set()
        assert all(N.weights[key] == 1 for key in gone)
        for x in (G, N):
            H = _graph_of(apply_move(x, ("M2", e)))
            assert H.map.face_count() == G.map.face_count() - len(gone)
        N1 = apply_move(N, ("M2", e))
        assert sorted(N1.weights.values()) == sorted(w for key, w in N.weights.items() if key not in gone)
        if not gone:
            assert measure_plabic(N1).projectively_equal(measure_plabic(N))


def test_move_errors():
    N = random_plabic_network(rng, nmax=4, scrambles=0)
    with pytest.raises(ValueError):
        apply_move(N, ("M1", (999, 0)))
    with pytest.raises(ValueError):
        apply_move(N, ("bogus",))


def test_reduction_r1_invariance():
    done = 0
    for _ in range(20):
        N = random_plabic_network(rng, nmax=4, scrambles=2)
        G = N.graph
        internal_edges = [e for e, (u, w) in sorted(G.edges.items())
                          if not (isinstance(u, int) and 1 <= u <= G.n)
                          and not (isinstance(w, int) and 1 <= w <= G.n)]
        if not internal_edges:
            continue
        G2, (ep, eq) = insert_bigon(G, rng.choice(internal_edges), rng)
        N2 = reweight(G2, rng)
        pairs = parallel_pairs(G2)
        if (min(ep, eq), max(ep, eq)) not in pairs:
            continue
        p0 = measure_plabic(N2)
        N3 = apply_reduction(N2, ("R1", ep, eq))
        assert measure_plabic(N3).projectively_equal(p0)
        done += 1
        if done >= 5:
            break
    assert done >= 3


def test_reduction_r2_invariance():
    done = 0
    base = contracted(graph_from_le(le_from_perm(top_permutation(2, 4))))
    for _ in range(30):
        G = base
        cands = [v for v in sorted(G.internal_vertices(), key=str) if G.degree(v) >= 3]
        v = rng.choice(cands)
        G2, leaf = attach_leaf(G, v, -G.col[v], rng.randrange(G.degree(v)))
        try:
            N2 = reweight(G2, rng)
            p0 = measure_plabic(N2)
        except ValueError:
            continue
        N3 = apply_reduction(N2, ("R2", leaf))
        assert measure_plabic(N3).projectively_equal(p0)
        done += 1
        if done >= 5:
            break
    assert done >= 3


def test_reduction_r3_keeps_weights():
    col = {10: WHITE, 11: BLACK, 20: WHITE, 21: BLACK}
    edges = {1: (1, 10), 2: (10, 11), 3: (10, 2), 4: (20, 21)}
    G = PlabicGraph(2, col, edges,
                    rot_ids={1: [1], 2: [3], 10: [1, 2, 3], 11: [2], 20: [4], 21: [4]})
    N = reweight(G, rng, special={(4, 0): Fraction(1)})
    p0 = measure_plabic(N)
    N2 = apply_reduction(N, ("R3", 20))
    assert sorted(N2.weights.values()) == sorted(v for k, v in N.weights.items()
                                                 if k != (4, 0))
    assert measure_plabic(N2).projectively_equal(p0)


def test_reduce_already_reduced_identity():
    G = contracted(graph_from_le(le_from_perm(top_permutation(2, 4))))
    red, nsing, trace = reduce_graph(G)
    assert nsing == 0 and trace == []
    assert canonical(red) == canonical(G)


def test_reduce_bigon_one_step():
    G = bridge_graph()
    G2, _ = insert_bigon(G, 2, rng)
    red, nsing, trace = reduce_graph(G2)
    assert is_reduced(red)
    assert len(faces(G2)) - len(faces(red)) == 1
    assert any(op[0] == "R1" for op in trace)


def test_reduce_scrambled_networks():
    for _ in range(4):
        N = random_plabic_network(rng, nmax=4, scrambles=5)
        p0 = measure_plabic(N)
        pi0 = trip_permutation(contracted(N.graph))
        red, nsing, trace = reduce_graph(N)
        G = red.graph
        assert is_reduced(G)
        assert nsing == 0
        assert measure_plabic(red).projectively_equal(p0)
        assert trip_permutation(contracted(G)) == pi0


def test_reduce_exposes_hidden_sites():
    # a graph needing square moves: scrambled then bigon inserted deep
    N = random_plabic_network(rng, nmax=4, scrambles=4)
    G = N.graph
    internal_edges = [e for e, (u, w) in sorted(G.edges.items())
                      if not (isinstance(u, int) and 1 <= u <= G.n)
                      and not (isinstance(w, int) and 1 <= w <= G.n)]
    if internal_edges:
        G, _ = insert_bigon(G, internal_edges[0], rng)
    red, nsing, trace = reduce_graph(G)
    assert is_reduced(red)


def _composites(trace):
    """reduce_graph's trace cut into composites: the M2u and M3 moves that
    prepare a site together with the site; a construct step stands alone."""
    out, cur = [], []
    for site in trace:
        cur.append(site)
        if site[0] not in ("M2u", "M3"):
            out.append(cur)
            cur = []
    assert cur == []
    return out


def _size(G):
    return len(faces(G)) + len(G.edges) + len(singletons(G))


# the chord seeds among 0-499 where the rewrites stop short of a reduced graph
# and the trace ends in construct
CONSTRUCTED = {24, 40, 81, 152, 213, 372, 384, 427, 479, 498}


def test_reduce_chord_corpus():
    # chords across faces of reduced graphs, bare and reweighted: each graph
    # reduces to the cell of its necklace, or has no perfect orientation.  The
    # bare trace replays through text, as `move --site` replays it step by step
    constructed, unorientable = set(), set()
    for seed in range(500):
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        N = reweight(G, r)
        if perfect_orientation(G) is None:
            unorientable.add(seed)
            for x in (G, N):
                with pytest.raises(NotPerfectlyOrientable, match="^graph is not perfectly orientable$"):
                    reduce_graph(x)
            continue
        pi, M = perm_from_necklace(necklace(G)), matroid(G)
        for x in (G, N):
            red, _, trace = reduce_graph(x)
            R = _graph_of(red)
            assert is_reduced(R) and trip_permutation(R) == pi and matroid(R) == M, seed
            assert len(trace) <= 3 * (len(faces(G)) + len(G.edges))
            cur = x
            for comp in _composites(trace):
                size = _size(_graph_of(cur))
                for site in comp:
                    cur = apply_site(cur if x is N else PlabicGraph.from_text(cur.to_text()), site)
                assert len(comp) <= 3
                assert comp == [("construct",)] or _size(_graph_of(cur)) < size, (seed, comp)
            assert cur.to_text() == red.to_text()
            if ("construct",) in trace:
                assert trace.index(("construct",)) == len(trace) - 1
                constructed.add((seed, x is N))
                if x is N:
                    assert measure_plabic(red).projectively_equal(measure_plabic(N))
    assert constructed == {(seed, weighted) for seed in CONSTRUCTED for weighted in (False, True)}
    assert len(unorientable) == 21


def _rewrite_site(kind):
    """A weighted network with a site of the given move or reduction kind."""
    rng2 = random.Random(7)
    top = contracted(graph_from_perm(top_permutation(2, 4)))
    v = sorted(top.internal_vertices())[0]
    e = next(e for e, (u, w) in sorted(top.edges.items())
             if u not in top.boundary and w not in top.boundary)
    if kind == "M1":
        return reweight(top, rng2), ("M1", square_faces(top)[0])
    if kind in ("M2u", "M3"):
        site = ("M2u", v, 0, 2) if kind == "M2u" else ("M3", e, BLACK)
        return reweight(top, rng2), site
    if kind == "M2":
        G = apply_move(top, ("M2u", v, 0, 2))
        return reweight(G, rng2), ("M2", max(G.edges))  # the split-off edge
    if kind == "M3r":
        G = apply_move(top, ("M3", e, BLACK))
        (m,) = [x for x in G.internal_vertices() if G.degree(x) == 2]
        return reweight(G, rng2), ("M3r", m)
    if kind == "R1":
        G, (ep, eq) = insert_bigon(top, e, rng2)
        bigon = next(face_key(f) for f in faces(G) if {d[0] for d in f} == {ep, eq})
        return reweight(G, rng2, special={bigon: Fraction(3)}), ("R1", ep, eq)
    if kind == "R2":
        G, leaf = attach_leaf(top, v, -top.col[v], 1)
        return reweight(G, rng2), ("R2", leaf)
    if kind == "R3":
        col = {10: WHITE, 11: BLACK, 20: WHITE, 21: BLACK}
        edges = {1: (1, 10), 2: (10, 11), 3: (10, 2), 4: (20, 21)}
        G = PlabicGraph(2, col, edges,
                        rot_ids={1: [1], 2: [3], 10: [1, 2, 3], 11: [2], 20: [4], 21: [4]})
        return reweight(G, rng2), ("R3", 20)
    return reweight(_lollipop([(5, 0), (5, 1)]), rng2), ("Rloop", 5)


def _lollipop(loop_darts):
    """A black lollipop, loop 5 at 12, hanging off the white vertex of the
    bridge, with the darts of the loops at 12 in the given order."""
    col = {10: WHITE, 11: BLACK, 12: BLACK}
    edges = {1: (1, 10), 2: (10, 11), 3: (11, 2), 4: (10, 12), 5: (12, 12)}
    edges.update({e: (12, 12) for e, _ in loop_darts if e != 5})
    rot = PlabicGraph(2, col, {e: uw for e, uw in edges.items() if e < 5}, rot_ids={10: [1, 4, 2]}).rot
    return PlabicGraph(2, col, edges, rot={**rot, 12: ((4, 1), *loop_darts)})


REWRITE_KINDS = ["M1", "M2", "M2u", "M3", "M3r", "R1", "R2", "R3", "Rloop"]


def _every_site(G):
    """Every site of every kind on G, whether the rewrite applies there or not."""
    inner = sorted(G.internal_vertices())
    col = G.col.get
    sites = [("M1", key) for key in square_faces(G)]
    sites += [("M2", e) for e, (u, w) in sorted(G.edges.items()) if col(u) is not None and col(u) == col(w)]
    sites += [("M2u", v, 0, 2) for v in inner if G.degree(v) >= 4]
    sites += [("M3", e, (BLACK, WHITE)[t % 2]) for t, e in enumerate(sorted(G.edges))]
    sites += [("M3r", v) for v in inner if G.degree(v) == 2]
    sites += [("R1", *sorted(e for e, _ in darts)) for darts in bigon_faces(G)]
    sites += [(kind, v) for v in inner if G.degree(v) == 1 for kind in ("R2", "R3")]
    sites += [("Rloop", e) for e, (u, w) in sorted(G.edges.items()) if u == w]
    sites += [("singleton", v) for v in inner if G.degree(v) == 0]
    return sites


def test_every_kind_of_rewrite_is_pinned():
    """The text of every rewrite of every kind, ids included, or its error:
    on chord graphs, their contracted forms with a singleton added, both
    reweighted, and the networks of _rewrite_site and their graphs, at
    every site of _every_site, hashed in one sha256."""
    h, kinds, objects = hashlib.sha256(), Counter(), []
    for seed in range(30):
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        H = contracted(G)
        s = max(H.rot) + 1
        H = PlabicGraph(H.n, {**H.col, s: BLACK}, H.edges, rot={**H.rot, s: ()})
        objects += [G, H, reweight(G, r), reweight(H, r)]
    for kind in REWRITE_KINDS:
        N, _ = _rewrite_site(kind)
        objects += [N.graph, N]
    for x in objects:
        for site in _every_site(_graph_of(x)):
            try:
                out = apply_site(x, site).to_text()
                kinds[site[0]] += 1
            except ValueError as ex:
                out = f"error: {ex}\n"
            h.update(f"{site}\n{out}".encode())
    # 174 of the texts mark a loop's head e', where it comes before its tail
    # in its vertex's rotation (see planarmaps._rotation_ids)
    assert kinds == {"M1": 16, "M2": 330, "M2u": 124, "M3": 2064, "M3r": 100, "R1": 8, "R2": 4,
                     "R3": 4, "Rloop": 2, "singleton": 60}
    assert h.hexdigest() == "8bdc17783fb03efd0a4ce006d2902b970a0767dd481c477bb9e26f9613469425"


@pytest.mark.parametrize("kind", REWRITE_KINDS)
def test_weighted_rewrite_has_the_bare_rewrite_graph(kind):
    N, site = _rewrite_site(kind)
    apply = apply_reduction if kind[0] == "R" else apply_move
    weighted, bare = apply(N, site), apply(N.graph, site)
    assert isinstance(weighted, PlabicNetwork) and isinstance(bare, PlabicGraph)
    assert canonical(weighted.graph) == canonical(bare)


def _cycle(orbit):
    """A face as a dart cycle, whatever dart its tuple starts at."""
    return frozenset(_cyclic_pairs(orbit))


@pytest.fixture
def rewrite_oracle(monkeypatch):
    """Check every rewrite against a fresh build of its result.

    Each graph _DiskGraph.replace derives must have the rotations, face
    count, dart -> face map and small faces of
    PlabicGraph(G.n, G.col, G.edges, rot=G.rot), whose full validation
    must pass, with each face the right dart cycle.  Its faces and inner
    faces must be the dart cycles of oracles.successor_faces, and its
    faces of each small length those faces in their order.
    The rewrite's changed set must name every vertex whose rotation or colour
    differs, and the faces its map records as left and arrived must be the
    set differences of fresh builds of the two graphs.  Each weighting
    _transfer_weights makes must pass PlabicNetwork's global checks, and
    on a relabelled map (DiskMap.relabel) equal the weighting of a map
    derived for the same rewrite.  Failures go through pytest.fail, which
    the ValueError/AssertionError handlers of the scrambling helpers do not
    catch.  Returns a Counter of the functions that called replace, the
    applier by the kind of its site, and of those whose maps were
    relabelled, as "relabel <caller>".
    """
    callers = Counter()
    replace, transfer = _DiskGraph.replace, plabic._transfer_weights

    def relabelled(G, H):
        """Whether H's map is G's relabelled (a map derive leaves equal is G's own)."""
        return H.map is not G.map and H.map._images is not None

    def checked_replace(G, changed, *args, **kw):
        H = replace(G, changed, *args, **kw)
        frame = sys._getframe(1)
        caller = frame.f_code.co_name
        if caller == "_apply":
            caller += f" {frame.f_locals['site'][0]}"
        callers[caller] += 1
        if relabelled(G, H):
            callers[f"relabel {caller}"] += 1
        try:
            fresh = PlabicGraph(H.n, H.col, H.edges, rot=H.rot)
        except ValueError as ex:
            pytest.fail(f"{caller} made an invalid graph: {ex}")
        differ = {v for v, _ in (G.rot.items() ^ H.rot.items()) | (G.col.items() ^ H.col.items())}
        if not differ <= set(changed):
            pytest.fail(f"{caller} changed {sorted(differ - set(changed))} without naming them")
        m, f = H.map, fresh.map
        cycles = {d: _cycle(o) for d, o in f._face_of.items()}
        if ((m._aug_rot, m.face_count()) != (f._aug_rot, len(f.faces()))
                or {d: _cycle(o) for d, o in m._face_of.items()} != cycles
                or set(map(_cycle, m._small)) != set(map(_cycle, f._small))):
            pytest.fail(f"the map {caller} derived differs from a fresh trace of\n{H.to_text()}")
        s = copy.copy(m)    # listing a copy's small faces leaves m as the next rewrite finds it
        try:
            check_faces(s)
        except AssertionError:
            pytest.fail(f"the faces {caller} derived differ from a successor "
                        f"trace of\n{H.to_text()}")
        if not (m is G.map or m._base is G.map._stamp):
            pytest.fail(f"{caller} did not derive its map from its parent's")
        for o in m.faces():     # the keys the map holds, found on this map or carried to it
            entry = m._keys.get(id(o))
            if entry is not None and entry[1] != face_key(m._inside(o)):
                pytest.fail(f"{caller} left face {o} with the key {entry[1]}")
        before = set(map(_cycle, PlabicGraph(G.n, G.col, G.edges, rot=G.rot).map.faces()))
        after = set(map(_cycle, f.faces()))
        gone, came = m.face_changes(G.map)
        if (set(map(_cycle, gone)), set(map(_cycle, came))) != (before - after, after - before):
            pytest.fail(f"the faces {caller} recorded as left and arrived are not the changed ones")
        if not ({frozenset(c) for c in fresh.map._isolated} == _isolated_by_filter(f)
                == {frozenset(c) for c in H.isolated_components()}):
            pytest.fail(f"the isolated components of a fresh build or of the graph {caller} "
                        "derived are not the components without a boundary vertex")
        return H

    def checked_transfer(old, H, adjust=None, rename=None):
        N = transfer(old, H, adjust, rename)
        try:
            PlabicNetwork(N.graph, N.weights)
        except ValueError as ex:
            pytest.fail(f"transferred weights fail PlabicNetwork's checks: {ex}")
        if relabelled(old.graph, H):
            derived = copy.copy(H)
            derived.map = old.graph.map.derive(H.edges, H.rot, old.graph.rot.keys() | H.rot.keys())
            if transfer(old, derived, adjust, rename).weights != N.weights:
                pytest.fail("the weights carried on a relabelled map differ from those on a derived one")
        callers["_transfer_weights"] += 1
        return N

    monkeypatch.setattr(_DiskGraph, "replace", checked_replace)
    monkeypatch.setattr(plabic, "_transfer_weights", checked_transfer)
    return callers


def _scrambled_with_bigons(seed, bigons):
    """A graph scrambled by moves with the given number of bigons inserted on
    internal edges, and the random source of the seed, to draw weights from."""
    r = random.Random(seed)
    G = random_plabic_network(r, nmax=7, scrambles=20).graph
    for _ in range(bigons):
        inner = [e for e, uw in sorted(G.edges.items()) if not set(uw) & set(G.boundary)]
        if inner:
            G, _ = insert_bigon(G, r.choice(inner), r)
    return G, r


def test_rewrites_derive_the_faces_of_a_fresh_build(rewrite_oracle):
    # the chord corpus of test_reduce_chord_corpus, and its reduced graphs minus an edge
    for seed in range(300):
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        if perfect_orientation(G) is None:     # reduce_graph refuses it; its rewrites still run
            _reduce_directly(G, REDUCE_ROWS, [])
            continue
        red = reduce_graph(G)[0]
        delete_edge(red, min(red.edges), BLACK)
    # weighted networks scrambled by moves, with bigons for R1
    for seed in range(20):
        G, r = _scrambled_with_bigons(seed, 2)
        reduce_graph(reweight(G, r))
    for kind in REWRITE_KINDS:      # one weighted site of each kind
        N, site = _rewrite_site(kind)
        (apply_reduction if kind[0] == "R" else apply_move)(N, site)
    # the glue runs of _hand_bends and the contractions of _hand_contractions,
    # bare and, where no isolated cycle forbids weights, weighted
    for G in _hand_bends().values():
        for x in (G, reweight(G, rng)) if G.n else (G,):
            _glued(x)
    for G, e in _hand_contractions().values():
        for x in (G, reweight(G, rng)):
            apply_move(x, ("M2", e))
    # the bigon rows of _hand_bigons, bare and weighted: a face whose input
    # darts the row all removes lives on ("cascade"), and a split precedes
    # its R1 ("split")
    for G in _hand_bigons().values():
        for x in (G, reweight(G, rng)):
            reduce_graph(x)
    # every rule of SITE_RULES ran through the applier, and each batched row
    rules = {f"_apply {kind}" for kind, (_, rule) in plabic.SITE_RULES.items() if rule}
    relabelled = {f"relabel {caller}"
                  for caller in ("glue_bends", "remove_bigons", "_apply M2", "_apply M3r", "_apply R1")}
    assert set(rewrite_oracle) == {*rules, "glue_bends", "remove_bigons", "delete_edge",
                                   "_transfer_weights", *relabelled}


def test_each_face_is_keyed_once(monkeypatch):
    """DiskMap.face_key finds a face's key once in a chain of maps, one
    fresh build and the maps made from it, and _transfer_weights reads the
    keys on a relabelled map without dropping boundary arcs (_inside)."""
    keyed, transfers, insides = [], Counter(), Counter()
    now = [None]        # whether the running transfer's map is relabelled; None outside one
    least_real, inside, transfer = planarmaps._least_real, DiskMap._inside, plabic._transfer_weights

    def counted_least_real(orbit, arcs):
        keyed.append(orbit)         # held, so no two orbits of one chain share an id
        return least_real(orbit, arcs)

    def counted_inside(m, orbit):
        insides[now[0]] += 1
        return inside(m, orbit)

    def watched_transfer(old, H, adjust=None, rename=None):
        now[0] = H.map is not old.graph.map and H.map._images is not None
        transfers[now[0]] += 1
        try:
            return transfer(old, H, adjust, rename)
        finally:
            now[0] = None

    monkeypatch.setattr(planarmaps, "_least_real", counted_least_real)
    monkeypatch.setattr(DiskMap, "_inside", counted_inside)
    monkeypatch.setattr(plabic, "_transfer_weights", watched_transfer)
    during = 0
    for seed in range(20):
        G, r = _scrambled_with_bigons(seed, 2)
        keyed.clear()
        N = reweight(G, r)      # keys every inner face of G
        before = len(keyed)
        reduce_graph(N)
        assert len(set(map(id, keyed))) == len(keyed)
        during += len(keyed) - before
    assert during >= 50 and transfers[True] >= 100 and insides[True] == 0


def _hand_contractions():
    """(graph, unicoloured edge) pairs whose contraction drops darts of one face.

    "isolated": the bridge beside the isolated black edge 4 = 20 - 21, whose
    one face, of its two darts, vanishes.  "bridge": the black edge 4 from
    the bridge's 11 to 12, which holds the black leaves 13 and 14, so both
    darts of 4 are on one face.
    """
    bridge = bridge_graph()
    return {
        "isolated": (PlabicGraph(2, {**bridge.col, 20: BLACK, 21: BLACK}, {**bridge.edges, 4: (20, 21)}), 4),
        "bridge": (PlabicGraph(2, {**bridge.col, 12: BLACK, 13: BLACK, 14: BLACK},
                               {**bridge.edges, 4: (11, 12), 5: (12, 13), 6: (12, 14)},
                               rot_ids={11: [2, 4, 3], 12: [4, 5, 6]}), 4),
    }


def _glued(x):
    """glue_bends on x's graph, the weights carried by its renaming: (result, bends)."""
    G = x.graph if isinstance(x, PlabicNetwork) else x
    H, rename, order = glue_bends(G)
    return (H if x is G else _transfer_weights(x, H, rename=rename)), order


def _hand_bends():
    """Graphs whose runs of bends end in a loop, a boundary leaf or an isolated loop."""
    return {
        # the two bends of an isolated bigon: gluing one leaves a loop on the other
        "bigon": PlabicGraph(0, {1: BLACK, 2: WHITE}, {1: (1, 2), 2: (2, 1)}),
        # a bend on two edges to a trivalent vertex: gluing it leaves a loop there
        "lollipop": PlabicGraph(1, {5: WHITE, 6: BLACK}, {1: (1, 5), 2: (5, 6), 3: (6, 5)},
                                rot_ids={5: [1, 2, 3]}),
        "chain": PlabicGraph(2, {5: BLACK, 6: WHITE, 7: BLACK},
                             {1: (1, 5), 2: (5, 6), 3: (6, 7), 4: (7, 2)}),
        # the leaf 6 hangs off a bend, and after the gluing off b1
        "leaf": PlabicGraph(1, {5: BLACK, 6: WHITE}, {1: (1, 5), 2: (5, 6)}),
        "ring": PlabicGraph(0, {1: BLACK, 2: WHITE, 3: BLACK}, {1: (1, 2), 2: (2, 3), 3: (3, 1)}),
        # ids out of increasing order along the chain
        "chain 9 17 3": PlabicGraph(2, {9: BLACK, 17: WHITE, 3: BLACK},
                                    {1: (1, 9), 2: (9, 17), 3: (17, 3), 4: (3, 2)}),
    }


def test_glue_bends_equals_the_stepwise_run():
    inputs = []
    for seed in range(300):     # the chord corpus, bare and reweighted
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        inputs += [G, reweight(G, r)]
    for seed in range(20):      # weighted scrambles with bigons
        G, r = _scrambled_with_bigons(seed, 2)
        inputs.append(reweight(G, r))
    inputs += _hand_bends().values()
    glued = 0
    for x in inputs:        # a network's text carries its face weights
        (y, order), (z, steps) = _glued(x), glue_bends_stepwise(x)
        assert (y.to_text(), order) == (z.to_text(), steps)
        glued += bool(order)
    assert glued >= 600


@pytest.fixture
def map_updates(monkeypatch):
    """A Counter of the calls of DiskMap.derive and DiskMap.relabel, by name:
    each rewrite updates its map by one of them."""
    updates = Counter()
    for name in ("derive", "relabel"):
        update = getattr(DiskMap, name)
        monkeypatch.setattr(DiskMap, name, lambda m, *a, name=name, update=update:
                            updates.update([name]) or update(m, *a))
    return updates


def test_glue_bends_on_hand_built_runs(map_updates):
    G = _hand_bends()
    H, rename, order = glue_bends(G["bigon"])
    assert order == [1] and H.edges == {3: (2, 2)} and not H._sites["M3r"]
    assert rename == {(1, 1): (3, 0), (2, 0): (3, 1)}
    H, _, order = glue_bends(G["lollipop"])
    assert order == [6] and H.edges[4] == (5, 5) and H._sites["loop"] == {4}
    map_updates.clear()
    red, _, trace = reduce_graph(reweight(G["chain"], rng))
    # the row of three bends updates the map once, relabelling it
    assert trace == [("M3r", 5), ("M3r", 6), ("M3r", 7)] and map_updates == {"relabel": 1}
    assert red.graph.to_text() == "n 2\nedge 7 : 1 2\n"
    assert G["leaf"]._sites["leaf"] == {6}
    H, _, order = glue_bends(G["leaf"])
    assert order == [5] and H.boundary_leaf(1) == 6 and not H._sites["leaf"]
    H, _, order = glue_bends(G["ring"])
    assert order == [1, 2] and H.edges == {5: (3, 3)}
    with pytest.raises(ValueError, match="^no reduction removes the isolated loop 5$"):
        reduce_graph(G["ring"])
    assert glue_bends(G["chain 9 17 3"])[2] == [3, 9, 17]


def _hand_bigons():
    """Graphs whose bigon rows show each way a row carries over.

    "chain": b1 - 3 = 4 - 5 = 6 - b2, two bigons in a row on one path; the
    second R1 glues again the edge the first one made, and both multiply
    the two faces beside the path.  "lens": the bigon 4 = 5 on a path from
    3 to 6 beside the edge 2 from 3 to 6; its R1 leaves a new bigon of
    edge 2 and the new edge, which comes before the bigon 8 = 9.  "split":
    the chain with a third boundary vertex on 7, which the second bigon is
    split off.  "shared": three parallel edges 2, 3, 4 between two
    vertices of degree 4, so the bigons {2, 3} and {3, 4} share edge 3;
    the R1 at the first removes the second, and leaves a new bigon of edge
    4 and the new edge.  "cascade": the bigon 4 = 5 between the black 3,
    of degree 6, and the white 4, whose third edge 7 goes to the white 5,
    tied to 3 by the edges 3 and 6 on either side of the bigon.  The R1
    at 4 = 5, after a split off 3, leaves the new bigons {3, 9} and
    {6, 9}; the R1 at {3, 9} uses a split edge as its third edge, glues
    6 into a loop at 3, and the face of {6, 9}, whose darts the row all
    removed, lives on inside that loop.
    """
    chain = {1: (1, 3), 2: (3, 4), 3: (3, 4), 4: (4, 5), 5: (5, 6), 6: (5, 6), 7: (6, 2)}
    return {
        "chain": PlabicGraph(2, {3: WHITE, 4: BLACK, 5: WHITE, 6: BLACK}, chain,
                             rot_ids={3: [1, 2, 3], 4: [2, 4, 3], 5: [4, 5, 6], 6: [5, 7, 6]}),
        "lens": PlabicGraph(2, {3: WHITE, 4: BLACK, 5: WHITE, 6: BLACK, 7: WHITE, 8: BLACK},
                            {1: (1, 3), 2: (3, 6), 3: (3, 4), 4: (4, 5), 5: (4, 5), 6: (5, 6), 7: (6, 7),
                             8: (7, 8), 9: (7, 8), 10: (8, 2)},
                            rot_ids={3: [1, 2, 3], 4: [3, 4, 5], 5: [4, 6, 5], 6: [2, 7, 6], 7: [7, 8, 9],
                                     8: [8, 10, 9]}),
        "split": PlabicGraph(3, {4: WHITE, 5: BLACK, 6: WHITE, 7: BLACK},
                             {1: (1, 4), 2: (4, 5), 3: (4, 5), 4: (5, 6), 5: (6, 7), 6: (6, 7),
                              7: (7, 2), 8: (3, 7)},
                             rot_ids={4: [1, 2, 3], 5: [2, 4, 3], 6: [4, 5, 6], 7: [5, 7, 8, 6]}),
        "shared": PlabicGraph(2, {3: WHITE, 4: BLACK}, {1: (1, 3), 2: (3, 4), 3: (3, 4), 4: (3, 4), 5: (4, 2)},
                              rot_ids={3: [1, 2, 3, 4], 4: [5, 4, 3, 2]}),
        "cascade": PlabicGraph(2, {3: BLACK, 4: WHITE, 5: WHITE},
                               {1: (1, 3), 2: (3, 2), 3: (5, 3), 4: (3, 4), 5: (3, 4), 6: (5, 3), 7: (4, 5)},
                               rot_ids={3: [6, 4, 5, 3, 2, 1], 4: [5, 4, 7], 5: [7, 6, 3]}),
    }


@pytest.fixture
def r1_runs(monkeypatch):
    """The number of R1 sites of each bigon row plabic.remove_bigons removes, in order."""
    lengths = []
    remove = plabic.remove_bigons

    def counted(G):
        H, rename, sites, records = remove(G)
        lengths.append(sum(site[0] == "R1" for site in sites))
        return H, rename, sites, records

    monkeypatch.setattr(plabic, "remove_bigons", counted)
    return lengths


def _reduced(reduce, x):
    """reduce(x) as (text, singletons, trace), or the ValueError it raised."""
    try:
        red, nsing, trace = reduce(x)
    except ValueError as ex:
        return type(ex), str(ex)
    return red.to_text(), nsing, trace


def test_r1_runs_equal_one_r1_at_a_time(r1_runs):
    inputs = []
    for seed in range(300):     # the chord corpus, bare and reweighted
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        inputs += [G, reweight(G, r)]
    for seed in range(40):      # scrambles with five bigons, bare and weighted
        G, r = _scrambled_with_bigons(seed, 5)
        inputs += [G, reweight(G, r)]
    inputs += [x for G in _hand_bigons().values() for x in (G, reweight(G, rng))]
    runs = Counter()
    for x in inputs:        # a network's text carries its face weights
        expected = _reduced(reduce_one_r1_at_a_time, x)
        r1_runs.clear()
        assert _reduced(reduce_graph, x) == expected
        runs.update(r1_runs)
    # 1,248 R1 sites in 848 rows, 152 of them with more than one R1
    assert (sum(length * n for length, n in runs.items()) >= 1200
            and sum(n for length, n in runs.items() if length > 1) >= 150)


def test_r1_runs_on_hand_built_graphs(r1_runs, map_updates):
    G = _hand_bigons()
    b1, b2 = plabic.bigon_faces(G["chain"])
    H, rename, sites, records = plabic.remove_bigons(G["chain"])
    assert sites == [("R1", 2, 3), ("R1", 5, 6)] and H.edges == {9: (1, 2)}
    assert rename == {(1, 0): (9, 0), (7, 1): (9, 1)}      # edge 8, made by the first R1, glued again
    N = reweight(G["chain"], rng, special={face_key(b1): Fraction(3), face_key(b2): Fraction(5)})
    both, one, two = (plabic._bigon_adjust(N, rs) for rs in (records, records[:1], records[1:]))
    # the second bigon's record, taken after the first R1, names the faces of G
    assert [key for key, _ in records] == [face_key(b1), face_key(b2)]
    sides = {_key_left_of(G["chain"], (e, 1 - end)) for e, end in b1}
    assert sides == {_key_left_of(G["chain"], (e, 1 - end)) for e, end in b2} and len(sides) == 2
    assert all({key for key, _ in r[1]} == sides for r in records)
    for key in sides:       # the faces beside both bigons take both factors
        assert both[key] == one[key] * two[key] != 1
    # (graph, trace, R1 sites of each bigon row, map updates: one per rewrite)
    cascade = [("M2u", 3, 1, 3), ("R1", 4, 5), ("M2u", 3, 0, 2), ("R1", 3, 9),
               ("M2u", 3, 3, 1), ("M3", 12, WHITE), ("Rloop", 11), ("R2", 13)]
    for name, trace, runs, maps in (("chain", [("R1", 2, 3), ("R1", 5, 6)], [2], 1),
                                    ("lens", [("R1", 4, 5), ("R1", 2, 11), ("R1", 8, 9)], [3], 1),
                                    ("split", [("R1", 2, 3), ("M2u", 7, 3, 1), ("R1", 5, 6)], [2], 1),
                                    ("shared", [("M2u", 3, 1, 3), ("M2u", 4, 2, 0), ("R1", 2, 3), ("R1", 4, 8)],
                                     [2], 1),
                                    ("cascade", cascade, [2], 5)):
        # the face (4, 0) of "cascade" is the one that lives on inside the loop
        special = {(4, 0): Fraction(3)} if name == "cascade" else None
        for x in (G[name], N if name == "chain" else reweight(G[name], rng, special)):
            r1_runs.clear()
            map_updates.clear()
            red, _, got = reduce_graph(x)
            assert (got, r1_runs, sum(map_updates.values())) == (trace, runs, maps)
            assert _reduced(reduce_one_r1_at_a_time, x) == (red.to_text(), 0, trace)


def test_r1_joins_the_far_ends_from_the_tail_of_the_smaller_edge():
    # edges 2 and 3 of the bigon run opposite ways; whichever way the site
    # names them, the new edge 5 runs from the far end at edge 2's tail
    for rot in ({3: [1, 2, 3], 4: [2, 4, 3]}, {3: [1, 3, 2], 4: [3, 4, 2]}):
        for ends in ({2: (3, 4), 3: (4, 3)}, {2: (4, 3), 3: (3, 4)}):
            G = PlabicGraph(2, {3: WHITE, 4: BLACK}, {1: (1, 3), 4: (4, 2), **ends}, rot_ids=rot)
            new = (1, 2) if ends[2] == (3, 4) else (2, 1)
            for site in (("R1", 2, 3), ("R1", 3, 2)):
                assert apply_reduction(G, site).edges == {5: new}
            assert reduce_graph(G)[0].edges == {5: new}


def test_a_bigon_whose_endpoints_share_their_third_edge_is_no_r1_site():
    # a theta: three parallel edges between two trivalent vertices
    G = PlabicGraph(0, {1: BLACK, 2: WHITE}, {1: (1, 2), 2: (1, 2), 3: (1, 2)},
                    rot_ids={1: [1, 2, 3], 2: [3, 2, 1]})
    assert len(plabic.bigon_faces(G)) == 3 and parallel_pairs(G) == []
    first = tuple(sorted(e for e, _ in plabic.bigon_faces(G)[0]))
    message = "edges {}, {} are not an R1 site"
    assert (_reduced(reduce_graph, G) == _reduced(reduce_one_r1_at_a_time, G)
            == (ValueError, message.format(*first)))
    with pytest.raises(ValueError, match=f"^{message.format(3, 1)}$"):
        apply_reduction(G, ("R1", 3, 1))


def test_fresh_maps_have_the_faces_of_a_successor_trace():
    for seed in range(100):     # the chord corpus of test_reduce_chord_corpus
        r = random.Random(seed)
        check_faces(chord_graph(r, r.randint(5, 8), r.randint(1, 3)).map)
    for n in range(6):          # the Le-graph of every cell with n <= 5
        for pi in all_decorated_permutations(n):
            check_faces(graph_from_perm(pi).map)
    r = random.Random(5)
    for L, M in ((1, 1), (2, 3), (3, 3), (4, 5)):
        check_faces(manhattan_grid(r, L, M, [r.random() < 0.5 for _ in range(L)],
                                   [r.random() < 0.5 for _ in range(M)]).map)


def _random_rotation_system(r):
    """n <= 4 boundary vertices, at most 5 internal ones and 6 edges, loops
    allowed, each vertex's darts in a shuffled clockwise order."""
    n, m = r.randint(0, 4), r.randint(0, 5)
    verts = range(1, n + m + 1) or [1]
    edges = {e: (r.choice(verts), r.choice(verts)) for e in range(1, r.randint(0, 6) + 1)}
    rot = {v: [] for v in verts}
    for e, (u, w) in edges.items():
        rot[u].append((e, 0))
        rot[w].append((e, 1))
    for ds in rot.values():
        r.shuffle(ds)
    return n, edges, rot


def test_planarity_is_one_euler_sum_over_the_components(monkeypatch):
    validate = DiskMap.validate_planarity
    monkeypatch.setattr(DiskMap, "validate_planarity", lambda m: None)
    r, verdicts = random.Random(2001), Counter()
    for _ in range(20000):
        n, edges, rot = _random_rotation_system(r)
        dmap = DiskMap(range(1, n + 1), edges, rot)
        try:
            validate(dmap)
            planar = True
        except ValueError:
            planar = False
        assert planar == planar_by_components(dmap)
        verdicts[planar] += 1
    assert min(verdicts.values()) > 2000
    # a planar boundary component beside a vertex whose two loops interleave,
    # a torus: V - E + F is 2 + 0, which only the component count exposes
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^rotation system is not a planar disk embedding "
                                         r"\(V - E \+ F = 2 over 2 components\)$"):
        DiskMap((1, 2), {1: (1, 2), 2: (3, 3), 3: (3, 3)},
                {1: ((1, 0),), 2: ((1, 1),), 3: ((2, 0), (3, 0), (2, 1), (3, 1))})


def _isolated_by_filter(dmap):
    """The components of the map's graph without a boundary vertex, by the
    components() filter."""
    return {frozenset(c) for c in components(dmap.rot, dmap.edges.values())
            if dmap._at.keys().isdisjoint(c)}


def test_recorded_isolated_components_are_the_filtered_components():
    """The components a fresh map's planarity check records are those
    without a boundary vertex, singletons included; a derived map has no
    record and finds them when asked."""
    r, isolated = random.Random(2003), Counter()
    for _ in range(4000):
        n, edges, rot = _random_rotation_system(r)
        try:
            dmap = DiskMap(range(1, n + 1), edges, rot)
        except ValueError:
            continue
        want = _isolated_by_filter(dmap)
        assert {frozenset(c) for c in dmap._isolated} == want
        assert len(dmap._isolated) == len(want)
        isolated[min(len(want), 2), n == 0] += 1
    assert min(isolated.values()) >= 50, isolated
    hand = {        # graph -> the isolated components as (vertex count, edge count)
        "singleton": (PlabicGraph(2, {3: BLACK, 4: WHITE}, {1: (1, 2)}), [(1, 0), (1, 0)]),
        "tree": (PlabicGraph(2, {3: BLACK, 4: WHITE, 5: BLACK},
                             {1: (1, 2), 2: (3, 4), 3: (4, 5)}), [(3, 2)]),
        "cycle": (PlabicGraph(1, {2: BLACK, 3: WHITE, 4: BLACK, 5: WHITE},
                              {1: (1, 2), 2: (3, 4), 3: (4, 5), 4: (5, 3)},
                              rot_ids={2: [1], 3: [2, 4], 4: [3, 2], 5: [4, 3]}), [(3, 3)]),
        "n = 0": (PlabicGraph(0, {1: BLACK, 2: WHITE, 3: WHITE}, {1: (1, 2), 2: (2, 1)}),
                  [(1, 0), (2, 2)]),
    }
    for name, (G, shapes) in hand.items():
        got = G.isolated_components()
        assert {frozenset(c) for c in got} == _isolated_by_filter(G.map), name
        assert sorted((len(c), sum(u in c for u, _ in G.edges.values())) for c in got) == shapes, name
    G = hand["tree"][0]         # cut the tree's edge 4 - 5
    H = G.replace((4, 5), edges={1: (1, 2), 2: (3, 4)}, rot={**G.rot, 4: ((2, 1),), 5: ()})
    assert H.map._isolated is None
    assert {frozenset(c) for c in H.isolated_components()} == {frozenset((3, 4)), frozenset((5,))}


@pytest.mark.parametrize("rot, message", [
    ({1: ((1, 0),), 2: ((1, 1),), 3: ((2, 0), (4, 1))}, r"unknown dart \(4, 1\) at vertex 3"),
    ({1: ((1, 0),), 2: ((1, 1),), 3: ((2, 1), (2, 0))}, r"dart \(2, 1\) listed at 3 but anchored at 2"),
    ({1: ((1, 0),), 2: ((1, 1), (2, 1)), 3: ((2, 0), (2, 0))}, r"dart \(2, 0\) appears twice"),
    ({1: ((1, 0),), 2: ((1, 1),), 3: ((2, 0),)}, r"dart \(2, 1\) of edge 2=\(3,2\) missing from rotations"),
])
def test_rotations_name_the_bad_dart(rot, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DiskMap((1, 2), {1: (1, 2), 2: (3, 2)}, rot)


_PATH = {1: (1, 2), 2: (3, 2)}


@pytest.mark.parametrize("edges, rot_ids, message", [
    (_PATH, {1: [1], 2: [1, 2], 3: [9]}, "vertex 3 lists unknown edge 9"),
    (_PATH, {1: [1], 2: [1, 2], 3: [1]}, "edge 1 not incident to vertex 3"),
    (_PATH, {1: [1], 2: [1, 2], 3: [2, 2]}, r"dart \(2, 0\) appears twice"),
    (_PATH, {1: [1], 2: [1], 3: [2]}, r"dart \(2, 1\) of edge 2=\(3,2\) missing from rotations"),
    ({1: (1, 2), 2: (3, 3)}, {1: [1], 2: [1, 2, 2], 3: []}, r"dart \(2, 0\) listed at 2 but anchored at 3"),
    (_PATH, {1: [1, 1], 2: [1, 2], 3: [9]}, "vertex 3 lists unknown edge 9"),
    ({1: (1, 2), -1: (3, 2)}, {1: [1], 2: [1, -1], 3: [-1, -1]},
     "edge id -1 is negative; negative ids name the boundary arcs"),
], ids=["unknown-edge", "not-incident", "twice", "missing", "loop-elsewhere", "read-before-twice", "negative-id"])
def test_edge_lists_name_the_first_fault(edges, rot_ids, message):
    # edge-id rotations are checked as they are read, and name the fault that
    # converting them and then checking the darts would name
    with pytest.raises(ValueError, match=f"^{message}$"):
        DiskMap((1, 2), edges, rot_ids=rot_ids)


@pytest.mark.parametrize("parse, text", [(PlabicGraph.from_text, "n 2\nedge -1 : 1 2\n"),
                                         (PlanarDirectedNetwork.from_text, "n 2\nsources 1\nedge -1 : 1 2 1\n")])
def test_negative_edge_ids_are_refused(parse, text):
    # the boundary arcs take the negative ids: arc ~i has the darts (~i, 0) and (~i, 1)
    with pytest.raises(ValueError, match="^edge id -1 is negative; negative ids name the boundary arcs$"):
        parse(text)


def test_transfer_weights_rejects_a_lost_face():
    N, site = _rewrite_site("R1")
    newG = apply_reduction(N.graph, site)
    # without R1's adjustment the bigon (weight 3) vanishes with its weight
    with pytest.raises(AssertionError, match="weight 3 lost in the rewrite"):
        _transfer_weights(N, newG)


def test_singletons_removed_in_id_order():
    B = bridge_graph()
    G = PlabicGraph(2, {**B.col, 9: BLACK, 12: WHITE}, B.edges)
    assert singletons(G) == [9, 12]
    rest = reduce_graph(B)[2]
    for x in (G, reweight(G, rng)):
        red, nsing, trace = reduce_graph(x)
        assert nsing == 2 and trace == [("singleton", 9), ("singleton", 12)] + rest


def _rows_at_9_and_12():
    """row -> a graph whose first sites are in that row of REDUCE_ROWS, at
    the candidates 9 and 12 (vertices, or edges in the M2 row): ids whose
    str order and id order differ.  The singleton row's case is
    test_singletons_removed_in_id_order."""
    return {
        "M3r": PlabicGraph(2, {9: BLACK, 12: WHITE}, {1: (1, 9), 2: (9, 12), 3: (12, 2)}),
        # a black path 6 - 7 - 8 on the unicoloured edges 9 and 12, each vertex trivalent
        "M2": PlabicGraph(5, {6: BLACK, 7: BLACK, 8: BLACK},
                          {1: (1, 6), 2: (2, 6), 3: (3, 7), 4: (4, 8), 5: (5, 8), 9: (6, 7), 12: (7, 8)},
                          rot_ids={6: [1, 2, 9], 7: [9, 3, 12], 8: [12, 4, 5]}),
        # the white leaves 9 and 12 on trivalent black vertices
        "leaf": PlabicGraph(4, {5: BLACK, 6: BLACK, 9: WHITE, 12: WHITE},
                            {1: (1, 5), 2: (2, 5), 3: (3, 6), 4: (4, 6), 7: (5, 9), 8: (6, 12)},
                            rot_ids={5: [1, 2, 7], 6: [3, 4, 8]}),
    }


@pytest.mark.parametrize("row, first", [("M3r", "M3r"), ("M2", "M2"), ("leaf", "R2")])
def test_rows_take_their_sites_in_id_order(row, first):
    G = _rows_at_9_and_12()[row]
    assert sorted(G._sites[row]) == [9, 12]
    assert reduce_graph(G)[2][:2] == [(first, 9), (first, 12)]
    if row == "leaf":
        assert reducedness_certificate(G) == (False, "internal leaf at vertex 9 (leaf reduction applies)")


def test_equal_trips_implies_equal_matroid():
    # reduced graphs with the same decorated trip permutation share the matroid
    for pi in list(all_decorated_permutations(4, 2))[:10]:
        G1 = graph_from_perm(pi)
        N1 = reweight(G1, rng)
        sites = square_faces(contracted(G1))
        G2 = contracted(G1)
        for key in sites[:1]:
            G2 = apply_move(G2, ("M1", key))
        assert trip_permutation(G2) == pi
        assert matroid(G2) == matroid(G1)


def test_removable_edges_top_cell():
    G = contracted(graph_from_le(le_from_perm(top_permutation(2, 4))))
    rem = removable_edges(G)
    cov = covers(top_permutation(2, 4))
    assert {p for _, p in rem} == set(cov)
    for e, predicted in rem:
        H = delete_edge(G, e)
        assert is_reduced(H)
        HC = contracted(H)
        assert trip_permutation(HC) == predicted


def test_removable_edges_zero_cell_empty():
    G = contracted(graph_from_le(le_from_perm(minimal_permutation({1, 3}, 4))))
    assert removable_edges(G) == []


def test_removable_counts_match_covers_25():
    for pi in [top_permutation(2, 5), DecoratedPermutation((3, 4, 5, 1, 2))]:
        G = contracted(graph_from_perm(pi))
        rem = removable_edges(G)
        assert {p for _, p in rem} == set(covers(pi))


def test_measure_plabic_equals_meas_D():
    for _ in range(6):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 5)
        D, T = random_le_data(rng, k, n)
        N = network_from_le(T)
        assert measure_plabic(N).projectively_equal(meas_D(T))


def test_measure_plabic_support_is_matroid():
    for _ in range(5):
        N = random_plabic_network(rng, nmax=4, scrambles=2)
        p = measure_plabic(N)
        k, n = N.graph.type()
        if k == 0:
            continue
        assert matroid_of_plucker(p) == matroid(N.graph)


def test_plabic_text_roundtrip():
    N = random_plabic_network(rng, nmax=4, scrambles=2)
    back = PlabicGraph.from_text(N.to_text())
    assert isinstance(back, PlabicNetwork)
    assert canonical(back.graph) == canonical(N.graph)
    assert back.weights == N.weights
    G = N.graph
    back2 = PlabicGraph.from_text(G.to_text())
    assert canonical(back2) == canonical(G)
    assert back.graph.rot == back2.rot == G.rot


def test_network_text_reads_back_as_an_equal_network():
    # the `faces` header makes the text a network's, with or without weight
    # lines: a network without inner faces reads back as a network too
    nets = [PlabicNetwork(PlabicGraph(0, {}, {}), {}),
            PlabicNetwork(PlabicGraph(0, {5: BLACK}, {}), {}),
            PlabicNetwork(PlabicGraph(0, {5: BLACK, 6: WHITE, 7: WHITE}, {1: (6, 7)}), {(1, 0): 1})]
    for seed in range(40):
        r = random.Random(seed)
        nets.append(random_plabic_network(r, nmax=7, scrambles=5))
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        nets.append(reweight(G, r))
    assert nets[0].to_text() == "n 0\nfaces\n"
    assert nets[1].to_text() == "n 0\nvertex 5 black : \nfaces\n"
    for N in nets:
        _read_back(N)


def test_plabic_text_round_trips_a_head_first_loop():
    _assert_text_round_trips(_lollipop([(5, 1), (5, 0)]), random.Random(3))


def test_plabic_text_marks_a_loop_head_no_start_writes_tail_first():
    # loop 6 nested inside loop 5, the two running opposite ways: the head of
    # 6 comes before its tail, so it is written 6'
    G = _lollipop([(5, 0), (6, 1), (6, 0), (5, 1)])
    assert "vertex 12 black : 4 5 6' 6 5\n" in G.to_text()
    _assert_text_round_trips(G, random.Random(3))


def _read_back(x):
    """x read from its text, checked equal to x: ids, colours, edges,
    rotations as tuples and weights."""
    back = PlabicGraph.from_text(x.to_text())
    assert type(back) is type(x)
    G, H = _graph_of(x), _graph_of(back)
    assert (H.n, H.col, H.edges, H.rot) == (G.n, G.col, G.edges, G.rot)
    assert not isinstance(x, PlabicNetwork) or back.weights == x.weights
    return back


def _assert_text_round_trips(G, rng):
    """G and a reweighting of it read back from their text as themselves."""
    for obj in (G, reweight(G, rng)):
        _read_back(obj)


@pytest.mark.parametrize("seed", [28, 31, 50, 107, 155, 239, 282, 321])
def test_contracted_chord_graphs_with_interleaved_loops_round_trip(seed):
    # 8 of the 400 contracted chord graphs below with a vertex whose loops no
    # start of its rotation writes tail first; their text marks a loop head e'
    rng = random.Random(seed)
    G = contracted(chord_graph(rng, rng.randint(3, 7), rng.randint(1, 4)))
    assert "'" in G.to_text()
    _assert_text_round_trips(G, rng)


def test_contracted_chord_graphs_round_trip_exactly():
    # each rotation reads back as the tuple it was, not only as a cycle:
    # rewrite sites name rotation positions (M2u v i j moves rot[v][i:j])
    marked = 0
    for seed in range(400):
        rng = random.Random(seed)
        G = contracted(chord_graph(rng, rng.randint(3, 7), rng.randint(1, 4)))
        marked += "'" in G.to_text()
        _assert_text_round_trips(G, rng)
    assert marked == 91


def test_a_contraction_step_with_interleaved_loops_is_written(tmp_path, capsys):
    # the first four steps of contracting the seed-174 corpus chord graph,
    # written, then `move --site "M2 23"`: vertex 29 gets two interleaved loops
    from positroid.cli import main
    r = random.Random(174)
    x = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
    for site in [("M3r", 6), ("M2", 18), ("M2", 21), ("M2", 22)]:
        x = apply_site(x, site)
    (tmp_path / "g.txt").write_text(x.to_text())
    assert main(["move", str(tmp_path / "g.txt"), "--site", "M2 23"]) == 0
    out, err = capsys.readouterr()
    want = apply_site(x, ("M2", 23))
    assert (out, err) == (want.to_text(), "") and "vertex 29 white : 24' 24 25' 16 17 5 25\n" in out
    _assert_text_round_trips(want, r)


def test_reduce_steps_round_trip_as_text(monkeypatch):
    transfer, loops = plabic._transfer_weights, Counter()

    def checked_transfer(*args, **kw):
        N = transfer(*args, **kw)
        try:
            back = PlabicGraph.from_text(N.to_text())
        except ValueError as ex:
            pytest.fail(f"a rewrite's text does not read back: {ex}\n{N.to_text()}")
        if back.weights != N.weights or back.graph.rot != N.graph.rot:
            pytest.fail(f"a rewrite's text reads back as another network:\n{N.to_text()}")
        loops[any(u == w for u, w in N.graph.edges.values())] += 1
        return N

    monkeypatch.setattr(plabic, "_transfer_weights", checked_transfer)
    for seed in range(20):
        reduce_graph(random_plabic_network(random.Random(seed), nmax=7, scrambles=20))
    for loop_darts in ([(5, 0), (5, 1)], [(5, 1), (5, 0)]):
        reduce_graph(reweight(_lollipop(loop_darts), random.Random(3)))
    assert loops[True] > 0


# the rewrites of a whole graph that a walk takes besides sites, each with
# whether it is made of moves
WHOLE_REWRITES = {"glue_bends": (lambda x: _glued(x)[0], True), "contracted": (contracted, True),
                  "reduce_graph": (lambda x: reduce_graph(x)[0], False)}


def _rewrite_of(G, code, grow):
    """A rewrite of G, as (function, whether it is a move): a whole rewrite,
    or a site of a kind of SITE_RULES at a spot of that kind from
    _every_site, or for M2u at any slice of any rotation, which the rewrite
    may refuse.  The kinds that grow the graph, M2u and M3, only when grow.
    code, a nonnegative integer, picks each choice as its next digit in the
    mixed radix of the choices' counts, so a smaller code picks earlier."""
    spots = {"construct": [("construct",)], **dict.fromkeys(WHOLE_REWRITES)}
    for site in _every_site(G):
        spots.setdefault(site[0], []).append(site)
    inner = [v for v in sorted(G.internal_vertices()) if G.degree(v) >= 2]
    spots.pop("M2u", None)      # M2u takes any slice below, not _every_site's one
    if not grow:
        spots.pop("M3", None)
    elif inner:
        spots["M2u"] = None

    def pick(xs):
        nonlocal code
        code, i = divmod(code, len(xs))
        return xs[i]

    kind = pick(sorted(spots))
    if kind in WHOLE_REWRITES:
        return WHOLE_REWRITES[kind]
    if kind == "M2u":
        v = pick(inner)
        site = ("M2u", v, pick(range(G.degree(v))), pick(range(G.degree(v))))
    else:
        site = pick(spots[kind])
    return (lambda x: apply_site(x, site)), kind[0] == "M"


class RewriteWalk(RuleBasedStateMachine):
    """Walks of rewrites from reduced graphs of cells with n <= 7 and from
    chord graphs, bare and weighted, some with a singleton added.  Every
    object of a walk reads back from its text as itself; each rewrite of the
    read-back object writes the text of the rewrite of the object, or raises
    the same error; moves keep the trip permutation, and every rewrite of an
    orientable graph keeps its necklace, and of an orientable network its
    Plucker point.  The trip permutation is compared undecorated: an M3 on a
    boundary leaf's edge leaves the fixed point no leaf to read a colour off."""

    @initialize(seed=st.integers(0, 999), n=st.integers(1, 7), chords=st.booleans(),
                weighted=st.booleans(), singleton=st.booleans())
    def start(self, seed, n, chords, weighted, singleton):
        r = random.Random(seed)
        G = chord_graph(r, r.randint(3, 7), r.randint(1, 4)) if chords else \
            graph_from_perm(random_decorated_permutation(r, n))
        if singleton:
            s = max(G.rot) + 1
            G = PlabicGraph(G.n, {**G.col, s: r.choice((BLACK, WHITE))}, G.edges, rot={**G.rot, s: ()})
        self.x = reweight(G, r) if weighted else G
        self.back = _read_back(self.x)
        self.neck = self.point = None
        self._orient()

    def _orient(self):
        """The necklace and, on a network, the Plucker point, once the graph is orientable."""
        try:
            self.neck = necklace(_graph_of(self.x))
        except NotPerfectlyOrientable:
            return
        if isinstance(self.x, PlabicNetwork):
            self.point = measure_plabic(self.x).normalized()

    @rule(code=st.integers(0, 2 ** 32))
    def rewrite(self, code):
        G, x, back = _graph_of(self.x), self.x, self.back
        rewrite, move = _rewrite_of(G, code, grow=len(G.edges) < 30)
        try:
            y = rewrite(x)
        except ValueError as ex:
            with pytest.raises(type(ex)) as again:
                rewrite(back)
            assert str(again.value) == str(ex)
            return
        assert rewrite(back).to_text() == y.to_text()
        if y is x:
            return
        self.x, self.back = y, _read_back(y)
        if move:
            assert trips(_graph_of(y)).permutation() == trips(G).permutation()
        if self.neck is None:
            self._orient()
            return
        assert necklace(_graph_of(y)) == self.neck
        if self.point is not None:
            assert measure_plabic(y).normalized() == self.point


def test_rewrite_state_machine():
    run_state_machine_as_test(RewriteWalk, settings=settings(
        max_examples=200, stateful_step_count=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]))


def test_export_dot():
    G = bridge_graph()
    dot = export_dot(G)
    assert "b1 --" in dot or "-- b1" in dot or "b1" in dot
    assert "graph plabic" in dot


def test_faces_bare_boundary_edge():
    # a single edge straight between two boundary vertices: two faces
    G = PlabicGraph(2, {}, {1: (1, 2)})
    assert len(faces(G)) == 2


def test_matching_matroid_on_bipartite_refinement():
    # making the graph bipartite by splitting unicolored edges, the partial
    # matchings cover exactly the matroid's bases
    def bipartite_refine(G):
        # boundary vertices count as white
        def colr(G, v):
            if isinstance(v, int) and 1 <= v <= G.n:
                return WHITE
            return G.col[v]

        while True:
            e = next((e for e, (u, w) in sorted(G.edges.items())
                      if u != w and colr(G, u) == colr(G, w)), None)
            if e is None:
                return G
            G = apply_move(G, ("M3", e, -colr(G, G.edges[e][0])))

    def matching_bases(G):
        # partial matchings cover every internal vertex once; the matching
        # covers exactly the boundary sinks of the matched orientation, so
        # the bases of the graph's matroid are the complements of the
        # covered boundary sets
        n = G.n
        internal = sorted(G.internal_vertices(), key=str)
        out = []
        eids = sorted(G.edges)

        def rec(idx, used_vertices, covered_boundary):
            if idx == len(eids):
                if all(v in used_vertices for v in internal):
                    out.append(frozenset(range(1, n + 1)) - frozenset(covered_boundary))
                return
            e = eids[idx]
            u, w = G.edges[e]
            rec(idx + 1, used_vertices, covered_boundary)
            if u in used_vertices or w in used_vertices or u == w:
                return
            nb = set(covered_boundary)
            for v in (u, w):
                if isinstance(v, int) and 1 <= v <= G.n:
                    nb.add(v)
            rec(idx + 1, used_vertices | {u, w}, nb)

        rec(0, frozenset(), set())
        return out

    for pi in [DecoratedPermutation((4, 3, 1, 2)), top_permutation(2, 4)]:
        G = contracted(graph_from_perm(pi))
        B = bipartite_refine(G)
        M = matroid(G)
        all_bases = matching_bases(B)
        assert {b for b in all_bases if len(b) == M.k} == set(M.bases)
        # and the orientation <-> matching bijection preserves the count
        assert len(perfect_orientations(B)) == len(all_bases)


def test_top_cell_matroid_complete():
    from itertools import combinations as comb
    G = graph_from_perm(top_permutation(2, 4))
    M = matroid(G)
    assert M.bases == frozenset(frozenset(c) for c in comb(range(1, 5), 2))


def test_face_count_equals_rank():
    for n in range(1, 5):
        for pi in all_decorated_permutations(n):
            G = graph_from_le(le_from_perm(pi))
            assert len(faces(G)) - 1 == rank(pi)


def test_unit_weights_support_is_matroid():
    G = contracted(graph_from_le(le_from_perm(DecoratedPermutation((4, 3, 1, 2)))))
    N = PlabicNetwork(G, {k: Fraction(1) for k in face_weight_keys(G)})
    p = measure_plabic(N)
    assert matroid_of_plucker(p) == matroid(G)


def test_composite_matroid_identity():
    # matroid -> necklace -> permutation -> Le -> graph -> matroid
    from positroid.permutations import perm_from_necklace
    for _ in range(6):
        D, T = random_le_data(rng, 2, 5)
        M = matroid_of_plucker(meas_D(T))
        pi = perm_from_necklace(necklace_from_matroid(M))
        G = graph_from_le(le_from_perm(pi))
        assert matroid(G) == M


def test_reductions_decrease_edge_vertex_excess():
    rng2 = random.Random(77)
    base = contracted(graph_from_perm(top_permutation(2, 4)))
    internal = [e for e, (u, w) in sorted(base.edges.items())
                if not (isinstance(u, int) and u <= 4)
                and not (isinstance(w, int) and w <= 4)]
    G2, (ep, eq) = insert_bigon(base, internal[0], rng2)

    def excess(G):
        return len(G.edges) - (len(G.internal_vertices()) + G.n)

    G3 = apply_reduction(G2, ("R1", ep, eq))
    assert excess(G3) < excess(G2)
    v = sorted(base.internal_vertices())[0]
    G4, leaf = attach_leaf(base, v, -base.col[v], 0)
    G5 = apply_reduction(G4, ("R2", leaf))
    assert excess(G5) < excess(G4)
