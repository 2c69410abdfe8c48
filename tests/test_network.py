import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from helpers import has_alternating_vertex, manhattan_grid, random_grid_network, random_le_data, random_rational
from oracles import (Walk, _erasable_cycles, _path_weight, _simple_cycles_at, _simple_paths,
                     exhaustive_matrix, formal_series, minor_by_bijections, minor_loop_erased,
                     rational_series, winding_index)
from positroid.exactmath import maximal_minor, partitions_in_box
from positroid.lediagram import gamma_network
from positroid.network import (PlanarDirectedNetwork, boundary_measurement,
                               boundary_measurement_matrix, color,
                               gauge_transform, is_perfect, measure,
                               perfect_and_trivalent, switch_orientation)
from positroid.plabic import face_weights

rng = random.Random(77)


def two_vertex_cycle(x, y, z, t):
    """The running cyclic example: b1 -x-> v, v -y-> w (upper), w -z-> v
    (lower), w -t-> b2."""
    edges = {1: (1, 3, x), 2: (3, 4, y), 3: (4, 3, z), 4: (4, 2, t)}
    rot_ids = {1: [1], 2: [4], 3: [1, 2, 3], 4: [2, 4, 3]}
    return PlanarDirectedNetwork(2, [True, False], edges, rot_ids=rot_ids)


def test_cyclic_measurement_unit():
    assert boundary_measurement(two_vertex_cycle(1, 1, 1, 1), 1, 2) == Fraction(1, 2)


def test_cyclic_measurement_symbolic_point():
    # xyt/(1+yz) at (2,3,5,7) = 42/16
    assert boundary_measurement(two_vertex_cycle(2, 3, 5, 7), 1, 2) == Fraction(21, 8)


def test_measurement_precondition():
    net = two_vertex_cycle(1, 1, 1, 1)
    with pytest.raises(ValueError):
        boundary_measurement(net, 2, 1)


def test_winding_simple_path_zero():
    net = two_vertex_cycle(1, 1, 1, 1)
    assert winding_index(net, [1, 2, 4]) == 0


def test_winding_single_clockwise_cycle():
    # b1 x v (y z back) y w t b2: erases the clockwise cycle once
    net = two_vertex_cycle(1, 1, 1, 1)
    assert winding_index(net, [1, 2, 3, 2, 4]) == -1


def test_winding_figure_path():
    """A path erasing one counterclockwise and two clockwise cycles: -1.

    Re-encoded combinatorially: chain b1 -> u -> w -> b2 with a
    counterclockwise triangle at u and two clockwise triangles at w.
    Coordinates pin the orientations via the shoelace sign, and the
    rotation system is derived from those coordinates.
    """
    from positroid.planarmaps import rotations_from_coordinates
    pos = {1: (-4, 0), 2: (6, 0), 10: (0, 0), 11: (3, 0),
           20: (1, 1), 21: (-1, 1),      # ccw triangle over u=10
           30: (4, -1), 31: (2, -1)}     # cw triangle under w=11
    edges = {
        1: (1, 10, Fraction(1)),
        2: (10, 20, Fraction(1)), 3: (20, 21, Fraction(1)), 4: (21, 10, Fraction(1)),
        5: (10, 11, Fraction(1)),
        6: (11, 30, Fraction(1)), 7: (30, 31, Fraction(1)), 8: (31, 11, Fraction(1)),
        9: (11, 2, Fraction(1)),
    }
    # shoelace check in-test: the triangle 10 -> 20 -> 21 -> 10 has positive
    # area (counterclockwise); 11 -> 30 -> 31 -> 11 negative (clockwise)
    def shoelace(cycle):
        s = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            s += pos[a][0] * pos[b][1] - pos[b][0] * pos[a][1]
        return s
    assert shoelace([10, 20, 21]) > 0
    assert shoelace([11, 30, 31]) < 0

    shape = {e: (u, w) for e, (u, w, _) in edges.items()}
    rot = rotations_from_coordinates(shape, pos)
    net = PlanarDirectedNetwork(2, [True, False], edges, rot=rot)
    walk = [1, 2, 3, 4, 5, 6, 7, 8, 6, 7, 8, 9]
    # one ccw cycle at u, the cw cycle at w traversed twice
    assert winding_index(net, walk) == 1 - 2 == -1


def test_winding_erasure_order_independent():
    net = two_vertex_cycle(1, 1, 1, 1)
    walk = [1, 2, 3, 2, 3, 2, 4]
    vals = {winding_index(net, walk, rng=random.Random(s)) for s in range(25)}
    assert vals == {-2}


def test_winding_sign_equals_erasure_parity():
    # (-1)^wind equals the parity of the number of erased cycles
    net = two_vertex_cycle(1, 1, 1, 1)
    for walk in ([1, 2, 4], [1, 2, 3, 2, 4], [1, 2, 3, 2, 3, 2, 4]):
        w = winding_index(net, walk)
        verts = Walk(walk).vertices(net)
        erased = 0
        while True:
            cands = _erasable_cycles(verts)
            if not cands:
                break
            a, b = cands[0]
            del verts[a:b]
            erased += 1
        assert (-1) ** w == (-1) ** erased


def test_acyclic_measurement_is_path_sum():
    for _ in range(15):
        net = random_grid_network(rng, n=3, w=2, h=2, max_internal=6)
        if net is None or not net.is_acyclic():
            continue
        for i in sorted(net.sources()):
            for j in sorted(net.sinks()):
                plain = sum((_path_weight(net, p) for p in _simple_paths(net, i, j)),
                            Fraction(0))
                assert boundary_measurement(net, i, j) == plain


def test_matrix_example_13_24():
    # source set {1,3}: A = [[1, M12, 0, -M14], [0, M32, 1, M34]]
    edges = {1: (1, 10, Fraction(2)), 2: (10, 2, Fraction(1)),
             3: (10, 11, Fraction(1)), 4: (3, 11, Fraction(3)),
             5: (11, 4, Fraction(1)), 6: (10, 12, Fraction(5)),
             7: (12, 4, Fraction(1)), 8: (3, 13, Fraction(7)), 9: (13, 2, Fraction(1))}
    # a planar layout: b1..b4 clockwise, paths 1->2, 1->4, 3->2, 3->4
    pos = {1: (-2, 2), 2: (2, 2), 3: (2, -2), 4: (-2, -2),
           10: (-1, 1), 11: (0, -1), 12: (-1, 0), 13: (1, 1)}
    from positroid.planarmaps import rotations_from_coordinates
    shape = {e: (u, w) for e, (u, w, _) in edges.items()}
    rot = rotations_from_coordinates(shape, pos)
    net = PlanarDirectedNetwork(4, [True, False, True, False], edges, rot=rot)
    A = boundary_measurement_matrix(net)
    m12 = boundary_measurement(net, 1, 2)
    m14 = boundary_measurement(net, 1, 4)
    m32 = boundary_measurement(net, 3, 2)
    m34 = boundary_measurement(net, 3, 4)
    assert A.rows[0] == (1, m12, 0, -m14)
    assert A.rows[1] == (0, m32, 1, m34)
    # Prop: Delta_24 = M12 M34 + M14 M32
    assert maximal_minor(A, [2, 4]) == m12 * m34 + m14 * m32


def test_matrix_edgeless():
    net = PlanarDirectedNetwork(2, [True, False], {})
    A = boundary_measurement_matrix(net)
    assert A.rows == ((1, 0),)


def test_delta_I_is_one_and_minors_nonnegative():
    for _ in range(25):
        net = random_grid_network(rng, n=rng.randint(2, 5), w=3, h=2, max_internal=8)
        if net is None:
            continue
        A = boundary_measurement_matrix(net)
        I = sorted(net.sources())
        assert maximal_minor(A, I) == 1
        for J in combinations(range(1, net.n + 1), len(I)):
            assert maximal_minor(A, J) >= 0


def test_loop_erased_minor_oracle():
    for _ in range(12):
        net = random_grid_network(rng, n=4, w=2, h=2, max_internal=6)
        if net is None:
            continue
        A = boundary_measurement_matrix(net)
        k = A.k
        for J in combinations(range(1, net.n + 1), k):
            direct = maximal_minor(A, J)
            assert minor_loop_erased(net, J) == direct
            assert minor_by_bijections(net, J) == direct


@pytest.mark.parametrize("x, shown", [(0, "0"), (-1, "-1"), ("-3/4", "-3/4"), ("0/5", "0")])
def test_network_rejects_a_nonpositive_weight(x, shown):
    with pytest.raises(ValueError, match=f"^edge 1 has nonpositive weight {shown}$"):
        PlanarDirectedNetwork(2, [True, False], {1: (1, 2, x)})


def test_gauge_identity():
    net = two_vertex_cycle(2, 3, 5, 7)
    same = gauge_transform(net, {})
    assert same.edges == net.edges


def test_gauge_preserves_measure():
    for _ in range(10):
        net = random_grid_network(rng, n=3, w=2, h=2, max_internal=6)
        if net is None:
            continue
        t = {v: random_rational(rng, 1, 9) for v in net.internal_vertices()}
        other = gauge_transform(net, t)
        assert measure(other).projectively_equal(measure(net))


def test_gauge_rejects_boundary_and_nonpositive():
    net = two_vertex_cycle(1, 1, 1, 1)
    with pytest.raises(ValueError):
        gauge_transform(net, {1: Fraction(2)})
    with pytest.raises(ValueError):
        gauge_transform(net, {3: Fraction(-1)})


def test_perfection_preserves_measure():
    done = 0
    for _ in range(40):
        net = random_grid_network(rng, n=rng.randint(2, 4), w=2, h=2, max_internal=6)
        if net is None:
            continue
        perf = perfect_and_trivalent(net)
        assert is_perfect(perf)
        assert all(perf.degree(v) == 3 for v in perf.internal_vertices())
        assert measure(perf).projectively_equal(measure(net))
        done += 1
        if done >= 12:
            break
    assert done >= 8


def test_perfection_blow_up_alternating():
    # degree-4 alternating vertex: in, out, in, out around v
    edges = {1: (1, 10, Fraction(2)), 2: (10, 2, Fraction(3)),
             3: (3, 10, Fraction(5)), 4: (10, 4, Fraction(7))}
    rot_ids = {1: [1], 2: [2], 3: [3], 4: [4], 10: [1, 2, 3, 4]}
    net = PlanarDirectedNetwork(4, [True, False, True, False], edges, rot_ids=rot_ids)
    perf = perfect_and_trivalent(net)
    assert is_perfect(perf)
    assert measure(perf).projectively_equal(measure(net))
    # the blown-up cycle introduces four weight-1 cycle edges and doubles
    # the two outgoing attachments
    doubled = sorted(x for _, (_, _, x) in perf.edges.items() if x in (6, 14))
    assert doubled == [6, 14]


@pytest.mark.parametrize("ends", ["iiooo", "iioio", "iiiooo", "iioioo", "ioioio"])
def test_perfection_splits_a_star_of_degree_5_or_6(ends):
    # a star b_t - v: 'i' edges run into v, 'o' edges out; a run of like
    # darts needs pull-outs over several passes, an alternating rest a
    # blow-up, and the acyclic star is measured by path sums on itself
    d = len(ends)
    edges = {t: ((t, 10) if c == "i" else (10, t)) + (Fraction(t + 1, 2 * t + 1),)
             for t, c in enumerate(ends, start=1)}
    rot_ids = {10: list(range(1, d + 1))}
    net = PlanarDirectedNetwork(d, [c == "i" for c in ends], edges, rot_ids=rot_ids)
    perf = perfect_and_trivalent(net)
    assert is_perfect(perf)
    assert all(perf.degree(v) == 3 for v in perf.internal_vertices())
    A = boundary_measurement_matrix(net)
    assert boundary_measurement_matrix(perf) == A
    assert exhaustive_matrix(perf) == A


def test_cyclic_matrix_with_internal_ids_below_1():
    # faces are traced from the vertex id that sorts first as a string, here
    # an internal one; the Kasteleyn signs must still be rooted at a face on
    # the boundary circle
    edges = {1: (1, 0, 1), 2: (0, -3, 2), 3: (-3, 2, 3), 4: (-3, 0, 5)}
    net = PlanarDirectedNetwork(2, [True, False], edges, rot_ids={0: [1, 2, 4], -3: [2, 3, 4]})
    assert boundary_measurement(net, 1, 2) == Fraction(6, 11)
    assert boundary_measurement_matrix(net) == exhaustive_matrix(net)


def test_perfect_and_trivalent_idempotent_on_perfect():
    net = two_vertex_cycle(1, 2, 3, 4)
    perf = perfect_and_trivalent(net)
    again = perfect_and_trivalent(perf)
    assert measure(again).projectively_equal(measure(perf))
    assert len(again.edges) == len(perf.edges)


PERFECT_FORM_DIGEST = "3cf36215cc97dc090bb3bf7499788a62505da57f9d921e72291c97c09f64103f"


def test_perfect_form_is_pinned():
    """The text of the perfect trivalent form, ids included, of 400 seeded
    grid networks and 30 hook networks of Le-tableaux, in one sha256.  The
    corpus merges about 700 internal degree-2 vertices and pulls about 200
    pairs of darts out, of both directions."""
    h, count = hashlib.sha256(), 0
    for seed in range(400):
        r = random.Random(seed)
        net = random_grid_network(r, n=r.randint(2, 6), keep=0.9)
        if net is not None:
            h.update(perfect_and_trivalent(net).to_text().encode())
            count += 1
    for seed in range(30):
        r = random.Random(seed)
        n = r.randint(2, 7)
        h.update(perfect_and_trivalent(gamma_network(random_le_data(r, r.randint(1, n - 1), n)[1]))
                 .to_text().encode())
        count += 1
    assert (count, h.hexdigest()) == (430, PERFECT_FORM_DIGEST)


def test_is_perfect_refuses_a_bad_vertex():
    # b_1 of degree 2, and an internal vertex with two in-edges and two out-edges
    wide = PlanarDirectedNetwork(3, [True, False, False], {1: (1, 2, 1), 2: (1, 3, 1)},
                                 rot_ids={1: [1, 2], 2: [1], 3: [2]})
    edges = {1: (1, 5, 1), 2: (2, 5, 1), 3: (5, 3, 1), 4: (5, 4, 1)}
    cross = PlanarDirectedNetwork(4, [True, True, False, False], edges, rot_ids={5: [1, 2, 3, 4]})
    assert not is_perfect(wide) and not is_perfect(cross)
    with pytest.raises(ValueError, match="^face weights need a perfect network$"):
        face_weights(cross)


def test_color_sum_identity():
    # perfect networks: sum col(v)(deg v - 2) = 2k - n
    for _ in range(10):
        net = random_grid_network(rng, n=4, w=2, h=2, max_internal=6)
        if net is None:
            continue
        perf = perfect_and_trivalent(net)
        total = sum(color(perf, v) * (perf.degree(v) - 2) for v in perf.internal_vertices())
        assert total == 2 * len(perf.sources()) - perf.n


def test_switch_cycle_preserves_measurements():
    net = two_vertex_cycle(1, 1, 1, 1)
    perf = perfect_and_trivalent(net)
    # find a directed cycle in the perfect network
    cyc = _find_cycle(perf)
    assert cyc is not None
    other = switch_orientation(perf, cyc)
    assert other.sources() == perf.sources()
    for i in sorted(perf.sources()):
        for j in sorted(perf.sinks()):
            assert boundary_measurement(other, i, j) == boundary_measurement(perf, i, j)


def _find_cycle(net):
    state, stack = {}, []

    def dfs(v, path):
        state[v] = 1
        for e in net.out_edges(v):
            w = net.head(e)
            if state.get(w) == 1:
                idx = next(i for i, (x, _) in enumerate(path) if x == w)
                return [f for _, f in path[idx + 1:]] + [e]
            if state.get(w) is None:
                got = dfs(w, path + [(w, e)])
                if got:
                    return got
        state[v] = 2
        return None

    for v in list(net.rot):
        if state.get(v) is None:
            got = dfs(v, [(v, None)])
            if got:
                return [e for e in got if e is not None]
    return None


def _find_boundary_path(net):
    for i in sorted(net.sources()):
        for j in sorted(net.sinks()):
            paths = _simple_paths(net, i, j)
            if paths:
                return i, j, paths[0]
    return None


def test_switch_path_relations():
    """Reversing one boundary path: the new measurements obey the four
    exchange relations through the old ones."""
    checked = 0
    for _ in range(30):
        net = random_grid_network(rng, n=3, w=2, h=2, max_internal=6)
        if net is None:
            continue
        perf = perfect_and_trivalent(net)
        found = _find_boundary_path(perf)
        if found is None:
            continue
        i0, j0, path = found
        M = {(i, j): boundary_measurement(perf, i, j)
             for i in sorted(perf.sources()) for j in sorted(perf.sinks())}
        if M[(i0, j0)] == 0:
            continue
        other = switch_orientation(perf, path)
        assert other.sources() == (perf.sources() - {i0}) | {j0}
        A = boundary_measurement_matrix(perf)
        I = sorted(perf.sources())
        for i in sorted(other.sources()):
            for j in sorted(other.sinks()):
                got = boundary_measurement(other, i, j)
                if (i, j) == (j0, i0):
                    assert got == 1 / M[(i0, j0)]
                elif i == j0:
                    assert got == M[(i0, j)] / M[(i0, j0)]
                elif j == i0:
                    assert got == M[(i, j0)] / M[(i0, j0)]
                else:
                    big = sorted((set(I) - {i0, i}) | {j0, j})
                    assert got == maximal_minor(A, big) / M[(i0, j0)]
        assert measure(other).projectively_equal(measure(perf))
        checked += 1
        if checked >= 5:
            break
    assert checked >= 2


def test_switch_validates_color_preservation():
    net = two_vertex_cycle(1, 1, 1, 1)
    perf = perfect_and_trivalent(net)
    some_edge = next(iter(perf.edges))
    with pytest.raises(ValueError):
        switch_orientation(perf, {some_edge})


def test_formal_series_matches_rational():
    done = 0
    for _ in range(20):
        net = random_grid_network(rng, n=3, w=2, h=2, max_internal=5,
                                  require_cycle=True)
        if net is None:
            continue
        i = min(net.sources())
        j = min(net.sinks())
        assert formal_series(net, i, j, 9) == rational_series(net, i, j, 9)
        done += 1
        if done >= 4:
            break
    assert done >= 2


def test_formal_series_explicit():
    net = two_vertex_cycle(2, 3, 5, 7)
    fs = formal_series(net, 1, 2, 12)
    rs = rational_series(net, 1, 2, 12)
    assert fs == rs
    assert fs[3] == 42 and fs[5] == -630 and fs[4] == 0


def test_network_text_roundtrip():
    net = two_vertex_cycle(2, 3, 5, 7)
    back = PlanarDirectedNetwork.from_text(net.to_text())
    assert back.edges == net.edges
    assert back.rot == net.rot
    assert back.source_flags == net.source_flags


def test_network_text_round_trips_a_head_first_loop():
    # a loop 5 at v = 3 of the running example, its head dart first
    net = two_vertex_cycle(2, 3, 5, 7)
    rot = {**net.rot, 3: (*net.rot[3], (5, 1), (5, 0))}
    net = PlanarDirectedNetwork(2, [True, False], {**net.edges, 5: (3, 3, 11)}, rot=rot)
    back = PlanarDirectedNetwork.from_text(net.to_text())
    assert back.to_text() == net.to_text()
    assert back.edges == net.edges
    assert {v: set(zip(ds, ds[1:] + ds[:1])) for v, ds in back.rot.items()} == \
        {v: set(zip(ds, ds[1:] + ds[:1])) for v, ds in net.rot.items()}


def test_degenerate_no_path_measurement_zero():
    edges = {1: (1, 10, Fraction(2))}
    net = PlanarDirectedNetwork(2, [True, False], edges, rot_ids={1: [1], 10: [1], 2: []})
    assert boundary_measurement(net, 1, 2) == 0


def test_switch_figure_parallel_paths():
    # two parallel routes of weights x, y: A(N) = (1, x + y); at x=1, y=2
    # this is (1, 3), and reversing the full lower route inverts it
    edges = {1: (1, 10, Fraction(1)), 2: (10, 11, Fraction(1)),
             3: (10, 11, Fraction(2)), 4: (11, 2, Fraction(1))}
    rot_ids = {1: [1], 2: [4], 10: [1, 2, 3], 11: [2, 4, 3]}
    net = PlanarDirectedNetwork(2, [True, False], edges, rot_ids=rot_ids)
    A = boundary_measurement_matrix(net)
    assert A.rows == ((1, 3),)
    other = switch_orientation(net, [1, 3, 4])
    B = boundary_measurement_matrix(other)
    assert B.rows == ((Fraction(1, 3), 1),)
    assert measure(other).projectively_equal(measure(net))


def test_random_measurement_matrices_are_tnn():
    from oracles import is_tnn
    done = 0
    for _ in range(12):
        net = random_grid_network(rng, n=4, w=2, h=2, max_internal=6)
        if net is None:
            continue
        assert is_tnn(boundary_measurement_matrix(net))
        done += 1
    assert done >= 6


def test_nested_cycle_measurement():
    """Cycles nested inside inserted cycles: the excursion denominators
    form a continued fraction, not a flat (1 + sum of cycles).

    Chain b1 -> u -> b2 with a 2-cycle u<->v and another 2-cycle v<->w
    hanging off it: M_12 = ab / (1 + cd/(1 + ef)).  The in-edges of u sit
    side by side in its rotation, so every loop flips the winding parity.
    """
    edges = {1: (1, 10, Fraction(1)), 2: (10, 2, Fraction(1)),
             3: (10, 11, Fraction(1)), 4: (11, 10, Fraction(1)),
             5: (11, 12, Fraction(1)), 6: (12, 11, Fraction(1))}
    rot_ids = {1: [1], 2: [2], 10: [1, 4, 3, 2], 11: [6, 5, 4, 3], 12: [6, 5]}
    net = PlanarDirectedNetwork(2, [True, False], edges, rot_ids=rot_ids)
    got = boundary_measurement(net, 1, 2)
    assert got == 1 / (1 + Fraction(1) / (1 + 1)) == Fraction(2, 3)
    assert formal_series(net, 1, 2, 13) == rational_series(net, 1, 2, 13)
    # weights that distinguish the naive formula from the nested one
    edges = {e: (u, w, x) for e, (u, w, x) in edges.items()}
    edges[3] = (10, 11, Fraction(2))
    edges[5] = (11, 12, Fraction(3))
    net = PlanarDirectedNetwork(2, [True, False], edges, rot_ids=rot_ids)
    assert boundary_measurement(net, 1, 2) == 1 / (1 + Fraction(2) / (1 + 3)) == Fraction(2, 3)
    assert formal_series(net, 1, 2, 13) == rational_series(net, 1, 2, 13)
    # u alternating (in, out, in, out): the first loop at u keeps the winding
    # parity and each later one flips it, so M_12 = 1 + c/(1 + c) with
    # c = cd/(1 + ef) = 1/2 at unit weights
    edges = {e: (u, w, Fraction(1)) for e, (u, w, _) in edges.items()}
    alt = PlanarDirectedNetwork(2, [True, False], edges, rot_ids={**rot_ids, 10: [1, 3, 4, 2]})
    assert boundary_measurement(alt, 1, 2) == 1 + Fraction(1, 2) / (1 + Fraction(1, 2)) == Fraction(4, 3)


def test_acyclic_path_sum_matches_exhaustive_on_hook_networks():
    # every Le-diagram with n <= 6, randomly weighted, and a random gauge
    # transform of its hook network
    from oracles import enumerate_le_diagrams
    from positroid.lediagram import diagram_to_tableau, gamma_network
    local = random.Random(606)
    done = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_in_box(k, n - k):
                for D in enumerate_le_diagrams(k, n, lam):
                    T = diagram_to_tableau(D, {b: random_rational(local, 1, 30) for b in D.boxes()})
                    net = gamma_network(T)
                    t = {v: random_rational(local, 1, 9) for v in net.internal_vertices()}
                    for N in (net, gauge_transform(net, t)):
                        assert N.is_acyclic()
                        assert boundary_measurement_matrix(N) == exhaustive_matrix(N)
                    done += 1
    assert done == 2365


def test_cyclic_matrix_matches_exhaustive_oracle():
    """The Kasteleyn-signed solve against the exhaustive walk sum: on the
    perfect trivalent form always, on the network itself when no vertex
    alternates (at an alternating vertex the exhaustive evaluator's sign
    rule fails; see test_cli's alternating-vertex network)."""
    local = random.Random(707)
    done = alternating = 0
    while done < 220:
        net = random_grid_network(local, n=local.randint(2, 5), w=3, h=2, max_internal=8,
                                  require_cycle=True)
        if net is None:
            continue
        A = boundary_measurement_matrix(net)
        assert A == exhaustive_matrix(perfect_and_trivalent(net))
        if has_alternating_vertex(net):
            alternating += 1
        else:
            assert A == exhaustive_matrix(net)
        done += 1
    assert alternating >= 20


@pytest.mark.parametrize("L, M", [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)])
def test_cyclic_matrix_on_manhattan_grids(L, M):
    local = random.Random(100 * L + M)
    done = 0
    while done < 2:
        east = tuple(local.random() < 0.5 for _ in range(L))
        north = tuple(local.random() < 0.5 for _ in range(M))
        net = manhattan_grid(local, L, M, east, north)
        if net.is_acyclic():
            continue
        assert not has_alternating_vertex(net)
        assert boundary_measurement_matrix(net) == exhaustive_matrix(net)
        done += 1


CASCADE_NETWORK = """n 3
sources 1
vertex 1 boundary : 7 11
vertex 2 boundary : 2 1
vertex 4 internal : 4 3 2
vertex 5 internal : 6 5 4
vertex 6 internal : 6
vertex 7 internal : 1 8 7
vertex 8 internal : 3 9 8
vertex 9 internal : 5 10 9
vertex 10 internal : 13 12 11
vertex 11 internal : 10 15 14 13
vertex 12 internal : 12 16
vertex 13 internal : 14 16
edge 1 : 7 2 23/32
edge 2 : 4 2 5/6
edge 3 : 8 4 12/35
edge 4 : 5 4 38/23
edge 5 : 9 5 23/26
edge 6 : 6 5 7/6
edge 7 : 1 7 8/11
edge 8 : 8 7 23/24
edge 9 : 8 9 17/26
edge 10 : 11 9 14/5
edge 11 : 1 10 1/40
edge 12 : 10 12 11/39
edge 13 : 11 10 19/12
edge 14 : 13 11 23/26
edge 15 : 11 3 23/40
edge 16 : 12 13 31/19
"""


def test_cyclic_split_form_drops_internal_sources_first():
    """Vertices 6 and 8 are internal sources, and the one directed cycle
    is 10 -> 12 -> 13 -> 11 -> 10.  Halved, an internal source leaves a
    pendant in-half that the Kasteleyn face rule does not count; with the
    two kept, M_12 comes out as -28708623/57231460."""
    from positroid.network import _split_form
    net = PlanarDirectedNetwork.from_text(CASCADE_NETWORK)
    assert _split_form(net).rot.keys() == net.rot.keys() - {6, 8}
    assert boundary_measurement(net, 1, 2) == Fraction(31124267, 57231460)
    A = boundary_measurement_matrix(net)
    P = perfect_and_trivalent(net)
    assert A == boundary_measurement_matrix(P) == exhaustive_matrix(P)


def _with_island(net, local):
    """net with a directed triangle of three new vertices that no edge joins
    to the rest."""
    v, e = max(net.rot) + 1, max(net.edges) + 1
    edges, rot = dict(net.edges), dict(net.rot)
    for t in range(3):
        edges[e + t] = (v + t, v + (t + 1) % 3, random_rational(local, 1, 9))
        rot[v + t] = ((e + t, 0), (e + (t - 1) % 3, 1))
    return PlanarDirectedNetwork(net.n, net.source_flags, edges, rot=rot)


def test_cyclic_split_form_measures_as_the_perfect_form():
    """The Kasteleyn route on the split form against the same route on the
    perfect trivalent form, on random grids (with alternating vertices,
    with vertices dropped although they have in- and out-edges, with boundary
    vertices of degree other than 1), the same with a loop and with a
    detached directed triangle.  Every split form has in- and out-edges
    at each internal vertex, the in-darts side by side, a boundary vertex
    in each component, and the faces of a freshly traced map."""
    from positroid.network import _apart, _split_form
    from positroid.planarmaps import DiskMap
    local = random.Random(919)
    seen = dict.fromkeys(("alternating", "pruned through", "boundary degree", "loop alternating"), 0)
    for _ in range(150):
        net = None
        while net is None:
            net = random_grid_network(local, n=local.randint(2, 6), w=local.randint(2, 4),
                                      h=local.randint(2, 3), max_internal=10, require_cycle=True)
        loop = _with_loop(net, local)
        seen["alternating"] += has_alternating_vertex(net)
        seen["loop alternating"] += has_alternating_vertex(loop) and not has_alternating_vertex(net)
        seen["boundary degree"] += any(net.degree(i) != 1 for i in net.boundary)
        for N in (net, loop, _with_island(net, local)):
            P = _split_form(N)
            for v in P.internal_vertices():
                assert P.in_edges(v) and P.out_edges(v) and not _apart(P.rot[v])
            assert all(any(v in P.boundary for v in comp) for comp in P.components())
            fresh = DiskMap(P.boundary, P.map.edges, P.rot)
            assert {frozenset(f) for f in P.map.faces()} == {frozenset(f) for f in fresh.faces()}
            assert boundary_measurement_matrix(N) == boundary_measurement_matrix(perfect_and_trivalent(N))
        dropped = net.rot.keys() - _split_form(net).rot.keys()
        seen["pruned through"] += any(net.in_edges(v) and net.out_edges(v) for v in dropped)
    assert min(seen.values()) >= 20, seen


def _cyclic_perfect_networks(seed, count):
    local = random.Random(seed)
    out = []
    while len(out) < count:
        net = random_grid_network(local, n=local.randint(2, 5), w=3, h=2, max_internal=8,
                                  require_cycle=True)
        if net is not None:
            out.append(perfect_and_trivalent(net))
    return out


def _with_loop(net, local):
    """net with one more edge, a loop at a random internal vertex, its two
    darts side by side at a random place in the rotation and in either order."""
    v = local.choice(sorted(v for v in net.internal_vertices() if net.rot[v]))
    e = max(net.edges) + 1
    ds = list(net.rot[v])
    at = local.randrange(len(ds) + 1)
    ds[at:at] = [(e, 0), (e, 1)] if local.random() < 0.5 else [(e, 1), (e, 0)]
    edges = {**net.edges, e: (v, v, random_rational(local, 1, 9))}
    return PlanarDirectedNetwork(net.n, net.source_flags, edges, rot={**net.rot, v: tuple(ds)})


def test_topological_order_contract():
    """On the hook network of every Le-diagram with n <= 6, on seeded grid
    networks, acyclic and cyclic, and on the acyclic ones with a loop at an
    internal vertex: None exactly when a depth-first search finds a directed
    cycle, a loop included, and otherwise every vertex once with every edge
    pointing forward, in the order of the method-call Kahn's algorithm."""
    from oracles import enumerate_le_diagrams, reference_topological_order
    from positroid.lediagram import diagram_to_tableau
    local = random.Random(2121)
    hooks = [gamma_network(diagram_to_tableau(D, dict.fromkeys(D.boxes(), 1)))
             for n in range(1, 7) for k in range(1, n + 1) for lam in partitions_in_box(k, n - k)
             for D in enumerate_le_diagrams(k, n, lam)]
    grids = [net for net in (random_grid_network(local, n=local.randint(2, 6), w=local.randint(2, 4),
                                                 h=local.randint(2, 3), require_cycle=t % 2 == 1)
                             for t in range(120)) if net is not None]
    loops = [_with_loop(net, local) for net in grids if _find_cycle(net) is None and net.internal_vertices()]
    seen = dict.fromkeys(("hook", "acyclic grid", "cyclic grid", "loop"), 0)
    for kind, nets in (("hook", hooks), ("grid", grids), ("loop", loops)):
        for net in nets:
            order = net.topological_order()
            assert order == reference_topological_order(net)
            assert (order is None) == (_find_cycle(net) is not None)
            if order is not None:
                place = {v: t for t, v in enumerate(order)}
                assert len(order) == len(place) and place.keys() == net.rot.keys()
                assert all(place[u] < place[w] for u, w, _ in net.edges.values())
            seen[kind if kind != "grid" else "cyclic grid" if order is None else "acyclic grid"] += 1
    assert seen["hook"] == 2365 and min(seen.values()) >= 20, seen


def _oracle_corpus():
    """Perfect trivalent forms of cyclic networks: random grids (20 with
    an alternating vertex among them), random grids with a loop, and
    Manhattan grids."""
    local = random.Random(515)
    nets, alternating = [], 0
    while len(nets) < 40 or alternating < 20:
        net = random_grid_network(local, n=local.randint(2, 5), w=3, h=2, max_internal=8,
                                  require_cycle=True)
        if net is None or (len(nets) >= 40 and not has_alternating_vertex(net)):
            continue
        alternating += has_alternating_vertex(net)
        nets.append(net)
    nets += [_with_loop(net, local) for net in nets[:20]]
    for L, M in [(2, 2), (2, 3), (3, 3)]:
        grids = 0
        while grids < 3:
            east = tuple(local.random() < 0.5 for _ in range(L))
            north = tuple(local.random() < 0.5 for _ in range(M))
            net = manhattan_grid(local, L, M, east, north)
            if not net.is_acyclic():
                nets.append(net)
                grids += 1
    return [perfect_and_trivalent(net) for net in nets]


def _random_signs(P, local):
    return {e: local.choice((1, -1)) for e in sorted(P.edges)}


def _walk_sums_or_zero_pivot(walk_sums, P, sign):
    try:
        return walk_sums(P, sign)
    except ZeroDivisionError:
        return "zero pivot"


def test_integer_walk_sums_match_the_fraction_elimination():
    """Kasteleyn signs, where the matrix is also checked exhaustively, and
    random signs, where a pivot may be negative or zero."""
    from oracles import fraction_walk_sums
    from positroid.network import _kasteleyn_signs, _signed_walk_sums
    local = random.Random(525)
    loops = zero = 0
    for P in _oracle_corpus():
        loops += any(u == w for u, w, _ in P.edges.values())
        for sign in (_kasteleyn_signs(P), _random_signs(P, local)):
            got = _walk_sums_or_zero_pivot(_signed_walk_sums, P, sign)
            want = _walk_sums_or_zero_pivot(fraction_walk_sums, P, sign)
            if got == "zero pivot" or want == "zero pivot":
                assert got == want
                zero += 1
                continue
            got = {i: {j: Fraction(a, d) for j, a in row.items() if a} for i, (d, row) in got.items()}
            assert got == {i: {j: x for j, x in row.items() if x} for i, row in want.items()}
        assert boundary_measurement_matrix(P) == exhaustive_matrix(P)
    assert loops >= 20 and zero >= 10


def test_integer_rows_stay_reduced_during_elimination(monkeypatch):
    """d_u > 0 and gcd(d_u, row) = 1 after every step, also under random
    signs, where pivots can be negative."""
    import positroid.network as network
    step = network._eliminate
    local = random.Random(535)
    steps = 0

    def checked(v, out, den, into):
        nonlocal steps
        touched = step(v, out, den, into)
        steps += 1
        assert out.keys() == den.keys()
        for u, row in out.items():
            assert den[u] > 0 and gcd(den[u], *row.values()) == 1
        return touched

    monkeypatch.setattr(network, "_eliminate", checked)
    internal = 0
    for P in _oracle_corpus():
        boundary_measurement_matrix(P)
        internal += len(P.internal_vertices())
        _walk_sums_or_zero_pivot(network._signed_walk_sums, P, _random_signs(P, local))
    assert steps >= internal


def test_integer_path_sums_match_fraction_path_sums():
    """On the hook networks of every Le-diagram with n <= 5 and on random
    acyclic grids: equal values, each pair in lowest terms."""
    from oracles import enumerate_le_diagrams, fraction_path_sums
    from positroid.lediagram import diagram_to_tableau, gamma_network
    from positroid.network import _integer_arcs, _path_sums
    local = random.Random(616)
    nets = []
    for n in range(1, 6):
        for k in range(1, n + 1):
            for lam in partitions_in_box(k, n - k):
                for D in enumerate_le_diagrams(k, n, lam):
                    T = diagram_to_tableau(D, {b: random_rational(local, 1, 30) for b in D.boxes()})
                    nets.append(gamma_network(T))
    grids = 0
    while grids < 60:
        net = random_grid_network(local, n=local.randint(2, 6), w=3, h=3)
        if net is not None and net.is_acyclic():
            nets.append(net)
            grids += 1
    for net in nets:
        order = net.topological_order()
        arcs = _integer_arcs(net)
        for i in net.sources():
            sums = _path_sums(arcs, order, i)
            assert all(d > 0 and gcd(a, d) == 1 for a, d in sums.values())
            assert {v: Fraction(a, d) for v, (a, d) in sums.items()} == fraction_path_sums(net, order, i)


def test_kasteleyn_signs_make_cycles_negative_and_paths_agree():
    from positroid.network import _kasteleyn_signs
    for P in _cyclic_perfect_networks(808, 30):
        sign = _kasteleyn_signs(P)

        def eps(eids):
            out = 1
            for e in eids:
                out *= sign[e]
            return out

        for v in P.internal_vertices():
            assert all(eps(c) == -1 for c in _simple_cycles_at(P, v, ()))
        for i in P.sources():
            for j in P.sinks():
                assert len({eps(p) for p in _simple_paths(P, i, j)}) <= 1


def test_cyclic_entry_signs_match_path_signs():
    """sign([(I - W)^-1]_ij) = eps(P_ij) at every nonzero entry, so
    M_ij = |[(I - W)^-1]_ij|: on Manhattan grids, on the networks the
    exhaustive oracle checks and on split forms of networks with an
    alternating vertex."""
    from oracles import path_signs
    from positroid.network import _kasteleyn_signs, _signed_walk_sums, _split_form
    local = random.Random(545)
    nets, alternating = [], 0
    for L, M in [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]:
        grids = 0
        while grids < 4:
            east = tuple(local.random() < 0.5 for _ in range(L))
            north = tuple(local.random() < 0.5 for _ in range(M))
            net = manhattan_grid(local, L, M, east, north)
            if not net.is_acyclic():
                nets.append(net)
                grids += 1
    nets += _oracle_corpus()
    while alternating < 30:
        net = random_grid_network(local, n=local.randint(2, 6), w=local.randint(2, 4),
                                  h=local.randint(2, 3), max_internal=10, require_cycle=True)
        if net is not None and has_alternating_vertex(net):
            nets.append(net)
            alternating += 1
    signs = {1: 0, -1: 0}
    for net in nets:
        P = _split_form(net)
        sign = _kasteleyn_signs(P)
        for i, (_, row) in _signed_walk_sums(P, sign).items():
            eps = path_signs(P, sign, i)
            for j, a in row.items():
                if a:
                    assert (a > 0) == (eps[j] > 0), (net.to_text(), i, j)
                    signs[eps[j]] += 1
    assert min(signs.values()) >= 100, signs


def test_one_flipped_sign_breaks_the_matrix(monkeypatch):
    """Mutation check: flip eps on one edge of a directed cycle."""
    import positroid.network as network
    right = network._kasteleyn_signs
    checked = 0
    for P in _cyclic_perfect_networks(909, 10):
        expected = exhaustive_matrix(P)
        on_cycle = sorted({e for v in P.internal_vertices() for c in _simple_cycles_at(P, v, ()) for e in c})
        for flip in on_cycle:
            def wrong(Q, flip=flip):
                sign = right(Q)
                sign[flip] = -sign[flip]
                return sign
            monkeypatch.setattr(network, "_kasteleyn_signs", wrong)
            try:
                checked += boundary_measurement_matrix(P) != expected
            except ZeroDivisionError:   # a zero pivot: some cycle family cancels
                checked += 1
            monkeypatch.setattr(network, "_kasteleyn_signs", right)
            assert boundary_measurement_matrix(P) == expected
    assert checked >= 10


def test_acyclic_matrix_takes_path_sums(monkeypatch):
    import positroid.network as network

    def refuse(net):
        raise AssertionError("acyclic network sent to the cyclic route")

    monkeypatch.setattr(network, "perfect_and_trivalent", refuse)
    monkeypatch.setattr(network, "_split_form", refuse)
    edges = {1: (1, 10, Fraction(2)), 2: (10, 2, Fraction(3)), 3: (1, 2, Fraction(5))}
    net = PlanarDirectedNetwork(2, [True, False], edges, rot_ids={1: [3, 1], 2: [2, 3], 10: [1, 2]})
    assert boundary_measurement_matrix(net).rows == ((1, 11),)


def test_cyclic_route_signs_a_manhattan_grid_on_its_own_map(monkeypatch):
    """No vertex of a Manhattan grid needs a step of the split form, so the
    Kasteleyn signs read the faces traced when the grid was built."""
    from positroid.planarmaps import DiskMap

    def refuse(*args):
        raise AssertionError("the cyclic route derived or relabelled a map")

    local = random.Random(33)
    net = manhattan_grid(local, 3, 3, (True, False, True), (False, True, False))
    assert not net.is_acyclic()
    want = boundary_measurement_matrix(perfect_and_trivalent(net))
    monkeypatch.setattr(DiskMap, "derive", refuse)
    monkeypatch.setattr(DiskMap, "relabel", refuse)
    assert boundary_measurement_matrix(net) == want
