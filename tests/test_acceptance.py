"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion is exact (no tolerances anywhere) and carries its stated
runtime budget as an assertion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from helpers import (attach_leaf, insert_bigon, random_grid_network,
                     random_plabic_network, random_rational, reweight)
from oracles import (bruhat_interval_count, formal_series, perfect_orientations, rational_series,
                     staircase_check)
from positroid.enumeration import cell_poly, count_cells, count_cells_by_permutations
from positroid.exactmath import (lex_min_base, matroid_of_plucker, maximal_minor,
                                 partitions_in_box)
from positroid.lediagram import (LeDiagram, diagram_to_tableau, invert_measurement,
                                 le_count_poly, le_fills, meas_D, tableau_matrix)
from positroid.network import (PlanarDirectedNetwork, boundary_measurement,
                               boundary_measurement_matrix)
from positroid.permutations import (BLACK, WHITE, all_decorated_permutations,
                                    covers, necklace_from_perm,
                                    le_from_perm, perm_from_le, r_table, rank,
                                    top_permutation)
from positroid.plabic import (apply_move, apply_reduction, contracted,
                              edge_weights_from_faces, graph_from_le,
                              graph_from_perm, matroid, measure_plabic,
                              square_faces, trip_permutation)
from positroid.network import measure


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS  {text}")


def test_criterion_01_enumeration_table():
    t0 = time.time()
    paper = [[1], [1, 1], [1, 3, 1], [1, 7, 7, 1], [1, 15, 33, 15, 1],
             [1, 31, 131, 131, 31, 1], [1, 63, 473, 883, 473, 63, 1]]
    for n in range(7):
        for k in range(n + 1):
            formula = count_cells(k, n)
            by_perm = count_cells_by_permutations(k, n)
            by_le = sum(cell_poly(k, n))
            assert formula == by_perm == by_le == paper[n][k], (k, n)
    assert count_cells(3, 6) == 883 and count_cells(2, 5) == 131
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, f"N_kn table n<=6 reproduced three independent ways in {elapsed:.2f}s")


def test_criterion_02_inverse_boundary_roundtrip():
    t0 = time.time()
    rng = random.Random(2024)
    k, n = 3, 7
    shapes = list(partitions_in_box(k, n - k))
    fills_by_shape = {}
    trips_done = 0
    for _ in range(300):
        lam = rng.choice(shapes)
        full = tuple(lam) + (0,) * (k - len(lam))
        fills = fills_by_shape.setdefault(full, list(le_fills(full)))
        D = LeDiagram(k, n, full, rng.choice(fills))
        vals = {b: random_rational(rng, 1, 50) for b in D.boxes()}
        T = diagram_to_tableau(D, vals)
        assert invert_measurement(tableau_matrix(T)) == T
        trips_done += 1
    elapsed = time.time() - t0
    assert trips_done >= 300 and elapsed < 60
    report(2, f"{trips_done} exact inverse-boundary round trips (shapes in 3x4) in {elapsed:.1f}s")


def test_criterion_03_cyclic_network_example():
    def build(x, y, z, t):
        edges = {1: (1, 3, x), 2: (3, 4, y), 3: (4, 3, z), 4: (4, 2, t)}
        rot_ids = {1: [1], 2: [4], 3: [1, 2, 3], 4: [2, 4, 3]}
        return PlanarDirectedNetwork(2, [True, False], edges, rot_ids=rot_ids)

    assert boundary_measurement(build(1, 1, 1, 1), 1, 2) == Fraction(1, 2)
    assert boundary_measurement(build(2, 3, 5, 7), 1, 2) == Fraction(21, 8)
    report(3, "two-vertex cycle measures 1/2 at unit weights and 21/8 at (2,3,5,7)")


def test_criterion_04_nonnegativity():
    rng = random.Random(4)
    done = 0
    cyclic = 0
    while done < 200:
        n = rng.randint(2, 6)
        net = random_grid_network(rng, n=n, w=3, h=3, keep=0.7, max_internal=12)
        if net is None:
            continue
        if not net.is_acyclic():
            cyclic += 1
        A = boundary_measurement_matrix(net)
        I = sorted(net.sources())
        assert maximal_minor(A, I) == 1
        for J in combinations(range(1, n + 1), len(I)):
            assert maximal_minor(A, J) >= 0
        done += 1
    assert cyclic >= 10  # the sample genuinely exercises cycles
    report(4, f"all maximal minors >= 0 and Delta_I = 1 on {done} random networks ({cyclic} cyclic)")


def test_criterion_05_move_invariance():
    rng = random.Random(5)
    moves_checked = {"M1": 0, "M2": 0, "M2u": 0, "M3": 0, "M3r": 0}
    nets = 0
    while nets < 100:
        N = random_plabic_network(rng, nmax=5, scrambles=rng.randint(0, 4))
        nets += 1
        p0 = measure_plabic(N)
        G = N.graph
        sites = [("M1", key) for key in square_faces(G)]
        sites += [("M2", e) for e, (u, w) in sorted(G.edges.items())
                  if u != w and G.col.get(u) is not None and G.col.get(u) == G.col.get(w)][:1]
        sites += [("M3", sorted(G.edges)[0], rng.choice([BLACK, WHITE]))]
        sites += [("M3r", v) for v in sorted(G.internal_vertices(), key=str)
                  if G.degree(v) == 2 and len({e for e, _ in G.rot[v]}) == 2][:1]
        for v in sorted(G.internal_vertices(), key=str):
            if G.degree(v) >= 2:
                sites.append(("M2u", v, 0, rng.randrange(1, G.degree(v))))
                break
        for mv in sites:
            try:
                N1 = apply_move(N, mv)
            except (ValueError, AssertionError):
                continue
            assert measure_plabic(N1).projectively_equal(p0), mv
            moves_checked[mv[0]] += 1
    # every move kind gets at least one guaranteed applicable site
    base = contracted(graph_from_perm(top_permutation(2, 4)))
    Nbase = reweight(base, rng)
    pbase = measure_plabic(Nbase)
    for key in square_faces(base):
        N1 = apply_move(Nbase, ("M1", key))
        assert measure_plabic(N1).projectively_equal(pbase)
        moves_checked["M1"] += 1
    Nins = apply_move(Nbase, ("M3", sorted(base.edges)[0], BLACK))
    assert measure_plabic(Nins).projectively_equal(pbase)
    moves_checked["M3"] += 1
    mid = next(v for v in Nins.graph.internal_vertices()
               if Nins.graph.degree(v) == 2 and len({e for e, _ in Nins.graph.rot[v]}) == 2)
    Nrem = apply_move(Nins, ("M3r", mid))
    assert measure_plabic(Nrem).projectively_equal(pbase)
    moves_checked["M3r"] += 1
    v0 = sorted(base.internal_vertices())[0]
    Nun = apply_move(Nbase, ("M2u", v0, 0, 1))
    assert measure_plabic(Nun).projectively_equal(pbase)
    moves_checked["M2u"] += 1
    e_uni = next(e for e, (u, w) in sorted(Nun.graph.edges.items())
                 if u != w and Nun.graph.col.get(u) is not None
                 and Nun.graph.col.get(u) == Nun.graph.col.get(w))
    Ncon = apply_move(Nun, ("M2", e_uni))
    assert measure_plabic(Ncon).projectively_equal(pbase)
    moves_checked["M2"] += 1

    # reductions: gadget networks with guaranteed applicable sites
    reds_checked = {"R1": 0, "R2": 0, "R3": 0}
    internal = [e for e, (u, w) in sorted(base.edges.items())
                if not (isinstance(u, int) and u <= 4)
                and not (isinstance(w, int) and w <= 4)]
    for i in range(30):
        G2, (ep, eq) = insert_bigon(base, internal[i % len(internal)], rng)
        N2 = reweight(G2, rng)
        p0 = measure_plabic(N2)
        N3 = apply_reduction(N2, ("R1", ep, eq))
        assert measure_plabic(N3).projectively_equal(p0)
        reds_checked["R1"] += 1
    for i in range(30):
        v = sorted(base.internal_vertices())[i % 4]
        G2, leaf = attach_leaf(base, v, -base.col[v], i % 3)
        try:
            N2 = reweight(G2, rng)
            p0 = measure_plabic(N2)
        except ValueError:
            continue
        N3 = apply_reduction(N2, ("R2", leaf))
        assert measure_plabic(N3).projectively_equal(p0)
        reds_checked["R2"] += 1
    from positroid.plabic import PlabicGraph
    for i in range(10):
        # drop a dipole into the top-cell network
        G = base
        nid = max(v for v in G.rot if isinstance(v, int)) + 1
        eid = max(G.edges) + 1
        edges = dict(G.edges)
        edges[eid] = (nid, nid + 1)
        rot = dict(G.rot)
        rot[nid] = ((eid, 0),)
        rot[nid + 1] = ((eid, 1),)
        col = dict(G.col)
        col[nid] = BLACK
        col[nid + 1] = WHITE
        G2 = PlabicGraph(G.n, col, edges, rot=rot)
        N2 = reweight(G2, rng, special={(eid, 0): Fraction(1)})
        p0 = measure_plabic(N2)
        N3 = apply_reduction(N2, ("R3", nid))
        assert measure_plabic(N3).projectively_equal(p0)
        reds_checked["R3"] += 1
    assert nets >= 100 and all(v > 0 for v in moves_checked.values())
    assert reds_checked["R1"] >= 20 and reds_checked["R2"] >= 20 and reds_checked["R3"] >= 10
    report(5, f"measure invariant over {nets} networks: moves {moves_checked}, reductions {reds_checked}")


def test_criterion_06_orientation_independence():
    rng = random.Random(6)
    done = 0
    total_orients = 0

    def check(N):
        nonlocal done, total_orients
        orients = perfect_orientations(N.graph)
        if not orients:
            return
        pts = [measure(edge_weights_from_faces(N, o)) for o in orients]
        for p in pts[1:]:
            assert p.projectively_equal(pts[0])
        total_orients += len(pts)
        done += 1

    # orientation-rich seeds first (the top cells have many orientations)
    for pi in [top_permutation(2, 4), top_permutation(1, 4), top_permutation(2, 5),
               top_permutation(3, 5)]:
        for _ in range(3):
            check(reweight(contracted(graph_from_perm(pi)), rng))
    while done < 50:
        N = random_plabic_network(rng, nmax=5, scrambles=rng.randint(0, 2))
        k, n = N.graph.type()
        if k == 0:
            continue
        check(N)
    report(6, f"{done} networks, {total_orients} perfect orientations, one projective point each")


def test_criterion_07_bijection_web():
    checked = 0
    for n in range(1, 6):
        for pi in all_decorated_permutations(n):
            assert perm_from_necklace_roundtrip(pi)
            D = le_from_perm(pi)
            assert perm_from_le(D) == pi          # the pipe-dream formula route
            G = graph_from_le(D)
            assert trip_permutation(G) == pi      # the trips-of-graph route
            checked += 1
    report(7, f"necklace, Le (both routes), and graph round trips for all {checked} cells, n<=5")


def perm_from_necklace_roundtrip(pi):
    from positroid.permutations import perm_from_necklace
    return perm_from_necklace(necklace_from_perm(pi)) == pi


def test_criterion_08_matroid_coherence():
    rng = random.Random(8)
    k, n = 2, 5
    cells = 0
    for lam in partitions_in_box(k, n - k):
        full = tuple(lam) + (0,) * (k - len(lam))
        for fill in le_fills(full):
            D = LeDiagram(k, n, full, fill)
            T = diagram_to_tableau(D, {b: random_rational(rng, 1, 20) for b in D.boxes()})
            M_alg = matroid_of_plucker(meas_D(T))
            M_comb = matroid(graph_from_le(D))
            assert M_alg == M_comb
            neck = necklace_from_perm(perm_from_le(D))
            for i in range(1, n + 1):
                assert lex_min_base(M_comb, i) == neck[i]
            cells += 1
    report(8, f"matroid_of(meas_D) = matroid(plabic) = necklace-consistent on all {cells} cells in 2x3")


def test_criterion_09_poset_structure():
    t0 = time.time()
    for (k, n) in [(1, 4), (2, 4), (1, 5), (2, 5)]:
        cells = list(all_decorated_permutations(n, k))
        ranks = {pi: rank(pi) for pi in cells}
        tables = {pi: r_table(pi) for pi in cells}

        def leq(p, q):
            tp, tq = tables[p], tables[q]
            return all(tp[key] <= tq[key] for key in tp)

        # rank generating function equals the q-analogue
        poly = [0] * (k * (n - k) + 1)
        for pi in cells:
            poly[ranks[pi]] += 1
        assert tuple(poly) == cell_poly(k, n)
        # covers computed by crossing-undoing equal the transitive reduction
        idx = {pi: i for i, pi in enumerate(cells)}
        leq_m = [[leq(p, q) for q in cells] for p in cells]
        reduction = set()
        for a, p in enumerate(cells):
            for b, q in enumerate(cells):
                if a == b or not leq_m[a][b]:
                    continue
                if any(c != a and c != b and leq_m[a][c] and leq_m[c][b]
                       for c in range(len(cells))):
                    continue
                reduction.add((a, b))
        computed = {(idx[low], b) for b, q in enumerate(cells) for low in covers(q)}
        assert computed == reduction
        # gradedness: every cover drops rank by exactly one
        for a, b in reduction:
            assert ranks[cells[b]] - ranks[cells[a]] == 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(9, f"CB_kn graded with rank k(n-k)-A, covers = transitive reduction, in {elapsed:.1f}s")


def test_criterion_10_formal_series():
    rng = random.Random(10)
    done = 0
    while done < 20:
        net = random_grid_network(rng, n=rng.randint(2, 3), w=2, h=2,
                                  max_internal=6, require_cycle=True)
        if net is None:
            continue
        i = min(net.sources())
        j = min(net.sinks())
        assert formal_series(net, i, j, 12) == rational_series(net, i, j, 12)
        done += 1
    report(10, f"order-12 winding-signed series equals the rational Taylor expansion on {done} cyclic networks")


def test_criterion_11_bruhat_equinumerosity():
    k, n = 2, 5
    for lam in partitions_in_box(k, n - k):
        assert bruhat_interval_count(lam, k, n) == sum(le_count_poly(tuple(lam)))
    assert staircase_check(3) == 6
    report(11, "Bruhat intervals w_lambda count Le-diagrams (2x3) and staircase(3) = 3!")
