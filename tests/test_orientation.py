"""The polynomial perfect orientation, necklace and matroid against the oracles."""

import random

import pytest

from helpers import chord_graph, insert_bigon, random_le_data
from oracles import exhaustive_matroid, flow_matroid, necklace_from_matroid, perfect_orientations
from positroid.permutations import (BLACK, WHITE, DecoratedPermutation, all_decorated_permutations,
                                    necklace_from_perm, top_permutation)
from positroid.lediagram import meas_D
from positroid.plabic import (PlabicGraph, apply_move, graph_from_perm, matroid, measure_plabic,
                              necklace, network_from_le, orientation_sources, perfect_orientation)


def assert_perfect(G, orient):
    """Out-degree 1 at every black vertex, in-degree 1 at every white one, k sources."""
    assert set(orient) == set(G.edges)
    for e, (t, h) in orient.items():
        assert {t, h} == set(G.edges[e])
    for v in G.internal_vertices():
        ends = [orient[e][0] if G.col[v] == BLACK else orient[e][1] for e in set(G.incident(v))]
        assert ends.count(v) == 1, v
    assert len(orientation_sources(G, orient)) == G.type()[0]


def reversed_edges(G):
    """G with every stored edge direction turned round."""
    return PlabicGraph(G.n, G.col, {e: (w, u) for e, (u, w) in G.edges.items()},
                       rot={v: tuple((e, 1 - end) for e, end in ds) for v, ds in G.rot.items()})


def scrambled_graph(rng, cells):
    """A non-reduced graph: a small reduced graph with bigons, then M2/M3/M2u moves."""
    G = graph_from_perm(rng.choice(cells))
    for _ in range(rng.randint(1, 2)):
        G, _ = insert_bigon(G, rng.choice(sorted(G.edges)), rng)
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(["M2", "M3", "M2u"])
        if kind == "M2":
            sites = [("M2", e) for e, (u, w) in sorted(G.edges.items())
                     if u != w and G.col.get(u) is not None and G.col.get(u) == G.col.get(w)]
        elif kind == "M3":
            sites = [("M3", rng.choice(sorted(G.edges)), rng.choice([BLACK, WHITE]))]
        else:
            sites = [("M2u", v, i, (i + rng.randrange(1, G.degree(v))) % G.degree(v))
                     for v in sorted(G.internal_vertices(), key=str) if G.degree(v) >= 3
                     for i in [rng.randrange(G.degree(v))]]
        if sites:
            H = apply_move(G, rng.choice(sites))
            if len(H.edges) <= 40:
                G = H
    return G


def test_matroid_equals_oracle_on_every_cell_up_to_n6():
    cells = 0
    for n in range(1, 7):
        for pi in all_decorated_permutations(n):
            G = graph_from_perm(pi)
            M = exhaustive_matroid(G)
            assert matroid(G) == M == matroid(reversed_edges(G)), pi.format()
            cells += 1
    assert cells == 2371


def test_necklace_equals_the_permutations_on_every_cell_up_to_n6():
    # the stored directions of graph_from_perm already have sources I_1;
    # reversed, they start the search for I_1 elsewhere
    cells = 0
    for n in range(7):
        for pi in all_decorated_permutations(n):
            G = graph_from_perm(pi)
            assert necklace(G) == necklace(reversed_edges(G)) == necklace_from_perm(pi), pi.format()
            cells += 1
    assert cells == 2372        # n = 0 included


def test_necklace_of_the_top_cell_20_40():
    pi = top_permutation(20, 40)
    assert necklace(graph_from_perm(pi)) == necklace_from_perm(pi)


@pytest.mark.parametrize("perm, base", [("1B 2B 3B", frozenset()), ("1W 2W 3W", frozenset({1, 2, 3}))],
                         ids=["rank-0", "k=n"])
def test_necklace_and_matroid_of_a_cell_with_one_base(perm, base):
    G = graph_from_perm(DecoratedPermutation.parse(perm))
    assert necklace(G).subsets == (base,) * 3
    assert matroid(G).bases == {base}


def test_flow_oracle_agrees_on_the_orientable_chord_corpus():
    orientable = 0
    for seed in range(300):
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        if perfect_orientation(G) is None:
            continue
        orientable += 1
        M = flow_matroid(G)
        assert matroid(G) == M and necklace_from_matroid(M) == necklace(G), seed
    assert orientable == 287


def test_matroid_equals_oracle_on_non_reduced_graphs():
    rng = random.Random(5)
    cells = [pi for n in range(2, 6) for pi in all_decorated_permutations(n)]
    for _ in range(200):
        G = scrambled_graph(rng, cells)
        assert len(G.edges) <= 40
        assert_perfect(G, perfect_orientation(G))
        assert matroid(G) == exhaustive_matroid(G)


def test_perfect_orientation_iff_oracle_finds_one():
    # recolouring one vertex of degree >= 3 often leaves no orientation
    rng = random.Random(7)
    cells = [pi for n in range(2, 6) for pi in all_decorated_permutations(n)]
    seen = {True: 0, False: 0}
    for _ in range(100):
        G = scrambled_graph(rng, cells)
        fat = sorted((v for v in G.internal_vertices() if G.degree(v) >= 3), key=str)
        v = rng.choice(fat or sorted(G.internal_vertices(), key=str))
        G = G.replace({v}, col={**G.col, v: -G.col[v]})
        orient = perfect_orientation(G)
        seen[orient is not None] += 1
        if orient is None:
            assert perfect_orientations(G) == []
            with pytest.raises(ValueError, match="not perfectly orientable"):
                matroid(G)
        else:
            assert_perfect(G, orient)
            assert matroid(G) == exhaustive_matroid(G)
    assert min(seen.values()) >= 10


def test_perfect_orientation_with_loops():
    # black vertex 11 carries a loop, its one out-edge, so edge 2 must point into it
    col = {10: WHITE, 11: BLACK, 12: BLACK}
    edges = {1: (1, 10), 2: (10, 11), 3: (11, 11), 4: (10, 12), 5: (12, 2)}
    rot = {1: ((1, 0),), 2: ((5, 1),), 10: ((1, 1), (2, 0), (4, 0)),
           11: ((2, 1), (3, 0), (3, 1)), 12: ((4, 1), (5, 0))}
    G = PlabicGraph(2, col, edges, rot=rot)
    assert_perfect(G, perfect_orientation(G))
    assert matroid(G) == exhaustive_matroid(G)


def test_matroid_flow_cancels_a_used_edge():
    # sources 1, 4, 6 and sinks 2, 3, 5 of the stored (perfect) orientation.
    # The flow from 1 first takes 1 -> 10 -> 11 -> 5; the one from 4 must
    # cancel 10 -> 11 to reach 2, after which 6 is stuck at black 11, so
    # {2, 3, 5} is not a basis.  Keeping the cancelled edge marked used
    # would let 6 cancel it a second time and wrongly accept {2, 3, 5}.
    col = {10: WHITE, 11: BLACK, 12: BLACK, 13: BLACK}
    edges = {1: (10, 11), 2: (10, 12), 3: (10, 13), 4: (1, 10), 5: (12, 2), 6: (13, 3),
             7: (4, 11), 8: (11, 5), 9: (6, 11)}
    rot_ids = {10: [4, 2, 3, 1], 11: [1, 7, 8, 9]}
    G = PlabicGraph(6, col, edges, rot_ids=rot_ids)
    assert perfect_orientation(G) == G.edges
    M = matroid(G)
    assert frozenset({2, 3, 5}) not in M.bases and M == exhaustive_matroid(G)


def test_dipoles():
    # a black-white dipole orients one way; a black-black one has no orientation
    edges = {1: (11, 10), 2: (1, 2)}
    rot_ids = {10: [1], 11: [1], 1: [2], 2: [2]}
    G = PlabicGraph(2, {10: BLACK, 11: WHITE}, edges, rot_ids=rot_ids)
    assert perfect_orientation(G)[1] == (10, 11)
    G = G.replace({11}, col={10: BLACK, 11: BLACK})
    assert perfect_orientation(G) is None and perfect_orientations(G) == []
    with pytest.raises(ValueError, match="graph is not perfectly orientable"):
        matroid(G)


def test_measure_plabic_equals_meas_D_on_every_shape():
    rng = random.Random(11)
    for k, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        for _ in range(4):
            _, T = random_le_data(rng, k, n)
            N = network_from_le(T)
            assert measure_plabic(N).projectively_equal(meas_D(T))
