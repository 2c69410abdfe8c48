"""Symmetries of the disk as oracles: trips and `reduce` commute with them.

Three maps act on a plabic graph G with trip permutation pi, and each
law below was fixed by the exact check on every cell with n <= 6:

- `swap_colours` (black <-> white): pi^-1.  A trip turns right at black
  and left at white, so each trip of the swapped graph is a trip of G run
  backwards; a fixed point keeps its place, and its boundary leaf, so its
  colour, swaps.
- `turn_boundary` (b_i renamed b_{i+1}, b_n renamed b_1), with r(i) =
  i + 1 mod n: r pi r^-1, each fixed point i becoming r(i) with its colour.
- `mirror` (b_i renamed b_{n+1-i}, every rotation reversed), with s(i) =
  n + 1 - i: s pi^-1 s^-1, each fixed point i becoming s(i) with its
  colour.  In the mirror image a right turn reads as a left one, so the
  trips of the mirrored graph are those of G, reflected and run backwards.

`reduce` keeps the cell, so the cell of `reduce`'s output moves the same
way, and a graph with no perfect orientation keeps none.  That is checked
on the chord corpus of test_reduce_chord_corpus and on the scrambled
networks of the seed-1 `plabic_rewrite` benchmark inputs, taken bare.
"""

import os
import random
import sys

from helpers import chord_graph
from oracles import conjugated, mirror, swap_colours, turn_boundary

from positroid.permutations import all_decorated_permutations
from positroid.plabic import NotPerfectlyOrientable, PlabicGraph, graph_from_perm, reduce_graph, trip_permutation


def _laws(n):
    """(action on graphs, its action on decorated permutations of n)."""
    return ((swap_colours, lambda pi: conjugated(pi, lambda i: i, invert=True, swap=True)),
            (turn_boundary, lambda pi: conjugated(pi, lambda i: i % n + 1)),
            (mirror, lambda pi: conjugated(pi, lambda i: n + 1 - i, invert=True)))


def test_trip_permutations_follow_the_symmetries():
    cells = 0
    for n in range(1, 7):
        laws = _laws(n)
        for pi in all_decorated_permutations(n):
            G = graph_from_perm(pi)
            for act, moved in laws:
                assert trip_permutation(act(G)) == moved(pi), (pi, act.__name__)
            cells += 1
    assert cells == 2371


def _cell(G):
    """The decorated trip permutation of reduce_graph's output, or None
    when G has no perfect orientation."""
    try:
        red = reduce_graph(G)[0]
    except NotPerfectlyOrientable:
        return None
    return trip_permutation(red)


def _rewrite_inputs():
    """The seed-1 plabic_rewrite inputs of the benchmark, as bare graphs."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [PlabicGraph.from_text(task.text).graph for task in workloads.plabic_rewrite(1, lambda text: text)]


def test_reduce_keeps_the_symmetries():
    graphs = []
    for seed in range(300):
        r = random.Random(seed)
        graphs.append(chord_graph(r, r.randint(5, 8), r.randint(1, 3)))
    graphs += _rewrite_inputs()
    unorientable = 0
    for G in graphs:
        pi = _cell(G)
        unorientable += pi is None
        for act, moved in _laws(G.n):
            assert _cell(act(G)) == (None if pi is None else moved(pi)), act.__name__
    assert (len(graphs), unorientable) == (340, 13)
