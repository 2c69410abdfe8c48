"""The benchmark's workloads: seeded inputs, CLI pipelines and exact checks.

Every input is made here from the workload seed; nothing is imported from
the test suite, so a change to the test helpers cannot change what the
benchmark measures.  A workload is a list of tasks.  A task is one or more
CLI pipelines (``Task.run``) whose outputs are compared by ``Task.check``
outside the timed region; ``Task.digest`` lists the canonical outputs that
two runs with the same seed must reproduce.
"""

import ast
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from positroid import cli, lediagram, network, permutations, plabic, planarmaps
from positroid.exactmath import Matroid, RationalMatrix, lex_min_base, maximal_minor


class TaskFailed(Exception):
    """A pipeline stage exited non-zero or an output failed its check."""


def run_cli(argv, stdin_text=""):
    """Run ``positroid <argv>`` in-process with stdin/stdout in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as ex:     # argparse rejected the arguments
                code = ex.code
    finally:
        sys.stdin = saved
    if code != 0:
        raise TaskFailed(f"positroid {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


def random_ratio(rng, hi):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def _random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    col = {i: rng.choice((permutations.BLACK, permutations.WHITE))
           for i in range(1, n + 1) if perm[i - 1] == i}
    return permutations.DecoratedPermutation(perm, col)


def _random_perm_of_type(rng, n, ks):
    while True:
        pi = _random_perm(rng, n)
        if pi.k() in ks:
            return pi


# -- cyclic_measure ------------------------------------------------------------------

# (L, M) Manhattan grids and how many of each go into one pass.
MANHATTAN_MIX = {(3, 3): 16, (3, 4): 10, (3, 5): 6, (4, 4): 5, (4, 5): 3}
MINOR_SAMPLE = 32


def street_directions(L, M, count):
    """`count` direction patterns (east?, north?) of L x M grids with a directed cycle.

    The patterns are a fixed catalogue, the same for every seed: the cost of
    a grid depends mostly on its cycle structure (3 x 4 grids range over a
    factor of three, 4 x 5 grids over five), so drawing the directions from
    the run seed would make the pass cost, and every metric, depend on the
    seed.  The seed reflects each grid instead (see `manhattan_network`).
    """
    rng = random.Random(100 * L + M)
    out = []
    while len(out) < count:
        east = tuple(rng.random() < 0.5 for _ in range(L))
        north = tuple(rng.random() < 0.5 for _ in range(M))
        if manhattan_grid(L, M, east, north, lambda: 1).is_acyclic() or (east, north) in out:
            continue
        out.append((east, north))
    return out


def manhattan_network(rng, L, M, east, north):
    """The grid of `manhattan_grid`, mirrored and weighted from the seed.

    Mirroring left-right or top-bottom reverses street directions and
    relabels the boundary; each edge gets a weight a/b with 1 <= a, b <= 9.
    """
    if rng.random() < 0.5:
        east, north = tuple(not d for d in east), north[::-1]
    if rng.random() < 0.5:
        east, north = east[::-1], tuple(not d for d in north)
    return manhattan_grid(L, M, east, north, lambda: random_ratio(rng, 9))


def manhattan_grid(L, M, east, north, weight):
    """A Manhattan street grid with L east-west and M north-south streets.

    Every street crosses the disk and its two ends are boundary vertices,
    so n = 2(L + M).  Street i runs east when east[i - 1], avenue j north
    when north[j - 1]; `weight()` gives each edge its weight.
    """
    n = 2 * (L + M)
    # clockwise: tops of the avenues, right ends of the streets (top down),
    # bottoms of the avenues (right to left), left ends (bottom up)
    ends = ([(j, L + 1) for j in range(1, M + 1)] + [(M + 1, i) for i in range(L, 0, -1)]
            + [(j, 0) for j in range(M, 0, -1)] + [(0, i) for i in range(1, L + 1)])
    vid = {p: b for b, p in enumerate(ends, start=1)}
    for i in range(1, L + 1):
        for j in range(1, M + 1):
            vid[(j, i)] = n + (i - 1) * M + j
    pos = {v: p for p, v in vid.items()}
    streets = []
    for i in range(1, L + 1):
        line = [(x, i) for x in range(M + 2)]
        streets.append(line if east[i - 1] else line[::-1])
    for j in range(1, M + 1):
        line = [(j, y) for y in range(L + 2)]
        streets.append(line if north[j - 1] else line[::-1])
    edges = {}
    for line in streets:
        for a, b in zip(line, line[1:]):
            edges[len(edges) + 1] = (vid[a], vid[b], weight())
    flags = [False] * n
    for line in streets:
        flags[vid[line[0]] - 1] = True
    rot = planarmaps.rotations_from_coordinates({e: (u, w) for e, (u, w, _) in edges.items()}, pos)
    return network.PlanarDirectedNetwork(n, flags, edges, rot=rot)


class MeasureTask:
    """``positroid measure <net> --matrix`` on a cyclic network.

    The check: the source columns form the identity, every entry is an
    exact rational, and MINOR_SAMPLE maximal minors are nonnegative, as all
    are for the matrix of a planar network (flipping the sign of one column
    makes about one minor in six negative).
    """

    def __init__(self, path, k):
        self.path = path
        self.k = k

    def run(self):
        return run_cli(["measure", self.path, "--matrix"])

    def check(self, out):
        A = RationalMatrix.from_text(out)
        net = network.PlanarDirectedNetwork.from_text(_read(self.path))
        sources = sorted(net.sources())
        if (A.k, A.n) != (len(sources), net.n) or A.k != self.k:
            raise TaskFailed(f"matrix is {A.k} x {A.n}")
        for r, i in enumerate(sources):
            for c, j in enumerate(sources):
                if A[r, j - 1] != (1 if r == c else 0):
                    raise TaskFailed(f"source columns are not the identity at ({r + 1}, {j})")
        if any(not isinstance(x, Fraction) for row in A.rows for x in row):
            raise TaskFailed("inexact entry")
        sample = random.Random(out)    # A(N) is totally nonnegative: sample its minors
        for _ in range(MINOR_SAMPLE):
            J = sorted(sample.sample(range(1, A.n + 1), A.k))
            if maximal_minor(A, J) < 0:
                raise TaskFailed(f"negative maximal minor on columns {J}")
        if out != A.to_text():
            raise TaskFailed("matrix text is not canonical")

    def digest(self, out):
        return [out]


def cyclic_measure(seed, write):
    """MANHATTAN_MIX grids, each mirrored and weighted from the seed."""
    rng = random.Random(seed)
    tasks = []
    for (L, M), count in MANHATTAN_MIX.items():
        for east, north in street_directions(L, M, count):
            net = manhattan_network(rng, L, M, east, north)
            tasks.append(MeasureTask(write(net.to_text()), L + M))
    return tasks


# -- inverse_roundtrip ---------------------------------------------------------------

# n -> (tableaux per pass, how many of them are top cells): 24 of 54 are top
# cells.  The eight costliest tasks are the n >= 11 cells and the next four
# the n = 10 top cells, so the tail (the eleventh costliest) is always an
# n = 10 top cell rather than a random one.
INVERSE_MIX = {6: (12, 5), 7: (12, 5), 8: (8, 3), 9: (8, 3), 10: (6, 4), 11: (4, 2), 12: (4, 2)}


def le_tableau(rng, n, top):
    """A Le-tableau with k = n // 2 (or (n + 1) // 2) and entries a/b, a, b <= 30.

    Top cells fill the whole k x (n - k) rectangle.  The other cells come
    from ``le_from_perm`` of a seeded random decorated permutation, which
    avoids listing every Le-filling of a shape; it is redrawn until the cell
    has half the top cell's dimension (within 1), because the cost of
    ``measure`` grows with the dimension and the costliest tasks set
    ``task_tail_ms``.
    """
    ks = {n // 2, (n + 1) // 2}
    if top:
        pi = permutations.top_permutation(rng.choice(sorted(ks)), n)
    else:
        while True:
            pi = _random_perm_of_type(rng, n, ks)
            k = pi.k()
            if abs(2 * permutations.rank(pi) - k * (n - k)) <= 2:
                break
    D = permutations.le_from_perm(pi)
    return lediagram.diagram_to_tableau(D, {b: random_ratio(rng, 30) for b in D.boxes()})


class InverseTask:
    """``le2net T | measure - --matrix | invert -``, which must give back T."""

    def __init__(self, path, text):
        self.path = path
        self.text = text

    def run(self):
        net = run_cli(["le2net", self.path])
        matrix = run_cli(["measure", "-", "--matrix"], net)
        return run_cli(["invert", "-"], matrix)

    def check(self, out):
        if lediagram.LeTableau.from_text(out) != lediagram.LeTableau.from_text(self.text):
            raise TaskFailed("inverted tableau differs from the input")

    def digest(self, out):
        return [out]


def inverse_roundtrip(seed, write):
    """INVERSE_MIX tableaux: top cells first, then random cells, for each n."""
    rng = random.Random(seed)
    tasks = []
    for n, (count, tops) in INVERSE_MIX.items():
        for t in range(count):
            text = le_tableau(rng, n, t < tops).to_text()
            tasks.append(InverseTask(write(text), text))
    return tasks


# -- plabic_query --------------------------------------------------------------------

QUERY_NS = (6, 7)
QUERY_COVERS_PER_TOP = 5
# Random n = 8 cells per dimension.  From dimension 9 on the cost grows
# about threefold per dimension and varies twofold within one (0.17-0.3 s
# at 12, 0.5 s at 13, 1 s at 14), so unstratified draws would let a rare
# cell set the pass time and the tail.  The n = 7 top cells (dimension 12),
# their covers and the matroid ladder in ladder.py show the growth.
QUERY_N8_RANKS = range(4, 9)
QUERY_N8_PER_RANK = 3


class QueryTask:
    """``perm2graph pi | trips -``, ``| matroid -`` and ``poset --covers pi``."""

    def __init__(self, perm):
        self.perm = perm

    def run(self):
        graph = run_cli(["perm2graph", self.perm])
        return (run_cli(["trips", "-"], graph), run_cli(["matroid", "-"], graph),
                run_cli(["poset", "--covers", self.perm]))

    def check(self, out):
        trip, bases, covers = out
        pi = permutations.DecoratedPermutation.parse(self.perm)
        if permutations.DecoratedPermutation.parse(trip) != pi:
            raise TaskFailed(f"trip permutation {trip.strip()} != {self.perm}")
        M = Matroid.from_text(bases)
        neck = permutations.necklace_from_perm(pi)
        if any(lex_min_base(M, i) != frozenset(neck[i]) for i in range(1, pi.n + 1)):
            raise TaskFailed("lex-min bases differ from the Grassmann necklace")
        r = permutations.rank(pi)
        for line in covers.splitlines():
            if line == "(none)":
                continue
            cover = permutations.DecoratedPermutation.parse(line)
            if cover.type() != pi.type() or permutations.rank(cover) != r - 1:
                raise TaskFailed(f"cover {line} is not of type {pi.type()} and rank {r - 1}")

    def digest(self, out):
        trip, bases, covers = out
        return [trip, "\n".join(sorted(bases.splitlines())), covers]


def plabic_query(seed, write):
    """Top cells with n in {6, 7}, the first covers `poset --covers` lists of
    each, and seeded n = 8 cells, QUERY_N8_PER_RANK of each dimension."""
    rng = random.Random(seed)
    perms = []
    for n in QUERY_NS:
        for k in range(2, n - 1):
            top = permutations.top_permutation(k, n)
            perms.append(top)
            perms += permutations.covers(top)[:QUERY_COVERS_PER_TOP]
    for r in QUERY_N8_RANKS:
        for _ in range(QUERY_N8_PER_RANK):
            pi = _random_perm(rng, 8)
            while permutations.rank(pi) != r:
                pi = _random_perm(rng, 8)
            perms.append(pi)
    return [QueryTask(pi.format()) for pi in perms]


# -- plabic_rewrite ------------------------------------------------------------------

REWRITE_CELLS = 40
REWRITE_BIGONS = 5
REWRITE_MOVES = (30, 40)


def _insert_bigon(G, e, colr):
    """Replace edge e by a path through a parallel pair (an R1 site)."""
    u, w = G.edges[e]
    m1 = max([G.n] + [v for v in G.rot if isinstance(v, int)] + list(G.edges)) + 1
    m2 = m1 + 1
    ea, ep, eq, eb = (max(G.edges) + 1 + t for t in range(4))
    edges = {f: uw for f, uw in G.edges.items() if f != e}
    edges.update({ea: (u, m1), ep: (m1, m2), eq: (m1, m2), eb: (m2, w)})
    swap = {(e, 0): (ea, 0), (e, 1): (eb, 1)}
    rot = {v: tuple(swap.get(d, d) for d in ds) for v, ds in G.rot.items()}
    rot[m1] = ((ea, 1), (ep, 0), (eq, 0))
    rot[m2] = ((eb, 0), (eq, 1), (ep, 1))
    col = dict(G.col)
    col[m1], col[m2] = colr, -colr
    return plabic.PlabicGraph(G.n, col, edges, rot=rot)


def _random_weights(rng, G):
    """Positive face weights a/b (a, b <= 9) multiplying to 1."""
    keys = sorted(plabic.face_weight_keys(G))
    weights = {key: random_ratio(rng, 9) for key in keys[:-1]}
    prod = Fraction(1)
    for x in weights.values():
        prod *= x
    weights[keys[-1]] = 1 / prod
    return plabic.PlabicNetwork(G, weights)


def _move_sites(rng, G):
    """Seeded M1/M2/M3 sites of G; M3 insertions and M2 splits grow the graph."""
    internal = sorted(G.internal_vertices())
    sites = [("M1", key) for key in plabic.square_faces(G)]
    sites += [("M2", e) for e, (u, w) in sorted(G.edges.items())
              if u != w and G.col.get(u) is not None and G.col.get(u) == G.col.get(w)]
    sites += [("M3r", v) for v in internal
              if G.degree(v) == 2 and len({e for e, _ in G.rot[v]}) == 2]
    grow = [("M3", e, rng.choice((permutations.BLACK, permutations.WHITE))) for e in sorted(G.edges)]
    for v in internal:
        d = G.degree(v)
        if d >= 4:
            i = rng.randrange(d)
            grow.append(("M2u", v, i, (i + 2) % d))
    return sites, grow


def scrambled_network(rng, pi):
    """The weighted plabic network of pi with bigons and 30-40 seeded moves."""
    D = permutations.le_from_perm(pi)
    G = plabic.network_from_le(lediagram.diagram_to_tableau(D)).graph
    for _ in range(REWRITE_BIGONS):
        G = _insert_bigon(G, rng.choice(sorted(G.edges)),
                          rng.choice((permutations.BLACK, permutations.WHITE)))
    N = _random_weights(rng, G)
    for _ in range(rng.randint(*REWRITE_MOVES)):
        sites, grow = _move_sites(rng, N.graph)
        pool = grow if len(N.graph.edges) < 50 or not sites else sites + grow
        N = plabic.apply_move(N, rng.choice(pool))
    return N


class RewriteTask:
    """``positroid reduce <net> --json``: reduced, same cell, replayable trace."""

    def __init__(self, path, text, perm):
        self.path = path
        self.text = text
        self.perm = perm

    def run(self):
        return run_cli(["reduce", self.path, "--json"])

    def check(self, out):
        data = json.loads(out)
        red = plabic.PlabicGraph.from_text(data["text"])
        G = red.graph
        if not plabic.is_reduced(G):
            raise TaskFailed("output is not reduced")
        if plabic.trips(G).decorated(G) != permutations.DecoratedPermutation.parse(self.perm):
            raise TaskFailed("output trip permutation differs from the cell's")
        cur = plabic.PlabicGraph.from_text(self.text)
        for step in data["trace"]:
            kind, args = step[0], tuple(ast.literal_eval(a) for a in step[1:])
            if kind == "singleton":    # weighted removal, as reduce_graph does it
                cur = plabic._transfer_weights(cur, plabic.remove_singleton(cur.graph, *args))
            elif kind[0] == "R":
                cur = plabic.apply_reduction(cur, (kind, *args))
            else:
                cur = plabic.apply_move(cur, (kind, *args))
        if cur.to_text() != data["text"]:
            raise TaskFailed("replaying the trace does not reproduce the output")

    def digest(self, out):
        """The reduced graph itself is not canonical; its cell and size are."""
        G = plabic.PlabicGraph.from_text(json.loads(out)["text"]).graph
        return [plabic.trips(G).decorated(G).format(), str(len(plabic.faces(G)))]


def plabic_rewrite(seed, write):
    """Scrambled networks of two top cells of each n in {6, 7, 8} and of
    random cells of type (k, n) with 2 <= k <= n - 2."""
    rng = random.Random(seed)
    tasks = []
    for t in range(REWRITE_CELLS):
        n = (6, 7, 8)[t % 3]
        if t < 6:
            pi = permutations.top_permutation(n // 2, n)
        else:
            pi = _random_perm_of_type(rng, n, range(2, n - 1))
        text = scrambled_network(rng, pi).to_text()
        tasks.append(RewriteTask(write(text), text, pi.format()))
    return tasks


WORKLOADS = {
    "cyclic_measure": cyclic_measure,
    "inverse_roundtrip": inverse_roundtrip,
    "plabic_query": plabic_query,
    "plabic_rewrite": plabic_rewrite,
}
