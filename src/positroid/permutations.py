"""Decorated permutations, Grassmann necklaces, and the circular Bruhat order.

A decorated permutation is a permutation of [n] whose fixed points carry a
color, +1 (black) or -1 (white).  White fixed points count as
anti-exceedances, so the type (k, n) records k = #{i : pi^{-1}(i) > i or a
white fixed point}.  These objects are in bijection with Grassmann
necklaces, with Le-diagrams, and with the nonnegative Grassmann cells; the
conversions and the containment order of the cells live here.

Chord geometry rests on one clockwise-arc test, `_on_arc`, which
`_simple` applies in its scan without a call per chord.  The chords
i -> pi(i) and j -> pi(j) form a crossing or an alignment by one rule
each; every other pair is a misalignment, so the cell dimension
k(n-k) - A(pi) counts alignments only.  One simplicity rule serves both
crossings and alignments, and undoing a simple crossing gives a cover in
the circular Bruhat order.  The necklace follows the step rule
I_{i+1} = (I_i - {i}) | {pi(i)} from I_1 = I(pi).
"""

from itertools import combinations, permutations as iter_permutations
from typing import NamedTuple

from .exactmath import integer, lambda_to_subset, subset_to_lambda

BLACK, WHITE = 1, -1


class DecoratedPermutation:
    """One-line permutation of [n] with 2-colored fixed points."""

    __slots__ = ("perm", "col")

    def __init__(self, perm, col=None):
        self.perm = tuple(perm)
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"{self.perm} is not a permutation of [{n}]")
        col = dict(col or {})
        for i in col:
            if not (1 <= i <= n and self.perm[i - 1] == i):
                raise ValueError(f"entry {i} is not a fixed point, so it takes no B/W")
        for i in range(1, n + 1):
            if self.perm[i - 1] == i and col.get(i) not in (BLACK, WHITE):
                raise ValueError(f"fixed point {i} needs a colour: {i}B or {i}W")
        self.col = col

    @property
    def n(self):
        return len(self.perm)

    def __call__(self, i):
        return self.perm[i - 1]

    def inverse(self, i):
        return self.perm.index(i) + 1

    def __eq__(self, other):
        return self.perm == other.perm and self.col == other.col

    def __hash__(self):
        return hash((self.perm, tuple(sorted(self.col.items()))))

    def __repr__(self):
        return f"DecoratedPermutation({self.format()!r})"

    def format(self):
        out = []
        for i in range(1, self.n + 1):
            v = str(self.perm[i - 1])
            if i in self.col:
                v += "B" if self.col[i] == BLACK else "W"
            out.append(v)
        return " ".join(out)

    @classmethod
    def parse(cls, text):
        """Parse one-line notation with B/W suffixes, e.g. '3 1 5 4B 2 6W'."""
        perm = []
        col = {}
        for pos, entry in enumerate(text.replace(",", " ").split(), start=1):
            tok = entry
            if tok[-1] in "BWbw":
                col[pos] = BLACK if tok[-1] in "Bb" else WHITE
                tok = tok[:-1]
            try:
                perm.append(integer(tok))
            except ValueError:
                raise ValueError(f"permutation entry {pos}: expected an integer with an "
                                 f"optional B/W suffix, not {entry!r}") from None
        return cls(perm, col)

    def anti_exceedances(self):
        """The set I(pi): i with pi^{-1}(i) > i, plus white fixed points."""
        out = set()
        for i in range(1, self.n + 1):
            ii = self.inverse(i)
            if ii > i or (ii == i and self.col[i] == WHITE):
                out.add(i)
        return frozenset(out)

    def k(self):
        return len(self.anti_exceedances())

    def type(self):
        return (self.k(), self.n)

    def is_loop(self, i):
        return self.perm[i - 1] == i


def all_decorated_permutations(n, k=None):
    """Every decorated permutation of size n (optionally of type (k, n))."""
    for base in iter_permutations(range(1, n + 1)):
        fixed = [i for i in range(1, n + 1) if base[i - 1] == i]
        for whites in range(len(fixed) + 1):
            for ws in combinations(fixed, whites):
                col = {i: (WHITE if i in ws else BLACK) for i in fixed}
                pi = DecoratedPermutation(base, col)
                if k is None or pi.k() == k:
                    yield pi


# -- Grassmann necklaces -----------------------------------------------------------


# the necklace text of an empty subset, which a blank line cannot be
EMPTY = "-"


class GrassmannNecklace:
    """Cyclic sequence I_1..I_n of k-subsets with the one-step exchange law."""

    __slots__ = ("subsets",)

    def __init__(self, subsets):
        self.subsets = tuple(frozenset(s) for s in subsets)
        n = len(self.subsets)
        for i, s in enumerate(self.subsets, 1):
            for x in s:
                if not 1 <= x <= n:
                    raise ValueError(f"necklace subset I_{i} has entry {x}, outside 1..{n}")
        if not self.is_valid():
            raise ValueError("sequence violates the necklace exchange law")

    @property
    def n(self):
        return len(self.subsets)

    @property
    def k(self):
        return len(self.subsets[0]) if self.subsets else 0     # n = 0: the empty necklace

    def __getitem__(self, i):
        return self.subsets[(i - 1) % self.n]

    def __eq__(self, other):
        return self.subsets == other.subsets

    def __hash__(self):
        return hash(self.subsets)

    def __repr__(self):
        body = ", ".join("{" + ",".join(str(x) for x in sorted(s)) + "}" for s in self.subsets)
        return f"GrassmannNecklace({body})"

    def is_valid(self):
        n = self.n
        if len({len(s) for s in self.subsets}) > 1:
            return False
        for i in range(1, n + 1):
            cur, nxt = self[i], self[i + 1]
            if i in cur:
                if not (len(nxt - (cur - {i})) == 1 and cur - {i} <= nxt):
                    return False
            else:
                if nxt != cur:
                    return False
        return True

    def to_text(self):
        """One subset per line, its entries in increasing order; `-` for an empty one."""
        return "\n".join(" ".join(str(x) for x in sorted(s)) or EMPTY for s in self.subsets) + "\n"

    @classmethod
    def from_text(cls, text):
        """One subset I_i per nonblank line, as distinct integers in 1..n, or
        `-` alone for the empty subset (k = 0)."""
        lines = [(number, line.split()) for number, line in enumerate(text.splitlines(), 1)
                 if line.strip()]
        rows = []
        for number, toks in lines:
            row = set()
            if toks == [EMPTY]:
                toks = []
            for tok in toks:
                try:
                    x = integer(tok)
                except ValueError:
                    x = None
                if x is None or not 1 <= x <= len(lines):
                    raise ValueError(f"necklace line {number}: expected an entry in "
                                     f"1..{len(lines)}, not {tok!r}")
                if x in row:
                    raise ValueError(f"necklace line {number}: entry {x} is repeated")
                row.add(x)
            rows.append(row)
        return cls(rows)


def necklace_from_perm(pi):
    """I_1 = I(pi), then I_{i+1} = (I_i - {i}) | {pi(i)} when i is in I_i, else I_i."""
    subsets = [pi.anti_exceedances()] if pi.n else []
    for i in range(1, pi.n):
        cur = subsets[-1]
        subsets.append(cur - {i} | {pi(i)} if i in cur else cur)
    return GrassmannNecklace(subsets)


def perm_from_necklace(neck):
    """The inverse bijection: read pi(i) off the step I_i -> I_{i+1}."""
    n = neck.n
    perm = [None] * n
    col = {}
    for i in range(1, n + 1):
        cur, nxt = neck[i], neck[i + 1]
        if nxt == cur:
            perm[i - 1] = i
            col[i] = WHITE if i in cur else BLACK
        else:
            j = next(iter(nxt - (cur - {i})))
            perm[i - 1] = j
    return DecoratedPermutation(perm, col)


# -- chord geometry -----------------------------------------------------------------


def _on_arc(x, a, b, n):
    """x lies on the clockwise arc a, a+1, ..., b of [n], both ends included."""
    return (x - a) % n <= (b - a) % n


def _crossing_cond(n, i, pi_i, j, pi_j):
    """Chord i -> pi_i crosses chord j -> pi_j, in the roles (i, j)."""
    return _on_arc(pi_j, i, pi_i, n) and _on_arc(j, pi_i, i, n)


def _aligned(pi, i, j):
    """The chords of pi at i and j are aligned in the roles (i, j); a loop
    takes part only as i when black and only as j when white."""
    if (pi.is_loop(i) and pi.col[i] != BLACK) or (pi.is_loop(j) and pi.col[j] != WHITE):
        return False
    n, pi_i, pi_j = pi.n, pi(i), pi(j)
    return _on_arc(pi_i, i, pi_j, n) and _on_arc(j, pi_j, i, n)


def _simple(pi, i, j, lo, hi):
    """No chord leaving a point strictly between j and i (clockwise) ends
    on the arc lo..hi: (lo, hi) = (pi(j), pi(i)) for a crossing with roles
    (i, j), and (pi(i), pi(j)) for an alignment.  The points are j + 1,
    ..., i - 1 modulo n, read off pi.perm at the 0-based places t % n, and
    each end x is tested as _on_arc(x, lo, hi, n) does."""
    perm = pi.perm
    n = len(perm)
    span = (hi - lo) % n
    for t in range(j, j + (i - j) % n - 1):
        if (perm[t % n] - lo) % n <= span:
            return False
    return True


class ChordPairClass(NamedTuple):
    """Mutual position of the chords at i and j, plus a simplicity flag."""

    kind: str
    simple: bool


def crossing_roles(pi, i, j):
    """The (i, j) role order of a crossing, or None when the pair is not one.

    Loops never participate in crossings.  The role order matters: undoing
    the crossing makes i a black (counterclockwise) loop when i = pi(j),
    and j a white one when j = pi(i).
    """
    if pi.is_loop(i) or pi.is_loop(j):
        return None
    if _crossing_cond(pi.n, i, pi(i), j, pi(j)):
        return (i, j)
    if _crossing_cond(pi.n, j, pi(j), i, pi(i)):
        return (j, i)
    return None


def is_alignment(pi, i, j):
    return _aligned(pi, i, j) or _aligned(pi, j, i)


def classify_pair(pi, i, j):
    """'crossing', 'alignment' or, for every other pair, 'misalignment',
    with a simplicity flag (always False for a misalignment)."""
    if i == j:
        raise ValueError("need two distinct chords")
    roles = crossing_roles(pi, i, j)
    if roles is not None:
        a, b = roles
        return ChordPairClass("crossing", _simple(pi, a, b, pi(b), pi(a)))
    for a, b in ((i, j), (j, i)):
        if _aligned(pi, a, b):
            return ChordPairClass("alignment", _simple(pi, a, b, pi(a), pi(b)))
    return ChordPairClass("misalignment", False)


def alignment_number(pi):
    """A(pi): the number of unordered chord pairs forming an alignment."""
    return sum(1 for i, j in combinations(range(1, pi.n + 1), 2) if is_alignment(pi, i, j))


def rank(pi):
    """Cell dimension k(n-k) - A(pi)."""
    k = pi.k()
    return k * (pi.n - k) - alignment_number(pi)


# -- the circular Bruhat order -------------------------------------------------------


def r_table(pi):
    """r_ab = |I_a intersect [a,b]^cyc| for all a, b."""
    neck = necklace_from_perm(pi)
    n = pi.n
    table = {}
    for a in range(1, n + 1):
        Ia = neck[a]
        for b in range(1, n + 1):
            table[(a, b)] = sum(1 for x in Ia if _on_arc(x, a, b, n))
    return table


def circular_leq(pi, sigma):
    """Containment order of cell closures via the r_ab criterion."""
    if pi.type() != sigma.type():
        raise ValueError(f"types differ: {pi.type()} vs {sigma.type()}")
    rp, rs = r_table(pi), r_table(sigma)
    return all(rp[key] <= rs[key] for key in rp)


def _uncross(pi, i, j):
    """The cell covered by pi where the crossing with roles (i, j) is
    undone, or None when that crossing is not simple.

    Undoing it swaps the targets of i and j; a chord that collapses to a
    loop is colored black at the i end and white at the j end.
    """
    pi_i, pi_j = pi.perm[i - 1], pi.perm[j - 1]
    if not _simple(pi, i, j, pi_j, pi_i):
        return None
    perm = list(pi.perm)
    perm[i - 1], perm[j - 1] = pi_j, pi_i
    col = dict(pi.col)
    if perm[i - 1] == i:
        col[i] = BLACK
    if perm[j - 1] == j:
        col[j] = WHITE
    return DecoratedPermutation(perm, col)


def covers(sigma):
    """All decorated permutations covered by sigma: undo one simple crossing
    (`_uncross`).  A 2-cycle crossing yields both role orders, hence both
    colorings of the new loops.
    """
    out = []
    seen = set()
    perm = sigma.perm
    n = len(perm)
    for i, pi_i in enumerate(perm, 1):
        if pi_i == i:
            continue
        for j, pi_j in enumerate(perm, 1):
            if pi_j == j or j == i or not _crossing_cond(n, i, pi_i, j, pi_j):
                continue
            pi = _uncross(sigma, i, j)
            if pi is not None and pi not in seen:
                seen.add(pi)
                out.append(pi)
    return out


def top_permutation(k, n):
    """The unique maximum of the order: i -> i + k modulo n."""
    perm = [(i - 1 + k) % n + 1 for i in range(1, n + 1)]
    col = {}
    if k % n == 0:
        col = {i: (WHITE if k else BLACK) for i in range(1, n + 1)}
    return DecoratedPermutation(perm, col)


# -- Grassmannian permutations and pipe dreams ----------------------------------------


def w_lambda(lam, k, n):
    """One-line Grassmannian permutation of the shape.

    With I(lambda) = {i_1 < ... < i_k}, the complement {j_1 < ...} and
    x~ = n+1-x, this is (i~_k, ..., i~_1, j~_{n-k}, ..., j~_1).
    """
    return _w_of(sorted(lambda_to_subset(lam, k, n)), n)


def _w_of(I, n):
    """w_lambda of the shape whose vertical steps are the sorted list I."""
    J = [j for j in range(1, n + 1) if j not in I]
    return tuple(n + 1 - i for i in reversed(I)) + tuple(n + 1 - j for j in reversed(J))


def bruhat_leq_grassmannian(u, lam, k, n):
    """u <= w_lambda, tested componentwise per the Grassmannian criterion."""
    return _below(u, w_lambda(lam, k, n), k, n)


def _below(u, w, k, n):
    """bruhat_leq_grassmannian against the Grassmannian permutation w itself."""
    u = tuple(u)
    if sorted(u) != list(range(1, n + 1)):
        raise ValueError(f"{u} is not a permutation of [{n}]")
    return (all(u[m] <= w[m] for m in range(k))
            and all(u[m] >= w[m] for m in range(k, n)))


def u_from_le(D):
    """Trace the pipe dream of a Le-diagram: 1-boxes bounce, 0-boxes cross.

    Wires travel east along rows and south down columns of the shape; at a
    1-box the east-mover turns south and the south-mover turns east.  Left
    ends, bottom to top, are rows k..1 then columns 1..n-k; right ends are
    the lattice-path steps, so the empty filling traces w_lambda.
    """
    k, n = D.k, D.n
    lam = D.shape
    width = n - k

    def box(r, c):
        return 1 <= r <= k and 1 <= c <= lam[r - 1]

    def filled(r, c):
        row = D.fill[r - 1]
        return c <= len(row) and row[c - 1] == 1

    I = sorted(lambda_to_subset(lam, k, n))
    J = [j for j in range(1, n + 1) if j not in I]

    def trace(r, c, heading):
        while True:
            if not box(r, c):
                if heading == "E":
                    return n + 1 - I[r - 1]
                return n + 1 - J[width - c]
            if filled(r, c):
                heading = "S" if heading == "E" else "E"
            r, c = (r, c + 1) if heading == "E" else (r + 1, c)

    u = [None] * n
    for r in range(1, k + 1):
        u[k - r] = trace(r, 1, "E")
    for c in range(1, width + 1):
        u[k + c - 1] = trace(1, c, "S")
    return tuple(u)


def le_from_u(u, lam, k, n):
    """The unique Le-diagram of shape lambda tracing u; inverse of u_from_le.

    Works through the distinguished-subword normal form: the boxes of the
    shape, read along antidiagonals, spell a reduced word for w_lambda in
    adjacent transpositions (box (r,c) carries s_{k-r+c}); scanning the
    word from the right and greedily absorbing letters that shorten u
    selects the crossing set of the pipe dream, and the complement is the
    filling.
    """
    return _le_below(tuple(u), lam, k, n, w_lambda(lam, k, n))


def _le_below(u, lam, k, n, w):
    """le_from_u, with w = w_lambda(lam, k, n) given: lambda is taken as a
    valid shape, and the filling is checked for the Le-property once."""
    from .lediagram import LeDiagram, is_le_diagram
    if not _below(u, w, k, n):
        raise ValueError(f"{u} is not below w_lambda in the Bruhat order")
    lam_full = tuple(lam) + (0,) * (k - len(tuple(lam)))
    boxes = sorted(((r, c) for r in range(1, k + 1) for c in range(1, lam_full[r - 1] + 1)),
                   key=lambda rc: (rc[0] + rc[1], rc[0]))
    word = [(k - r + c, (r, c)) for r, c in boxes]
    v = list(u)
    crossings = set()
    for m, rc in word:
        # greedy from the staircase inward: keep the letter iff it undoes a descent
        if v[m - 1] > v[m]:
            v[m - 1], v[m] = v[m], v[m - 1]
            crossings.add(rc)
    if v != list(range(1, n + 1)):
        raise AssertionError("greedy subword did not resolve to the identity")
    fill = [tuple(0 if (r, c) in crossings else 1 for c in range(1, lam_full[r - 1] + 1))
            for r in range(1, k + 1)]
    if not is_le_diagram(lam_full, fill):
        raise AssertionError("greedy subword did not give a Le-diagram")
    return LeDiagram(k, n, lam_full, fill, check=False)


def perm_from_le(D):
    """Decorated permutation of a Le-diagram via its pipe-dream permutation.

    pi^{-1} sends i_r to n+1-u_{k+1-r} and j_m to n+1-u_{n+1-m}; fixed
    points inside I(lambda) are white, the others black.
    """
    k, n = D.k, D.n
    u = u_from_le(D)
    I = sorted(lambda_to_subset(D.shape, k, n))
    J = [j for j in range(1, n + 1) if j not in I]
    inv = [None] * n
    for r in range(1, k + 1):
        inv[I[r - 1] - 1] = n + 1 - u[k - r]
    for m in range(1, n - k + 1):
        inv[J[m - 1] - 1] = n + 1 - u[n - m]
    perm = [None] * n
    for i in range(1, n + 1):
        perm[inv[i - 1] - 1] = i
    col = {}
    for i in range(1, n + 1):
        if perm[i - 1] == i:
            col[i] = WHITE if i in I else BLACK
    return DecoratedPermutation(perm, col)


def le_from_perm(pi):
    """Le-diagram of a decorated permutation; inverse of perm_from_le."""
    n = pi.n
    I = sorted(pi.anti_exceedances())
    k = len(I)
    lam = subset_to_lambda(I, n)
    J = [j for j in range(1, n + 1) if j not in I]
    u = [None] * n
    for r in range(1, k + 1):
        u[k - r] = n + 1 - pi.inverse(I[r - 1])
    for m in range(1, n - k + 1):
        u[n - m] = n + 1 - pi.inverse(J[m - 1])
    return _le_below(tuple(u), lam, k, n, _w_of(I, n))
