"""Le-diagrams, Le-tableaux, their networks, and the inverse procedure.

A Le-diagram is a 0/1 filling of a Young diagram in which no 0 has
simultaneously a 1 above it (same column) and a 1 to its left (same row):
whenever boxes (i,j') and (i',j) with i < i' and j < j' are both nonzero
and (i',j') is a box of the shape, box (i',j') is nonzero too.  A
Le-tableau replaces the 1s by positive rationals.

A tableau of shape lambda inside the k x (n-k) rectangle determines an
acyclic network in the disk whose boundary measurement matrix is in
I(lambda)-echelon form; `invert_measurement` recovers the tableau from
any totally nonnegative matrix, reading it off the echelon form in one
bottom-up sweep of the hook grid.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations
from math import gcd

from .exactmath import (RationalMatrix, _echelon, format_rational, integer, lambda_to_subset, maximal_minor,
                        parse_tokens, rational, subset_to_lambda)
from .network import PlanarDirectedNetwork, boundary_measurement_matrix, measure


class LeDiagram:
    """0/1 filling of a partition shape satisfying the Le-property."""

    __slots__ = ("k", "n", "shape", "fill")

    def __init__(self, k, n, shape, fill, check=True):
        shape = tuple(shape) + (0,) * (k - len(tuple(shape)))
        self.k = k
        self.n = n
        self.shape = shape
        self.fill = tuple(tuple(int(bool(x)) for x in row) for row in fill)
        if check:
            lambda_to_subset(shape, k, n)           # a partition inside the k x (n-k) box
            if not is_le_diagram(shape, self.fill):
                raise ValueError("filling violates the Le-property")
        if len(self.fill) < k:
            self.fill = self.fill + ((),) * (k - len(self.fill))

    def __eq__(self, other):
        return (self.k, self.n, self.shape, self.fill) == (other.k, other.n, other.shape, other.fill)

    def __hash__(self):
        return hash((self.k, self.n, self.shape, self.fill))

    def __repr__(self):
        body = "/".join("".join(str(x) for x in row) for row in self.fill if row) or "-"
        return f"LeDiagram(k={self.k}, n={self.n}, {body})"

    def size(self):
        """Number of 1s (the dimension of the cell)."""
        return sum(sum(row) for row in self.fill)

    def boxes(self):
        return [(r + 1, c + 1) for r, row in enumerate(self.fill) for c, v in enumerate(row) if v]


class LeTableau:
    """Positive rationals on the 1-boxes of a Le-diagram, zeros elsewhere."""

    __slots__ = ("k", "n", "shape", "rows")

    def __init__(self, k, n, shape, rows, check=True):
        """The entries become Fractions, checked on one integer support, their
        numerators; check=False takes the support to be a Le-diagram already."""
        shape = tuple(shape) + (0,) * (k - len(tuple(shape)))
        self.k, self.n, self.shape = k, n, shape
        rows = [tuple([x if isinstance(x, Fraction) else rational(x) for x in row]) for row in rows]
        rows += [()] * (k - len(rows))
        self.rows = tuple(rows)
        if len(rows) != k or any(len(r) != p for r, p in zip(rows, shape)):
            raise ValueError("tableau rows do not match the shape")
        support = [[x.numerator for x in row] for row in rows]
        if min(chain.from_iterable(support), default=0) < 0:
            raise ValueError("tableau entries must be nonnegative")
        if check:
            lambda_to_subset(shape, k, n)           # a partition inside the k x (n-k) box
            if not is_le_fill(support):
                raise ValueError("filling violates the Le-property")

    def __eq__(self, other):
        return (self.k, self.n, self.shape, self.rows) == (other.k, other.n, other.shape, other.rows)

    def __hash__(self):
        return hash((self.k, self.n, self.shape, self.rows))

    def __repr__(self):
        body = "/".join(" ".join(format_rational(x) for x in row) for row in self.rows if row) or "-"
        return f"LeTableau(k={self.k}, n={self.n}, {body})"

    def diagram(self):
        return LeDiagram(self.k, self.n, self.shape, self.rows, check=False)

    def entry(self, r, c):
        return self.rows[r - 1][c - 1]

    def to_text(self):
        lines = [f"{self.k} {self.n}", " ".join(str(p) for p in self.shape)]
        for row in self.rows:
            if row:
                lines.append(" ".join(format_rational(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines, count = text.splitlines(), partial(integer, nonnegative=True)
        try:
            k, n = map(count, lines[0].split() if lines else ())
        except ValueError:
            k = n = -1
        if not 0 <= k <= n:
            raise ValueError("tableau text needs a 'k n' header with 0 <= k <= n")
        shape = _tableau_line(lines[1].split(), 2, count) if len(lines) > 1 else ()
        rows = [_tableau_line(toks, number, rational) for number, toks in enumerate(map(str.split, lines[2:]), 3)
                if toks]
        return cls(k, n, shape, rows)


def _tableau_line(toks, number, parse):
    """The parsed tokens of line `number` of tableau text; errors name the line and entry."""
    return parse_tokens(parse, toks, lambda i: f"tableau text line {number}, entry {i + 1}")


def diagram_to_tableau(D, values=None):
    """Tableau supported on D: all 1s, or the given box -> value map.

    All 1s keep D as the support, so only given values are checked again."""
    rows = []
    for r, row in enumerate(D.fill):
        rows.append([
            (values[(r + 1, c + 1)] if values else Fraction(1)) if v else Fraction(0)
            for c, v in enumerate(row)])
    return LeTableau(D.k, D.n, D.shape, rows, check=bool(values))


def is_le_fill(fill):
    """The Le-property of a 0/1 (or sparse) filling, rows top to bottom: no
    zero box has a nonzero box above it in its column and one left of it in
    its row.  One pass per row, O(k (n-k))."""
    above = set()       # the columns with a nonzero box in the rows so far
    for row in fill:
        left = False    # a nonzero box left of this one in its row
        for j, x in enumerate(row):
            if x:
                left = True
                above.add(j)
            elif left and j in above:
                return False
    return True


def is_le_diagram(shape, fill):
    """True iff the 0/1 (or sparse) filling of the shape has the Le-property."""
    shape = tuple(shape)
    fill = list(fill)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(p < 0 for p in shape):
        raise ValueError(f"{shape} is not a partition")
    lens = [len(r) for r in fill]       # the first parts; the parts left out are zero
    if lens != list(shape[:len(lens)]) or any(shape[len(lens):]):
        raise ValueError("fill does not match shape")
    return is_le_fill(fill)


# -- enumeration by the last-column recursion -------------------------------------


def _positive(shape):
    return tuple(p for p in shape if p > 0)


def le_fills(shape):
    """All Le-fills of the shape (positive parts only), as row tuples."""
    shape = _positive(shape)
    if not shape:
        yield ()
        return
    width = shape[0]
    d = sum(1 for p in shape if p == width)
    rest = shape[d:]
    for mask in range(1 << d):
        col = [(mask >> r) & 1 for r in range(d)]
        blocked = [r for r in range(d) if col[r] == 0 and any(col[:r])]
        keep = [r for r in range(d) if r not in blocked]
        tilde = tuple([width - 1] * len(keep)) + rest
        for sub in le_fills(tilde):
            sub = list(sub) + [()] * (len(_positive(tilde)) - len(sub))
            out = []
            ptr = 0
            for r in range(d):
                if r in blocked:
                    out.append((0,) * width)
                else:
                    prefix = sub[ptr] if ptr < len(sub) else ()
                    out.append(tuple(prefix) + (col[r],))
                    ptr += 1
            out.extend(sub[ptr:])
            yield tuple(out)


@lru_cache(maxsize=None)
def le_count_poly(shape):
    """Coefficient tuple of sum q^{|D|} over Le-fills of the shape, degrees 0 to |shape|."""
    shape = _positive(shape)
    if not shape:
        return (1,)
    width = shape[0]
    d = sum(1 for p in shape if p == width)
    rest = shape[d:]
    total = [0] * (sum(shape) + 1)
    for mask in range(1 << d):
        col = [(mask >> r) & 1 for r in range(d)]
        ones = sum(col)
        blocked = sum(1 for r in range(d) if col[r] == 0 and any(col[:r]))
        tilde = tuple([width - 1] * (d - blocked)) + rest
        for e, coef in enumerate(le_count_poly(tilde)):
            total[e + ones] += coef
    return tuple(total)


# -- the network of a tableau ------------------------------------------------------


def _boundary_labels(shape, k, n):
    """Row r -> source label, column c -> sink label, from the lattice path."""
    I = sorted(lambda_to_subset(shape, k, n))
    J = [j for j in range(1, n + 1) if j not in I]
    width = n - k
    row_label = {r + 1: I[r] for r in range(k)}
    col_label = {c: J[width - c] for c in range(1, width + 1)} if width else {}
    return row_label, col_label


def gamma_network(T):
    """The acyclic hook network of a Le-tableau.

    Boundary vertices are labelled clockwise along the shape's lattice
    path; vertical steps are sources, so the source set is I(lambda).
    Every nonzero box becomes an internal vertex; the horizontal edge
    entering it from the right carries the box entry, vertical edges
    carry weight 1, and everything points left or down.
    """
    flags, edges, rot = _hook_layout(T.k, T.n, T.shape, T.rows)
    return PlanarDirectedNetwork(T.n, flags, edges, rot=rot)


def _hook_layout(k, n, shape, rows):
    """The parts of the hook network of the filling `rows` of the shape,
    unvalidated: (source flags, edges, rot).

    rows: a Le-tableau's rows, whose entries are Fractions, or a diagram's
    0/1 fill when only the graph is wanted.  A row edge weighs the value
    of the box it enters, as handed; column edges share one Fraction(1).

    edges: eid -> (tail, head, weight), numbered rows first, then columns.
    rot: vertex -> clockwise darts, read off the grid: a row edge leaves its
    tail to the W and enters its head from the E, a column edge leaves to
    the S and enters from the N, so each vertex fills slots N, E, S, W.  The
    vertices with edges come first, in the order their first edge was
    numbered, then the isolated boundary vertices.
    """
    width, one = n - k, Fraction(1)
    row_label, col_label = _boundary_labels(shape, k, n)
    flags = [False] * n
    for r in range(1, k + 1):
        flags[row_label[r] - 1] = True

    def vid(r, c):
        return n + (r - 1) * max(width, 1) + c

    dots = {}
    for r in range(1, k + 1):
        row = rows[r - 1]
        dots[r] = [c for c in range(len(row), 0, -1) if row[c - 1] != 0]  # right to left

    edges, slots = {}, {}

    def add_edge(u, w, x, out, into):      # u -> w leaves u at out, enters w at into
        e = len(edges) + 1
        edges[e] = (u, w, x)
        slots.setdefault(u, [None] * 4)[out] = (e, 0)
        slots.setdefault(w, [None] * 4)[into] = (e, 1)

    N, E, S, W = range(4)
    for r in range(1, k + 1):
        prev, row = row_label[r], rows[r - 1]
        for c in dots[r]:
            add_edge(prev, vid(r, c), row[c - 1], W, E)
            prev = vid(r, c)
    for c in range(1, width + 1):
        col = [vid(r, c) for r in range(1, k + 1) if c in dots[r]]
        for above, below in zip(col, col[1:] + [col_label[c]]):
            add_edge(above, below, one, S, N)

    rot = {v: tuple(filter(None, darts)) for v, darts in slots.items()}
    for i in range(1, n + 1):
        rot.setdefault(i, ())
    return flags, edges, rot


def meas_D(T):
    """The Plucker vector of the tableau's network; Delta_{I(lambda)} = 1."""
    return measure(gamma_network(T))


def tableau_matrix(T):
    """Boundary measurement matrix of the tableau's network (echelon form)."""
    return boundary_measurement_matrix(gamma_network(T))


# -- the inverse boundary problem --------------------------------------------------


def _peel(B, I, n):
    """The rows of the nonnegative filling T of the shape lambda(I) whose
    hook grid measures to the I-echelon matrix B, read off B from the
    bottom row up; ValueError when there is none.  When T is a Le-tableau
    that says tableau_matrix(T) == B.

    down[c] holds the path sums, by sink column, of the paths that start
    down column c below the current row: they go on down or turn left at
    each dot and pass empty boxes straight, so down[c][c] = 1 and down[c]
    has no sink right of c.  A path from
    source r runs left along row r and turns down at one dot (r, c), so
    row r's unsigned measurements are M(r, .) = sum of y_c down[c], with
    y_c the product of row r's entries at its dots in columns >= c.  That
    system is triangular: scanning c = lambda_r, ..., 1, the residual at c
    is y_c, zero where (r, c) holds no dot.  Every entry of B is matched:
    the pivot columns are the identity, each in-shape entry is a y_c or a
    residual zero, and the sink columns right of row r's shape are the
    matrix columns left of its pivot, zero in echelon form.  So the rows
    measure to B exactly.  If the support breaks the Le-property, a row's
    hook crosses a column's hook at an empty box, the grid is not planar
    and B need not be tnn.  Path sums are integer pairs (numerator,
    denominator > 0) in lowest terms, as in network._path_sums.
    """
    k = len(I)
    shape = subset_to_lambda(I, n)
    _, col_label = _boundary_labels(shape, k, n)
    height = {c: sum(1 for p in shape if p >= c) for c in col_label}
    down = {c: {c: (1, 1)} for c in col_label}
    rows = [None] * k
    for r in range(k, 0, -1):
        b, lam = B.rows[r - 1], shape[r - 1]
        # undo the sign (-1)^s of boundary_measurement_matrix: the s sources
        # strictly between row r's and column c's sink are rows r+1..height[c]
        res = {}
        for c in range(1, lam + 1):
            x = b[col_label[c] - 1]
            res[c] = (-x.numerator if (height[c] - r) % 2 else x.numerator, x.denominator)
        row, dots, prev = [Fraction(0)] * lam, [], (1, 1)
        for c in range(lam, 0, -1):
            y = res[c]
            if not y[0]:
                continue
            if y[0] < 0:
                raise ValueError(f"negative path sum at box ({r}, {c})")
            for j, v in down[c].items():
                if j != c:
                    res[j] = _plus_product(res[j], -y[0], y[1], v)
            row[c - 1] = Fraction(y[0] * prev[1], y[1] * prev[0])
            dots.append(c)
            prev = y
        # a path at dot (r, c) goes down, or left to the next dot c' at x_{r,c'}
        for c, left in zip(dots[-2::-1], dots[::-1]):
            x, out = row[left - 1], dict(down[c])
            for j, v in down[left].items():
                out[j] = _plus_product(out.get(j, (0, 1)), x.numerator, x.denominator, v)
            down[c] = out
        rows[r - 1] = row
    return rows


def _plus_product(z, a, b, v):
    """z + (a / b) v on integer pairs (numerator, denominator > 0), in lowest terms."""
    (u, w), (p, q) = z, v
    u, w = u * b * q + a * p * w, w * b * q
    g = gcd(u, w)
    return u // g, w // g


class NotTotallyNonnegative(ValueError):
    """A matrix outside the totally nonnegative part; the message is its witness."""


def invert_measurement(A):
    """Recover the Le-tableau of a totally nonnegative full-rank matrix.

    The shape comes from the pivot set I of (B, I) = echelon_form(A), and
    `_peel` reads the entries off B in one bottom-up sweep of the hook grid,
    so the result T satisfies tableau_matrix(T) == B.

    Total nonnegativity is certified rather than checked minor by minor:
    A = C B for C = A restricted to the columns I, so Delta_J(A) =
    Delta_I(A) Delta_J(B), where Delta_I(A) = det C is the product of the
    echelon pass's pivots, negated once per row swap.  The sweep uses every
    entry of B and LeTableau checks that the support is a Le-diagram, so B
    is the measurement of the positively weighted planar network
    gamma_network(T), hence tnn; a positive Delta_I(A) carries this to A.
    If Delta_I(A) <= 0, if the sweep finds no nonnegative filling or if its
    support is not a Le-diagram, this raises NotTotallyNonnegative carrying
    witness_not_tnn(A).
    """
    if not isinstance(A, RationalMatrix):
        A = RationalMatrix(A)
    try:
        B, pivots, delta = _echelon(A)
        if delta <= 0:
            raise ValueError(f"Delta_I(A) <= 0 at the pivot set I = {pivots}")
        T = LeTableau(A.k, A.n, subset_to_lambda(pivots, A.n), _peel(B, pivots, A.n))
    except ValueError as ex:
        witness = _tnn_witness(A)
        if witness is None:
            raise AssertionError(f"certificate rejected a totally nonnegative matrix: {ex}") from ex
        raise NotTotallyNonnegative(witness) from None
    return T


def _tnn_witness(A):
    """The rank defect or the lex-first negative maximal minor of A, or None."""
    rank = A.rank()
    if rank != A.k:
        return f"matrix has rank {rank} < {A.k}"
    for J in combinations(range(1, A.n + 1), A.k):
        m = maximal_minor(A, J)
        if m < 0:
            return f"minor Delta_{{{','.join(str(j) for j in J)}}} = {format_rational(m)} < 0"
    return None


def witness_not_tnn(A):
    """Human-readable reason why A fails total nonnegativity."""
    return _tnn_witness(A) or "matrix is totally nonnegative"
