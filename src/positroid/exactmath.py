"""Exact rational linear algebra over the big rationals.

Everything downstream (boundary measurements, cell parametrizations,
matroids) is built on the types here.  There is no floating point and no
tolerance anywhere: equality of values is exact equality of fractions.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import lcm


_DECIMAL = re.compile(r"[+-]?(?:[0-9]*\.[0-9]+|[0-9]+\.)")
_DIGITS = {str(d): Fraction(d) for d in range(10)}


def rational(x):
    """Coerce ints, Fractions or rational tokens to an exact Rational.

    The one rule for text is one language, however it is matched: an
    integer [+-]d or fraction [+-]d/d with q != 0, built from its digits,
    or a plain decimal [+-]d.d, [+-]d. or [+-].d, which Fraction parses,
    where d is a run of ASCII digits; anything else (1/0, nan, exponent
    forms, which Fraction would expand, other digits) raises ValueError.

    The ten one-digit tokens "0".."9", most of the tokens in matrix and
    weight text, are read from one table: each returns one shared
    Fraction, the value the grammar builds for it (a Fraction is
    immutable, so sharing it is safe).  Every other token is parsed.
    """
    if isinstance(x, str):
        digit = _DIGITS.get(x)
        if digit is not None:
            return digit
        p, slash, q = x.partition("/")
        if x.isascii() and (p[1:] if p[:1] in "+-" else p).isdigit() and (q.isdigit() or not slash):
            if not slash:
                return Fraction(int(p))
            if q.strip("0"):       # a nonzero denominator
                return Fraction(int(p), int(q))
        elif _DECIMAL.fullmatch(x):
            return Fraction(x)
        raise ValueError(f"{x!r} is not a rational number")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def integer(x, nonnegative=False):
    """The int that the token x writes: an optional sign (no '-' when
    nonnegative) and ASCII digits, the integers of rational().  Anything
    else int() would take (other digits, '_', spaces) raises ValueError."""
    if x.isascii() and (x[1:] if x[:1] in ("+" if nonnegative else "+-") else x).isdigit():
        return int(x)
    raise ValueError(f"{x!r} is not {'a nonnegative' if nonnegative else 'an'} integer")


def parse_tokens(parse, toks, where):
    """tuple(map(parse, toks)); a token that parse rejects raises one
    ValueError, its message prefixed by where(the token's index)."""
    try:
        return tuple(map(parse, toks))
    except ValueError:
        for i, tok in enumerate(toks):
            try:
                parse(tok)
            except ValueError as ex:
                raise ValueError(f"{where(i)}: {ex}") from None
        raise


def format_rational(x):
    """Render a Rational as 'p' or 'p/q' (lowest terms, positive q)."""
    return str(x if isinstance(x, Fraction) else Fraction(x))


def sort_sign(seq):
    """Parity sign (+1/-1) of the permutation sorting seq, or 0 on repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class RationalMatrix:
    """An immutable k x n matrix of Rationals, row-major; n is read off the rows if any."""

    __slots__ = ("k", "n", "rows")

    def __init__(self, rows, n=0):
        rows = tuple(tuple([x if isinstance(x, Fraction) else rational(x) for x in row]) for row in rows)
        self.k = len(rows)
        self.n = len(rows[0]) if rows else n
        if any(len(r) != self.n for r in rows):
            raise ValueError("ragged matrix")
        self.rows = rows

    @classmethod
    def _of_rows(cls, rows, n):
        """The constructor for a tuple of rows that are tuples of n Fractions, taken as they are."""
        A = object.__new__(cls)
        A.k, A.n, A.rows = len(rows), n, rows
        return A

    @classmethod
    def identity(cls, k):
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and (self.n, self.rows) == (other.n, other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in r) for r in self.rows)
        return f"RationalMatrix[{self.k}x{self.n}: {body}]"

    def submatrix_columns(self, cols):
        """Submatrix in the given 1-indexed column list (order kept)."""
        return RationalMatrix._of_rows(tuple(tuple([r[j - 1] for j in cols]) for r in self.rows), len(cols))

    def rank(self):
        return len(_row_reduce(list(list(r) for r in self.rows))[1])

    def to_text(self):
        lines = [f"{self.k} {self.n}"]
        for r in self.rows:
            lines.append(" ".join(map(str, r)))     # format_rational of a Fraction
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse 'k n' and k*n entries; any malformed input raises ValueError.

        Entries are integers, fractions p/q or plain decimals (no exponent).
        """
        toks = text.split()
        try:
            k, n = (integer(t, nonnegative=True) for t in toks[:2])
        except ValueError:
            raise ValueError("matrix text needs a 'k n' header of nonnegative integers") from None
        if len(toks) - 2 != k * n:
            raise ValueError(f"expected {k * n} entries, got {len(toks) - 2}")
        vals = parse_tokens(rational, toks[2:], lambda i: f"row {i // n + 1}, column {i % n + 1}")
        return cls._of_rows(tuple(vals[i * n:i * n + n] for i in range(k)), n)


def _det_bareiss(rows):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for r in range(m - 1):
        if a[r][r] == 0:
            for rr in range(r + 1, m):
                if a[rr][r] != 0:
                    a[r], a[rr] = a[rr], a[r]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(r + 1, m):
            for j in range(r + 1, m):
                a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) // prev
            a[i][r] = 0
        prev = a[r][r]
    return sign * a[m - 1][m - 1]


def det(matrix):
    """Exact determinant of a square RationalMatrix or row list; the entries
    of a row list go through rational unless they are Fractions already."""
    if isinstance(matrix, RationalMatrix):
        rows = matrix.rows
    else:
        rows = [[x if isinstance(x, Fraction) else rational(x) for x in r] for r in matrix]
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("determinant of a non-square matrix")
    # clear denominators row by row, run integer Bareiss, divide back
    scale = 1
    int_rows = []
    for r in rows:
        d = lcm(*(x.denominator for x in r))
        scale *= d
        int_rows.append([x.numerator * (d // x.denominator) for x in r])
    return Fraction(_det_bareiss(int_rows), scale)


def maximal_minor(A, J):
    """Delta_J(A): determinant of the column submatrix in the k-subset J."""
    J = sorted(J)
    if len(J) != A.k:
        raise ValueError(f"need a {A.k}-subset of columns, got {J}")
    if len(set(J)) != len(J) or not all(1 <= j <= A.n for j in J):
        raise ValueError(f"invalid column subset {J}")
    return det(A.submatrix_columns(J))


def _row_reduce(rows):
    """Gauss-Jordan in place; returns (rows, pivot column 0-indexed list)."""
    return _gauss_jordan(rows)[:2]


def _gauss_jordan(rows):
    """_row_reduce, and the product of the pivots signed by the row swaps,
    which is Delta_I of the input at its pivot columns I when it has full
    row rank: the pass turns those columns into the identity."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    pivots, delta, r = [], 1, 0
    for c in range(n):
        pr = next((i for i in range(r, k) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            delta = -delta
        pv = rows[r][c]
        delta *= pv
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == k:
            break
    return rows, pivots, delta


def echelon_form(A):
    """Reduced echelon representative of the row span and its pivot set.

    Returns (B, I) with B in I-echelon form: the columns of the 1-indexed
    pivot set I form the identity, and the span of the rows is unchanged.
    Raises on rank-deficient input.
    """
    return _echelon(A)[:2]


def _echelon(A):
    """echelon_form(A) and Delta_I(A), read off the same pass."""
    rows, pivots, delta = _gauss_jordan([list(r) for r in A.rows])
    if len(pivots) != A.k:
        raise ValueError(f"matrix has rank {len(pivots)} < {A.k}")
    return RationalMatrix._of_rows(tuple(map(tuple, rows)), A.n), tuple(c + 1 for c in pivots), delta


class PluckerVector:
    """All maximal minors of a full-rank k x n matrix, keyed by k-subsets.

    Keys are sorted tuples; a value for an unsorted index sequence carries
    the sorting-permutation sign.  Projective equality divides out a common
    scalar.
    """

    __slots__ = ("k", "n", "coords")

    def __init__(self, k, n, coords):
        self.k = k
        self.n = n
        self.coords = {tuple(sorted(key)): v if isinstance(v, Fraction) else rational(v)
                       for key, v in coords.items()}
        for key in combinations(range(1, n + 1), k):
            self.coords.setdefault(key, Fraction(0))
        if all(v == 0 for v in self.coords.values()):
            raise ValueError("all Plucker coordinates vanish")

    def __getitem__(self, seq):
        seq = tuple(seq)
        s = sort_sign(seq)
        if s == 0:
            return Fraction(0)
        return s * self.coords[tuple(sorted(seq))]

    def __eq__(self, other):
        return (self.k, self.n, self.coords) == (other.k, other.n, other.coords)

    def __hash__(self):
        return hash((self.k, self.n, tuple(sorted(self.coords.items()))))

    def __repr__(self):
        nz = {k: v for k, v in self.coords.items() if v != 0}
        return f"PluckerVector(k={self.k}, n={self.n}, {len(nz)} nonzero)"

    def support(self):
        return frozenset(key for key, v in self.coords.items() if v != 0)

    def normalized(self):
        """Scale so the first nonzero coordinate (lex subset order) is 1."""
        for key in sorted(self.coords):
            if self.coords[key] != 0:
                c = self.coords[key]
                return PluckerVector(self.k, self.n, {k2: v / c for k2, v in self.coords.items()})
        raise ValueError("zero vector")

    def projectively_equal(self, other):
        """Whether other is a nonzero multiple of self: with r the first
        nonzero coordinate of self (in the order of its keys), other's
        coordinate at r is nonzero and self[J] other[r] = other[J] self[r]
        for every J."""
        if (self.k, self.n) != (other.k, other.n) or self.coords.keys() != other.coords.keys():
            return False
        r, a = next((key, x) for key, x in self.coords.items() if x)
        b = other.coords[r]
        return b != 0 and all(x * b == other.coords[key] * a for key, x in self.coords.items())


def plucker_vector(A):
    """The Plucker embedding of a full-rank matrix: all C(n,k) minors, read
    off its echelon form (B, I).  Delta_J(A) = Delta_I(A) Delta_J(B), and
    expanding Delta_J(B) along its unit columns, those in I, leaves the
    determinant on the rows of I - J and the columns of J - I, signed by
    the positions in J and the rows of the columns in both."""
    B, I, delta = _echelon(A)
    row = {c: r for r, c in enumerate(I)}      # the row of B with its 1 in column c
    coords = {}
    for J in combinations(range(1, A.n + 1), A.k):
        sign = (-1) ** sum(p + row[c] for p, c in enumerate(J) if c in row)
        out = [c - 1 for c in J if c not in row]
        rows = [r for c, r in row.items() if c not in J]
        coords[J] = sign * delta * det([[B.rows[r][c] for c in out] for r in rows])
    return PluckerVector(A.k, A.n, coords)


class Matroid:
    """A rank-k matroid on [n] given by its set of bases."""

    __slots__ = ("k", "n", "bases")

    def __init__(self, k, n, bases):
        self.k = k
        self.n = n
        self.bases = frozenset(frozenset(b) for b in bases)
        if not self.bases:
            raise ValueError("a matroid has at least one base")
        for b in self.bases:
            if len(b) != k or not all(1 <= x <= n for x in b):
                raise ValueError(f"base {sorted(b)} is not a {k}-subset of [{n}]")

    def __eq__(self, other):
        return (self.k, self.n, self.bases) == (other.k, other.n, other.bases)

    def __hash__(self):
        return hash((self.k, self.n, self.bases))

    def __repr__(self):
        return f"Matroid(k={self.k}, n={self.n}, {len(self.bases)} bases)"

    def to_text(self):
        lines = [f"{self.k} {self.n}"]
        for b in sorted(tuple(sorted(x)) for x in self.bases):
            lines.append(" ".join(str(i) for i in b))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """A 'k n' header line, then one base per nonblank line as k distinct
        entries in 1..n (the one base of a rank-0 matroid, the empty set, may
        be left out).  Malformed text raises one ValueError naming the line."""
        lines = [(number, line.split()) for number, line in enumerate(text.splitlines(), 1)
                 if line.strip()] or [(1, [])]

        def bad(number, toks, what):
            return ValueError(f"matroid text line {number}: expected {what}, not {' '.join(toks)!r}")

        rows = []
        for number, toks in lines:
            try:
                rows.append(tuple(map(integer, toks)))
            except ValueError:
                raise bad(number, toks, "integers") from None
        if len(rows[0]) != 2 or not 0 <= rows[0][0] <= rows[0][1]:
            raise bad(*lines[0], "a 'k n' header with 0 <= k <= n")
        k, n = rows[0]
        for (number, toks), b in zip(lines[1:], rows[1:]):
            if len(b) != k or len(set(b)) != k or not all(1 <= x <= n for x in b):
                raise bad(number, toks, f"{k} distinct entries in 1..{n}")
        if k and len(rows) == 1:
            raise bad(*lines[0], "a base line after this header")
        return cls(k, n, rows[1:] or [()])


def matroid_of_plucker(p):
    return Matroid(p.k, p.n, p.support())


def shifted_key(subset, i, n):
    """Sorting key of a subset under the cyclic order i < i+1 < ... < i-1."""
    return tuple(sorted((x - i) % n for x in subset))


def lex_min_base(M, i=1):
    """Lexicographically minimal base under the shifted order <_i."""
    return frozenset(min(M.bases, key=lambda b: shifted_key(b, i, M.n)))


def lambda_to_subset(lam, k, n):
    """The k-subset I(lambda) labelling the vertical steps of the shape.

    The boundary path of lambda inside the k x (n-k) rectangle is read from
    the upper-right corner, labelling steps 1..n; vertical steps give I.
    """
    lam = tuple(lam) + (0,) * (k - len(lam))
    if len(lam) != k or any(lam[i] < lam[i + 1] for i in range(k - 1)):
        raise ValueError(f"{lam} is not a partition with at most {k} parts")
    if lam and lam[0] > n - k:
        raise ValueError(f"{lam} does not fit in a {k} x {n - k} box")
    if any(x < 0 for x in lam):
        raise ValueError("negative part")
    # i_j is pinned by lambda_j = |[i_j, n] \ I|, i.e. i_j = j + (n-k) - lambda_j
    return frozenset(j + 1 + (n - k) - lam[j] for j in range(k))


def subset_to_lambda(I, n):
    """Partition of the k-subset I in [n]: lambda_j = |[i_j, n] \\ I|."""
    I = sorted(I)
    k = len(I)
    if any(not 1 <= x <= n for x in I) or len(set(I)) != k:
        raise ValueError(f"{I} is not a subset of [{n}]")
    out = []
    for j, ij in enumerate(I):
        out.append((n - ij + 1) - (k - j))
    return tuple(out)


def partitions_in_box(k, width):
    """All partitions with at most k parts, each at most width."""
    def rec(rows_left, maxpart):
        if rows_left == 0:
            yield ()
            return
        for first in range(maxpart, -1, -1):
            for rest in rec(rows_left - 1, first):
                yield (first,) + rest
    for lam in rec(k, width):
        yield tuple(x for x in lam if x > 0) if any(lam) else ()
