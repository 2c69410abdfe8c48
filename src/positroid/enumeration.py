"""Counting nonnegative cells: Eulerian numbers, N_kn, q-analogues, N_n.

The table-level identities tie three independent descriptions together:
the Eulerian-number formula, direct enumeration of decorated
permutations by anti-exceedance count, and Le-diagram enumeration by
shape.  The boundary conventions A(0,0) = 1 and A(k,0) = 0 for k >= 1
are pinned by the requirement that the formula reproduce the table
(e.g. row n = 2 is 1, 3, 1).
"""

from functools import lru_cache
from itertools import permutations as iter_permutations
from math import comb

from .exactmath import partitions_in_box
from .lediagram import le_count_poly


@lru_cache(maxsize=None)
def eulerian(k, n):
    """Number of permutations of [n] with k-1 descents; A(0,0) = 1.

    A(k, n) = k A(k, n-1) + (n-k+1) A(k-1, n-1), and A(k, n) = 0 for
    k <= 0 or k > n once n >= 1 (and for n < 0).
    """
    if n == 0 and k == 0:
        return 1
    if not 1 <= k <= n:
        return 0
    return k * eulerian(k, n - 1) + (n - k + 1) * eulerian(k - 1, n - 1)


def count_cells(k, n):
    """N_kn = sum over r of C(n,r) A_{k, n-r}."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({k}, {n})")
    return sum(comb(n, r) * eulerian(k, n - r) for r in range(n + 1))


def count_cells_by_permutations(k, n):
    """Direct enumeration of decorated permutations of type (k, n)."""
    total = 0
    for w in iter_permutations(range(1, n + 1)):
        ae = sum(1 for i in range(1, n + 1) if w.index(i) + 1 > i)
        fixed = sum(1 for i in range(1, n + 1) if w[i - 1] == i)
        whites = k - ae
        if 0 <= whites <= fixed:
            total += comb(fixed, whites)
    return total


def cell_poly(k, n):
    """Coefficients of N_kn(q) = sum over Le-diagrams of q^{|D|}.

    Ground truth by direct enumeration over shapes; degree is k(n-k).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({k}, {n})")
    out = [0] * (k * (n - k) + 1)
    for lam in partitions_in_box(k, n - k):
        for e, c in enumerate(le_count_poly(tuple(lam))):
            out[e] += c
    return tuple(out)




def count_table(nmax, q=False):
    """Rows n = 0..nmax of N_kn (or coefficient tuples of N_kn(q))."""
    rows = []
    for n in range(nmax + 1):
        if q:
            rows.append([cell_poly(k, n) for k in range(n + 1)])
        else:
            rows.append([count_cells(k, n) for k in range(n + 1)])
    return rows
