"""Invariant suite behind `positroid selfcheck --n N`.

Each check prints one pass/fail line; the suite exercises the bijection
web and the measurement invariants at the requested size.
"""

import random
from fractions import Fraction
from itertools import combinations

from . import enumeration
from .exactmath import (lex_min_base, matroid_of_plucker, maximal_minor, partitions_in_box,
                        plucker_vector)
from .lediagram import (LeDiagram, diagram_to_tableau, gamma_network, invert_measurement,
                        le_fills, meas_D, tableau_matrix)
from .network import boundary_measurement_matrix, perfect_and_trivalent, switch_orientation
from .permutations import (all_decorated_permutations, le_from_perm,
                           necklace_from_perm, perm_from_le, perm_from_necklace, rank,
                           top_permutation)
from .plabic import graph_from_le, is_reduced, matroid, trip_permutation


def run_selfcheck(n, seed=0):
    rng = random.Random(seed)
    results = []

    def check(name, fn):
        try:
            ok = fn()
            msg = None
        except Exception as ex:  # a crash is a failure with a reason
            ok, msg = False, str(ex)
        results.append((name, ok, msg))

    def necklace_roundtrip():
        for pi in all_decorated_permutations(n):
            if perm_from_necklace(necklace_from_perm(pi)) != pi:
                return False
        return True

    def le_roundtrip():
        for pi in all_decorated_permutations(n):
            if perm_from_le(le_from_perm(pi)) != pi:
                return False
        return True

    def graph_roundtrip():
        for pi in all_decorated_permutations(n):
            G = graph_from_le(le_from_perm(pi))
            if not is_reduced(G) or trip_permutation(G) != pi:
                return False
        return True

    def inverse_boundary():
        for _ in range(25 if n else 0):     # cells with k >= 1: none when n = 0
            k = rng.randint(1, n)
            shapes = list(partitions_in_box(k, n - k))
            lam = rng.choice(shapes)
            fills = list(le_fills(tuple(lam) + (0,) * (k - len(lam))))
            D = LeDiagram(k, n, lam, rng.choice(fills))
            vals = {b: Fraction(rng.randint(1, 30), rng.randint(1, 30)) for b in D.boxes()}
            T = diagram_to_tableau(D, vals)
            if invert_measurement(tableau_matrix(T)) != T:
                return False
        return True

    def cyclic_measurement():
        """25 cyclic networks N, each a perfect top-cell hook network with
        one boundary path reversed, on 4..max(n, 6) boundary vertices
        (smaller ones rarely get a cycle): A(N) is tnn, inverts, and
        keeps the hook network's Plucker point."""
        found = 0
        for _ in range(2000):
            m = rng.randint(4, max(n, 6))
            D = le_from_perm(top_permutation(rng.randint(1, m - 1), m))
            T = diagram_to_tableau(D, {b: Fraction(rng.randint(1, 30), rng.randint(1, 30))
                                       for b in D.boxes()})
            P = perfect_and_trivalent(gamma_network(T))
            path, v = [], rng.choice(sorted(P.sources()))
            while P.out_edges(v):
                path.append(rng.choice(P.out_edges(v)))
                v = P.head(path[-1])
            N = switch_orientation(P, path)
            if N.is_acyclic():
                continue
            A = boundary_measurement_matrix(N)
            if any(maximal_minor(A, J) < 0 for J in combinations(range(1, m + 1), A.k)):
                return False
            p = plucker_vector(A)
            if not (meas_D(invert_measurement(A)).projectively_equal(p)
                    and meas_D(T).projectively_equal(p)):
                return False
            found += 1
            if found == 25:
                return True
        return False

    def matroid_coherence():
        for k in range(n + 1):
            for lam in partitions_in_box(k, n - k):
                full = tuple(lam) + (0,) * (k - len(lam))
                for fill in le_fills(full):
                    D = LeDiagram(k, n, full, fill)
                    T = diagram_to_tableau(D)
                    M_alg = matroid_of_plucker(meas_D(T)) if k else None
                    M_comb = matroid(graph_from_le(D))
                    if k and M_alg != M_comb:
                        return False
                    neck = necklace_from_perm(perm_from_le(D))
                    for i in range(1, n + 1):
                        if lex_min_base(M_comb, i) != neck[i]:
                            return False
        return True

    def rank_consistency():
        for pi in all_decorated_permutations(n):
            if rank(pi) != le_from_perm(pi).size():
                return False
        return True

    def counts():
        for k in range(n + 1):
            if enumeration.count_cells(k, n) != enumeration.count_cells_by_permutations(k, n):
                return False
            if sum(enumeration.cell_poly(k, n)) != enumeration.count_cells(k, n):
                return False
        return True

    check("necklace round trip", necklace_roundtrip)
    check("Le round trip", le_roundtrip)
    check("graph/trips round trip", graph_roundtrip)
    check("inverse boundary round trip", inverse_boundary)
    check("cyclic measurement", cyclic_measurement)
    if n <= 6:
        check("matroid coherence", matroid_coherence)
    check("rank = |D|", rank_consistency)
    check("three-way counts", counts)

    allok = True
    for name, ok, msg in results:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if msg:
            line += f"  ({msg})"
        print(line)
        allok &= ok
    return allok
