import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from helpers import random_le_data, random_rational
from oracles import (count_le_diagrams, enumerate_le_diagrams, gamma_vertical_edges,
                     hook_layout_by_coordinates, is_tnn, le_fill_by_quadruples, procedure_tableau,
                     total_cells, vertical_normalizing_gauge)
from positroid.exactmath import (RationalMatrix, echelon_form, lambda_to_subset,
                                 matroid_of_plucker, maximal_minor, partitions_in_box)
from positroid.lediagram import (LeDiagram, LeTableau, NotTotallyNonnegative, _hook_layout,
                                 diagram_to_tableau, gamma_network, invert_measurement, is_le_diagram,
                                 is_le_fill, le_count_poly, le_fills, meas_D, tableau_matrix, witness_not_tnn)
from positroid.network import boundary_measurement, gauge_transform, measure

rng = random.Random(1234)


def test_is_le_all_zero():
    assert is_le_diagram((3, 2), [(0, 0, 0), (0, 0)])


def test_is_le_figure_diagram():
    fill = [(0, 0, 1, 0, 1), (1, 1, 1, 0, 1), (0, 0), (0,)]
    assert is_le_diagram((5, 5, 2, 1), fill)
    assert LeDiagram(4, 10, (5, 5, 2, 1), fill).size() == 6


def test_is_le_violating_triple():
    # 1 left of and 1 above a 0: a = (2,1), c = (1,2), b = (2,2) zero
    assert not is_le_diagram((2, 2), [(0, 1), (1, 0)])


def test_is_le_shape_mismatch():
    with pytest.raises(ValueError):
        is_le_diagram((2, 1), [(1,)])
    # the rows are those of the first parts: no row may be skipped or added
    for fill in ([(1, 1), (), (1, 1)], [(1, 1), (1, 1), ()], [(), (1, 1)]):
        with pytest.raises(ValueError, match="fill does not match shape"):
            LeDiagram(2, 4, (2, 2), fill)
    assert LeDiagram(2, 4, (2, 0), [(1, 1)]).fill == ((1, 1), ())
    assert is_le_diagram((2, 0), [(1, 1), ()])


def test_is_le_fill_equals_the_box_by_box_test():
    # every 0/1 filling of every shape in a 3 x 4 box
    seen = {True: 0, False: 0}
    for lam in partitions_in_box(3, 4):
        for bits in product((0, 1), repeat=sum(lam)):
            it = iter(bits)
            rows = [tuple(next(it) for _ in range(p)) for p in lam]
            fast = is_le_fill(rows)
            assert fast == le_fill_by_quadruples(lam, rows), (lam, rows)
            seen[fast] += 1
    # random fillings of larger shapes; a Le-diagram made by filling every box
    # with a 1 left of it and above it, and one box of it flipped
    r = random.Random(8)
    for _ in range(300):
        k = r.randint(1, 7)
        lam = sorted((r.randint(0, 9) for _ in range(k)), reverse=True)
        density = r.random() / 2
        rows = [[int(r.random() < density) for _ in range(p)] for p in lam]
        if r.random() < 0.5:
            above = set()
            for row in rows:
                for j in range(len(row)):
                    row[j] |= j in above and any(row[:j])
                    above.update(j for j, x in enumerate(row) if x)
            if sum(lam) and r.random() < 0.5:
                i = r.choice([i for i, p in enumerate(lam) if p])
                rows[i][r.randrange(lam[i])] ^= 1
        fast = is_le_fill(rows)
        assert fast == le_fill_by_quadruples(lam, rows), (lam, rows)
        seen[fast] += 1
    assert min(seen.values()) >= 100


def test_enumerate_single_box():
    assert count_le_diagrams((1,)) == 2
    assert le_count_poly((1,)) == (1, 1)


def test_enumeration_matches_brute_force():
    for lam in [(2, 1), (2, 2), (3, 2, 1), (3, 3), (4, 2, 1)]:
        boxes = [(r, c) for r, p in enumerate(lam) for c in range(p)]
        brute = 0
        brute_poly = [0] * (len(boxes) + 1)
        for bits in product((0, 1), repeat=len(boxes)):
            rows = []
            idx = 0
            for p in lam:
                rows.append(tuple(bits[idx:idx + p]))
                idx += p
            if is_le_diagram(lam, rows):
                brute += 1
                brute_poly[sum(bits)] += 1
        assert count_le_diagrams(lam) == brute
        # the all-ones fill is a Le-diagram, so the top degree |lam| is never zero
        assert list(le_count_poly(lam)) == brute_poly and len(brute_poly) == sum(lam) + 1
        fills = set(le_fills(lam))
        assert len(fills) == brute  # duplicate-free


def test_enumerate_le_diagrams_stream():
    out = list(enumerate_le_diagrams(2, 4, (2, 1)))
    assert len(out) == count_le_diagrams((2, 1)) == 8
    assert all(isinstance(D, LeDiagram) for D in out)


def test_gamma_network_empty_shape():
    T = LeTableau(1, 2, (), [])
    net = gamma_network(T)
    assert sorted(net.sources()) == [2]
    assert net.edges == {}


def test_gamma_network_single_hook():
    T = LeTableau(1, 2, (1,), [[5]])
    net = gamma_network(T)
    assert boundary_measurement(net, 1, 2) == 5
    assert tableau_matrix(T).rows == ((1, 5),)


def test_gamma_network_figure_source_set():
    lam = (5, 4, 4, 3, 2, 0)
    assert sorted(lambda_to_subset(lam, 6, 13)) == [3, 5, 6, 8, 10, 13]
    D = LeDiagram(6, 13, lam, [tuple(1 for _ in range(p)) for p in lam if p])
    T = diagram_to_tableau(D)
    net = gamma_network(T)
    assert sorted(net.sources()) == [3, 5, 6, 8, 10, 13]
    assert net.is_acyclic()


def _same_layout(T):
    flags, edges, rot = _hook_layout(T.k, T.n, T.shape, T.rows)
    want_flags, want_edges, want_rot = hook_layout_by_coordinates(T)
    assert (flags, edges) == (want_flags, want_edges)
    assert list(rot.items()) == list(want_rot.items())       # the dict order too


def test_hook_layout_matches_compass_sort():
    """The rotations read off the grid equal those sorted by compass heading
    on coordinates, with equal edge ids and rot order: every Le-tableau
    with n <= 6, then the top cells up to n = 12."""
    cells = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for lam in partitions_in_box(k, n - k):
                for D in enumerate_le_diagrams(k, n, lam):
                    _same_layout(diagram_to_tableau(D, {b: random_rational(rng) for b in D.boxes()}))
                    cells += 1
    assert cells == sum(map(total_cells, range(1, 7)))
    for n in range(1, 13):
        for k in range(n + 1):
            top = LeDiagram(k, n, (n - k,) * k, [(1,) * (n - k)] * k)
            _same_layout(diagram_to_tableau(top, {b: random_rational(rng) for b in top.boxes()}))


def test_meas_D_zero_tableau():
    T = LeTableau(2, 4, (2, 1), [(0, 0), (0,)])
    p = meas_D(T)
    I = tuple(sorted(lambda_to_subset((2, 1), 2, 4)))
    assert p.support() == frozenset({I})


def test_meas_D_k1():
    T = LeTableau(1, 2, (1,), [[Fraction(7, 3)]])
    p = meas_D(T)
    assert p[(1,)] == 1 and p[(2,)] == Fraction(7, 3)


def test_meas_D_normalization_and_polynomiality():
    for _ in range(10):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, k + 3)
        D, T = random_le_data(rng, k, n)
        p = meas_D(T)
        I = tuple(sorted(lambda_to_subset(D.shape, k, n)))
        assert p[I] == 1
        assert all(v >= 0 for v in p.coords.values())


def test_matroid_depends_only_on_support():
    for _ in range(8):
        D, T1 = random_le_data(rng, 2, 5)
        vals = {b: random_rational(rng, 1, 20) for b in D.boxes()}
        T2 = diagram_to_tableau(D, vals)
        assert matroid_of_plucker(meas_D(T1)) == matroid_of_plucker(meas_D(T2))


def test_invert_identity_matrix():
    # pivots {1,2} force the full 2x2 shape, filled with zeros
    A = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    T = invert_measurement(A)
    assert T.shape == (2, 2)
    assert all(x == 0 for row in T.rows for x in row)


def test_invert_k1():
    A = RationalMatrix([[1, Fraction(7, 2)]])
    T = invert_measurement(A)
    assert T.shape == (1,)
    assert T.rows[0] == (Fraction(7, 2),)


def test_invert_figure_diagram():
    fill = [(0, 0, 1, 0, 1), (1, 1, 1, 0, 1), (0, 0), (0,)]
    D = LeDiagram(4, 10, (5, 5, 2, 1), fill)
    vals = {b: random_rational(rng, 1, 9) for b in D.boxes()}
    T = diagram_to_tableau(D, vals)
    assert invert_measurement(tableau_matrix(T)) == T


def test_invert_round_trip_exhaustive_small():
    k, n = 2, 4
    for lam in partitions_in_box(k, n - k):
        full = tuple(lam) + (0,) * (k - len(lam))
        for fill in le_fills(full):
            D = LeDiagram(k, n, full, fill)
            vals = {b: random_rational(rng, 1, 15) for b in D.boxes()}
            T = diagram_to_tableau(D, vals)
            A = tableau_matrix(T)
            assert invert_measurement(A) == T


def test_invert_rejects_non_tnn():
    A = RationalMatrix([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        invert_measurement(A)
    assert "Delta" in witness_not_tnn(A)


def test_invert_rejects_rank_deficient():
    A = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        invert_measurement(A)


def test_invert_accepts_unreduced_representative():
    # scaling rows keeps the point; invert works on the echelon form
    T0 = LeTableau(2, 4, (2, 1), [(2, 3), (5,)])
    A = tableau_matrix(T0)
    doubled = RationalMatrix([[2 * x for x in A.rows[0]], [3 * x for x in A.rows[1]]])
    assert invert_measurement(doubled) == T0


def test_vertical_gauge_normalization():
    for _ in range(6):
        D, T = random_le_data(rng, 2, 5)
        if not D.boxes():
            continue
        net = gamma_network(T)
        t = {v: random_rational(rng, 1, 7) for v in net.internal_vertices()}
        skewed = gauge_transform(net, t)
        assert measure(skewed).projectively_equal(measure(net))
        back = vertical_normalizing_gauge(skewed, gamma_vertical_edges(skewed))
        restored = gauge_transform(skewed, back)
        assert restored.edges == net.edges


def test_tableau_text_roundtrip():
    T = LeTableau(2, 5, (3, 1), [(Fraction(1, 2), 0, 3), (7,)])
    back = LeTableau.from_text(T.to_text())
    assert back == T


def test_meas_D_integer_polynomiality():
    # acyclic hook networks give polynomial coordinates with nonnegative
    # integer coefficients; at nonnegative integer entries every
    # normalized coordinate is a nonnegative integer
    for _ in range(8):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, k + 3)
        D, _ = random_le_data(rng, k, n)
        vals = {b: Fraction(rng.randint(0, 6)) for b in D.boxes()}
        try:
            T = diagram_to_tableau(D, vals)
        except ValueError:
            continue  # a zero landed on a support box; not a valid tableau
        p = meas_D(T)
        assert all(v >= 0 and v.denominator == 1 for v in p.coords.values())


def lex_first_witness(A):
    """The rejection text: the rank defect, else the lex-first negative minor."""
    if A.rank() < A.k:
        return f"matrix has rank {A.rank()} < {A.k}"
    for J in combinations(range(1, A.n + 1), A.k):
        m = maximal_minor(A, J)
        if m < 0:
            return f"minor Delta_{{{','.join(map(str, J))}}} = {m} < 0"
    return None


def test_invert_certificate_matches_tnn_oracle():
    local = random.Random(2024)
    accepted = rejected = 0
    for _ in range(60):
        k = local.randint(1, 3)
        n = local.randint(k, 6)
        _, T = random_le_data(local, k, n)
        A = tableau_matrix(T)
        rows = [list(r) for r in A.rows]
        flipped = [list(r) for r in rows]
        i, j = local.choice([(i, j) for i in range(k) for j in range(n) if rows[i][j]])
        flipped[i][j] = -flipped[i][j]
        deficient = [list(r) for r in rows]
        deficient[-1] = [2 * x for x in rows[0]] if k > 1 else [0] * n
        scaled = [list(r) for r in rows]
        scaled[0] = [-random_rational(local, 1, 9) * x for x in rows[0]]
        mix = [[random_rational(local, 1, 5) * local.choice((-1, 1)) for _ in range(k)]
               for _ in range(k)]
        mixed = [[sum(mix[i][t] * rows[t][j] for t in range(k)) for j in range(n)]
                 for i in range(k)]
        noise = [[local.randint(-2, 3) for _ in range(n)] for _ in range(k)]
        for M in map(RationalMatrix, (rows, flipped, deficient, scaled, mixed, noise)):
            if is_tnn(M):
                S = invert_measurement(M)
                assert tableau_matrix(S) == echelon_form(M)[0]
                accepted += 1
            else:
                with pytest.raises(NotTotallyNonnegative) as info:
                    invert_measurement(M)
                assert str(info.value) == witness_not_tnn(M) == lex_first_witness(M)
                rejected += 1
        assert invert_measurement(A) == T
    assert accepted >= 60 and rejected >= 150


def test_invert_remeasurement_catches_a_valid_looking_tableau():
    # Delta_I > 0 and the recursive procedure returns a valid tableau, but the
    # tableau measures to a different echelon form; the sweep finds no tableau
    from positroid.exactmath import subset_to_lambda
    from positroid.lediagram import _peel
    A = RationalMatrix([[-1, 2, 1, -1], [-1, 1, 1, 1]])
    B, I = echelon_form(A)
    assert maximal_minor(A, I) > 0
    T = procedure_tableau(A)
    assert T.shape == subset_to_lambda(I, 4)
    assert tableau_matrix(T) != B
    with pytest.raises(ValueError):
        _peel(B, I, 4)
    with pytest.raises(NotTotallyNonnegative, match=r"^minor Delta_\{1,4\} = -2 < 0$"):
        invert_measurement(A)


def test_invert_le_check_is_part_of_the_certificate():
    # the sweep reads a positive filling off B, but its support breaks the
    # Le-property: the hooks of (1,2) and (2,1) cross at the empty box
    # (2,2), the network is not planar and B is not tnn
    from positroid.lediagram import _peel
    B = RationalMatrix([[1, 0, -1, -1], [0, 1, 0, 1]])
    assert _peel(B, (1, 2), 4) == [[1, 1], [1, 0]]
    with pytest.raises(NotTotallyNonnegative, match=r"^minor Delta_\{3,4\} = -1 < 0$"):
        invert_measurement(B)


def test_invert_certificate_failure_on_tnn_input_is_a_bug(monkeypatch):
    import positroid.lediagram as lediagram
    T = LeTableau(2, 4, (2, 1), [(2, 3), (5,)])
    A = tableau_matrix(T)

    def fail(B, I, n):
        raise ValueError("injected failure")

    monkeypatch.setattr(lediagram, "_peel", fail)
    with pytest.raises(AssertionError, match="totally nonnegative"):
        invert_measurement(A)


def _procedure_route(A):
    """The recursive procedure plus a re-measurement: its tableau, or None."""
    try:
        B, I = echelon_form(A)
        if maximal_minor(A, I) <= 0:
            return None
        T = procedure_tableau(A)
    except (ValueError, AssertionError):
        return None
    return T if tableau_matrix(T) == B else None


def test_invert_sweep_matches_procedure_on_every_cell_up_to_6():
    # every Le-tableau with 1 <= k <= n <= 6, random weights, and one
    # perturbed entry of each matrix: same tableau, or the same rejection
    local = random.Random(20)
    cells = rejected = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_in_box(k, n - k):
                for D in enumerate_le_diagrams(k, n, lam):
                    T = diagram_to_tableau(D, {b: random_rational(local, 1, 9) for b in D.boxes()})
                    A = tableau_matrix(T)
                    assert invert_measurement(A) == _procedure_route(A) == T
                    rows = [list(r) for r in A.rows]
                    i, j = local.randrange(k), local.randrange(n)
                    rows[i][j] += local.choice((-1, 1)) * random_rational(local, 1, 4)
                    M = RationalMatrix(rows)
                    S = _procedure_route(M)
                    if S is None:
                        with pytest.raises(NotTotallyNonnegative) as info:
                            invert_measurement(M)
                        assert str(info.value) == witness_not_tnn(M) == lex_first_witness(M)
                        rejected += 1
                    else:
                        assert invert_measurement(M) == S
                    cells += 1
    assert cells == 2365 and rejected > 500
