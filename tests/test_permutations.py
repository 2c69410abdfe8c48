import hashlib
import random
from itertools import combinations, permutations as iperm

import pytest

from oracles import (aligned_pair, chord_class, inversions, minimal_permutation,
                     necklace_by_shifted_orders, necklace_from_matroid, r_table_by_walks,
                     reversal_misaligned)
from positroid.exactmath import Matroid, lambda_to_subset, partitions_in_box
from positroid.lediagram import LeDiagram, le_fills
from positroid.permutations import (BLACK, WHITE, DecoratedPermutation,
                                    GrassmannNecklace, all_decorated_permutations,
                                    alignment_number, bruhat_leq_grassmannian,
                                    circular_leq, classify_pair, covers,
                                    crossing_roles, le_from_perm, le_from_u,
                                    necklace_from_perm, perm_from_le,
                                    perm_from_necklace, rank, r_table,
                                    top_permutation, u_from_le, w_lambda,
                                    _uncross)

rng = random.Random(999)


def test_parse_format_roundtrip():
    s = "3 1 5 4B 2 6W"
    pi = DecoratedPermutation.parse(s)
    assert pi.format() == s
    assert pi.col == {4: BLACK, 6: WHITE}


def test_bad_decorations_rejected():
    with pytest.raises(ValueError):
        DecoratedPermutation((2, 1), {1: BLACK})
    with pytest.raises(ValueError):
        DecoratedPermutation((1, 2), {1: BLACK})  # 2 missing a color


def test_anti_exceedances_example():
    pi = DecoratedPermutation((3, 1, 5, 4, 2, 6), {4: BLACK, 6: WHITE})
    assert sorted(pi.anti_exceedances()) == [1, 2, 6]
    assert pi.type() == (3, 6)


def test_necklace_paper_example():
    pi = DecoratedPermutation((3, 1, 5, 4, 2, 6), {4: BLACK, 6: WHITE})
    neck = necklace_from_perm(pi)
    expected = [{1, 2, 6}, {2, 3, 6}, {1, 3, 6}, {1, 5, 6}, {1, 5, 6}, {1, 2, 6}]
    assert [set(s) for s in neck.subsets] == expected


def test_necklace_identity_all_white():
    n = 4
    pi = DecoratedPermutation(range(1, n + 1), {i: WHITE for i in range(1, n + 1)})
    neck = necklace_from_perm(pi)
    assert all(s == frozenset(range(1, n + 1)) for s in neck.subsets)


def test_necklace_invariant_random():
    for n in range(1, 8):
        for _ in range(30):
            base = list(range(1, n + 1))
            rng.shuffle(base)
            fixed = [i for i in range(1, n + 1) if base[i - 1] == i]
            col = {i: rng.choice([BLACK, WHITE]) for i in fixed}
            pi = DecoratedPermutation(base, col)
            assert necklace_from_perm(pi).is_valid()


def test_necklace_roundtrip_exhaustive():
    for n in range(7):          # n = 0: the empty necklace, k = 0
        for pi in all_decorated_permutations(n):
            assert perm_from_necklace(necklace_from_perm(pi)) == pi


def test_perm_from_necklace_example():
    neck = GrassmannNecklace([{1, 2}, {2, 4}, {3, 4}, {1, 4}])
    assert perm_from_necklace(neck).perm == (4, 3, 1, 2)


def test_constant_necklace():
    neck = GrassmannNecklace([{1, 3}] * 4)
    pi = perm_from_necklace(neck)
    assert pi == minimal_permutation({1, 3}, 4)


def test_invalid_necklace_rejected():
    with pytest.raises(ValueError):
        GrassmannNecklace([{1, 2}, {3, 4}, {1, 2}, {1, 2}])


@pytest.mark.parametrize("text, message", [
    ("7\n7\n7\n", "necklace line 1: expected an entry in 1..3, not '7'"),
    ("1 1\n2\n3\n", "necklace line 1: entry 1 is repeated"),
    ("1 2\n\n2 x\n", "necklace line 3: expected an entry in 1..2, not 'x'"),
    ("1\n0\n", "necklace line 2: expected an entry in 1..2, not '0'"),
    ("- 1\n1\n", "necklace line 1: expected an entry in 1..2, not '-'"),
], ids=["out-of-range", "repeated", "not-an-integer", "zero", "empty-mark-not-alone"])
def test_necklace_text_names_line_and_entry(text, message):
    with pytest.raises(ValueError) as err:
        GrassmannNecklace.from_text(text)
    assert str(err.value) == message


def test_necklace_entries_lie_in_1_to_n():
    with pytest.raises(ValueError, match="I_1 has entry 7, outside 1..3"):
        GrassmannNecklace([{7}, {7}, {7}])


def test_necklace_text_round_trip():
    for n in range(6):          # k = 0 included: its subsets are written '-'
        for pi in all_decorated_permutations(n):
            neck = necklace_from_perm(pi)
            assert GrassmannNecklace.from_text(neck.to_text()) == neck


def test_k0_necklace_text():
    neck = GrassmannNecklace([set()] * 3)
    assert neck.to_text() == "-\n-\n-\n"
    assert GrassmannNecklace.from_text(neck.to_text()) == neck
    assert GrassmannNecklace.from_text(neck.to_text()).n == 3


def test_necklace_from_matroid_example():
    M = Matroid(2, 4, [{1, 4}, {1, 2}, {1, 3}, {2, 4}, {3, 4}])
    neck = necklace_from_matroid(M)
    assert [set(s) for s in neck.subsets] == [{1, 2}, {2, 4}, {3, 4}, {1, 4}]


def test_necklace_from_single_base():
    M = Matroid(2, 5, [{2, 4}])
    neck = necklace_from_matroid(M)
    assert all(s == frozenset({2, 4}) for s in neck.subsets)


def test_alignment_number_top_and_bottom():
    assert alignment_number(top_permutation(2, 4)) == 0
    for I in combinations(range(1, 5), 2):
        assert alignment_number(minimal_permutation(I, 4)) == 2 * 2


def test_classify_pair_basics():
    pi = top_permutation(2, 4)  # 3 4 1 2
    c = classify_pair(pi, 2, 1)
    assert c.kind == "crossing" and c.simple
    mini = minimal_permutation({1, 2}, 4)
    # white loop at 1 with black loop at 3: an alignment
    assert classify_pair(mini, 3, 1).kind == "alignment"
    # two white loops: not an alignment
    assert classify_pair(mini, 1, 2).kind != "alignment"


def _ordered_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def test_classify_pair_matches_the_four_point_oracle():
    checked = 0
    for n in range(7):
        for pi in all_decorated_permutations(n):
            for i, j in _ordered_pairs(n):
                if len({i, pi(i), j, pi(j)}) == 4:
                    assert classify_pair(pi, i, j).kind == chord_class(n, i, pi(i), j, pi(j))
                    checked += 1
    assert checked > 10000


def test_every_pair_is_crossing_alignment_or_misalignment():
    # a pair's kind depends only on the order and colours of i, pi(i), j,
    # pi(j), so n <= 4 meets every kind of pair that any n has
    kinds = set()
    for n in range(5):
        for pi in all_decorated_permutations(n):
            for i, j in _ordered_pairs(n):
                kind = classify_pair(pi, i, j).kind
                kinds.add(kind)
                if kind != "crossing":
                    assert (kind == "alignment") == aligned_pair(pi, i, j)
                    assert (kind == "misalignment") == reversal_misaligned(pi, i, j)
    assert kinds == {"crossing", "alignment", "misalignment"}


def _swap_targets(pi, a, b):
    """pi with the targets of a and b swapped; a new loop is black at a and
    white at b, and a loop that stops being one loses its colour."""
    perm = list(pi.perm)
    perm[a - 1], perm[b - 1] = pi(b), pi(a)
    col = {x: c for x, c in pi.col.items() if x not in (a, b)}
    col.update({x: c for x, c in ((a, BLACK), (b, WHITE)) if perm[x - 1] == x})
    return DecoratedPermutation(perm, col)


def test_simple_pairs_give_the_covers():
    # undoing a crossing gives a cell below pi and crossing an alignment one
    # above it; either is a cover exactly when the pair is simple
    for n in range(6):
        for pi in all_decorated_permutations(n):
            below, r = covers(pi), rank(pi)
            for i, j in _ordered_pairs(n):
                pair = classify_pair(pi, i, j)
                roles = crossing_roles(pi, i, j)
                if roles is not None:
                    lower = _swap_targets(pi, *roles)
                    assert pair.simple == (lower in below) == (rank(lower) == r - 1)
                    assert _uncross(pi, *roles) == (lower if pair.simple else None)
                elif pair.kind == "alignment":
                    upper = _swap_targets(pi, i, j)
                    assert pair.simple == (pi in covers(upper)) == (rank(upper) == r + 1)


def test_necklace_step_rule_matches_shifted_orders():
    for n in range(7):
        for pi in all_decorated_permutations(n):
            assert list(necklace_from_perm(pi).subsets) == necklace_by_shifted_orders(pi)
            assert r_table(pi) == r_table_by_walks(pi)


def test_rank_equals_diagram_size():
    for n in range(1, 6):
        for pi in all_decorated_permutations(n):
            assert rank(pi) == le_from_perm(pi).size()


def test_circular_leq_reflexive_and_top():
    for n in range(1, 6):
        for pi in all_decorated_permutations(n):
            assert circular_leq(pi, pi)
            k = pi.k()
            assert circular_leq(pi, top_permutation(k, n))


def test_circular_leq_type_mismatch():
    with pytest.raises(ValueError):
        circular_leq(top_permutation(1, 4), top_permutation(2, 4))


def test_r_table_full_interval():
    pi = top_permutation(2, 5)
    t = r_table(pi)
    for a in range(1, 6):
        assert t[(a, (a - 2) % 5 + 1 if a > 1 else 5)] == 2  # r_{a,a-1} = k


def test_leq_agrees_with_matroid_containment():
    # over all cells of type (2,4), via the Le route
    from positroid.plabic import graph_from_le, matroid
    cells = list(all_decorated_permutations(4, 2))
    mats = {pi: matroid(graph_from_le(le_from_perm(pi))) for pi in cells}
    for p1 in cells:
        for p2 in cells:
            assert circular_leq(p1, p2) == (mats[p1].bases <= mats[p2].bases)


def test_covers_minimal_empty():
    for I in combinations(range(1, 5), 2):
        assert covers(minimal_permutation(I, 4)) == []


def test_covers_rank_drop():
    for n in range(2, 6):
        for pi in all_decorated_permutations(n):
            for lower in covers(pi):
                assert circular_leq(lower, pi)
                assert rank(lower) == rank(pi) - 1


def test_covers_equal_transitive_reduction():
    for (k, n) in [(1, 4), (2, 4)]:
        cells = list(all_decorated_permutations(n, k))
        leq = {(a, b): circular_leq(p, q)
               for a, p in enumerate(cells) for b, q in enumerate(cells)}
        cover_pairs = set()
        for a, p in enumerate(cells):
            for b, q in enumerate(cells):
                if a == b or not leq[(a, b)]:
                    continue
                if any(leq[(a, c)] and leq[(c, b)] and c not in (a, b)
                       for c in range(len(cells))):
                    continue
                cover_pairs.add((a, b))
        computed = set()
        for b, q in enumerate(cells):
            for low in covers(q):
                a = cells.index(low)
                computed.add((a, b))
        assert computed == cover_pairs


def test_covers_order_is_pinned():
    """`poset --covers` prints the list covers() returns, in its order, and
    the other tests compare sets: hash each cell's list, a `|` after it,
    over all 2,372 decorated permutations with n <= 6."""
    h, cells = hashlib.sha256(), 0
    for n in range(7):
        for pi in all_decorated_permutations(n):
            h.update(("\n".join(c.format() for c in covers(pi)) + "|").encode())
            cells += 1
    assert cells == 2372
    assert h.hexdigest() == "28bf38d34d8ebd745af92ae8299e54871e9b1acc8b7e8efd8be86f4f4d3d9cb7"


def test_double_bruhat_product_order():
    # (k, 2k) = (2, 4): permutations pi(u, v) compare factorwise
    def embed(u, v):
        k = 2
        perm = [0] * (2 * k)
        for i in range(1, k + 1):
            perm[i - 1] = 2 * k + 1 - u[i - 1]
            perm[(2 * k + 1 - i) - 1] = v[i - 1]
        return DecoratedPermutation(perm)

    s2 = list(iperm((1, 2)))
    for u1 in s2:
        for v1 in s2:
            for u2 in s2:
                for v2 in s2:
                    lhs = circular_leq(embed(u1, v1), embed(u2, v2))
                    rhs = (inversions(u1) <= inversions(u2) and u1 in (u2, (1, 2))) and \
                          (inversions(v1) <= inversions(v2) and v1 in (v2, (1, 2)))
                    assert lhs == rhs


def test_w_lambda_figure():
    assert w_lambda((5, 5, 2, 1), 4, 9) == (2, 4, 8, 9, 1, 3, 5, 6, 7)


def test_w_lambda_empty_shape():
    k, n = 2, 5
    w = w_lambda((), k, n)
    assert bruhat_leq_grassmannian(w, (), k, n)
    count = sum(1 for u in iperm(range(1, n + 1))
                if bruhat_leq_grassmannian(u, (), k, n))
    assert count == 1


def test_u_from_le_empty_fill_is_w():
    for (k, n) in [(2, 4), (3, 6)]:
        for lam in partitions_in_box(k, n - k):
            D = LeDiagram(k, n, lam, [(0,) * p for p in lam if p])
            assert u_from_le(D) == w_lambda(lam, k, n)


def test_u_from_le_figure():
    D = LeDiagram(4, 9, (5, 5, 2, 1),
                  [(0, 0, 1, 0, 0), (1, 1, 1, 0, 1), (0, 0), (1,)])
    assert u_from_le(D) == (1, 4, 2, 7, 3, 5, 9, 6, 8)
    assert inversions(w_lambda((5, 5, 2, 1), 4, 9)) - inversions(u_from_le(D)) == D.size()


def test_length_identity_exhaustive():
    k, n = 3, 6
    for lam in partitions_in_box(k, n - k):
        full = tuple(lam) + (0,) * (k - len(lam))
        w = w_lambda(lam, k, n)
        for fill in le_fills(full):
            D = LeDiagram(k, n, full, fill)
            u = u_from_le(D)
            assert inversions(w) - inversions(u) == D.size()
            assert bruhat_leq_grassmannian(u, lam, k, n)


def test_le_u_roundtrip_exhaustive():
    k, n = 3, 6
    for lam in partitions_in_box(k, n - k):
        full = tuple(lam) + (0,) * (k - len(lam))
        for fill in le_fills(full):
            D = LeDiagram(k, n, full, fill)
            assert le_from_u(u_from_le(D), lam, k, n) == D


def test_le_from_u_rejects_not_below():
    k, n = 2, 4
    w_empty = w_lambda((), k, n)
    with pytest.raises(ValueError):
        le_from_u(tuple(reversed(range(1, n + 1))), (), k, n)


def test_bruhat_interval_counts_diagrams():
    k, n = 2, 5
    for lam in partitions_in_box(k, n - k):
        count_u = sum(1 for u in iperm(range(1, n + 1))
                      if bruhat_leq_grassmannian(u, lam, k, n))
        full = tuple(lam) + (0,) * (k - len(lam))
        count_D = sum(1 for _ in le_fills(full))
        assert count_u == count_D


def test_perm_le_roundtrip_exhaustive():
    for n in range(1, 6):
        for pi in all_decorated_permutations(n):
            D = le_from_perm(pi)
            assert perm_from_le(D) == pi
            assert sorted(pi.anti_exceedances()) == sorted(lambda_to_subset(D.shape, D.k, D.n))


def test_all_zero_diagram_gives_identity():
    D = LeDiagram(2, 4, (2, 1), [(0, 0), (0,)])
    pi = perm_from_le(D)
    I = lambda_to_subset(D.shape, D.k, D.n)
    assert pi == minimal_permutation(I, 4)


def test_empty_shape_k0_identity_black():
    D = LeDiagram(0, 3, (), [])
    pi = perm_from_le(D)
    assert pi == minimal_permutation(set(), 3)
