import pytest

from oracles import (bruhat_interval_count, eulerian_by_descents, poly_eval, staircase_check,
                     total_cells, williams_printed_formula)
from positroid.enumeration import (cell_poly, count_cells, count_cells_by_permutations,
                                   count_table, eulerian)
from positroid.exactmath import partitions_in_box
from positroid.lediagram import le_count_poly


PAPER_TABLE = [
    [1],
    [1, 1],
    [1, 3, 1],
    [1, 7, 7, 1],
    [1, 15, 33, 15, 1],
    [1, 31, 131, 131, 31, 1],
    [1, 63, 473, 883, 473, 63, 1],
]


def test_eulerian_conventions():
    assert eulerian(0, 0) == 1
    assert eulerian(1, 0) == 0
    assert eulerian(3, 0) == 0
    for n in range(1, 8):
        assert eulerian(1, n) == 1


def test_eulerian_against_descent_oracle():
    for n in range(0, 8):
        for k in range(0, n + 2):
            assert eulerian(k, n) == eulerian_by_descents(k, n)


def test_eulerian_row_sums():
    from math import factorial
    for n in range(1, 8):
        assert sum(eulerian(k, n) for k in range(n + 1)) == factorial(n)


def test_count_table_matches_paper():
    assert count_table(6) == PAPER_TABLE


def test_count_cells_specific():
    assert count_cells(3, 6) == 883
    assert count_cells(2, 5) == 131
    assert count_table(4)[4] == [1, 15, 33, 15, 1]


def test_count_matches_decorated_permutations():
    for n in range(0, 8):
        for k in range(n + 1):
            assert count_cells(k, n) == count_cells_by_permutations(k, n)


def test_count_matches_le_diagrams():
    for n in range(0, 7):
        for k in range(n + 1):
            assert sum(cell_poly(k, n)) == count_cells(k, n)


def test_cell_poly_examples():
    assert cell_poly(1, 2) == (2, 1)
    for n in range(0, 7):
        for k in range(n + 1):
            poly = cell_poly(k, n)
            assert len(poly) - 1 == k * (n - k)
            assert poly[-1] == 1  # unique top cell
            assert all(c >= 0 for c in poly)


def test_total_cells():
    assert [total_cells(n) for n in range(4)] == [1, 2, 5, 16]
    for n in range(8):
        assert total_cells(n) == (n * total_cells(n - 1) + 1 if n else 1)
    for n in range(7):
        assert sum(count_cells(k, n) for k in range(n + 1)) == total_cells(n)


def test_bruhat_interval_counts():
    assert bruhat_interval_count((), 2, 5) == 1
    k, n = 2, 5
    for lam in partitions_in_box(k, n - k):
        full = tuple(lam)
        assert bruhat_interval_count(lam, k, n) == sum(le_count_poly(full))


def test_bruhat_interval_guard():
    with pytest.raises(ValueError):
        bruhat_interval_count((1,), 1, 10)


def test_staircase_factorials():
    assert staircase_check(3) == 6
    assert [staircase_check(n) for n in range(1, 5)] == [1, 2, 6, 24]


def test_williams_printed_formula_is_garbled():
    # the transcription sums an empty range for k = 1 and mixes negative
    # bracket arguments; direct enumeration is the ground truth
    assert williams_printed_formula(1, 2, 2) == 0
    assert poly_eval(cell_poly(1, 2), 2) == 4
    assert williams_printed_formula(2, 4, 2) != poly_eval(cell_poly(2, 4), 2)


def test_rank_generating_function_small():
    from positroid.permutations import all_decorated_permutations, rank
    for (k, n) in [(1, 3), (2, 4), (1, 4)]:
        poly = [0] * (k * (n - k) + 1)
        for pi in all_decorated_permutations(n, k):
            poly[rank(pi)] += 1
        assert tuple(poly) == cell_poly(k, n)
