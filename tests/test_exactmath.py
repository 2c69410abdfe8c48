import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_grassmann_plucker, is_tnn, matroid_of, two_pass_rational, verify_exchange_axiom
from positroid.exactmath import (Matroid, RationalMatrix, det, echelon_form,
                                 lambda_to_subset, lex_min_base,
                                 maximal_minor, partitions_in_box,
                                 plucker_vector, rational, subset_to_lambda)

rng = random.Random(20240809)


def rand_matrix(k, n, lo=-9, hi=9):
    return RationalMatrix([[Fraction(rng.randint(lo, hi), rng.randint(1, 5))
                            for _ in range(n)] for _ in range(k)])


def det_cofactor(rows):
    """Independent cofactor-expansion oracle."""
    m = len(rows)
    if m == 0:
        return Fraction(1)
    if m == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(m):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def test_maximal_minor_identity():
    A = RationalMatrix.identity(2)
    assert maximal_minor(A, [1, 2]) == 1


def test_maximal_minor_measurement_example():
    # the source-{1,3} boundary matrix with M12=2, M32=3, M14=5, M34=7
    A = RationalMatrix([[1, 2, 0, -5], [0, 3, 1, 7]])
    assert maximal_minor(A, [2, 4]) == 2 * 7 + 5 * 3 == 29


def test_minors_against_cofactor_oracle():
    A = rand_matrix(3, 5)
    for J in combinations(range(1, 6), 3):
        sub = [[A[i, j - 1] for j in J] for i in range(3)]
        assert maximal_minor(A, J) == det_cofactor(sub)


def test_maximal_minor_bad_subset():
    A = RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        maximal_minor(A, [1])
    with pytest.raises(ValueError):
        maximal_minor(A, [1, 3])


def test_echelon_identity():
    A = RationalMatrix.identity(3)
    B, I = echelon_form(A)
    assert B == A and I == (1, 2, 3)


def test_echelon_forced():
    A = RationalMatrix([[0, 1, 2], [0, 0, 3]])
    B, I = echelon_form(A)
    assert I == (2, 3)
    assert B.rows == ((0, 1, 0), (0, 0, 1))


def test_rowless_matrix_keeps_its_width():
    A = RationalMatrix.from_text("0 3\n")
    assert (A.k, A.n) == (0, 3) and A.to_text() == "0 3\n"
    assert A != RationalMatrix([], 4)
    B, I = echelon_form(A)
    assert (B, I) == (A, ())


def test_echelon_rank_deficient():
    with pytest.raises(ValueError):
        echelon_form(RationalMatrix([[1, 2], [2, 4]]))


def test_echelon_projectively_equal_pluckers():
    for _ in range(5):
        A = rand_matrix(2, 4)
        try:
            B, _ = echelon_form(A)
        except ValueError:
            continue
        assert plucker_vector(A).projectively_equal(plucker_vector(B))


def _sparse_matrix(r, k, n):
    """Entries a/b with |a| <= 9, b <= 5, zero four times in ten, so the
    echelon pass swaps rows and some matrices lose rank."""
    return RationalMatrix([[0 if r.random() < 0.4 else Fraction(r.randint(-9, 9), r.randint(1, 5))
                            for _ in range(n)] for _ in range(k)], n)


def _tnn_matrix(r, k, n):
    """g B for the matrix B of a random Le-tableau and a random k x k g with
    det g > 0: totally nonnegative, and rarely in echelon form."""
    from helpers import random_le_data
    from positroid.lediagram import tableau_matrix
    B = tableau_matrix(random_le_data(r, k, n)[1])
    g = _sparse_matrix(r, k, k)
    while det(g) <= 0:
        g = _sparse_matrix(r, k, k)
    return RationalMatrix([[sum(g[i, t] * B[t, j] for t in range(k)) for j in range(n)]
                           for i in range(k)])


def _mixed_matrices(seed, count):
    r = random.Random(seed)
    for t in range(count):
        k = r.randint(0, 4)
        n = r.randint(max(k, 1), 7)
        yield _tnn_matrix(r, k, n) if t % 2 and k else _sparse_matrix(r, k, n)


def test_delta_I_is_the_signed_pivot_product():
    """Delta_I(A) at the pivot set I, read off the echelon pass, against
    maximal_minor on random matrices, totally nonnegative or not."""
    from positroid.exactmath import _echelon
    seen = Counter()
    for A in _mixed_matrices(4242, 2000):
        try:
            B, I, delta = _echelon(A)
        except ValueError:
            seen["rank deficient"] += 1
            continue
        assert (B, I) == echelon_form(A)
        assert delta == maximal_minor(A, I)
        seen["tnn" if is_tnn(A) else "negative" if delta < 0 else "other"] += 1
    assert min(seen.values()) >= 50, seen


def test_plucker_vector_equals_one_determinant_per_minor():
    from oracles import plucker_by_minors
    full = 0
    for A in _mixed_matrices(4343, 600):
        try:
            want = plucker_by_minors(A)
        except ValueError as ex:
            with pytest.raises(ValueError, match=f"^{ex}$"):
                plucker_vector(A)
            continue
        assert plucker_vector(A) == want
        full += 1
    assert full >= 300


def test_plucker_padded_identity():
    A = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    p = plucker_vector(A)
    assert p[(1, 2)] == 1
    assert all(v == 0 for key, v in p.coords.items() if key != (1, 2))


def test_vandermonde_positive():
    xs = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2)]
    A = RationalMatrix([[x ** i for x in xs] for i in range(2)])
    p = plucker_vector(A)
    assert all(v > 0 for v in p.coords.values())
    assert is_tnn(A)


def test_grassmann_plucker_relations():
    for (k, n) in [(2, 4), (2, 5)]:
        A = rand_matrix(k, n)
        try:
            p = plucker_vector(A)
        except ValueError:
            continue
        assert check_grassmann_plucker(p)


def test_plucker_sign_convention():
    A = rand_matrix(2, 4)
    p = plucker_vector(A)
    assert p[(2, 1)] == -p[(1, 2)]
    assert p[(1, 1)] == 0


def test_is_tnn_negative():
    assert not is_tnn(RationalMatrix([[1, 0], [0, -1]]))


def test_matroid_of_identity():
    M = matroid_of(RationalMatrix.identity(2))
    assert M.bases == frozenset({frozenset({1, 2})})


def test_matroid_of_generic():
    A = rand_matrix(2, 4)
    M = matroid_of(A)
    # random rationals are generic with overwhelming likelihood
    if len(M.bases) == 6:
        assert M.bases == frozenset(frozenset(J) for J in combinations(range(1, 5), 2))


def test_matroid_vanishing_pattern():
    # force Delta_{13} = 0: columns 1 and 3 proportional
    A = RationalMatrix([[1, 1, 2, 0], [1, 2, 2, 1]])
    M = matroid_of(A)
    assert frozenset({1, 3}) not in M.bases
    assert maximal_minor(A, [1, 3]) == 0
    assert verify_exchange_axiom(M)


def test_matroid_of_echelon_stable():
    A = rand_matrix(2, 4)
    try:
        B, _ = echelon_form(A)
    except ValueError:
        return
    assert matroid_of(A) == matroid_of(B)


def test_exchange_axiom():
    assert verify_exchange_axiom(Matroid(2, 4, [{1, 2}]))
    assert not verify_exchange_axiom(Matroid(2, 4, [{1, 2}, {3, 4}]))
    for _ in range(10):
        A = rand_matrix(2, 4)
        try:
            assert verify_exchange_axiom(matroid_of(A))
        except ValueError:
            pass


def test_lex_min_base():
    M = Matroid(2, 4, [set(c) for c in combinations(range(1, 5), 2)])
    assert lex_min_base(M, 1) == frozenset({1, 2})
    M2 = Matroid(2, 4, [{1, 4}, {1, 2}, {1, 3}, {2, 4}, {3, 4}])
    assert lex_min_base(M2, 2) == frozenset({2, 4})
    assert lex_min_base(M2, 4) == frozenset({1, 4})


def test_lex_min_is_pivot_set():
    for _ in range(10):
        A = rand_matrix(2, 5)
        try:
            _, I = echelon_form(A)
        except ValueError:
            continue
        assert lex_min_base(matroid_of(A), 1) == frozenset(I)


def test_lambda_subset_figure():
    assert lambda_to_subset((4, 4, 2, 1), 4, 10) == frozenset({3, 4, 7, 9})


def test_lambda_subset_empty():
    assert lambda_to_subset((), 3, 7) == frozenset({5, 6, 7})


def test_lambda_subset_roundtrip():
    k, n = 3, 6
    for lam in partitions_in_box(k, n - k):
        I = lambda_to_subset(lam, k, n)
        back = subset_to_lambda(I, n)
        assert tuple(x for x in back if x) == tuple(x for x in lam if x)
    for I in combinations(range(1, n + 1), k):
        lam = subset_to_lambda(I, n)
        assert lambda_to_subset(lam, k, n) == frozenset(I)


def test_phi_minor_correspondence():
    """The sign-twisted column deletion sends maximal minors of A to the
    minors of a classical matrix.

    With A = [Id_k | C], take B whose row i is (-1)^(i-1) times row k+1-i
    of C; then Delta_{I,J}(B) equals the maximal minor of A in the columns
    ([k] minus the reflected row set) plus the shifted column set.  (The
    source's displayed sign pattern drops a (-1)^C(r,2); the row-reversed
    form here is exact for every minor size r.)
    """
    for k, n in [(2, 5), (3, 6)]:
        body = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - k)]
                for _ in range(k)]
        A = RationalMatrix([[1 if i == j else 0 for j in range(k)] + body[i]
                            for i in range(k)])
        B = [[(-1) ** i * body[k - 1 - i][j] for j in range(n - k)] for i in range(k)]

        def minor_B(I, J):
            return det_cofactor([[B[i - 1][j] for j in J] for i in I])

        for r in range(k + 1):
            for I in combinations(range(1, k + 1), r):
                for J in combinations(range(n - k), r):
                    refl = {k + 1 - i for i in I}
                    big = sorted(set(range(1, k + 1)) - refl) + [j + k + 1 for j in J]
                    assert minor_B(I, J) == maximal_minor(A, sorted(big))


def test_bareiss_det_matches_fraction_gauss():
    # eight matrices per size, denominators up to 50, each also with a zero row and with two equal rows
    r = random.Random(5)
    for m in range(6):
        for _ in range(8):
            rows = [[Fraction(r.randint(-9, 9), r.randint(1, 50)) for _ in range(m)] for _ in range(m)]
            assert det(rows) == det_cofactor(rows)
            for i in range(m):
                zero = rows[:i] + [[Fraction(0)] * m] + rows[i + 1:]
                assert det(zero) == det_cofactor(zero) == 0
            if m > 1:
                i, j = r.sample(range(m), 2)
                equal = [rows[i] if t == j else row for t, row in enumerate(rows)]
                assert det(equal) == det_cofactor(equal) == 0


def test_det_reads_int_and_str_rows_and_refuses_a_bad_token():
    # Fractions pass through as they are; every other entry goes through rational
    assert det([[1, "1/2"], ["3", Fraction(2)]]) == Fraction(1, 2)
    assert det([[True, 0], [0, "-2.5"]]) == Fraction(-5, 2)
    assert det([]) == 1
    for bad in ("1/0", "x", "1e3"):
        with pytest.raises(ValueError, match="is not a rational number"):
            det([[1, bad], [0, 1]])
    with pytest.raises(TypeError):
        det([[1.5]])
    with pytest.raises(ValueError, match="non-square"):
        det([[1, 2]])


def _outcome(read, token):
    try:
        value = read(token)
    except Exception as ex:
        return type(ex), str(ex)
    return type(value), value


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="0123456789+-/.e_\u0663\u00b2\uff13 ", max_size=8))
def test_rational_reads_a_token_as_the_two_pass_rule(token):
    assert _outcome(rational, token) == _outcome(two_pass_rational, token)


@pytest.mark.parametrize("token", ["1/0", "0/0", "+0/5", "-4/6", ".5", "5.", "1e3", "1_0", "\u0663/\u0664",
                                   pytest.param("7" * 5000, id="5000-digit integer"),
                                   pytest.param("-7/" + "3" * 5000, id="5000-digit denominator")])
def test_rational_token_edge_cases(token):
    assert _outcome(rational, token) == _outcome(two_pass_rational, token)
