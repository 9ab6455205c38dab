import itertools

import numpy as np
import pytest

from gradedbethe.graded import GradedMatrix, GradedSpace

from oracles import FUND, graded_commutator, graded_kron, permutation_by_digits, supertrace, \
    supertrace_over_aux, tensor, whole_swap


def swap_matrix(n_factors, x, y):
    """The package's graded swap P_xy (``chain._swap`` at every row) as a dense matrix.

    Row q is +-e_src[q].
    """
    src, flipped = whole_swap(n_factors, x, y)
    m = np.zeros((src.size, src.size))
    m[np.arange(src.size), src] = np.where(flipped[:, 0], -1.0, 1.0)
    return m


#: the graded permutation P(e_i (x) e_j) = (-1)^{[i][j]} e_j (x) e_i on V (x) V
P = swap_matrix(2, 0, 1)


def rand_gm(rng, space=FUND):
    m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    return GradedMatrix(space, m)


def homogeneous_gm(rng, parity, space=FUND):
    m = rand_gm(rng, space).mat
    pa = space.parity_array()
    mask = (np.add.outer(pa, pa) % 2) == parity
    return GradedMatrix(space, np.where(mask, m, 0.0))


def test_fundamental_space():
    assert FUND.dim == 3
    assert FUND.parities == (0, 0, 1)


def test_product_grading_additive():
    prod = tensor(FUND, FUND)
    pa = FUND.parity_array()
    expect = (pa[:, None] + pa[None, :]) % 2
    assert prod.parities == tuple(expect.ravel())
    triple = tensor(prod, FUND)
    assert len(triple.parities) == 27


def test_permutation_squares_to_identity():
    assert np.array_equal(P @ P, np.eye(9))


def test_permutation_koszul_signs():
    # both even: plain swap
    v = np.zeros(9)
    v[0 * 3 + 1] = 1.0
    w = np.zeros(9)
    w[1 * 3 + 0] = 1.0
    assert np.array_equal(P @ v, w)
    # odd-odd picks a minus sign
    v = np.zeros(9)
    v[2 * 3 + 2] = 1.0
    assert np.array_equal(P @ v, -v)


def test_supertrace_of_permutation_is_one():
    # brute-force signed diagonal sum as the independent oracle
    par = FUND.parities
    brute = 0.0
    for i in range(3):
        for j in range(3):
            k = 3 * i + j
            brute += (-1) ** ((par[i] + par[j]) % 2) * P[k, k]
    assert brute == pytest.approx(1.0)
    assert supertrace(GradedMatrix(tensor(FUND, FUND), P)) == pytest.approx(1.0)


def test_graded_kron_identity():
    eye = GradedMatrix(FUND, np.eye(3))
    k = graded_kron(eye, eye)
    assert np.array_equal(k.mat, np.eye(9))


def test_graded_kron_even_left_factor_plain():
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    e33 = np.zeros((3, 3))
    e33[2, 2] = 1.0
    k = graded_kron(GradedMatrix(FUND, e11), GradedMatrix(FUND, e33))
    assert np.array_equal(k.mat, np.kron(e11, e33))


def test_graded_kron_odd_odd_sign():
    # E_13 (x) E_31 carries the Koszul sign fixed by the RTT conformance test
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    e31 = np.zeros((3, 3))
    e31[2, 0] = 1.0
    k = graded_kron(GradedMatrix(FUND, e13), GradedMatrix(FUND, e31))
    assert np.array_equal(k.mat, -np.kron(e13, e31))


def test_graded_kron_associative():
    gen = np.random.default_rng(1)
    a, b, c = (rand_gm(gen) for _ in range(3))
    lhs = graded_kron(graded_kron(a, b), c).mat
    rhs = graded_kron(a, graded_kron(b, c)).mat
    assert np.abs(lhs - rhs).max() < 1e-13


def test_graded_kron_composition_rule():
    # (A (x) B)(C (x) D) = (-1)^{|B||C|} AC (x) BD for homogeneous B, C
    gen = np.random.default_rng(2)
    for pb in (0, 1):
        for pc in (0, 1):
            a, d = rand_gm(gen), rand_gm(gen)
            b, c = homogeneous_gm(gen, pb), homogeneous_gm(gen, pc)
            lhs = graded_kron(a, b).mat @ graded_kron(c, d).mat
            ac = GradedMatrix(FUND, a.mat @ c.mat)
            bd = GradedMatrix(FUND, b.mat @ d.mat)
            rhs = (-1) ** (pb * pc) * graded_kron(ac, bd).mat
            assert np.abs(lhs - rhs).max() < 1e-12


def test_permutation_between_matches_adjacent_composition():
    # the graded swap of factors 0 and 2 is P_01 P_12 P_01, exactly
    p13 = swap_matrix(3, 0, 2)
    p12, p23 = swap_matrix(3, 0, 1), swap_matrix(3, 1, 2)
    assert np.array_equal(p13, p12 @ p23 @ p12)


@pytest.mark.parametrize("n_factors", range(1, 9))
def test_permutation_between_matches_the_digit_table(n_factors):
    # the package's graded swap between two factors, read off the base-3
    # digits of every row, against the digit table, bit for bit; at x == y
    # both give the rule's degenerate case, the grading (-1)^{p_x} of factor x
    for x, y in itertools.product(range(n_factors), repeat=2):
        src, flipped = whole_swap(n_factors, x, y)
        ref = permutation_by_digits([FUND] * n_factors, x, y)
        assert src.dtype == ref.dest.dtype and np.array_equal(src, ref.dest)
        assert flipped.shape == (3 ** n_factors, 1)
        assert np.array_equal(flipped[:, 0], ref.sign < 0)
        # a graded swap is its own inverse, and its sign is symmetric under it
        assert np.array_equal(src[src], np.arange(3 ** n_factors))
        assert np.array_equal(flipped[src], flipped)


def test_supertrace_over_aux_identity():
    prod = tensor(FUND, FUND)
    out = supertrace_over_aux(GradedMatrix(prod, np.eye(9)))
    # coefficient 1 + 1 - 1
    assert np.array_equal(out, np.eye(3))


def test_supertrace_over_aux_of_permutation_is_identity():
    # signed local identity contribution, by direct index computation
    out = supertrace_over_aux(P)
    assert np.array_equal(out, np.eye(3))


def test_supertrace_cyclic_for_even_operators():
    gen = np.random.default_rng(3)
    a = homogeneous_gm(gen, 0)
    b = homogeneous_gm(gen, 0)
    lhs = supertrace(GradedMatrix(FUND, a.mat @ b.mat))
    rhs = supertrace(GradedMatrix(FUND, b.mat @ a.mat))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_graded_commutator_signs():
    gen = np.random.default_rng(4)
    a, b = rand_gm(gen).mat, rand_gm(gen).mat
    assert np.array_equal(graded_commutator(a, b, 0, 0), a @ b - b @ a)
    assert np.array_equal(graded_commutator(a, b, 1, 0), a @ b - b @ a)
    assert np.array_equal(graded_commutator(a, b, 1, 1), a @ b + b @ a)


def test_graded_matrix_validation():
    with pytest.raises(ValueError):
        GradedMatrix(FUND, np.eye(4))
    with pytest.raises(ValueError):
        GradedMatrix(FUND, np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        GradedSpace(3, (0, 0))
    with pytest.raises(ValueError):
        GradedSpace(2, (0, 2))
