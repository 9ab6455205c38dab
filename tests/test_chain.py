import itertools
from dataclasses import replace

import numpy as np
import pytest

from gradedbethe import chain
from gradedbethe.chain import (
    BLOCK_SIGNS,
    ChainSpec,
    PoleError,
    TwistConfig,
    combine,
    compose,
    g_fun,
    monodromy_apply,
    monodromy_entries,
    sector_indices,
    tm1_residual,
    transfer_apply,
    transfer_blocks,
    vacuum_eigenvalue,
    verify_rtt,
    yang_baxter_residual,
    zero_mode_entry,
)
from gradedbethe.graded import FUNDAMENTAL_PARITIES
from gradedbethe.spectrum import EigenState, sandwich

from conftest import embed, peak_bytes, record_builds
from oracles import FUND, all_sectors, content_partition, dense, entry_blocks, image_of, largest, \
    monodromy_apply_full_set, monodromy_group_set, permutation_by_digits, r_matrix, read_off, \
    runs_of, step_plan, supertrace_over_aux, transfer_blocks_full_set, whole_swap, \
    zero_mode_algebra_worst, zero_mode_limit_groups, zero_modes

PAR = FUNDAMENTAL_PARITIES
ALL_PAIRS = list(itertools.product((1, 2, 3), repeat=2))


def rand_pt(rng, shift=0.0):
    return complex(rng.normal(0, 2), rng.normal(0, 2)) + shift


def concrete(spec, u, sites=None):
    """The dense monodromy on aux (x) H: its (i,j) auxiliary block is signed T_ij."""
    every = all_sectors(spec)
    blocks = read_off(spec, monodromy_entries(spec, u, ALL_PAIRS, sites, sectors=every))
    return np.block([[BLOCK_SIGNS[i, j] * blocks[i, j] for j in range(3)] for i in range(3)])


def structural_zero_mode_groups(spec, sites=None):
    """The zero modes T[0] = sum_{n in range} P_{0n} on aux (x) H as column runs {(s, j): block}.

    Oracle for the closed form of zero_mode_entry: the graded permutations
    summed on whole content groups, exact integers, then cut into runs.  P_0n
    is read through the chain module, so a defect planted there
    (tests/faults.py) reaches this oracle too.
    """
    sites = spec.all_sites() if sites is None else tuple(sites)
    groups, g2l, _ = content_partition(spec.M + 1)
    blocks = {k: np.zeros((ix.size, ix.size), dtype=complex) for k, ix in enumerate(groups)}
    for n in sites:
        src, flipped = whole_swap(spec.M + 1, 0, n)
        sign = np.where(flipped[:, 0], -1.0, 1.0)
        for k, ix in enumerate(groups):
            blocks[k][g2l[src[ix]], g2l[ix]] += sign[ix]
    return runs_of(spec, blocks)


def dense_entry(spec, runs, i, j):
    """T_ij read off aux (x) H column runs {(s, j): block} scattered into a dense matrix.

    The run (s, j) fills the columns e_j (x) s, and its rows are e_a (x) the
    sector T_aj maps s onto, for each aux letter a in turn.
    """
    index = sector_indices(spec)
    dh = 3 ** spec.M
    full = np.zeros((3 * dh, 3 * dh), dtype=complex)
    for (s, col), run in runs.items():
        rows = np.concatenate([a * dh + index[image_of(s, a + 1, col)] for a in range(3)
                               if image_of(s, a + 1, col) in index])
        full[np.ix_(rows, (col - 1) * dh + index[s])] = run
    return BLOCK_SIGNS[i - 1, j - 1] * full[(i - 1) * dh:i * dh, (j - 1) * dh:j * dh]


def tm1_dense(spec, u, v, indices, y=None):
    """tm1_residual from dense products of the read-off entries, applied to columns ``y`` if given."""
    i, j, k, l = indices
    bu = read_off(spec, monodromy_entries(spec, u, ALL_PAIRS, sectors=all_sectors(spec)))
    bv = read_off(spec, monodromy_entries(spec, v, ALL_PAIRS, sectors=all_sectors(spec)))
    pi, pj, pk, pl = (PAR[x - 1] for x in indices)
    sign_comm = -1.0 if ((pi + pj) % 2) and ((pk + pl) % 2) else 1.0
    lhs = bu[i - 1, j - 1] @ bv[k - 1, l - 1] - sign_comm * bv[k - 1, l - 1] @ bu[i - 1, j - 1]
    pref = (-1) ** ((pi * (pk + pl) + pk * pl) % 2) / (u - v)
    rhs = pref * (bv[k - 1, j - 1] @ bu[i - 1, l - 1] - bu[k - 1, j - 1] @ bv[i - 1, l - 1])
    if y is not None:
        lhs, rhs = lhs @ y, rhs @ y
    scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1.0)
    return float(np.abs(lhs - rhs).max()) / scale


# -- R-matrix -----------------------------------------------------------------


def test_r_matrix_at_unit_g():
    # u - v = 1 (one unit of c) gives R = I + P
    r = r_matrix(1.5, 0.5)
    p = permutation_by_digits([FUND, FUND], 0, 1).to_matrix()
    assert np.abs(r.mat - (np.eye(9) + p)).max() < 1e-14


def test_r_matrix_far_separation_is_identity():
    r = r_matrix(1e9, 0.0)
    assert np.abs(r.mat - np.eye(9)).max() < 1e-8


def test_r_matrix_pole():
    with pytest.raises(PoleError):
        r_matrix(0.7, 0.7)


def test_yang_baxter_residual():
    rng = np.random.default_rng(10)
    for _ in range(4):
        u, v, w = rand_pt(rng, 2), rand_pt(rng, -2), rand_pt(rng, 1j)
        assert yang_baxter_residual(u, v, w) < 1e-10


def test_yang_baxter_residual_matches_the_dense_products():
    # the dense R12 R13 R23 - R23 R13 R12 from the digit-table swaps, which
    # yang_baxter_residual runs as gather steps on the identity columns
    p12, p13, p23 = (permutation_by_digits([FUND] * 3, x, y).to_matrix()
                     for x, y in ((0, 1), (0, 2), (1, 2)))
    rng = np.random.default_rng(11)
    for _ in range(4):
        u, v, w = rand_pt(rng, 2), rand_pt(rng, -2), rand_pt(rng, 1j)
        r12 = np.eye(27) + g_fun(u, v) * p12
        r13 = np.eye(27) + g_fun(u, w) * p13
        r23 = np.eye(27) + g_fun(v, w) * p23
        dense = float(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12).max())
        assert abs(yang_baxter_residual(u, v, w) - dense) < 1e-15


# -- L-operators and monodromy --------------------------------------------------


def test_l_operator_single_site_unit_g():
    spec = ChainSpec(M=1, xi=(0.0,))
    l_op = concrete(spec, 1.0, sites=[1])  # g(1, 0) = 1
    p01 = permutation_by_digits([FUND] * 2, 0, 1)
    assert np.abs(l_op - (np.eye(9) + p01.to_matrix())).max() < 1e-14


def test_l_operator_large_u_limit_is_zero_mode():
    spec = ChainSpec(M=3)
    u = complex(1e6)
    n = 2
    l_op = concrete(spec, u, sites=[n])
    approx = u * (l_op - np.eye(l_op.shape[0]))
    p = permutation_by_digits([FUND] * 4, 0, n)
    assert np.abs(approx - p.to_matrix()).max() < 1e-5


def test_l_operator_pole():
    spec = ChainSpec(M=2)
    with pytest.raises(PoleError):
        monodromy_entries(spec, spec.xi[0], ALL_PAIRS, sites=[1], sectors=all_sectors(spec))


def test_monodromy_factorizes_at_every_split():
    spec = ChainSpec(M=4)
    rng = np.random.default_rng(11)
    u = rand_pt(rng, 3)
    every = all_sectors(spec)
    total = monodromy_entries(spec, u, ALL_PAIRS, sectors=every)
    sign = BLOCK_SIGNS
    for m in range(1, spec.M):
        t1 = monodromy_entries(spec, u, ALL_PAIRS, sites=range(1, m + 1), sectors=every)
        t2 = monodromy_entries(spec, u, ALL_PAIRS, sites=range(m + 1, spec.M + 1), sectors=every)
        # T = T2 T1 on aux (x) H, whose (i,j) auxiliary block is the signed T_ij
        for i, j in ALL_PAIRS:
            product = combine(*[(sign[i - 1, k - 1] * sign[k - 1, j - 1] * sign[i - 1, j - 1],
                                 compose(t2[i, k], t1[k, j])) for k in (1, 2, 3)])
            assert largest(combine((1.0, total[i, j]), (-1.0, product))) < 1e-12


@pytest.mark.parametrize("sites", [None, range(1, 3), range(3, 5)])
def test_vacuum_annihilation_and_eigenvalues(sites):
    spec = ChainSpec(M=4)
    rng = np.random.default_rng(12)
    u = rand_pt(rng, 2.5)
    every = all_sectors(spec)
    blocks = read_off(spec, monodromy_entries(spec, u, ALL_PAIRS, sites, sectors=every))
    site_list = list(sites) if sites is not None else None
    for i in range(1, 4):
        for j in range(1, 4):
            # the vacuum e_1 (x) ... (x) e_1 is basis index 0
            right = blocks[i - 1, j - 1][:, 0]
            left = blocks[i - 1, j - 1][0]
            if i > j:
                assert np.abs(right).max() < 1e-10
            if i < j:
                assert np.abs(left).max() < 1e-10
        lam = spec.lam(i, u, sites=site_list)
        assert abs(vacuum_eigenvalue(spec, i, sites, u) - lam) < 1e-10


def test_vacuum_eigenvalue_closed_form_homogeneous_like():
    # with all xi -> 0 the closed form is (1 + 1/u)^M, lambda_2 = lambda_3 = 1
    spec = ChainSpec(M=3, xi=(0.0, 1e-7, 2e-7))
    u = 1.9 - 0.4j
    lam1 = vacuum_eigenvalue(spec, 1, None, u)
    assert abs(lam1 - (1 + 1 / u) ** 3) < 1e-5
    assert abs(vacuum_eigenvalue(spec, 2, None, u) - 1.0) < 1e-13
    assert abs(vacuum_eigenvalue(spec, 3, None, u) - 1.0) < 1e-13


def test_vacuum_factorization_pointwise():
    spec = ChainSpec(M=5)
    rng = np.random.default_rng(13)
    for _ in range(3):
        u = rand_pt(rng, 2)
        m = int(rng.integers(1, spec.M))
        for k in (1, 2, 3):
            whole = spec.lam(k, u)
            first = spec.lam(k, u, sites=range(1, m + 1))
            second = spec.lam(k, u, sites=range(m + 1, spec.M + 1))
            assert abs(whole - first * second) < 1e-12 * max(1, abs(whole))
        for k in (1, 3):
            # r_k(u) = ell_k(u) r_k^(2)(u) pointwise
            rest = spec.r(k, u, sites=range(m + 1, spec.M + 1))
            assert abs(spec.r(k, u) - spec.r(k, u, sites=range(1, m + 1)) * rest) < 1e-12


def test_partial_vacuum_zero_mode_coefficients():
    # lambda_1^(1)[0] = m for the first sub-chain, others vanish
    spec = ChainSpec(M=4)
    u = complex(1e6)
    for m in (1, 2, 3, 4):
        lam1 = spec.lam(1, u, sites=range(1, m + 1))
        est = u * (lam1 - 1.0)
        assert abs(est - m) < 1e-5
        assert spec.lam_zero_mode(1, sites=range(1, m + 1)) == m
        assert spec.lam_zero_mode(2, sites=range(1, m + 1)) == 0
        assert spec.lam_zero_mode(3, sites=range(1, m + 1)) == 0


# -- transfer matrices ----------------------------------------------------------


def test_transfer_matrices_commute():
    spec = ChainSpec(M=3)
    rng = np.random.default_rng(14)
    u, v = rand_pt(rng, 2), rand_pt(rng, -2)
    # untwisted, and twisted at one twist across spectral points, content by content
    for chain_spec in (spec, replace(spec, twist=TwistConfig((1.3, 0.8, 1.1)))):
        every = all_sectors(chain_spec)
        t_u, t_v = (transfer_blocks(chain_spec, w, sectors=every) for w in (u, v))
        for s, (_, a) in t_u.items():
            b = t_v[s][1]
            assert np.abs(a @ b - b @ a).max() < 1e-10


def test_transfer_matrix_is_twisted_supertrace_of_monodromy():
    spec = ChainSpec(M=3, twist=TwistConfig((1.3, 0.8 + 0.1j, 1.1)))
    rng = np.random.default_rng(15)
    u = rand_pt(rng, 2)
    oracle = supertrace_over_aux(concrete(spec, u), weights=np.array(spec.twist.kappa))
    blocks = transfer_blocks(spec, u, sectors=all_sectors(spec))
    assert np.abs(dense(spec, blocks) - oracle).max() < 1e-13


def test_transfer_vacuum_eigenvalue_untwisted_and_twisted():
    spec = ChainSpec(M=3)
    w = 2.2 + 0.5j
    # the vacuum is the one basis state of its sector: its block is 1 x 1
    on = [(0, 0)]
    t = transfer_blocks(spec, w, sectors=on)[on[0]][1]
    tau = spec.lam(1, w) + spec.lam(2, w) - spec.lam(3, w)
    assert t.shape == (1, 1) and abs(t[0, 0] - tau) < 1e-12
    t2 = transfer_blocks(replace(spec, twist=TwistConfig((2.0, 1.0, 1.0))), w, sectors=on)
    tau2 = 2 * spec.lam(1, w) + spec.lam(2, w) - spec.lam(3, w)
    assert abs(t2[on[0]][1][0, 0] - tau2) < 1e-12


# -- zero modes ------------------------------------------------------------------


def test_zero_mode_structural_vs_limit():
    spec = ChainSpec(M=3)
    limit = runs_of(spec, dict(zero_mode_limit_groups(spec)))
    every = all_sectors(spec)
    worst = max(largest(combine((1.0, zero_mode_entry(spec, i, j, sectors=every)),
                                (-1.0, entry_blocks(spec, limit, i, j)))) for i, j in ALL_PAIRS)
    assert worst < 1e-5


def test_zero_mode_algebra_total_exact():
    zm = zero_modes(ChainSpec(M=3))
    assert zero_mode_algebra_worst(zm, zm, zm) == 0.0


def test_zero_mode_algebra_partial_and_mixed_exact():
    spec = ChainSpec(M=3)
    m = 2
    zm1 = zero_modes(spec, sites=range(1, m + 1))
    zm2 = zero_modes(spec, sites=range(m + 1, spec.M + 1))
    zm = zero_modes(spec)
    assert zero_mode_algebra_worst(zm1, zm1, zm1) == 0.0
    assert zero_mode_algebra_worst(zm2, zm2, zm2) == 0.0
    # partial against total closes on the partial zero modes
    assert zero_mode_algebra_worst(zm1, zm, zm1) == 0.0
    # different partials supercommute exactly
    assert zero_mode_algebra_worst(zm1, zm2, None) == 0.0


def test_zero_mode_empty_range_is_zero():
    zm = zero_modes(ChainSpec(M=2), sites=())
    assert all(zm.values()) and all(largest(op) == 0.0 for op in zm.values())


def test_commutator_example_t12_t21():
    # [T_12[0], T_21[0]} = T_22[0] - T_11[0]
    zm = zero_modes(ChainSpec(M=3))
    diff = combine((1.0, compose(zm[1, 2], zm[2, 1])), (-1.0, compose(zm[2, 1], zm[1, 2])),
                   (-1.0, zm[2, 2]), (1.0, zm[1, 1]))
    assert largest(diff) == 0.0


def all_ranges(m_sites):
    """None, the empty range, every prefix, every single site and every interval."""
    intervals = [range(a, b + 1) for a in range(1, m_sites + 1) for b in range(a, m_sites + 1)]
    return [None, ()] + [range(1, m + 1) for m in range(1, m_sites + 1)] \
        + [[n] for n in range(1, m_sites + 1)] + intervals


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
def test_zero_mode_entry_matches_structural_sum(m_sites, twisted):
    spec = ChainSpec(M=m_sites, twist=TwistConfig((1.3, 0.8 + 0.1j, 1.1))) \
        if twisted else ChainSpec(M=m_sites)
    some = all_sectors(spec)[::2]
    for sites in all_ranges(m_sites):
        groups = structural_zero_mode_groups(spec, sites)
        for i, j in itertools.product((1, 2, 3), repeat=2):
            expect = entry_blocks(spec, groups, i, j)
            got = zero_mode_entry(spec, i, j, sites, sectors=all_sectors(spec))
            assert got.keys() == expect.keys()
            for s, (image, blk) in got.items():
                assert image == expect[s][0]
                assert np.array_equal(blk, expect[s][1])
            restricted = zero_mode_entry(spec, i, j, sites, sectors=some)
            assert restricted.keys() == {s for s in expect if s in some}
            for s, (image, blk) in restricted.items():
                assert image == expect[s][0]
                assert np.array_equal(blk, expect[s][1])


def test_block_sign_table():
    # pinned by the exact zero-mode algebra; see the tests above.  The package
    # derives it from the grading as (-1)^{[j]([i]+[j])}; the literal is the reference
    assert BLOCK_SIGNS.dtype == float
    assert BLOCK_SIGNS.tolist() == [[1, 1, -1], [1, 1, -1], [1, 1, 1]]


# -- sector-block primitives against the dense read-offs ----------------------------


#: (spec, c): a chain at c = 1, and a twisted one at a complex c, whose
#: spectral points are divided by that c, the unit the chain reads them in
ORACLE_SPECS = [
    lambda m: (ChainSpec(M=m), 1.0),
    lambda m: (ChainSpec(M=m, twist=TwistConfig((1.3, 0.8 + 0.1j, 1.1))), 0.8 + 0.3j),
]


def oracle_ranges(m_sites):
    """Full range, a single site, and a proper interval when the chain has one."""
    ranges = [None, [m_sites]]
    if m_sites > 1:
        ranges.append(range(2, m_sites + 1))
    return ranges


@pytest.mark.parametrize("make_spec", ORACLE_SPECS)
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
def test_entry_actions_match_dense_read_offs(m_sites, make_spec):
    # sandwich between random sector-local states of every pair of sectors
    # equals the dense matrix element of the embedded vectors, zero included
    spec, c = make_spec(m_sites)
    rng = np.random.default_rng(40 + m_sites)

    def state(sector, size):
        left, right = (rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(2))
        return EigenState(sector, np.zeros(1), right, left, np.zeros(1))

    states = [state(s, ix.size) for s, ix in sector_indices(spec).items()]
    u = rand_pt(rng, 2.5) / c
    for sites in oracle_ranges(m_sites):
        operators = [(monodromy_group_set(spec, u, sites),
                      monodromy_entries(spec, u, ALL_PAIRS, sites, sectors=all_sectors(spec))),
                     (structural_zero_mode_groups(spec, sites), zero_modes(spec, sites))]
        for groups, entries in operators:
            for i, j in ALL_PAIRS:
                full = dense(spec, entries[i, j])
                assert np.array_equal(full, dense_entry(spec, groups, i, j))
                op = entry_blocks(spec, groups, i, j)
                scale = 1e-12 * max(1.0, float(np.abs(full).max())) * 3 ** spec.M
                for c, b in itertools.product(states, repeat=2):
                    expect = embed(spec, c.sector, c.left) @ full @ embed(spec, b.sector, b.right)
                    assert abs(sandwich(c, op, b) - expect) < scale * c.left.size


@pytest.mark.parametrize("make_spec", ORACLE_SPECS)
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
def test_transfer_blocks_are_the_sector_blocks(m_sites, make_spec):
    spec, c = make_spec(m_sites)
    rng = np.random.default_rng(50 + m_sites)
    u = rand_pt(rng, 2.5) / c
    oracle = supertrace_over_aux(concrete(spec, u), weights=np.array(spec.twist.kappa))
    blocks = transfer_blocks(spec, u, sectors=all_sectors(spec))
    assert list(blocks) == all_sectors(spec)
    for s, idx in sector_indices(spec).items():
        image, blk = blocks[s]
        assert image == s
        assert np.abs(blk - oracle[np.ix_(idx, idx)]).max() < 1e-13
        # restricting to one group computes the same block
        assert np.array_equal(transfer_blocks(spec, u, sectors=[s])[s][1], blk)
    # nothing outside the sector blocks
    assert np.abs(dense(spec, blocks) - oracle).max() < 1e-13


@pytest.mark.parametrize("m_sites", [1, 2, 3, 4])
def test_tm1_residual_matches_dense_products(m_sites):
    spec, c = ChainSpec(M=m_sites), 0.9 + 0.2j
    rng = np.random.default_rng(60 + m_sites)
    u, v = rand_pt(rng, 2) / c, rand_pt(rng, -2) / c
    y = chain._probe_columns(3 ** m_sites)
    for indices in [(1, 2, 2, 3), (1, 3, 3, 1), (3, 3, 3, 3), (1, 2, 2, 1), (3, 2, 1, 3)]:
        on_vectors = tm1_residual(spec, u, v, indices)
        assert on_vectors < 1e-10
        assert tm1_dense(spec, u, v, indices) < 1e-10
        assert abs(on_vectors - tm1_dense(spec, u, v, indices, y)) < 1e-12


def test_tm1_residual_sees_a_flipped_block_sign(monkeypatch):
    spec = ChainSpec(M=3)
    rng = np.random.default_rng(70)
    u, v = rand_pt(rng, 2), rand_pt(rng, -2)
    flipped = BLOCK_SIGNS.copy()
    flipped[0, 2] *= -1
    monkeypatch.setattr(chain, "BLOCK_SIGNS", flipped)
    on_vectors = tm1_residual(spec, u, v, (1, 2, 2, 3))
    # the relation fails by O(1): on the probe columns, the vector form is
    # the dense matrices' residual there
    assert on_vectors > 0.1 and tm1_dense(spec, u, v, (1, 2, 2, 3)) > 0.1
    y = chain._probe_columns(3 ** spec.M)
    assert abs(on_vectors - tm1_dense(spec, u, v, (1, 2, 2, 3), y)) < 1e-12


COMMUTATION_INDICES = [(1, 2, 2, 3), (1, 3, 3, 1), (3, 3, 3, 3), (1, 2, 2, 1)]


@pytest.mark.parametrize("make_spec", ORACLE_SPECS)
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
def test_streamed_builds_equal_the_full_group_set(m_sites, make_spec):
    # monodromy_entries and transfer_blocks build only the column runs that
    # hold a read entry; the full-set path holds every group and is the
    # reference, to the bit, on every site range and every read
    spec, c = make_spec(m_sites)
    rng = np.random.default_rng(90 + m_sites)
    u = rand_pt(rng, 2.5) / c
    sectors = all_sectors(spec)
    reads = (sectors, [sectors[-1]], sectors[::2])
    for sites in oracle_ranges(m_sites):
        full = monodromy_group_set(spec, u, sites)
        for read in reads:
            got = monodromy_entries(spec, u, ALL_PAIRS, sites, sectors=read)
            for i, j in ALL_PAIRS:
                ref = entry_blocks(spec, full, i, j, read)
                assert got[i, j].keys() == ref.keys()
                assert all(got[i, j][s][0] == image and np.array_equal(got[i, j][s][1], blk)
                           for s, (image, blk) in ref.items())
    for read in reads:
        part = transfer_blocks(spec, u, sectors=read)
        ref = transfer_blocks_full_set(spec, u, sectors=read)
        assert list(part) == list(ref) == read
        assert all(part[s][0] == ref[s][0] and np.array_equal(part[s][1], ref[s][1]) for s in ref)
    assert transfer_blocks(spec, u, sectors=[]) == {}


@pytest.mark.parametrize("make_spec", ORACLE_SPECS)
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5, 6])
def test_monodromy_apply_matches_the_group_set(m_sites, make_spec):
    # the gathers act on vectors in another order of operations than the
    # group blocks times vectors, so the two agree to rounding, not to the bit
    spec, c = make_spec(m_sites)
    rng = np.random.default_rng(95 + m_sites)
    u = rand_pt(rng, 2.5) / c
    x = rng.normal(size=(3 ** (m_sites + 1), 3)) + 1j * rng.normal(size=(3 ** (m_sites + 1), 3))
    ref = monodromy_apply_full_set(spec, u, x)
    got = monodromy_apply(spec, u, x)
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()
    # a vector is one column
    assert np.array_equal(monodromy_apply(spec, u, x[:, 0]), got[:, 0])
    y = x[:3 ** m_sites]
    ref = dense(spec, transfer_blocks(spec, u, sectors=all_sectors(spec))) @ y
    got = transfer_apply(spec, u, y)
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()
    assert np.array_equal(transfer_apply(spec, u, y[:, 0]), got[:, 0])


def test_monodromy_apply_rejects_poles():
    spec = ChainSpec(M=2)
    with pytest.raises(PoleError):
        monodromy_apply(spec, spec.xi[1], np.ones((27, 1), dtype=complex))


# -- group-outer products against the site-outer kernel ------------------------------


def site_outer_apply(blocks, n_factors, steps):
    """The former kernel: each step (x, y, g) = I + g P_xy, or P_xy if g is None, on every
    group, then the next.  P_xy is read through the chain module, as the package reads it,
    so a defect planted there (tests/faults.py) reaches this oracle too."""
    groups, g2l, _ = content_partition(n_factors)
    for x, y, g in steps:
        src, flipped = whole_swap(n_factors, x, y)
        sign = np.where(flipped, -1.0, 1.0)
        for k, ix in enumerate(groups):
            if blocks[k] is None:
                continue
            moved = np.empty_like(blocks[k])
            moved[g2l[src[ix]]] = sign[ix] * blocks[k]
            blocks[k] = moved if g is None else blocks[k] + g * moved
    return blocks


def site_outer_monodromy(spec, u, sites):
    sites = spec.all_sites() if sites is None else sites
    eye = [np.eye(ix.size, dtype=complex) for ix in content_partition(spec.M + 1)[0]]
    return site_outer_apply(eye, spec.M + 1, [(0, n, g_fun(u, spec.xi[n - 1]))
                                              for n in sites])


def site_outer_rtt(spec, u, v):
    """R T_a(u) T_b(v) against P T_a(v) T_b(u) (P + g), every factor a site-outer step."""
    n_factors = spec.M + 2
    g = g_fun(u, v)

    def t(aux, w):
        return [(aux, n + 1, g_fun(w, spec.xi[n - 1])) for n in spec.all_sites()]

    def t_b(w):
        eye = [np.eye(ix.size, dtype=complex) for ix in content_partition(n_factors)[0]]
        return site_outer_apply(eye, n_factors, t(1, w))

    lhs = site_outer_apply(t_b(v), n_factors, t(0, u) + [(0, 1, g)])
    # T_b(u) P = (P T_b(u)^T)^T, as P is symmetric
    at_u = t_b(u)
    swapped = site_outer_apply([blk.T.copy() for blk in at_u], n_factors, [(0, 1, None)])
    start = [blk.T + g * tb for blk, tb in zip(swapped, at_u)]
    rhs = site_outer_apply(start, n_factors, t(0, v) + [(0, 1, None)])
    return max(float(np.abs(a - b).max()) for a, b in zip(lhs, rhs))


@pytest.mark.parametrize("make_spec", ORACLE_SPECS)
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
def test_group_outer_products_are_bit_identical(m_sites, make_spec):
    spec, c = make_spec(m_sites)
    rng = np.random.default_rng(80 + m_sites)
    u, v = rand_pt(rng, 2.5) / c, rand_pt(rng, -2.5) / c
    for sites in oracle_ranges(m_sites):
        # the entry blocks tile every group, so equal entries are equal groups
        new = monodromy_entries(spec, u, ALL_PAIRS, sites, sectors=all_sectors(spec))
        old = runs_of(spec, dict(enumerate(site_outer_monodromy(spec, u, sites))))
        for i, j in ALL_PAIRS:
            ref = entry_blocks(spec, old, i, j)
            assert new[i, j].keys() == ref.keys()
            assert all(np.array_equal(new[i, j][s][1], blk) for s, (_, blk) in ref.items())


@pytest.mark.parametrize("make_spec", ORACLE_SPECS)
@pytest.mark.parametrize("m_sites", [1, 2, 3, 4, 5])
def test_verify_rtt_matches_the_dense_oracle(m_sites, make_spec):
    # the probe columns and the dense aux (x) aux (x) H groups both see the relation hold
    spec, c = make_spec(m_sites)
    rng = np.random.default_rng(80 + m_sites)
    u, v = rand_pt(rng, 2.5) / c, rand_pt(rng, -2.5) / c
    assert verify_rtt(spec, u, v) < 1e-10
    assert site_outer_rtt(spec, u, v) < 1e-10


@pytest.mark.parametrize("m_sites", [1, 3, 5])
def test_restricted_builds_compute_only_the_read_groups(m_sites, monkeypatch):
    spec = ChainSpec(M=m_sites)
    u = (1.7 - 0.6j) / (0.8 + 0.3j)
    sectors = all_sectors(spec)
    full = monodromy_group_set(spec, u)
    built = record_builds(monkeypatch)["other"]
    for pairs in ([(1, 2)], [(3, 3), (2, 1)], ALL_PAIRS):
        for read in ([sectors[0]], [sectors[-1]], sectors[1:3]):
            built.clear()
            got = monodromy_entries(spec, u, pairs, sectors=read)
            # the run (s, j) of every requested T_ij with a block on a read sector s
            wanted = set()
            for i, j in pairs:
                whole = entry_blocks(spec, full, i, j)
                assert got[i, j].keys() == {s for s in whole if s in read}
                for s, (image, blk) in got[i, j].items():
                    assert image == whole[s][0] and np.array_equal(blk, whole[s][1])
                    wanted.add((s, j))
            # each built once
            assert sorted(built) == sorted(wanted)


def test_single_entry_reads_build_one_group(pairs5, monkeypatch):
    from gradedbethe.formfactors import universal_form_factor

    spec, pc, pb = pairs5
    built = record_builds(monkeypatch)["other"]
    # both built the three groups s + e_j of the read content before
    universal_form_factor(spec, pc, pb, 2, 2)
    assert len(built) == 1
    built.clear()
    vacuum_eigenvalue(spec, 1, None, 2.1 + 0.4j)
    assert built == [((0, 0), 1)]


def test_tm1_residual_builds_only_the_groups_of_its_entries(monkeypatch):
    spec = ChainSpec(M=4)
    u, v = 1.3 + 2.1j, -2.2 + 0.7j
    built = record_builds(monkeypatch)["other"]
    assert tm1_residual(spec, u, v, (1, 2, 2, 3)) < 1e-10
    # the six entries act on the probe columns through monodromy_apply: no
    # group is built at all (reading them off built 19 of 21 at each point)
    assert built == []


# -- RTT conformance --------------------------------------------------------------


@pytest.mark.parametrize("m_sites", [1, 2, 3])
def test_verify_rtt_small_chains(m_sites):
    spec = ChainSpec(M=m_sites)
    rng = np.random.default_rng(20 + m_sites)
    for _ in range(3):
        u, v = rand_pt(rng, 3), rand_pt(rng, -3)
        assert verify_rtt(spec, u, v) < 1e-10


def test_rtt_checks_sub_chains_up_to_the_site_cap():
    # the rtt rows check sizes 1 to 5; both RTT sides act on two columns on
    # V (x) V (x) H, 3^9 rows at the cap of 7 sites
    rng = np.random.default_rng(60)
    for m_sites in (6, 7):
        assert verify_rtt(ChainSpec(M=m_sites), rand_pt(rng, 3), rand_pt(rng, -3)) < 1e-10


def test_verify_rtt_builds_no_group(monkeypatch):
    # both sides act on the probe columns, 2M + 1 gather steps each: no
    # aux (x) H or aux (x) aux (x) H group, nor any column run of one, is built
    def forbidden(*args, **kwargs):
        raise AssertionError("verify_rtt built a group")

    monkeypatch.setattr(chain, "_group_product", forbidden)
    assert verify_rtt(ChainSpec(M=5), 1.3 + 2.1j, -2.2 + 0.7j) < 1e-10


def test_rtt_fails_with_an_ungraded_swap(monkeypatch):
    """R T_a(u) T_b(v) equals T_b(v) T_a(u) R only for the graded swap P in R = 1 + g P."""
    spec = ChainSpec(M=3)
    graded = chain._gather

    def ungraded(n_factors, x, y):
        shape, flipped = graded(n_factors, x, y)
        if (n_factors, x, y) != (spec.M + 2, 0, 1):
            return shape, flipped
        # the swap of the two auxiliary spaces flips no row
        return shape, np.zeros_like(flipped)

    monkeypatch.setattr(chain, "_gather", ungraded)
    assert verify_rtt(spec, 1.3 + 2.1j, -2.2 + 0.7j) > 0.1


def test_probe_columns_are_drawn_once_and_read_only():
    y = chain._probe_columns(27)
    assert chain._probe_columns(27) is y
    assert not y.flags.writeable
    rng = np.random.default_rng(2017)
    assert np.array_equal(y, rng.normal(size=(27, 2)) + 1j * rng.normal(size=(27, 2)))
    # the checks that read them copy before writing
    assert verify_rtt(ChainSpec(M=1), 1.3 + 2.1j, -2.2 + 0.7j) < 1e-10
    assert tm1_residual(ChainSpec(M=3), 1.3 + 2.1j, -2.2 + 0.7j, (1, 2, 2, 3)) < 1e-10


def test_verify_rtt_rejects_poles():
    spec = ChainSpec(M=2)
    with pytest.raises(PoleError):
        verify_rtt(spec, 1.0, 1.0)
    with pytest.raises(PoleError):
        verify_rtt(spec, spec.xi[0], 5.0)


@pytest.mark.parametrize("indices", COMMUTATION_INDICES)
def test_entrywise_commutation_relations(indices):
    spec = ChainSpec(M=2)
    rng = np.random.default_rng(30)
    u, v = rand_pt(rng, 2), rand_pt(rng, -2)
    assert tm1_residual(spec, u, v, indices) < 1e-10


# -- plans and sites ----------------------------------------------------------------


@pytest.mark.parametrize("n_factors", [2, 3, 4, 5, 6])
def test_step_plans_invert_the_digit_table_swap(n_factors):
    # the plans by inversion: the whole space's and each group's image of the
    # swap inverted, and the signs read at the source rows; the group plans
    # (the oracle's step_plan) are the reference for the column runs' plans
    groups, g2l, _ = content_partition(n_factors)
    for x, y in itertools.combinations(range(n_factors), 2):
        perm = permutation_by_digits([FUND] * n_factors, x, y)
        src, flipped = whole_swap(n_factors, x, y)
        assert np.array_equal(src, np.argsort(perm.dest))
        assert np.array_equal(flipped[:, 0], perm.sign[src] < 0)
        for ix, (local, flip) in zip(groups, step_plan(n_factors, x, y)):
            ref = np.empty(ix.size, dtype=np.int64)
            ref[g2l[perm.dest[ix]]] = np.arange(ix.size)
            assert np.array_equal(local, ref)
            ref_flip = perm.sign[ix][ref] < 0
            assert (flip is None) == (not ref_flip.any())
            assert flip is None or np.array_equal(flip[:, 0], ref_flip)


@pytest.mark.parametrize("n_factors", range(1, 9))
def test_swap_at_any_rows_reads_the_whole_space_plan(n_factors):
    rng = np.random.default_rng(100 + n_factors)
    for x, y in itertools.product(range(n_factors), repeat=2):
        src, flipped = whole_swap(n_factors, x, y)
        rows = np.sort(rng.choice(3 ** n_factors, size=rng.integers(1, 3 ** n_factors + 1),
                                  replace=False))
        got_src, got_flipped = chain._swap(n_factors, x, y, rows)
        assert np.array_equal(got_src, src[rows])
        assert got_flipped.shape == (rows.size, 1)
        assert np.array_equal(got_flipped, flipped[rows])


@pytest.mark.parametrize("m_sites", range(1, 8))
def test_run_plans_are_the_whole_group_restriction(m_sites):
    # the run (s, j) holds the rows of the aux (x) H group of content n + e_j,
    # n the letter content of s, in ascending order, and its plans are that
    # group's restriction of P_0n to the bit
    groups, _, contents = content_partition(m_sites + 1)
    whole = [step_plan(m_sites + 1, 0, n) for n in range(1, m_sites + 1)]
    for s in sector_indices(ChainSpec(M=m_sites)):
        content = (m_sites - s[0], s[0] - s[1], s[1])
        for j in (1, 2, 3):
            k = contents.index(tuple(c + (t == j - 1) for t, c in enumerate(content)))
            size, rows, plans = chain._run(m_sites, s, j)
            bounds = np.searchsorted(groups[k], np.arange(4) * 3 ** m_sites)
            assert size == groups[k].size
            assert [(r.start, r.stop) for r in rows] == list(zip(bounds[:-1], bounds[1:]))
            assert len(plans) == m_sites
            for (src, flipped), plan in zip(plans, whole):
                ref_src, ref_flipped = plan[k]
                assert src.dtype == ref_src.dtype and np.array_equal(src, ref_src)
                assert (flipped is None) == (ref_flipped is None)
                assert flipped is None or (flipped.shape == ref_flipped.shape
                                           and np.array_equal(flipped, ref_flipped))


def test_a_cold_block_read_builds_no_whole_space_table(monkeypatch):
    # the block path lists each H sector from its magnon positions and names
    # each run by its sector and aux letter: every graded swap it reads is at
    # a run's own rows, never at the 3^(M+1) rows of aux (x) H, and it builds
    # no whole-grid plan
    spec = ChainSpec(M=5)
    read = []
    original = chain._swap

    def recorded(n_factors, x, y, rows):
        read.append(rows.size)
        return original(n_factors, x, y, rows)

    monkeypatch.setattr(chain, "_swap", recorded)
    for cache in (chain._gather, chain._run, chain._block_map):
        cache.cache_clear()
    transfer_blocks(spec, 2.1 + 0.4j, sectors=all_sectors(spec))
    assert chain._gather.cache_info().currsize == 0
    assert chain._run.cache_info().currsize == 3 * len(all_sectors(spec))
    # M plans for each run; the largest run is the largest aux (x) H group, 90 rows
    assert len(read) == spec.M * 3 * len(all_sectors(spec))
    assert max(read) == max(ix.size for ix in content_partition(spec.M + 1)[0]) == 90


def test_listing_the_sectors_holds_no_index_table():
    # the sectors' own indices are what a cold listing keeps, 8 bytes a state;
    # measured 1.24x that at M=10, where the partition by a content key over
    # all 3^M indices and an argsort peaked at 7.1x
    chain._block_map.cache_clear()
    assert peak_bytes(lambda: chain._block_map(10)) < 1.5 * 8 * 3 ** 10


@pytest.mark.parametrize("m_sites", range(1, 9))
def test_sectors_from_magnon_positions_are_the_content_partition(m_sites):
    # each sector lists its states from the sites off the vacuum letter and
    # those of them that hold letter 3; the reference partitions all 3^M
    # indices by a content key and a stable argsort
    groups, _, contents = content_partition(m_sites)
    ref = sorted(zip(((m_sites - n1, n3) for n1, _, n3 in contents), groups),
                 key=lambda item: item[0])
    index, _ = chain._block_map(m_sites)
    assert list(index) == [s for s, _ in ref]
    for rows, (_, ix) in zip(index.values(), ref):
        assert rows.dtype == ix.dtype and np.array_equal(rows, ix)
    assert np.array_equal(np.sort(np.concatenate(list(index.values()))), np.arange(3 ** m_sites))


@pytest.mark.parametrize("n_factors", [2, 3, 4, 5])
def test_whole_grid_plan_is_the_signed_permutation(n_factors):
    # one _gather step with g = 1 on the identity is I + P_xy: the axis swap
    # with its flip mask is the signed permutation of _swap at every row, and
    # of the digit table, to the bit
    eye = np.eye(3 ** n_factors)
    for x, y in itertools.combinations(range(n_factors), 2):
        shape, flipped = chain._gather(n_factors, x, y)
        assert flipped.shape == (1, 3, 3 ** (y - x - 1), 3, 1, 1)
        got = chain._apply(eye, [((shape, flipped), 1.0)]) - eye
        src, flip = whole_swap(n_factors, x, y)
        ref = np.zeros_like(got)
        ref[np.arange(src.size), src] = np.where(flip[:, 0], -1.0, 1.0)
        assert np.array_equal(got, ref)
        assert np.array_equal(got, permutation_by_digits([FUND] * n_factors, x, y).to_matrix())


def test_sites_must_be_in_range_and_strictly_ascending():
    spec = ChainSpec(M=3)
    u = 1.3 + 2.1j
    for sites, match in [([0, 1], "out of range"), ([2, 4], "out of range"),
                         ([2, 1], "strictly ascending"), ([1, 1], "strictly ascending"),
                         ([1, 2, 2], "strictly ascending")]:
        with pytest.raises(ValueError, match=match):
            monodromy_entries(spec, u, [(1, 1)], sites=sites, sectors=all_sectors(spec))
        with pytest.raises(ValueError, match=match):
            zero_mode_entry(spec, 1, 2, sites=sites, sectors=all_sectors(spec))
        # the vacuum closed forms take their site range by the same rule
        with pytest.raises(ValueError, match=match):
            spec.lam(1, u, sites=sites)
    # a proper sub-range still reads
    assert monodromy_entries(spec, u, [(1, 1)], sites=[1, 3], sectors=all_sectors(spec))[1, 1]
    assert zero_mode_entry(spec, 1, 2, sites=[2, 3], sectors=all_sectors(spec))


# -- validation ---------------------------------------------------------------------


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(M=0)
    with pytest.raises(ValueError):
        ChainSpec(M=2, xi=(0.1, 0.1))
    with pytest.raises(ValueError):
        TwistConfig((0.0, 1.0, 1.0))
    # a non-finite inhomogeneity or twist component
    for bad in (float("nan"), complex(0.0, float("inf"))):
        with pytest.raises(ValueError, match="inhomogeneities must be finite"):
            ChainSpec(M=2, xi=(0.1, bad))
        with pytest.raises(ValueError, match="twist components must be finite"):
            TwistConfig((1.0, bad, 1.0))


# -- allocation -------------------------------------------------------------------


@pytest.mark.parametrize("m_sites", [4, 5])
def test_operators_never_allocate_a_dense_aux_matrix(m_sites):
    # one dense (3^(M+1))^2 complex matrix on aux (x) H
    dense = 16 * 9 ** (m_sites + 1)
    spec = ChainSpec(M=m_sites)
    u = 2.1 + 0.4j
    every = all_sectors(spec)
    transfer_blocks(spec, u, sectors=every)  # warm the partition and block-map caches
    assert peak_bytes(lambda: transfer_blocks(spec, u, sectors=every)) < 0.8 * dense
    assert peak_bytes(lambda: monodromy_entries(spec, u, ALL_PAIRS, sectors=every)) < 1.5 * dense
    assert peak_bytes(lambda: zero_modes(spec)) < 1.5 * dense
    assert peak_bytes(lambda: list(zero_mode_limit_groups(spec))) < 1.5 * dense


@pytest.fixture(scope="module")
def pairs5():
    """The M=5 chain and two primitive (1,0) pairs."""
    from gradedbethe.spectrum import classify_spectrum, diagonalize_transfer

    spec = ChainSpec(M=5)
    dec = diagonalize_transfer(spec, sectors=all_sectors(spec))
    pc, pb = [st for st in classify_spectrum(dec, sectors=[(1, 0)])
              if st.kind == "primitive"][:2]
    return spec, pc, pb


def test_form_factors_never_allocate_a_dense_aux_matrix(pairs5):
    from gradedbethe.formfactors import (generating_functional, partial_zero_mode_ff,
                                         universal_form_factor)

    spec, pc, pb = pairs5
    dense = 16 * 9 ** (spec.M + 1)
    beta = (0.01, 0.0, 0.0)
    universal_form_factor(spec, pc, pb, 2, 2)  # warm the partition and block-map caches
    # measured 0.007x, 0.002x and 0.002x (the zero modes as aux (x) H groups made
    # the last two 0.07x and 0.04x); dense read-offs made these 1.13x-1.33x
    assert peak_bytes(lambda: universal_form_factor(spec, pc, pb, 2, 2)) < 0.2 * dense
    assert peak_bytes(lambda: partial_zero_mode_ff(spec, pc, pb, 2, 2, 2)) < 0.2 * dense
    assert peak_bytes(lambda: generating_functional(spec, pc, pb, beta, 2)) < 0.2 * dense


def test_restricted_reads_allocate_a_fraction_of_the_group_set(pairs5):
    from gradedbethe.formfactors import universal_form_factor

    spec, pc, pb = pairs5
    u = 2.1 + 0.4j
    # every content-group block of one aux (x) H operator
    group_set = 16 * sum(ix.size ** 2 for ix in content_partition(spec.M + 1)[0])
    universal_form_factor(spec, pc, pb, 2, 2)  # warm the partition and plan caches
    vacuum_eigenvalue(spec, 1, None, u)
    # measured 0.12x and 0.03x; building every group made both 1.7x
    assert peak_bytes(lambda: universal_form_factor(spec, pc, pb, 2, 2)) < 0.25 * group_set
    assert peak_bytes(lambda: vacuum_eigenvalue(spec, 1, None, u)) < 0.25 * group_set


def test_full_chain_builds_peak_below_two_group_sets():
    from gradedbethe.spectrum import diagonalize_transfer

    spec = ChainSpec(M=5)
    u, v = 1.3 + 2.1j, -2.2 + 0.7j
    group_set = 16 * sum(ix.size ** 2 for ix in content_partition(spec.M + 1)[0])
    tm1_residual(spec, u, v, (1, 2, 2, 3))  # warm the partition and plan caches
    # measured 0.21x and 0.96x; tm1 on vectors holds a few columns (reading off
    # its six entries made it 1.40x, holding both group sets 2.57x), and the
    # diagonalization holds one column run at a time (whole groups in three
    # scratch buffers made it 1.35x-1.60x, every probe's group set and
    # transfer blocks 2.17x)
    assert peak_bytes(lambda: tm1_residual(spec, u, v, (1, 2, 2, 3))) < 0.5 * group_set
    every = all_sectors(spec)
    assert peak_bytes(lambda: diagonalize_transfer(spec, sectors=every)) < 1.2 * group_set


@pytest.mark.parametrize("m_sites", [4, 5])
def test_transfer_blocks_peak_below_one_group_set(m_sites):
    spec = ChainSpec(M=m_sites)
    u = 2.1 + 0.4j
    every = all_sectors(spec)
    group_set = 16 * sum(ix.size ** 2 for ix in content_partition(m_sites + 1)[0])
    transfer_blocks(spec, u, sectors=every)  # warm the partition and plan caches
    # measured 0.78x and 0.62x; whole groups in three scratch buffers, each
    # diagonal block held until its content had all three, made them 1.05x and 1.01x
    assert peak_bytes(lambda: transfer_blocks(spec, u, sectors=every)) < group_set


@pytest.mark.parametrize("m_sites", [8, 9])
@pytest.mark.parametrize("i, j", [(1, 3), (3, 1), (2, 2)])
def test_zero_mode_apply_peak_below_six_probe_blocks(m_sites, i, j):
    spec = ChainSpec(M=m_sites)
    y = chain._probe_columns(3 ** m_sites)
    chain._zero_mode_apply(spec, i, j, y)  # warm the probe columns
    # measured 1.8x-4.5x, one site's moves at a time (all of them for i > j);
    # cached M x 3^M letter tables and an np.unique merge of every move made it 8.3x-14x
    assert peak_bytes(lambda: chain._zero_mode_apply(spec, i, j, y)) < 6 * y.nbytes
