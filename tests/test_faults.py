import pytest

from gradedbethe import cli
from gradedbethe.chain import ChainSpec, tm1_residual, verify_rtt, yang_baxter_residual
from gradedbethe.cli import Scenario, default_scenario_dict, run_scenario

from faults import DEFECTS, injected
from oracles import leakage_by_eigensolve, tm1_residual_full_set, zero_mode_limit_by_groups
from test_chain import site_outer_rtt

# the tolerances of the rtt and ybe rows, spectrum:consistency and vacuum:zero-mode-limit
RTT_TOL, CONSISTENCY_TOL, ZERO_MODE_TOL = 1e-10, 1e-9, 1e-5
U, V, W, INDICES = 1.3 + 2.1j, -2.2 + 0.7j, 0.4 + 1.6j, (1, 2, 2, 3)
# what each defect must fail: (the tm1 figure, the unswept sectors' figure, the RTT
# relation at every sub-chain size, the zero-mode limit), in the rows' vector forms
# and in the group forms they replaced alike, and the Yang-Baxter relation
CAUGHT = {"unsigned-P02": (True, True, True, True, True),
          "flipped-T22-sign": (True, False, False, True, False),
          "dropped-odd-letters": (False, False, False, True, False)}


@pytest.fixture(scope="module")
def chain4():
    """The default M=4 scenario's workspace; 10 of its 15 sectors are unswept."""
    return cli._Workspace(Scenario.from_dict(default_scenario_dict(m=4, seed=1)))


def figures(ws):
    """(tm1 on vectors, tm1 dense), (unswept figure on vectors, unswept figure by eigensolve),
    (the RTT relation on vectors, on dense groups) at every size the rtt rows check,
    (the zero-mode limit on probe columns, on every aux (x) H group), the Yang-Baxter residual."""
    spec, rest = ws.spec, ws.rest
    subs = [ChainSpec(M=m) for m in cli._RTT_SIZES]
    zero_mode = cli._run_vacuum(ws)[-1]
    assert zero_mode.identity == "vacuum:zero-mode-limit"
    return ((tm1_residual(spec, U, V, INDICES), tm1_residual_full_set(spec, U, V, INDICES)),
            (cli._leakage(spec, rest), leakage_by_eigensolve(spec, rest)),
            tuple(f(sub, U, V) for f in (verify_rtt, site_outer_rtt) for sub in subs),
            (zero_mode.rel_residual, zero_mode_limit_by_groups(spec)),
            yang_baxter_residual(U, V, W))


def test_catalogue_lists_every_defect():
    assert CAUGHT.keys() == DEFECTS.keys()


@pytest.mark.parametrize("name", DEFECTS)
def test_vector_rows_catch_what_the_dense_forms_catch(chain4, name):
    # the vector forms see every defect the dense forms see, at the rows'
    # tolerances; a flipped diagonal block sign is a twist, under which the
    # transfer matrices still commute, so no consistency figure sees it, and
    # the RTT relation on V (x) V (x) H reads no entry sign at all; only the
    # zero-mode limit reads the letter rule, and it sees all three defects;
    # the Yang-Baxter relation reads the graded swap alone
    with injected(name):
        tm1, leakage, rtt, zero_mode, ybe = figures(chain4)
    expect_tm1, expect_leakage, expect_rtt, expect_zero_mode, expect_ybe = CAUGHT[name]
    assert [f > RTT_TOL for f in tm1] == [expect_tm1] * 2
    assert [f > CONSISTENCY_TOL for f in leakage] == [expect_leakage] * 2
    assert [f > RTT_TOL for f in rtt] == [expect_rtt] * 2 * len(cli._RTT_SIZES)
    # the zero-mode limit fails at O(1): 1.60, 1.00 and 2.00 on columns, 2.00,
    # 8.00 and 2.00 on groups (measured at M=4, in the order of CAUGHT)
    assert [f > ZERO_MODE_TOL for f in zero_mode] == [expect_zero_mode] * 2
    assert (ybe > RTT_TOL) == expect_ybe
    # nothing of the defect outlives the block, the cached tables included
    tm1, leakage, rtt, zero_mode, ybe = figures(chain4)
    assert max(tm1 + rtt + (ybe,)) < RTT_TOL and max(leakage) < CONSISTENCY_TOL
    assert max(zero_mode) < ZERO_MODE_TOL


@pytest.mark.parametrize("name", DEFECTS)
def test_defects_fail_the_full_chain_rows(tmp_path, name):
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    scenario.checks = ["ybe", "rtt", "vacuum", "spectrum-match"]
    with injected(name):
        code, reports = run_scenario(scenario, str(tmp_path / "out"))
    verdicts = {r.identity: r.verdict for r in reports}
    expect_tm1, expect_leakage, expect_rtt, expect_zero_mode, expect_ybe = CAUGHT[name]
    assert code == 1
    assert verdicts["rtt:tm1-1223"] == ("fail" if expect_tm1 else "pass")
    assert verdicts["spectrum:consistency"] == ("fail" if expect_leakage else "pass")
    rtt = [verdict for identity, verdict in verdicts.items() if identity.startswith("rtt:M")]
    n_rtt = len(cli._RTT_SIZES) * cli._RTT_PAIRS_PER_SIZE
    assert rtt == ["fail" if expect_rtt else "pass"] * n_rtt
    assert verdicts["vacuum:zero-mode-limit"] == ("fail" if expect_zero_mode else "pass")
    ybe = [verdict for identity, verdict in verdicts.items() if identity.startswith("ybe:")]
    assert ybe == ["fail" if expect_ybe else "pass"] * 3


def test_dropped_odd_letters_fail_only_the_zero_mode_limit(tmp_path):
    # the zero-mode limit is the one row of the default scenario that
    # compares the letter rule's odd signs with the monodromy
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    with injected("dropped-odd-letters"):
        code, reports = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 1
    assert [r.identity for r in reports if r.verdict == "fail"] == ["vacuum:zero-mode-limit"]
