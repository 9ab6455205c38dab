import pytest

from gradedbethe import cli
from gradedbethe.chain import ChainSpec, tm1_residual, verify_rtt
from gradedbethe.cli import Scenario, default_scenario_dict, run_scenario

from faults import DEFECTS, injected
from oracles import leakage_by_eigensolve, tm1_residual_full_set
from test_chain import site_outer_rtt

RTT_TOL, CONSISTENCY_TOL = 1e-10, 1e-9   # the tolerances of the rtt rows and spectrum:consistency
U, V, INDICES = 1.3 + 2.1j, -2.2 + 0.7j, (1, 2, 2, 3)
RTT_SIZES = (1, 2, 3, 4, 5)              # the default rtt_sizes
# what each defect must fail: (the tm1 figure, the unswept sectors' figure, the RTT
# relation at every sub-chain size), in the rows' vector forms and in the dense forms
# they replaced alike
CAUGHT = {"unsigned-P02": (True, True, True), "flipped-T22-sign": (True, False, False)}


@pytest.fixture(scope="module")
def chain4():
    """The default M=4 scenario's chain and its unswept sectors (10 of 15)."""
    ws = cli._Workspace(Scenario.from_dict(default_scenario_dict(m=4, seed=1)))
    return ws.spec, ws.rest


def figures(spec, rest):
    """(tm1 on vectors, tm1 dense), (unswept figure on vectors, unswept figure by eigensolve),
    (the RTT relation on vectors, on dense groups) at every size in RTT_SIZES."""
    subs = [ChainSpec(M=m, c=spec.c) for m in RTT_SIZES]
    return ((tm1_residual(spec, U, V, INDICES), tm1_residual_full_set(spec, U, V, INDICES)),
            (cli._leakage(spec, rest), leakage_by_eigensolve(spec, rest)),
            tuple(f(sub, U, V) for f in (verify_rtt, site_outer_rtt) for sub in subs))


def test_catalogue_lists_every_defect():
    assert CAUGHT.keys() == DEFECTS.keys()


@pytest.mark.parametrize("name", DEFECTS)
def test_vector_rows_catch_what_the_dense_forms_catch(chain4, name):
    # the vector forms see every defect the dense forms see, at the rows'
    # tolerances; a flipped diagonal block sign is a twist, under which the
    # transfer matrices still commute, so no consistency figure sees it, and
    # the RTT relation on V (x) V (x) H reads no entry sign at all
    spec, rest = chain4
    with injected(name):
        tm1, leakage, rtt = figures(spec, rest)
    expect_tm1, expect_leakage, expect_rtt = CAUGHT[name]
    assert [f > RTT_TOL for f in tm1] == [expect_tm1] * 2
    assert [f > CONSISTENCY_TOL for f in leakage] == [expect_leakage] * 2
    assert [f > RTT_TOL for f in rtt] == [expect_rtt] * 2 * len(RTT_SIZES)
    # nothing of the defect outlives the block, the cached plans included
    tm1, leakage, rtt = figures(spec, rest)
    assert max(tm1 + rtt) < RTT_TOL and max(leakage) < CONSISTENCY_TOL


@pytest.mark.parametrize("name", DEFECTS)
def test_defects_fail_the_full_chain_rows(tmp_path, name):
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    scenario.checks = ["rtt", "spectrum-match"]
    with injected(name):
        code, reports = run_scenario(scenario, str(tmp_path / "out"))
    verdicts = {r.identity: r.verdict for r in reports}
    assert code == 1
    assert verdicts["rtt:tm1-1223"] == "fail"
    assert verdicts["spectrum:consistency"] == ("fail" if CAUGHT[name][1] else "pass")
    rtt = [verdict for identity, verdict in verdicts.items() if identity.startswith("rtt:M")]
    assert rtt == ["fail" if CAUGHT[name][2] else "pass"] * scenario.rtt_pairs
