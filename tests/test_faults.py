import pytest

from gradedbethe import cli
from gradedbethe.chain import tm1_residual
from gradedbethe.cli import Scenario, default_scenario_dict, run_scenario

from faults import DEFECTS, injected
from oracles import leakage_by_eigensolve, tm1_residual_full_set

RTT_TOL, CONSISTENCY_TOL = 1e-10, 1e-9   # the tolerances of rtt:tm1-1223 and spectrum:consistency
U, V, INDICES = 1.3 + 2.1j, -2.2 + 0.7j, (1, 2, 2, 3)
# what each defect must fail: (the tm1 figure, the unswept sectors' figure), in the
# rows' vector forms and in the dense forms they replaced alike
CAUGHT = {"unsigned-P02": (True, True), "flipped-T22-sign": (True, False)}


@pytest.fixture(scope="module")
def chain4():
    """The default M=4 scenario's chain and its unswept sectors (10 of 15)."""
    ws = cli._Workspace(Scenario.from_dict(default_scenario_dict(m=4, seed=1)))
    return ws.spec, ws.rest


def figures(spec, rest):
    """(tm1 on vectors, tm1 dense), (unswept figure on vectors, unswept figure by eigensolve)."""
    return ((tm1_residual(spec, U, V, INDICES), tm1_residual_full_set(spec, U, V, INDICES)),
            (cli._leakage(spec, rest), leakage_by_eigensolve(spec, rest)))


def test_catalogue_lists_every_defect():
    assert CAUGHT.keys() == DEFECTS.keys()


@pytest.mark.parametrize("name", DEFECTS)
def test_vector_rows_catch_what_the_dense_forms_catch(chain4, name):
    # the vector forms see every defect the dense forms see, at the rows'
    # tolerances; a flipped diagonal block sign is a twist, under which the
    # transfer matrices still commute, so no consistency figure sees it
    spec, rest = chain4
    with injected(name):
        tm1, leakage = figures(spec, rest)
    expect_tm1, expect_leakage = CAUGHT[name]
    assert [f > RTT_TOL for f in tm1] == [expect_tm1] * 2
    assert [f > CONSISTENCY_TOL for f in leakage] == [expect_leakage] * 2
    # nothing of the defect outlives the block, the cached plans included
    tm1, leakage = figures(spec, rest)
    assert max(tm1) < RTT_TOL and max(leakage) < CONSISTENCY_TOL


@pytest.mark.parametrize("name", DEFECTS)
def test_defects_fail_the_full_chain_rows(tmp_path, monkeypatch, name):
    monkeypatch.setattr(cli, "_use_worker", lambda: False)
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    scenario.checks = ["rtt", "spectrum-match"]
    with injected(name):
        code, reports = run_scenario(scenario, str(tmp_path / "out"))
    verdicts = {r.identity: r.verdict for r in reports}
    assert code == 1
    assert verdicts["rtt:tm1-1223"] == "fail"
    assert verdicts["spectrum:consistency"] == ("fail" if CAUGHT[name][1] else "pass")
