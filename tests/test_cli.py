import json
import os
import subprocess
import sys

import pytest

import gradedbethe
from gradedbethe.cli import (
    KNOWN_CHECKS,
    Scenario,
    ScenarioError,
    default_scenario_dict,
    emit_report,
    main,
    run_scenario,
)

from conftest import peak_bytes

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(gradedbethe.__file__)))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_minimal_config_runs(tmp_path):
    cfg = {"schema_version": 1, "seed": 3, "chain": {"M": 2},
           "checks": ["rtt"], "sectors": [[0, 0]], "splits": [1]}
    scenario = Scenario.from_dict(cfg)
    code, reports = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    assert len(reports) >= 1
    assert os.path.exists(tmp_path / "out" / "reports.jsonl")


def test_dimension_bound_exceeded(tmp_path):
    with pytest.raises(ScenarioError, match="dimension bound exceeded"):
        Scenario.from_dict({"chain": {"M": 12}, "checks": ["rtt"]})


def test_unknown_check_rejected():
    with pytest.raises(ScenarioError, match="unrecognized check"):
        Scenario.from_dict({"chain": {"M": 2}, "checks": ["frobnicate"]})


def test_empty_check_list_rejected():
    with pytest.raises(ScenarioError, match="empty check list"):
        Scenario.from_dict({"chain": {"M": 2}, "checks": []})


@pytest.mark.parametrize("vacuum_index", [2, 3])
def test_unsupported_vacuum_rejected(tmp_path, vacuum_index):
    cfg = default_scenario_dict(m=3, seed=1)
    cfg["chain"]["vacuum_index"] = vacuum_index
    with pytest.raises(ScenarioError, match="unsupported vacuum_index"):
        Scenario.from_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("sectors", [[[1, 0], [2, 0]], [[1, 1]]])
def test_descendants_of_unrequested_sectors_are_resolved(tmp_path, sectors):
    # (1,0) and (1,1) hold descendants of the vacuum, and (2,0) of (1,0): their
    # ancestors are found even where the scenario does not list their sectors
    cfg = default_scenario_dict(m=4, seed=1)
    cfg["sectors"] = sectors
    cfg["checks"] = ["spectrum-match", "theorem1"]
    code, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "out"))
    unresolved = [r for r in reports if r.identity.endswith(":unresolved")]
    assert len(unresolved) == len(sectors)
    assert all(r.verdict == "pass" for r in unresolved)
    assert code == 0


@pytest.mark.parametrize("m, sectors, empty", [
    (2, None, ["proposition1"]),
    (4, [[3, 1]], ["theorem1", "theorem2", "proposition1", "ladder"]),
])
def test_checks_without_rows_report_skipped(tmp_path, m, sectors, empty):
    # M=2 has fewer than two primitive (1,0) states; (3,1) holds none of the
    # states the form-factor checks read
    cfg = default_scenario_dict(m=m, seed=1)
    if sectors is not None:
        cfg["sectors"] = sectors
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "reports.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    skipped = [r["identity"] for r in rows if r["verdict"] == "skipped"]
    assert skipped == [f"{name}:skipped:no-eligible-states" for name in empty]
    summary = (out / "summary.txt").read_text()
    assert f"  skipped {len(empty)}\n" in summary
    assert summary.count(" skip\n") == len(empty)


def test_emit_report_refuses_empty(tmp_path):
    with pytest.raises(ScenarioError):
        emit_report([], str(tmp_path))


def test_report_lines_roundtrip(tmp_path):
    cfg = {"schema_version": 1, "seed": 5, "chain": {"M": 2},
           "checks": ["rtt", "ybe"], "sectors": [[0, 0]], "splits": [1]}
    code, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "out"))
    with open(tmp_path / "out" / "reports.jsonl") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(reports)
    for line, rep in zip(lines, reports):
        assert json.loads(line) == rep.to_line_dict()


def test_summary_marks_trivial_rows_distinctly(tmp_path):
    scenario = Scenario.from_dict(default_scenario_dict(m=3, seed=2))
    scenario.checks = ["theorem2"]
    code, reports = run_scenario(scenario, str(tmp_path / "out"))
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert code == 0
    if any(r.verdict == "trivial" for r in reports):
        assert "zero*" in summary


def test_exit_codes_via_main(tmp_path):
    good = write_config(tmp_path, {"schema_version": 1, "seed": 1,
                                   "chain": {"M": 2}, "checks": ["ybe"],
                                   "sectors": [[0, 0]], "splits": [1]})
    assert main(["verify", "--config", good, "--out", str(tmp_path / "o1")]) == 0
    bad = write_config(tmp_path, {"chain": {"M": 12}, "checks": ["rtt"]}, "bad.json")
    assert main(["verify", "--config", bad, "--out", str(tmp_path / "o2")]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing, "--out", str(tmp_path / "o3")]) == 2


def test_check_restriction_via_cli_flag(tmp_path):
    cfg = write_config(tmp_path, default_scenario_dict(m=2, seed=4))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--check", "ybe", "--out", out]) == 0
    with open(os.path.join(out, "reports.jsonl")) as fh:
        lines = fh.read().splitlines()
    assert all(json.loads(line)["identity"].startswith("ybe") for line in lines)


def test_determinism_same_seed_byte_identical(tmp_path):
    cfg = default_scenario_dict(m=3, seed=9)
    run_scenario(Scenario.from_dict(cfg), str(tmp_path / "a"))
    run_scenario(Scenario.from_dict(cfg), str(tmp_path / "b"))
    for name in ("reports.jsonl", "summary.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_different_seed_changes_random_probes(tmp_path):
    c1 = default_scenario_dict(m=2, seed=1)
    c1["checks"] = ["rtt"]
    c2 = default_scenario_dict(m=2, seed=2)
    c2["checks"] = ["rtt"]
    _, r1 = run_scenario(Scenario.from_dict(c1), str(tmp_path / "a"))
    _, r2 = run_scenario(Scenario.from_dict(c2), str(tmp_path / "b"))
    assert [r.lhs for r in r1] != [r.lhs for r in r2]


def test_cache_reuse_is_transparent(tmp_path):
    cfg = default_scenario_dict(m=3, seed=6)
    cache = str(tmp_path / "cache")
    _, r1 = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "a"), cache_directory=cache)
    assert os.listdir(cache)
    _, r2 = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "b"), cache_directory=cache)
    assert [r.to_line_dict() for r in r1] == [r.to_line_dict() for r in r2]


def test_all_known_checks_have_runners():
    from gradedbethe.cli import _CHECK_ORDER, _CHECK_RUNNERS

    assert set(KNOWN_CHECKS) == set(_CHECK_RUNNERS)
    assert set(KNOWN_CHECKS) == set(_CHECK_ORDER)


DENSE_READ_OFFS = ("monodromy_blocks", "zero_mode", "zero_mode_limit", "transfer_matrix")


def _package_modules():
    import gradedbethe
    from gradedbethe import bethe, chain, cli, formfactors, graded, spectrum

    return (gradedbethe, bethe, chain, cli, formfactors, graded, spectrum)


def test_verify_never_reads_a_dense_operator(tmp_path, monkeypatch):
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    code, expected = run_scenario(scenario, str(tmp_path / "dense"))

    def forbidden(*args, **kwargs):
        raise AssertionError("verify read a dense operator")

    for module in _package_modules():
        for name in DENSE_READ_OFFS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    guarded_code, reports = run_scenario(scenario, str(tmp_path / "guarded"))
    assert guarded_code == code == 0
    key = [(r.identity, r.m, r.sectors, r.verdict) for r in reports]
    assert key == [(r.identity, r.m, r.sectors, r.verdict) for r in expected]


def test_universal_form_factor_once_per_theorem1_pair(tmp_path, monkeypatch):
    from gradedbethe import cli, formfactors

    calls = []
    original = formfactors.universal_form_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(formfactors, "universal_form_factor", counted)
    monkeypatch.setattr(cli, "universal_form_factor", counted)
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    scenario.checks = ["theorem1", "proposition1"]
    _, reports = run_scenario(scenario, str(tmp_path / "out"))
    n_plan = len(cli._theorem1_plan(cli._Workspace(scenario, None)))
    n_genfun = sum(r.identity.startswith("genfun-derivative") for r in reports)
    n_theorem1 = sum(r.identity.startswith("theorem1:") for r in reports)
    assert n_plan > 0 and n_genfun > 0
    assert n_theorem1 == n_plan * len(scenario.splits)
    assert len(calls) == n_plan + n_genfun


def test_proposition1_holds_no_twisted_spectrum():
    from gradedbethe import cli

    scenario = Scenario.from_dict(default_scenario_dict(m=5, seed=1))
    ws = cli._Workspace(scenario, None)
    # warm: the untwisted decomposition and its classification
    ws.classified()
    # the right and left vectors of one decomposition: 2 * 3^M states of 3^M
    # entries; measured 0.53x, and 10.2x when every twist diagonalized every sector
    one_decomposition = 2 * 9 ** scenario.chain.M * 16
    assert peak_bytes(lambda: cli._run_proposition1(ws)) < one_decomposition


def test_proposition1_diagonalizes_once_per_sector_and_twist(monkeypatch):
    from gradedbethe import cli, formfactors

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    ws = cli._Workspace(scenario, None)
    ws.classified()
    twists = []
    original = formfactors.diagonalize_transfer

    def counted(spec, *args, **kwargs):
        twists.append(spec.twist)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(formfactors, "diagonalize_transfer", counted)
    reports = cli._run_proposition1(ws)
    directions = sum(r.identity.startswith("genfun-derivative") for r in reports)
    # per direction: one twist for both proposition1 rows, two for the derivative
    assert directions == 3
    assert len(twists) == len(set(twists)) == 3 * directions


def test_only_full_checks_build_every_monodromy_group(tmp_path, monkeypatch):
    from gradedbethe import chain

    # every aux (x) H group built while a read with no contents streams,
    # keyed by the group and the steps' g values, which fix the spectral point
    streamed, streaming = [], []
    product, stream = chain._group_product, chain._stream

    def recorded(k, size, steps, *args, **kwargs):
        if streaming and streaming[-1]:
            streamed.append((k, size, tuple(g for _, g in steps)))
        return product(k, size, steps, *args, **kwargs)

    def tracked(spec, u, pairs, sites=None, contents=None):
        groups = stream(spec, u, pairs, sites, contents)
        while True:
            streaming.append(contents is None)
            try:
                item = next(groups)
            except StopIteration:
                return
            finally:
                streaming.pop()
            yield item

    monkeypatch.setattr(chain, "_group_product", recorded)
    monkeypatch.setattr(chain, "_stream", tracked)
    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    code, _ = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    # the full-chain reads: the five probes of the all-sector diagonalization
    # and the zero-mode limit build all 21 groups, tm1_residual at its two
    # spectral points only the 19 holding its six entries (21 each before);
    # each group at most once per point
    n_groups = len(chain._content_partition(scenario.chain.M + 1)[0])
    assert len(set(streamed)) == len(streamed) == 6 * n_groups + 2 * 19 == 164
    assert len({g for _, _, g in streamed}) == 8


def test_empty_split_list_rejected(tmp_path):
    cfg = default_scenario_dict(m=4, seed=1)
    cfg["splits"] = []
    with pytest.raises(ScenarioError, match="empty split list"):
        Scenario.from_dict(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--check", "theorem2", "--out", str(out)]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value, message", [("rtt_sizes", [], "empty rtt_sizes"),
                                                 ("rtt_pairs", 0, "rtt_pairs=0"),
                                                 ("rtt_pairs", -3, "rtt_pairs=-3"),
                                                 ("rtt_pairs", 3, "each of the 5 rtt_sizes")])
def test_rtt_sample_counts_rejected(tmp_path, key, value, message):
    cfg = default_scenario_dict(m=3, seed=1)
    cfg[key] = value
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--check", "rtt", "--out", str(out)]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("pairs, per_size", [(23, [5, 5, 5, 4, 4]), (20, [4, 4, 4, 4, 4])])
def test_rtt_runs_the_configured_number_of_pairs(tmp_path, pairs, per_size):
    cfg = {"chain": {"M": 2}, "checks": ["rtt"], "splits": [1], "rtt_pairs": pairs}
    code, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "out"))
    names = [r.identity for r in reports if r.identity.startswith("rtt:M")]
    assert code == 0 and len(names) == pairs
    assert [sum(n.startswith(f"rtt:M{m}.") for n in names) for m in range(1, 6)] == per_size


def test_theorem1_retains_no_zero_mode_blocks():
    import tracemalloc

    from gradedbethe import cli
    from gradedbethe.chain import _content_partition

    scenario = Scenario.from_dict(default_scenario_dict(m=5, seed=1))
    ws = cli._Workspace(scenario, None)
    ws.classified()
    # every content-group block of one aux (x) H operator
    group_set = 16 * sum(ix.size ** 2 for ix in _content_partition(scenario.chain.M + 1)[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports = cli._run_theorem1(ws)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert reports and all(r.verdict == "pass" for r in reports)
    # measured 0.32x; caching the zero-mode groups of every split range kept 7.1x
    assert retained < group_set


def test_zero_mode_limit_peaks_below_one_group_set():
    from gradedbethe import cli
    from gradedbethe.chain import _content_partition

    scenario = Scenario.from_dict(default_scenario_dict(m=5, seed=1))
    ws = cli._Workspace(scenario, None)
    group_set = 16 * sum(ix.size ** 2 for ix in _content_partition(scenario.chain.M + 1)[0])
    cli._run_vacuum(ws)  # warm the partition, plan and letter caches
    reports = []
    # measured 0.83x; building the limit's whole group set first made it 2.12x
    assert peak_bytes(lambda: reports.extend(cli._run_vacuum(ws))) < 1.25 * group_set
    assert [r.identity for r in reports][-1] == "vacuum:zero-mode-limit"
    assert all(r.verdict == "pass" for r in reports)


def test_pole_at_probe_point_is_a_runtime_error(tmp_path, capsys):
    cfg = default_scenario_dict(m=3, seed=1)
    # xi_1 on the first default probe point at c = 1
    cfg["chain"]["xi"] = [[1.7, 0.41], [0.2, 0.0], [0.3, 0.0]]
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err
    assert not os.path.exists(out / "reports.jsonl")


@pytest.mark.parametrize("m", [3, 4])
def test_genfun_derivative_on_the_full_chain_is_trivial(tmp_path, m):
    # the total zero mode between distinct same-sector states vanishes, and the
    # finite-difference side stays below the row's zero floor
    cfg = default_scenario_dict(m=m, seed=1)
    cfg["splits"] = [m]
    cfg["checks"] = ["proposition1"]
    code, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "out"))
    genfun = [r for r in reports if r.identity.startswith("genfun-derivative")]
    assert code == 0 and len(genfun) == 3
    assert all(r.verdict == "trivial" for r in genfun)
    assert "zero*" in (tmp_path / "out" / "summary.txt").read_text()


def test_verify_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: block scipy in a fresh interpreter, run the
    # M=3 default scenario, and check that importing the CLI loads no scipy module
    env = {k: v for k, v in os.environ.items() if k != "GRADEDBETHE_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    cfg = write_config(tmp_path, default_scenario_dict(m=3))
    blocked = ("import sys; sys.modules['scipy'] = None; from gradedbethe.cli import main; "
               f"sys.exit(main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]))")
    run = subprocess.run([sys.executable, "-c", blocked], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = ("import sys, gradedbethe.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", loaded], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
