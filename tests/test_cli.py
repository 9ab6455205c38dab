import json
import os
import subprocess
import sys
import threading

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


@pytest.mark.parametrize("fields", [
    {"tol_exact": "abc"},
    {"seed": "x"},
    {"chain": {"M": "three"}},
    {"sectors": [[1]]},
    {"rtt_sizes": 5},
    {"splits": None},
    # tolerances and steps are finite and above zero
    {"tol_exact": float("nan")},
    {"tol_exact": -1.0},
    {"tol_fd": float("inf")},
    {"tol_fd": 0.0},
    {"fd_delta": 0.0},
    # integer fields are not truncated
    {"splits": [1.7]},
    {"rtt_sizes": [2.5]},
    {"rtt_pairs": 20.5},
    {"seed": 1.5},
    {"chain": {"M": 2.5}},
    {"sectors": [[1.5, 0]]},
])
def test_malformed_fields_are_configuration_errors(tmp_path, fields):
    # exit 1 means a check failed; a field of the wrong type or value is exit 2
    cfg = default_scenario_dict(m=2, seed=1)
    cfg.update(fields)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out / "reports.jsonl")


@pytest.mark.parametrize("flag", ["--tol-exact=nan", "--tol-exact=0", "--tol-fd=inf",
                                  "--tol-fd=-1e-5"])
def test_tolerance_overrides_are_positive(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, default_scenario_dict(m=2, seed=1))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, flag, "--out", str(out)]) == 2
    assert flag.split("=")[0] in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("fields, message", [
    ({"seed": -1}, "seed must be an integer from 0 up"),
    ({"beta_magnitude": float("nan")}, "beta_magnitude must be a finite number"),
    ({"beta_magnitude": float("inf")}, "beta_magnitude must be a finite number"),
    ({"sectors": [[1, 0], [1, 0]]}, "duplicate sectors entry"),
    ({"splits": [1, 2, 1]}, "duplicate splits entry"),
    ({"rtt_sizes": [2, 3, 2]}, "duplicate rtt_sizes entry"),
], ids=["negative-seed", "nan-beta", "inf-beta", "sectors", "splits", "rtt_sizes"])
def test_out_of_domain_fields_exit_2(tmp_path, capsys, fields, message):
    # a negative seed ended in numpy's ValueError, a non-finite beta_magnitude
    # in a traceback from the twisted solve, and repeated entries wrote their
    # rows twice under one identity
    cfg = default_scenario_dict(m=3, seed=1)
    cfg.update(fields)
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not os.path.exists(out)


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, default_scenario_dict(m=2, seed=1))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--seed=-1", "--out", str(out)]) == 2
    assert "--seed must be an integer from 0 up" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_twisted_chain_rejected(tmp_path):
    # the checks assume kappa = 1: theorem2 ended a twisted run in a traceback
    cfg = default_scenario_dict(m=4, seed=1)
    cfg["chain"]["kappa"] = [[1.2, 0.0], [1.0, 0.0], [0.9, 0.1]]
    with pytest.raises(ScenarioError, match="unsupported twist"):
        Scenario.from_dict(cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out)


def test_non_object_scenario_rejected():
    with pytest.raises(ScenarioError, match="one JSON object"):
        Scenario.from_dict([1])


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


def test_cache_of_one_sector_list_misses_for_another(tmp_path, monkeypatch):
    from gradedbethe import cli, spectrum

    cache = str(tmp_path / "cache")
    loads = []
    original = spectrum.load_cache

    def recorded(*args, **kwargs):
        dec = original(*args, **kwargs)
        loads.append(dec is not None)
        return dec

    monkeypatch.setattr(cli, "load_cache", recorded)
    outcomes = {}
    for n, sectors in enumerate([[[1, 0]], [[1, 1]], [[1, 0]]]):
        cfg = default_scenario_dict(m=3, seed=1)
        cfg["sectors"] = sectors
        _, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / f"o{n}"),
                                  cache_directory=cache)
        outcomes.setdefault(str(sectors), []).append([r.to_line_dict() for r in reports])
    # the swept sectors {(0,0), (1,0)} and {(0,0), (1,0), (1,1)} key two files
    assert loads == [False, False, True]
    assert len(os.listdir(cache)) == 2
    first, again = outcomes["[[1, 0]]"]
    assert first == again
    # each file holds its swept sectors' states and the all-sector figure
    spec = Scenario.from_dict(default_scenario_dict(m=3, seed=1)).chain
    full = spectrum.diagonalize_transfer(spec)
    for swept in ([(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]):
        dec = original(cache, spec, swept)
        assert sorted({st.sector for st in dec.states}) == swept
        assert dec.consistency == full.consistency
    assert original(cache, spec, list(spectrum.sector_indices(spec))) is None


def test_empty_sector_list_sweeps_every_sector(tmp_path):
    from gradedbethe.spectrum import sector_indices

    # classify_spectrum reads no requested sector as every sector, so the
    # form-factor checks run as with the whole list given, and the run
    # defers no leakage: every sector is swept
    spec = Scenario.from_dict(default_scenario_dict(m=3, seed=1)).chain
    rows = {}
    for name, sectors in (("none", []), ("all", [list(s) for s in sector_indices(spec)])):
        cfg = default_scenario_dict(m=3, seed=1)
        cfg["sectors"] = sectors
        code, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / name))
        assert code == 0
        rows[name] = [r.to_line_dict() for r in reports
                      if not r.identity.startswith("spectrum-match:")]
    assert not any("skipped" in row["identity"] for row in rows["none"])
    assert {row["identity"].split(":")[0] for row in rows["none"]} >= {
        "theorem1", "theorem2", "proposition1", "ladder-commutator"}
    assert rows["none"] == rows["all"]


def test_all_known_checks_have_runners():
    from gradedbethe.cli import _CHECK_ORDER, _CHECK_RUNNERS

    assert set(KNOWN_CHECKS) == set(_CHECK_RUNNERS)
    assert set(KNOWN_CHECKS) == set(_CHECK_ORDER)


DENSE_READ_OFFS = ("monodromy_blocks", "zero_mode", "zero_mode_limit", "transfer_matrix")


def _package_modules():
    import gradedbethe
    from gradedbethe import bethe, chain, cli, formfactors, graded, spectrum

    return (gradedbethe, bethe, chain, cli, formfactors, graded, spectrum)


def test_verify_never_reads_a_dense_operator():
    # chain operators exist only as content-group blocks: the package has no
    # 3^M x 3^M read-off that verify could call
    exposed = [(module.__name__, name) for module in _package_modules()
               for name in DENSE_READ_OFFS if hasattr(module, name)]
    assert exposed == []


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


def record_group_builds(monkeypatch, swept) -> dict[str, list]:
    """Every aux (x) H group built from now on, filed under the read that streams it.

    A build is keyed by the group and the steps' g values, which fix the
    spectral point.  "full" holds the builds of reads with no contents,
    "swept" and "rest" those of a diagonalization of the ``swept`` sectors
    and of any other sectors.
    """
    from gradedbethe import chain, cli

    built = {"full": [], "swept": [], "rest": []}
    reads, passes = [], []
    product, stream, diagonalize = chain._group_product, chain._stream, cli.diagonalize_transfer

    def recorded(k, size, steps, *args, **kwargs):
        if reads and reads[-1]:
            built[reads[-1]].append((k, size, tuple(g for _, g in steps)))
        return product(k, size, steps, *args, **kwargs)

    def tracked(spec, u, pairs, sites=None, contents=None):
        groups = stream(spec, u, pairs, sites, contents)
        while True:
            reads.append("full" if contents is None else passes[-1] if passes else None)
            try:
                item = next(groups)
            except StopIteration:
                return
            finally:
                reads.pop()
            yield item

    def tagged(spec, sectors=None):
        passes.append(None if sectors is None else "swept" if sectors == swept else "rest")
        try:
            return diagonalize(spec, sectors=sectors)
        finally:
            passes.pop()

    monkeypatch.setattr(chain, "_group_product", recorded)
    monkeypatch.setattr(chain, "_stream", tracked)
    monkeypatch.setattr(cli, "diagonalize_transfer", tagged)
    return built


def test_only_full_checks_build_every_monodromy_group(tmp_path, monkeypatch):
    from gradedbethe import chain, cli

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    built = record_group_builds(monkeypatch, cli._Workspace(scenario, None).swept)
    # tm1_residual's builds are counted only when the rtt check runs in this
    # process, where one pass diagonalizes every sector
    monkeypatch.setattr(cli, "_use_worker", lambda: False)
    code, _ = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    # the full-chain reads: the five probes of the all-sector diagonalization
    # and the zero-mode limit build all 21 groups, tm1_residual at its two
    # spectral points only the 19 holding its six entries (21 each before);
    # each group at most once per point
    n_groups = len(chain._content_partition(scenario.chain.M + 1)[0])
    assert len(set(built["full"])) == len(built["full"]) == 6 * n_groups + 2 * 19 == 164
    assert len({g for _, _, g in built["full"]}) == 8
    assert not built["swept"] and not built["rest"]


def test_deferred_leakage_builds_only_the_shared_groups_twice(tmp_path, monkeypatch):
    from gradedbethe import chain, cli

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    built = record_group_builds(monkeypatch, cli._Workspace(scenario, None).swept)
    # the run splits the spectrum as for a worker, but the worker never
    # forks, so every job runs in this process at the join
    monkeypatch.setattr(cli, "_use_worker", lambda: True)
    monkeypatch.setattr(cli._Jobs, "_fork", lambda self: None)
    code, _ = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    # the zero-mode limit and tm1_residual read the full chain, as above
    n_groups = len(chain._content_partition(scenario.chain.M + 1)[0])
    assert len(set(built["full"])) == len(built["full"]) == n_groups + 2 * 19 == 59
    # the spectrum is read in two passes, each building a group at most once
    # per probe; together they build every group at each of the five probes,
    # and the 4 groups holding both swept and rest contents twice
    for name in ("swept", "rest"):
        assert len(set(built[name])) == len(built[name]) > 0
    both = built["swept"] + built["rest"]
    assert len(set(both)) == 5 * n_groups
    assert len(both) - len(set(both)) == 5 * 4
    assert len({g for _, _, g in built["full"] + both}) == 8


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


# -- the rtt worker ----------------------------------------------------------

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the rtt worker runs only where a second CPU can run it")


def run_pinned(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter with BLAS on one thread, so it may fork."""
    env = {k: v for k, v in os.environ.items() if k != "GRADEDBETHE_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


# a subprocess script: verify_rtt appends the pid it runs in to argv[1], then runs BODY
RECORD_PIDS = """
import json, os, sys
from gradedbethe import cli
verify_rtt = cli.verify_rtt
PARENT = os.getpid()

def recorded(*args):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    BODY

cli.verify_rtt = recorded
scenario = cli.Scenario.from_dict(cli.default_scenario_dict(m=3, seed=1))
scenario.checks = ["ybe", "rtt", "vacuum", "ladder"]
"""

NO_CHILD_LEFT = """
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"pid": os.getpid(), "left": left, "outcome": outcome}))
"""


def recorded_pids(path) -> list[int]:
    return [int(line) for line in path.read_text().split()]


@needs_two_cpus
def test_rtt_worker_writes_the_in_process_bytes(tmp_path, monkeypatch):
    from gradedbethe import cli

    cfg = write_config(tmp_path, default_scenario_dict(m=4, seed=1))
    run = run_pinned("import sys; from gradedbethe.cli import main; "
                     f"sys.exit(main(['verify', '--config', {cfg!r}, "
                     f"'--out', {str(tmp_path / 'worker')!r}]))")
    assert run.returncode == 0, run.stderr
    monkeypatch.setattr(cli, "_use_worker", lambda: False)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "in-process")]) == 0
    for name in ("reports.jsonl", "summary.txt"):
        assert ((tmp_path / "worker" / name).read_bytes()
                == (tmp_path / "in-process" / name).read_bytes())


@needs_two_cpus
def test_rtt_runs_in_a_reaped_worker(tmp_path):
    pids = tmp_path / "pids"
    code = (RECORD_PIDS.replace("BODY", "return verify_rtt(*args)")
            + "outcome, _ = cli.run_scenario(scenario, sys.argv[2])"
            + NO_CHILD_LEFT)
    run = run_pinned(code, str(pids), str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["outcome"] == 0 and not result["left"]
    # the 20 pairs ran once each, in this process or in the one worker
    assert len(recorded_pids(pids)) == 20
    assert len(set(recorded_pids(pids)) - {result["pid"]}) == 1


@needs_two_cpus
def test_rtt_worker_reaped_when_a_later_check_raises(tmp_path):
    code = (RECORD_PIDS.replace("BODY", "return verify_rtt(*args)") + """
forks = []
fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
def broken(ws):
    raise RuntimeError("ladder broke")
cli._CHECK_RUNNERS["ladder"] = broken
try:
    cli.run_scenario(scenario, sys.argv[2])
    outcome = None
except RuntimeError as exc:
    outcome = [str(exc), len(forks)]
""" + NO_CHILD_LEFT)
    run = run_pinned(code, str(tmp_path / "pids"), str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["outcome"] == ["ladder broke", 1] and not result["left"]
    assert not os.path.exists(tmp_path / "out")


@needs_two_cpus
@pytest.mark.parametrize("body, message", [
    ("raise cli.PoleError('u meets a pole')", "runtime error: u meets a pole\n"),
    ("return verify_rtt(*args) if os.getpid() == PARENT else os._exit(3)",
     "runtime error: the rtt worker ended without a result: exit status 3\n"),
    ("return verify_rtt(*args) if os.getpid() == PARENT else os.kill(os.getpid(), 9)",
     "runtime error: the rtt worker ended without a result: killed by signal 9\n"),
], ids=["pole", "exits", "killed"])
def test_rtt_worker_failure_exits_2(tmp_path, body, message):
    # an exception in either process re-raises in the parent with its type and
    # message; a worker that dies without a result is named by its exit status
    pids = tmp_path / "pids"
    cfg = write_config(tmp_path, default_scenario_dict(m=3, seed=1))
    code = (RECORD_PIDS.replace("BODY", body)
            + "outcome = cli.main(['verify', '--config', sys.argv[2], '--out', sys.argv[3]])"
            + NO_CHILD_LEFT)
    run = run_pinned(code, str(pids), cfg, str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["outcome"] == 2 and not result["left"]
    assert run.stderr == message
    # the worker ran an rtt pair
    assert set(recorded_pids(pids)) - {result["pid"]}
    assert not os.path.exists(tmp_path / "out")


def job_fails(where: str, index: int, in_parent: bool) -> bool:
    return {"none": False, "both": index in (5, 9), "worker": not in_parent,
            "parent": in_parent}[where]


# a subprocess script: argv[3] jobs record "index pid" to argv[1], pause
# argv[4] seconds and return index / 4, or raise where job_fails(argv[2], ...)
JOBS = """
import json, os, sys, time
from gradedbethe import cli
PARENT = os.getpid()

def job(index):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{index} {os.getpid()}\\n")
    time.sleep(float(sys.argv[4]))
    in_parent = os.getpid() == PARENT
    if {"none": False, "both": index in (5, 9), "worker": not in_parent,
        "parent": in_parent}[sys.argv[2]]:
        raise cli.PoleError(f"job {index}")
    return index / 4

try:
    outcome = cli._Jobs([(job, (n,)) for n in range(int(sys.argv[3]))], cli._use_worker()).join()
except cli.PoleError as exc:
    outcome = str(exc)
""" + NO_CHILD_LEFT


def run_jobs(tmp_path, where: str, n_jobs: int, pause: float) -> tuple[dict, dict]:
    """Run JOBS; returns its result and {job index: pid that ran it}."""
    claims = tmp_path / "claims"
    run = run_pinned(JOBS, str(claims), where, str(n_jobs), str(pause))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert not result["left"]
    ran = {}
    for line in claims.read_text().splitlines():
        index, pid = map(int, line.split())
        assert index not in ran
        ran[index] = pid
    assert sorted(ran) == list(range(n_jobs))
    # this process and at most one worker
    assert len(set(ran.values()) - {result["pid"]}) <= 1
    return result, ran


@needs_two_cpus
@pytest.mark.parametrize("where", ["none", "both", "worker", "parent"])
def test_job_list_runs_each_job_once_across_two_processes(tmp_path, where):
    result, ran = run_jobs(tmp_path, where, 16, 0.03)
    # some jobs ran in this process and the rest in one worker, and both
    # went on claiming after a job raised
    assert result["pid"] in ran.values() and len(set(ran.values())) == 2
    # the lowest failing index wins, whichever process ran it; else the
    # results come back in job order
    failed = [n for n in range(16) if job_fails(where, n, ran[n] == result["pid"])]
    assert result["outcome"] == (f"job {failed[0]}" if failed else [n / 4 for n in range(16)])


@needs_two_cpus
def test_job_claims_lose_no_update_under_contention(tmp_path):
    # thousands of jobs that return at once keep both processes at the claim
    # lock: a lost update would run a job twice or skip one
    result, _ = run_jobs(tmp_path, "none", 4000, 0.0)
    assert result["outcome"] == [n / 4 for n in range(4000)]


@needs_two_cpus
@pytest.mark.parametrize("check", ["spectrum-match", "theorem1", "rtt"])
def test_single_check_writes_the_in_process_bytes(tmp_path, monkeypatch, check):
    from gradedbethe import cli

    cfg = write_config(tmp_path, default_scenario_dict(m=4, seed=1))
    run = run_pinned("import sys; from gradedbethe.cli import main; "
                     f"sys.exit(main(['verify', '--config', {cfg!r}, '--check', {check!r}, "
                     f"'--out', {str(tmp_path / 'worker')!r}]))")
    assert run.returncode == 0, run.stderr
    monkeypatch.setattr(cli, "_use_worker", lambda: False)
    out = str(tmp_path / "in-process")
    assert main(["verify", "--config", cfg, "--check", check, "--out", out]) == 0
    for name in ("reports.jsonl", "summary.txt"):
        assert ((tmp_path / "worker" / name).read_bytes()
                == (tmp_path / "in-process" / name).read_bytes())
    with open(os.path.join(out, "reports.jsonl")) as fh:
        first = json.loads(fh.readline())
    if check == "spectrum-match":
        # the swept pass's figure completed with the deferred one: the figure
        # of one pass over every sector
        spec = Scenario.from_dict(default_scenario_dict(m=4, seed=1)).chain
        assert first["identity"] == "spectrum:consistency"
        assert first["lhs"] == [cli.diagonalize_transfer(spec).consistency, 0.0]


def test_no_worker_beside_a_second_thread():
    # fork copies only the calling thread, whose locks another thread may hold
    from gradedbethe import cli

    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not cli._use_worker()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
