import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gradedbethe
from gradedbethe import bethe
from gradedbethe.chain import ChainSpec
from gradedbethe.cli import (
    KNOWN_CHECKS,
    Scenario,
    ScenarioError,
    default_scenario_dict,
    emit_report,
    main,
    run_scenario,
)

from conftest import peak_bytes, record_builds
from oracles import all_sectors, content_partition, zero_mode_limit_by_groups

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


def test_theorem1_pairs_no_state_with_its_own_descendant(tmp_path, capsys):
    # at M=1 the first (1,1) descendant is the vacuum's own: the (3,1) pair
    # would have no probe point separating its eigenvalue functions
    cfg = {"chain": {"M": 1}, "sectors": [[0, 0], [1, 0], [1, 1]], "splits": [1]}
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--check", "theorem1",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "reports.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert [(r["identity"], r["verdict"]) for r in rows] == [
        ("theorem1:skipped:no-eligible-states", "skipped")]


def test_theorem2_skips_a_direction_whose_continuation_hits_a_pole(tmp_path, capsys):
    # at M=1 the vacuum's (1,1) descendant continued in direction 3 puts its
    # descending root on the one inhomogeneity: that direction is skipped,
    # the other two are checked, and the full run completes
    cfg = {"chain": {"M": 1}, "sectors": [[0, 0], [1, 0], [1, 1]], "splits": [1]}
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "reports.jsonl") as fh:
        rows = [json.loads(line) for line in fh if '"theorem2' in line]
    assert [(r["identity"], r["sectors"], r["verdict"]) for r in rows] == [
        ("theorem2:1", [[1, 1], [1, 1]], "trivial"),
        ("theorem2-fd:1.11", [[1, 1], [1, 1]], "pass"),
        ("theorem2:2", [[1, 1], [1, 1]], "trivial"),
        ("theorem2-fd:2.11", [[1, 1], [1, 1]], "pass"),
        ("theorem2:3:skipped:pole", [[1, 1], [1, 1]], "skipped")]
    assert "or hit a pole" in (out / "summary.txt").read_text()


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
    {"seed": "x"},
    {"seed": [1]},
    {"chain": {"M": "three"}},
    {"sectors": [[1]]},
    {"sectors": [[1, 0, 0]]},
    {"sectors": 5},
    {"splits": None},
    {"splits": 5},
    {"checks": 5},
    # a complex number is one [real, imaginary] pair, and xi holds one per site
    {"chain": {"M": 3, "c": "abc"}},
    {"chain": {"M": 3, "c": [1.0]}},
    {"chain": {"M": 3, "xi": 5}},
    {"chain": {"M": 3, "xi": [[0.1, 0.0]]}},
    # integer fields are not truncated
    {"splits": [1.7]},
    {"seed": 1.5},
    {"chain": {"M": 2.5}},
    {"sectors": [[1.5, 0]]},
    # keys outside the schema, and a chain that is not an object, are refused:
    # each of these used to run on defaults
    {"chain": {"M": 3, "cc": [2, 0]}},
    {"tol_exat": 1e-30},
    {"check": ["rtt"]},
    {"chain": [["M", 5]]},
])
def test_malformed_fields_are_configuration_errors(tmp_path, fields):
    # exit 1 means a check failed; a field of the wrong type or value is exit 2
    cfg = default_scenario_dict(m=2, seed=1)
    cfg.update(fields)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out / "reports.jsonl")


@pytest.mark.parametrize("fields, message", [
    ({"seed": -1}, "seed must be an integer from 0 up"),
    ({"sectors": [[1, 0], [1, 0]]}, "duplicate sectors entry"),
    ({"splits": [1, 2, 1]}, "duplicate splits entry"),
    ({"chain": {"M": 3, "c": [float("nan"), 0.0]}}, "coupling c must be finite"),
    ({"chain": {"M": 3, "c": [0.0, float("inf")]}}, "coupling c must be finite"),
    ({"chain": {"M": 3, "c": [0.0, 0.0]}}, "coupling c must be nonzero"),
    ({"chain": {"M": 3, "xi": [[0.1, 0.0], [float("inf"), 0.0], [0.3, 0.0]]}},
     "inhomogeneities must be finite"),
    ({"chain": {"M": 3, "c": [1e-300, 0.0], "xi": [[1e10 * n, 0.0] for n in (1, 2, 3)]}},
     "inhomogeneities must be finite"),
], ids=["negative-seed", "sectors", "splits", "nan-c", "inf-c", "zero-c", "inf-xi",
        "overflowing-xi"])
def test_out_of_domain_fields_exit_2(tmp_path, capsys, fields, message):
    # a negative seed ended in numpy's ValueError, and repeated entries wrote
    # their rows twice under one identity; a NaN c or an infinite xi ended in
    # a LinAlgError.  The parser divides xi by c, so a finite xi whose ratio
    # to c overflows is refused there too
    cfg = default_scenario_dict(m=3, seed=1)
    cfg.update(fields)
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("fields, message", [
    ({"chain": {"M": True}}, "M must be an integer"),
    ({"sectors": [[True, False]]}, "sectors must be an integer"),
    ({"splits": [True]}, "splits must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"schema_version": True}, "unsupported schema_version"),
], ids=["M", "sectors", "splits", "seed", "schema_version"])
def test_json_booleans_are_not_integers(tmp_path, fields, message):
    # Python reads true and false as 1 and 0: "M": true ran M=1, and true
    # passed the schema_version check
    cfg = default_scenario_dict(m=3, seed=1)
    cfg.update(fields)
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out)


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, default_scenario_dict(m=2, seed=1))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--seed=-1", "--out", str(out)]) == 2
    assert "--seed must be an integer from 0 up" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_chain_fields_build_the_chain_spec():
    xi = [[0.1, 0.05], [0.35, -0.1], [0.7, 0.2]]
    cfg = default_scenario_dict(m=3, seed=1)
    cfg["chain"].update({"c": [0.8, 0.3], "xi": xi})
    # the chain holds xi in units of c
    assert Scenario.from_dict(cfg).chain == ChainSpec(
        M=3, xi=tuple(complex(*x) / (0.8 + 0.3j) for x in xi))
    # no xi: the spec's own default, which is in units of c too
    cfg["chain"]["xi"] = None
    assert Scenario.from_dict(cfg).chain == ChainSpec(M=3)
    # a missing key, M included, takes its value in the default scenario of the M
    for given, m in (({}, 4), ({"chain": {"M": 5}}, 5)):
        assert Scenario.from_dict(given) == Scenario.from_dict(default_scenario_dict(m))


def test_default_scenario_of_one_site_runs(tmp_path):
    # the defaults a missing key reads are ones the parser accepts at every M:
    # at M=1 the sectors with a <= 1 and split 1; from M=2 on, all six sectors
    # and splits 1..M-1
    assert Scenario.from_dict({"chain": {"M": 1}}).sectors == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert default_scenario_dict(2)["sectors"] == [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]]
    assert default_scenario_dict(5)["splits"] == [1, 2, 3, 4]
    cfg = write_config(tmp_path, {"chain": {"M": 1}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_twisted_chain_rejected(tmp_path):
    # the checks assume kappa = 1: theorem2 ended a twisted run in a traceback,
    # so the chain has no twist key and a kappa is refused at load
    cfg = default_scenario_dict(m=4, seed=1)
    cfg["chain"]["kappa"] = [[1.2, 0.0], [1.0, 0.0], [0.9, 0.1]]
    with pytest.raises(ScenarioError, match="unknown chain key"):
        Scenario.from_dict(cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out)


#: settings that held one value in every workload, each with that value and,
#: for the tolerances, the CLI flag that overrode it
_REMOVED_SETTINGS = [
    ("scenario", "tol_exact", 1e-8, "--tol-exact"),
    ("scenario", "tol_fd", 1e-5, "--tol-fd"),
    ("scenario", "fd_delta", 1e-5, None),
    ("scenario", "beta_magnitude", 1e-2, None),
    ("scenario", "rtt_pairs", 20, None),
    ("scenario", "rtt_sizes", [1, 2, 3, 4, 5], None),
    ("chain", "kappa", [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], None),
    ("chain", "vacuum_index", 1, None),
]


@pytest.mark.parametrize("where, key, value, flag", _REMOVED_SETTINGS,
                         ids=[key for _, key, _, _ in _REMOVED_SETTINGS])
def test_removed_settings_exit_2(tmp_path, capsys, where, key, value, flag):
    # the tolerances and steps belong to their checks, and the chain is
    # untwisted with vacuum e_1: even at its former default each key is unknown
    cfg = default_scenario_dict(m=3, seed=1)
    (cfg if where == "scenario" else cfg["chain"])[key] = value
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: unknown {where} key(s): {key!r}\n"
    if flag is not None:
        cfg = write_config(tmp_path, default_scenario_dict(m=3, seed=1), "default.json")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", cfg, flag, str(value), "--out", str(out)])
        assert exc.value.code == 2
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
    # four RTT pairs at each sub-chain size 1..5
    assert [r.identity for r in r1 if r.identity.startswith("rtt:M")] == [
        f"rtt:M{n}.{k}" for n in range(1, 6) for k in range(4)]


def test_cache_reuse_is_transparent(tmp_path, monkeypatch):
    # the spectral cache is gone: a run reads and writes nothing under the
    # directory GRADEDBETHE_CACHE names, and writes the bytes of a run without it
    cfg = default_scenario_dict(m=3, seed=6)
    _, r1 = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "a"))
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("GRADEDBETHE_CACHE", str(cache))
    _, r2 = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "b"))
    assert [r.to_line_dict() for r in r1] == [r.to_line_dict() for r in r2]
    assert os.listdir(cache) == []


def test_cache_alone_queues_no_leakage(tmp_path, monkeypatch):
    # only spectrum-match reads the unswept sectors' leakage: a run without
    # it computes none, with GRADEDBETHE_CACHE set or not
    from gradedbethe import cli

    queued = []
    original = cli._leakage

    def recorded(*args):
        queued.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_leakage", recorded)
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("GRADEDBETHE_CACHE", str(cache))
    path = write_config(tmp_path, default_scenario_dict(m=3, seed=1))
    assert main(["verify", "--config", path, "--check", "theorem1",
                 "--out", str(tmp_path / "out")]) == 0
    assert queued == []
    assert os.listdir(cache) == []


def test_empty_sector_list_sweeps_every_sector(tmp_path):
    from gradedbethe.chain import sector_indices

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
    from gradedbethe.cli import _CHECK_RUNNERS

    # the runner table is the one list of checks, in run order
    assert KNOWN_CHECKS == tuple(_CHECK_RUNNERS)


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
    n_plan = len(cli._theorem1_plan(cli._Workspace(scenario)))
    n_genfun = sum(r.identity.startswith("genfun-derivative") for r in reports)
    n_theorem1 = sum(r.identity.startswith("theorem1:") for r in reports)
    assert n_plan > 0 and n_genfun > 0
    assert n_theorem1 == n_plan * len(scenario.splits)
    assert len(calls) == n_plan + n_genfun


def test_proposition1_holds_no_twisted_spectrum():
    from gradedbethe import cli

    scenario = Scenario.from_dict(default_scenario_dict(m=5, seed=1))
    ws = cli._Workspace(scenario)
    # warm: the untwisted decomposition and its classification
    ws.classified()
    # the right and left vectors of one decomposition: 2 * 3^M states of 3^M
    # entries; measured 0.53x, and 10.2x when every twist diagonalized every sector
    one_decomposition = 2 * 9 ** scenario.chain.M * 16
    assert peak_bytes(lambda: cli._run_proposition1(ws)) < one_decomposition


def test_proposition1_diagonalizes_once_per_sector_and_twist(monkeypatch):
    from gradedbethe import cli, formfactors

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    ws = cli._Workspace(scenario)
    ws.classified()
    twists = []
    original = formfactors._decompose

    def counted(spec, *args, **kwargs):
        twists.append(spec.twist)
        return original(spec, *args, **kwargs)

    # the twisted duals diagonalize through spectrum._decompose, on reused entries
    monkeypatch.setattr(formfactors, "_decompose", counted)
    reports = cli._run_proposition1(ws)
    directions = sum(r.identity.startswith("genfun-derivative") for r in reports)
    # per direction: one twist for both proposition1 rows, two for the derivative
    assert directions == 3
    assert len(twists) == len(set(twists)) == 3 * directions


def test_twisted_duals_read_each_sectors_probe_entries_once(monkeypatch):
    from gradedbethe import chain, cli, formfactors

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    ws = cli._Workspace(scenario)
    ws.classified()
    formfactors._probe_diagonals.cache_clear()
    reads = []
    original = chain.monodromy_entries

    def counted(spec, u, pairs, *args, **kwargs):
        if tuple(pairs) == ((1, 1), (2, 2), (3, 3)):
            reads.append(tuple(kwargs["sectors"]))
        return original(spec, u, pairs, *args, **kwargs)

    for module in (chain, formfactors):
        monkeypatch.setattr(module, "monodromy_entries", counted)
    cli._run_proposition1(ws)
    # T_11, T_22 and T_33 do not depend on the twist: the nine twisted
    # diagonalizations read them once per sector at each default probe
    assert len(reads) == 5 * len(set(reads)) and len(set(reads)) <= 2


def test_rtt_and_vacuum_build_only_the_vacuum_groups(tmp_path, monkeypatch):
    from gradedbethe import cli

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    scenario.checks = ["rtt", "vacuum"]
    built = record_builds(monkeypatch, cli._Workspace(scenario).swept)
    code, _ = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    # with no spectral check requested the spectrum is never diagonalized, and
    # the rtt rows and the zero-mode limit act on probe columns: the only
    # runs built are the vacuum's three, (vacuum, j), for the vacuum rows on
    # the full chain and its split ranges
    assert set(built["other"]) == {((0, 0), j) for j in (1, 2, 3)}
    assert not built["swept"] and not built["rest"]


def test_full_chain_job_rows_build_no_group(tmp_path, monkeypatch):
    # the rtt pairs, tm1_residual and the unswept sectors' figure act on the
    # probe columns: they build no aux (x) H group and diagonalize nothing
    from gradedbethe import chain, cli, spectrum

    scenario = Scenario.from_dict(default_scenario_dict(m=4, seed=1))
    scenario.checks = ["rtt", "spectrum-match"]
    ws = cli._Workspace(scenario)
    built = record_builds(monkeypatch, ws.swept)
    inside = []

    def counting(fn):
        def counted(*args):
            before = sum(map(len, built.values()))
            result = fn(*args)
            inside.append(sum(map(len, built.values())) - before)
            return result
        return counted

    def forbidden(*args, **kwargs):
        raise AssertionError("a full-chain job row built a group or diagonalized")

    monkeypatch.setitem(cli._CHECK_RUNNERS, "rtt", counting(cli._run_rtt))
    monkeypatch.setattr(cli, "_leakage", counting(cli._leakage))
    code, reports = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    verdicts = {r.identity: r.verdict for r in reports}
    assert verdicts["rtt:tm1-1223"] == verdicts["spectrum:consistency"] == "pass"
    # the swept pass is the run's one read of column runs; the rtt rows and
    # the unswept figure build none
    assert inside == [0, 0] and not built["rest"] and built["swept"]
    # called directly, with every group builder and eigensolve forbidden
    for module, name in ((chain, "_group_product"), (cli, "diagonalize_transfer"),
                         (spectrum, "diagonalize_transfer")):
        monkeypatch.setattr(module, name, forbidden)
    assert cli._leakage(ws.spec, ws.rest) < 1e-9
    assert chain.tm1_residual(ws.spec, 1.3 + 2.1j, -2.2 + 0.7j, (1, 2, 2, 3)) < 1e-10


@pytest.mark.parametrize("check", KNOWN_CHECKS)
def test_only_spectral_checks_read_the_decomposition(tmp_path, monkeypatch, check):
    # the spectral checks read the decomposition of the swept sectors, and
    # no other check does any spectral work
    from gradedbethe import cli

    calls = []
    original = cli._Workspace.decomposition

    def counted(self):
        calls.append(check)
        return original(self)

    monkeypatch.setattr(cli._Workspace, "decomposition", counted)
    scenario = Scenario.from_dict(default_scenario_dict(m=3, seed=1))
    scenario.checks = [check]
    code, _ = run_scenario(scenario, str(tmp_path / "out"))
    assert code == 0
    assert bool(calls) == (check in ("spectrum-match", "theorem1", "theorem2", "proposition1",
                                     "ladder"))


def test_empty_split_list_rejected(tmp_path):
    cfg = default_scenario_dict(m=4, seed=1)
    cfg["splits"] = []
    with pytest.raises(ScenarioError, match="empty split list"):
        Scenario.from_dict(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--check", "theorem2", "--out", str(out)]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("pairs, per_size", [(23, [0, 23, 0, 0, 0]), (20, [4, 4, 4, 4, 4])])
def test_rtt_runs_the_configured_number_of_pairs(tmp_path, monkeypatch, pairs, per_size):
    # the rtt rows run _RTT_PAIRS_PER_SIZE pairs at each size in _RTT_SIZES,
    # numbered from 0 at each size, and one entry-level row after them
    from gradedbethe import cli
    sizes = tuple(m for m, n in zip(range(1, 6), per_size) if n)
    monkeypatch.setattr(cli, "_RTT_SIZES", sizes)
    monkeypatch.setattr(cli, "_RTT_PAIRS_PER_SIZE", pairs // len(sizes))
    cfg = {"chain": {"M": 2}, "checks": ["rtt"], "splits": [1]}
    code, reports = run_scenario(Scenario.from_dict(cfg), str(tmp_path / "out"))
    names = [r.identity for r in reports if r.identity.startswith("rtt:M")]
    assert code == 0 and len(names) == pairs
    assert [sum(n.startswith(f"rtt:M{m}.") for n in names) for m in range(1, 6)] == per_size
    assert names == [f"rtt:M{m}.{k}" for m in sizes for k in range(pairs // len(sizes))]
    assert [r.identity for r in reports if r.identity.startswith("rtt:")][-1] == "rtt:tm1-1223"


def test_theorem1_retains_no_zero_mode_blocks():
    import tracemalloc

    from gradedbethe import cli

    scenario = Scenario.from_dict(default_scenario_dict(m=5, seed=1))
    ws = cli._Workspace(scenario)
    ws.classified()
    # every content-group block of one aux (x) H operator
    group_set = 16 * sum(ix.size ** 2 for ix in content_partition(scenario.chain.M + 1)[0])
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

    scenario = Scenario.from_dict(default_scenario_dict(m=5, seed=1))
    ws = cli._Workspace(scenario)
    group_set = 16 * sum(ix.size ** 2 for ix in content_partition(scenario.chain.M + 1)[0])
    cli._run_vacuum(ws)  # warm the partition, plan and letter caches
    reports = []
    # measured 0.18x, the limit on the probe columns; comparing it on every
    # aux (x) H group in turn made it 0.83x, and on the whole group set 2.12x
    assert peak_bytes(lambda: reports.extend(cli._run_vacuum(ws))) < 0.25 * group_set
    assert [r.identity for r in reports][-1] == "vacuum:zero-mode-limit"
    assert all(r.verdict == "pass" for r in reports)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_zero_mode_limit_on_columns_and_on_groups(m):
    # the row compares the letter rule with the large-u limit on the probe
    # columns; the group form it replaced compares them on every aux (x) H
    # group, and both stay under the row's tolerance
    from gradedbethe import chain, cli

    scenario = Scenario.from_dict(default_scenario_dict(m=m, seed=1))
    spec = scenario.chain
    row = cli._run_vacuum(cli._Workspace(scenario))[-1]
    assert row.identity == "vacuum:zero-mode-limit" and row.tolerance == 1e-5
    assert row.rel_residual < 1e-5 and zero_mode_limit_by_groups(spec) < 1e-5
    # the letter rule on columns is zero_mode_entry's blocks applied to them
    y = chain._probe_columns(3 ** m)
    index, _ = chain._block_map(m)
    every = all_sectors(spec)
    for i, j in itertools.product((1, 2, 3), repeat=2):
        expect = np.zeros(y.shape, dtype=complex)
        for s, (image, blk) in chain.zero_mode_entry(spec, i, j, sectors=every).items():
            expect[index[image]] += blk @ y[index[s]]
        assert np.array_equal(chain._zero_mode_apply(spec, i, j, y), expect)


def test_pole_at_probe_point_is_a_runtime_error(tmp_path, capsys):
    cfg = default_scenario_dict(m=3, seed=1)
    # xi_1 on the first default probe point at c = 1
    cfg["chain"]["xi"] = [[1.7, 0.41], [0.2, 0.0], [0.3, 0.0]]
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err
    assert not os.path.exists(out / "reports.jsonl")


@pytest.mark.parametrize("c", [1e300, 1e-308], ids=["huge-c", "vanishing-c"])
def test_bethe_solver_failure_is_a_runtime_error(tmp_path, capsys, monkeypatch, c):
    # a Newton solve that fails at theorem2's twist raises a BetheSolverError,
    # which once ended in a traceback; the untwisted solves of the spectrum
    # classification run as they do. Both extreme couplings now run to the end
    # (test_default_scenario_runs_at_extreme_couplings), so the failure is
    # forced here, and its report must stay one line at either scale
    newton = bethe._newton

    def fails_when_twisted(u, v, spec, tol):
        if not spec.twist.is_identity:
            raise bethe.BetheSolverError("Newton damping failed (root collision or pole)")
        return newton(u, v, spec, tol)

    monkeypatch.setattr(bethe, "_newton", fails_when_twisted)
    cfg = default_scenario_dict(m=3, seed=1)
    cfg["chain"]["c"] = [c, 0.0]
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def unit_coupling_reports(tmp_path_factory):
    """The reports.jsonl bytes of the default M=3 scenario, seed 1, at c = 1."""
    tmp_path = tmp_path_factory.mktemp("unit")
    cfg = write_config(tmp_path, default_scenario_dict(m=3, seed=1))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return (tmp_path / "out" / "reports.jsonl").read_bytes()


@pytest.mark.parametrize("c", [1e150, 1e-150, 1e200, 1e300, 1e303, 1e-308, 5e-324, 0.8 + 0.3j])
def test_default_scenario_runs_at_extreme_couplings(tmp_path, unit_coupling_reports, c):
    # c is the unit of the spectral plane: the parser divides xi by it and no
    # kernel reads it, so with the default xi, in units of c, every coupling
    # writes the bytes of the c = 1 run
    cfg = default_scenario_dict(m=3, seed=1)
    cfg["chain"]["c"] = [complex(c).real, complex(c).imag]
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert len((out / "reports.jsonl").read_text().splitlines()) == 106
    assert (out / "reports.jsonl").read_bytes() == unit_coupling_reports


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
    env = dict(os.environ)
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


def test_verify_forks_nothing(tmp_path):
    # every check runs in the one process, also where BLAS on one thread and
    # a second CPU would once have let it fork: run the M=4 default scenario
    # in a fresh interpreter whose os.fork raises
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a fork was only ever possible with a second CPU")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cfg = write_config(tmp_path, default_scenario_dict(m=4, seed=1))
    code = ("import os, sys\n"
            "def forbidden():\n"
            "    raise AssertionError('verify forked')\n"
            "os.fork = forbidden\n"
            "from gradedbethe.cli import main\n"
            f"sys.exit(main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr


def test_rtt_worker_reaped_when_a_later_check_raises(tmp_path, monkeypatch):
    # a check that raises ends the run there: the exception reaches the
    # caller, no report is written, and no process is left, as none forks
    from gradedbethe import cli

    def broken(ws):
        raise RuntimeError("ladder broke")

    def forbidden():
        raise AssertionError("verify forked")

    monkeypatch.setitem(cli._CHECK_RUNNERS, "ladder", broken)
    monkeypatch.setattr(os, "fork", forbidden)
    scenario = Scenario.from_dict(default_scenario_dict(m=3, seed=1))
    scenario.checks = ["ybe", "rtt", "vacuum", "ladder"]
    with pytest.raises(RuntimeError, match="ladder broke"):
        run_scenario(scenario, str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("message", ["u meets a pole"], ids=["pole"])
def test_rtt_worker_failure_exits_2(tmp_path, capsys, monkeypatch, message):
    # a PoleError from an rtt pair ends the run at rtt's place with exit 2,
    # one stderr line and no report directory
    from gradedbethe import cli

    def pole(*args):
        raise cli.PoleError(message)

    monkeypatch.setattr(cli, "verify_rtt", pole)
    cfg = write_config(tmp_path, default_scenario_dict(m=3, seed=1))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("check", ["spectrum-match"])
def test_single_check_writes_the_in_process_bytes(tmp_path, check):
    # spectrum-match draws no random point, so alone it writes the bytes of
    # its rows in the full run; its first row covers every sector, the max of
    # the swept sectors' leakage and the unswept sectors' commutator figure
    from gradedbethe import cli

    cfg = write_config(tmp_path, default_scenario_dict(m=4, seed=1))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    assert main(["verify", "--config", cfg, "--check", check,
                 "--out", str(tmp_path / "alone")]) == 0
    alone = (tmp_path / "alone" / "reports.jsonl").read_text().splitlines()
    full = (tmp_path / "full" / "reports.jsonl").read_text().splitlines()
    assert alone == [line for line in full if json.loads(line)["identity"].startswith(
        ("spectrum:", "spectrum-match:"))]
    first = json.loads(alone[0])
    ws = cli._Workspace(Scenario.from_dict(default_scenario_dict(m=4, seed=1)))
    swept = cli.diagonalize_transfer(ws.spec, sectors=ws.swept).consistency
    assert first["identity"] == "spectrum:consistency"
    assert first["lhs"] == [max(swept, cli._leakage(ws.spec, ws.rest)), 0.0]
