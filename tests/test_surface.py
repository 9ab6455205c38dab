"""The package's public surface: its defaulted parameters, the scenario's settable keys and
the CLI's options, and what the benchmark tracer wraps."""

import argparse
import ast
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from gradedbethe import chain, cli
from gradedbethe.chain import ChainSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradedbethe"

#: every parameter with a default in src/, as module.[Class.]function.parameter;
#: each one is a second configuration of its function, so a new one is a visible edit here
ALLOWED_DEFAULTS = {
    "chain.monodromy_entries.sites",
    "chain.zero_mode_entry.sites",
    "chain.ChainSpec.lam.sites",
    "chain.ChainSpec.r.sites",
    "chain.ChainSpec.lam_zero_mode.sites",
    "cli._Workspace.states.kind",
    # entry points used by CI and benchmarks/child.py
    "cli.default_scenario_dict.m",
    "cli.default_scenario_dict.seed",
    "cli.main.argv",
    "formfactors.make_report.sectors",
    "formfactors.make_report.m",
    "formfactors.make_report.floor",
    "formfactors.make_report.residual",
    "formfactors.make_report.skipped",
    "formfactors._pair_floor.rel",
    # CI's census step reads every sector through it
    "spectrum.classify_spectrum.sectors",
}


def defaulted_parameters(path: Path) -> set[str]:
    """module.[Class.]function.parameter for every parameter with a default in one module."""
    found = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
                found.update(f"{name}.{a.arg}" for a in with_default)
                walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return found


def test_defaulted_parameters_are_the_allowlisted_ones():
    found = set().union(*(defaulted_parameters(p) for p in PACKAGE.glob("*.py")))
    assert found == ALLOWED_DEFAULTS


def test_scenario_keys_and_cli_options_are_the_pinned_ones():
    # every value a run may set, so a new knob is a visible edit here
    assert {f.name for f in fields(cli.Scenario)} | {"schema_version"} == {
        "schema_version", "seed", "sectors", "splits", "checks", "chain"}
    assert set(cli._CHAIN_KEYS) == {"M", "c", "xi"}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    verify = subparsers.choices["verify"]
    assert {s for a in verify._actions for s in a.option_strings} == {
        "-h", "--help", "--config", "--check", "--out", "--seed"}


def test_only_the_parser_reads_the_coupling():
    # c is the unit of the spectral plane: the chain holds xi in units of c,
    # and the scenario parser reads c from its chain.c key, never as an attribute
    assert {f.name for f in fields(ChainSpec)} == {"M", "xi", "twist"}
    reads = {p.name for p in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "c"}
    assert reads == set()


_TRACED_RUN = """
import json, sys, tracemalloc
from gradedbethe import cli
from layers import OBSERVERS, derive
from tracer import LAYERS, Tracer, load_spans, tree_problems

spans_path, out = sys.argv[1], sys.argv[2]
# as benchmarks/child.py does: the scenario is built before the tracer is installed
scenario = cli.Scenario.from_dict(cli.default_scenario_dict(3, 1))
tracer = Tracer(run_id=0)
installed = tracer.install("gradedbethe", OBSERVERS)
tracemalloc.start(1)
_, reports = cli.run_scenario(scenario, out)
tracemalloc.stop()
tracer.dump(spans_path)
spans = load_spans(spans_path)
rows = [[r.identity, r.m, [list(s) for s in r.sectors], r.verdict, float(r.rel_residual),
         float(r.tolerance)] for r in reports]
derive([(spans, rows)])
print(json.dumps({"installed": installed, "layers": list(LAYERS),
                  "checks": list(cli.KNOWN_CHECKS), "problems": tree_problems(spans)}))
"""


def test_tracer_wraps_the_public_surface(tmp_path):
    # the benchmark's traced pass, at M=3 in a fresh interpreter (install
    # rebinds the package's names): the tracer finds every layer, the
    # GradedMatrix constructor and every check runner, the spans form one
    # tree, and the per-layer metrics derive from them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "benchmarks"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path / "spans.json"),
                          str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["problems"] == []
    assert {name.split(".")[0] for name in got["installed"]} == set(got["layers"])
    expected = {"graded.GradedMatrix"} | {f"cli.check.{check}" for check in got["checks"]}
    assert expected <= set(got["installed"])


def identifiers(path: Path) -> set[str]:
    """Every name a module binds, reads, imports or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
    return found


def test_only_chain_knows_a_letter_content():
    # outside chain a weight sector is named by (a, b) alone: no module lists
    # a sector's states or converts a sector to its letter content, and no
    # module of src/ partitions the index grid (tests/oracles.py keeps that
    # partition as the reference)
    content_names = {"_content", "_sector_rows"}
    named = {(p.name, n) for p in PACKAGE.glob("*.py") if p.name != "chain.py"
             for n in identifiers(p) & content_names}
    assert named == set()
    assert "_sector_rows" in identifiers(PACKAGE / "chain.py")
    grid_tables = {(p.name, n) for p in PACKAGE.glob("*.py")
                   for n in identifiers(p) & {"_content_partition", "g2l"}}
    assert grid_tables == set()


def test_chain_partitions_h_alone():
    # chain lists each H sector (a, b) from its magnon positions, in the block
    # map alone, and has no per-group restriction of a whole-space plan; the
    # vector path's whole-grid plans are axis swaps: a view shape and a flip
    # mask over the digits x..y, and no index array
    tree = ast.parse((PACKAGE / "chain.py").read_text(encoding="utf-8"))
    listed = [[ast.unparse(arg) for arg in node.args] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sector_rows"]
    assert listed == [["m_sites", "a", "b"]]
    assert not identifiers(PACKAGE / "chain.py") & {"_step_plan", "_l_steps"}
    for n_factors in range(2, 7):
        for x, y in itertools.combinations(range(n_factors), 2):
            shape, flipped = chain._gather(n_factors, x, y)
            assert all(type(d) is int for d in shape)
            assert flipped.dtype == bool and flipped.size == 3 ** (y - x + 1)


def test_chain_reads_only_the_grading_from_graded():
    # the graded swap is written once, in chain (_swap): chain imports the
    # grading alone, and outside graded and the package's exports no module
    # names a graded type or a second swap
    tree = ast.parse((PACKAGE / "chain.py").read_text(encoding="utf-8"))
    imports = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "graded"
               for alias in node.names}
    assert imports == {"FUNDAMENTAL_PARITIES"}
    graded_names = {"GradedSpace", "GradedMatrix", "SignedPermutation", "permutation_between"}
    named = {(p.name, n) for p in PACKAGE.glob("*.py")
             if p.name not in ("__init__.py", "graded.py")
             for n in identifiers(p) & graded_names}
    assert named == set()
