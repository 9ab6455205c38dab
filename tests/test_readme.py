"""The README's worked example runs, and its scenarios load, against the package as it stands."""

import contextlib
import io
import json
import re
from pathlib import Path

from gradedbethe.cli import Scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    out = io.StringIO()
    for block in blocks:
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
    # the example prints the kinds of the (1,0) states and a theorem1 verdict
    assert "['primitive', 'primitive', 'primitive', 'descendant']" in out.getvalue()
    assert out.getvalue().splitlines()[-1].startswith("pass ")


def test_readme_json_scenarios_load():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        Scenario.from_dict(json.loads(block))
