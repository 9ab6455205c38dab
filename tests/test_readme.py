"""The README's worked example runs against the package as it stands."""

import contextlib
import io
import re
from pathlib import Path

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
