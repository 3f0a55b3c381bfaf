"""README's library quick start runs against the imported package and
prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # Two exact predictions: each key alone in its rank's six slots, at the
    # first one, 6 * (rank - 1) + 1, and nothing relabeled.
    assert out.getvalue() == "0.0\n[(1230000000, 1, 733), (5000000000, 0, 2995)]\n"
