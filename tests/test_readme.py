import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_prints_a_small_mismatch():
    """The README's python block runs as printed, and the path mismatch it
    prints is the O(h^2) quadrature disagreement."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    mismatch = float(out.getvalue().split()[-1])
    assert math.isfinite(mismatch) and mismatch < 1e-6
