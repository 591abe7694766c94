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


def test_console_blocks_print_what_the_cli_prints():
    """Each `$ spinsurf ...` line in the README's console blocks prints the
    lines that follow it."""
    from spinsurf.cli import main

    blocks = re.findall(r"```console\n(.*?)```", README.read_text(), re.S)
    runs = [run for block in blocks for run in block.split("$ ")[1:]]
    assert runs
    for run in runs:
        command, *want = run.splitlines()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command.split()[1:]) == 0, command
        assert out.getvalue().splitlines() == want, command
