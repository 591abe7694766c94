import contextlib
import io
import math
import re
import sys
from pathlib import Path

import pytest

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


def _exit_code_rows():
    """README's exit-code table: exit code -> the names in backticks on its row."""
    rows = re.findall(r"^\| (\d+) \| (.*) \|$", README.read_text(), re.M)
    return {int(code): set(re.findall(r"`(\w+)`", names)) for code, names in rows}


def test_exit_code_table_lists_every_error_class():
    from spinsurf import errors

    rows = _exit_code_rows()
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert len(classes) > 10
    for cls in classes:
        assert cls.__name__ in rows[cls.exit_code], cls.__name__


@pytest.mark.parametrize("builtin", [ValueError, OSError, OverflowError, MemoryError,
                                     BrokenPipeError])
def test_exit_code_table_lists_every_builtin_the_cli_maps(monkeypatch, capsys, tmp_path,
                                                          builtin):
    """Each builtin exception that `cli.main` maps is on the row of the exit
    code that main returns for it. A closed stdout (BrokenPipeError) prints
    nothing, and main points the stdout descriptor at devnull: here that of
    a file standing in for stdout."""
    from spinsurf import cli

    def fail(cfg):
        raise builtin("raised inside a command")

    monkeypatch.setitem(cli._DISPATCH, "catalog", fail)
    with open(tmp_path / "stdout", "w") as stdout, monkeypatch.context() as m:
        m.setattr(sys, "stdout", stdout)
        code = cli.main(["catalog", "list"])
    err = capsys.readouterr().err
    if builtin is BrokenPipeError:
        assert err == ""
    else:
        assert err.endswith(": raised inside a command\n")
    assert builtin.__name__ in _exit_code_rows()[code]
