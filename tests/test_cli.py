import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsurf import ConfigError, Grid, constant_field, fileio, synth
from spinsurf.cli import main, parse_config
from spinsurf import (ResidualReport, ScalarField, VecField, catalog_lookup,
                      classical_coeffs, evolution_model)
from spinsurf.magnetoelastic import _REGISTRY, FAMILIES


def write_spin(path, grid, seed=0):
    S = synth.smooth_spin(grid, seed=seed)
    fileio.write_field(path, S)
    return S


class TestParseConfig:
    def test_simulate_flags(self):
        cfg = parse_config(["simulate", "--model", "hf", "--nx", "128",
                            "--dx", "0.1", "--dt", "0.0005",
                            "--steps", "1000"])
        assert cfg.command == "simulate"
        assert cfg.get("nx") == 128 and cfg.get("dt") == 0.0005
        assert cfg.get("steps") == 1000

    def test_bad_real_value(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("dt = fast\n")
        with pytest.raises(ConfigError, match="dt"):
            parse_config(["simulate", "--config", str(cfg_file)])

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("warp = 9\n")
        with pytest.raises(ConfigError, match="warp"):
            parse_config(["simulate", "--config", str(cfg_file)])

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("dt = 0.5\nsteps = 3  # trailing comment\n")
        cfg = parse_config(["simulate", "--config", str(cfg_file),
                            "--dt", "0.25"])
        assert cfg.get("dt") == 0.25 and cfg.get("steps") == 3

    def test_params_collected(self):
        cfg = parse_config(["check", "--param", "a1=1.5", "--param", "b2=-1"])
        assert cfg.params == {"a1": 1.5, "b2": -1.0}

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_param_names_its_key(self, tmp_path, raw):
        with pytest.raises(ConfigError, match="'lam'"):
            parse_config(["check", "--param", f"lam={raw}"])
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"param.lam = {raw}\n")
        with pytest.raises(ConfigError, match="'param.lam'"):
            parse_config(["check", "--config", str(cfg_file)])


class TestExitCodes:
    def test_unknown_model_is_config_error(self, tmp_path):
        rc = main(["simulate", "--model", "m-foo", "--nx", "16", "--dx", "0.2",
                   "--boundary", "periodic", "--dt", "1e-3", "--steps", "1",
                   "--output", str(tmp_path)])
        assert rc == 2

    def test_missing_input_file_is_io_error(self, tmp_path):
        rc = main(["reconstruct", "--input", str(tmp_path / "nope.csv"),
                   "--output", str(tmp_path / "m.obj")])
        assert rc == 4

    def test_malformed_field_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a field\n")
        rc = main(["check", "--model", "hf", "--input", str(bad)])
        assert rc == 4

    def test_success_is_zero(self, tmp_path, capsys):
        rc = main(["catalog", "list"])
        assert rc == 0


def _simulate(tmp_path, *flags):
    return ["simulate", "--boundary", "periodic", "--steps", "1",
            "--output", str(tmp_path / "run"), *flags]


def _curve(tmp_path, edit):
    """zc argv on a valid 8x5 curve file whose lines went through edit."""
    x = np.linspace(0.0, 4.0, 8)
    X, T = np.meshgrid(x, np.linspace(0.0, 1.0, 5))
    path = tmp_path / "c.csv"
    fileio.write_curve(path, 1.0 + 0.3 * np.sin(X - T), 0.1 * np.cos(X + T),
                       x[1] - x[0], 0.25)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return ["zc", "--input", str(path), "--output", str(tmp_path / "z.json")]


def _check(tmp_path, old="", new=""):
    """check argv on a valid 8x6 spin field file with old -> new in its header."""
    path = tmp_path / "S.csv"
    write_spin(path, Grid(8, 6, 0.25, 0.25, "clamped"), seed=3)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(old, new)
    path.write_text("\n".join(lines) + "\n")
    return ["check", "--model", "hf", "--input", str(path),
            "--output", str(tmp_path / "r.json")]


def _flat_normals(tmp_path):
    path = tmp_path / "flat.csv"
    fileio.write_field(path, constant_field(Grid(8, 3, 0.25, 0.25, "clamped"),
                                            (0.0, 0.0, 1.0)))
    return ["reconstruct", "--input", str(path), "--normals", "true",
            "--output", str(tmp_path / "m.obj")]


def _spin(tmp_path):
    """Path of a valid 8x6 spin field file."""
    path = tmp_path / "S.csv"
    write_spin(path, Grid(8, 6, 0.25, 0.25, "clamped"), seed=3)
    return str(path)


def _check_phi(tmp_path, model, phi_grid, *flags):
    """check argv for model on the valid 8x6 spin field file (dx = dy = 0.25)
    with a potential file on phi_grid."""
    path = tmp_path / "phi.csv"
    fileio.write_field(path, synth.smooth_scalar(phi_grid, seed=4))
    return ["check", "--model", model, "--input", _spin(tmp_path), "--phi", str(path),
            "--output", str(tmp_path / "r.json"), *flags]


PHI_GRID = Grid(8, 6, 0.25, 0.25, "clamped")


def _initial(tmp_path, *flags):
    """simulate argv on a valid 1-D spin field file (nx=16, dx=0.1, periodic)."""
    path = tmp_path / "s1d.csv"
    write_spin(path, Grid(16, 1, 0.1, 1.0, "periodic"), seed=2)
    return ["simulate", "--model", "hf", "--initial", str(path), "--dt", "1e-4",
            "--steps", "1", "--output", str(tmp_path / "run"), *flags]


def _external_u(tmp_path, model, u):
    """simulate argv on a 16-node 1-D grid with u written as --external-u."""
    path = tmp_path / "u.csv"
    fileio.write_field(path, u(Grid(16, 1, 0.2, 1.0, "periodic")))
    return _simulate(tmp_path, "--model", model, "--nx", "16", "--dx", "0.2",
                     "--dt", "1e-5", "--external-u", str(path))


def _field_file(tmp_path, name, field):
    """Path of a file holding field."""
    fileio.write_field(tmp_path / name, field)
    return str(tmp_path / name)


def _huge_curve(lines):
    """Curve rows with k = tau = 1e200, whose NLSE residual overflows."""
    return lines[:2] + [",".join(ln.split(",")[:2] + ["1e200", "1e200"])
                        for ln in lines[2:]]


def _replace_field(lines, row, col, token):
    parts = lines[row].split(",")
    parts[col] = token
    lines[row] = ",".join(parts)
    return lines


def _config(tmp_path, text):
    """simulate argv reading the config file text."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return ["simulate", "--config", str(path)]


# (id, expected exit code, tmp_path -> argv)
FAILURES = [
    ("dt-above-stability-bound", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "64", "--dx", "0.1", "--dt", "1.0")),
    ("grid-too-small-for-stencil", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "2", "--dx", "0.1", "--dt", "1e-4")),
    ("lle-on-1d-grid", 2, lambda d: _simulate(
        d, "--model", "lle", "--nx", "16", "--dx", "0.2", "--dt", "1e-4")),
    ("mxiii-with-ny-1", 2, lambda d: _simulate(
        d, "--model", "mxiii", "--nx", "16", "--ny", "1", "--dx", "0.2",
        "--dt", "1e-4")),
    ("normals-of-flat-surface", 3, _flat_normals),
    ("curve-row-index-99", 4, lambda d: _curve(
        d, lambda ls: _replace_field(ls, 3, 0, "99"))),
    ("curve-non-numeric-value", 4, lambda d: _curve(
        d, lambda ls: _replace_field(ls, 4, 2, "abc"))),
    ("curve-nan-value", 4, lambda d: _curve(
        d, lambda ls: _replace_field(ls, 4, 3, "nan"))),
    ("curve-duplicated-row", 4, lambda d: _curve(
        d, lambda ls: ls[:3] + [ls[2]] + ls[4:])),
    ("curve-one-line", 4, lambda d: _curve(d, lambda ls: ls[:1])),
    ("curve-header-item-without-equals", 4, lambda d: _curve(
        d, lambda ls: [ls[0], ls[1] + " junk"] + ls[2:])),
    ("field-header-nx-1", 4, lambda d: _check(d, "nx=8", "nx=1")),
    ("field-header-negative-dx", 4, lambda d: _check(d, "dx=0.25", "dx=-0.1")),
    ("param-named-self", 2, lambda d: _simulate(
        d, "--model", "m-xxxiv", "--nx", "16", "--dx", "0.2", "--dt", "1e-5",
        "--param", "self=1")),
    ("zc-non-finite-residual", 3, lambda d: _curve(d, _huge_curve)),
    ("dt-safety-nan", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.2", "--dt", "1e-4",
        "--dt-safety", "nan")),
    ("param-nan", 2, lambda d: _simulate(
        d, "--model", "mxiiib", "--nx", "16", "--ny", "16", "--dx", "0.2",
        "--dy", "0.2", "--dt", "1e-4", "--param", "a1=nan")),
    ("reconstruct-overflowing-tangents", 3, lambda d: [
        "reconstruct", "--input", _spin(d), "--coeffs", "lelieuvre",
        "--param", "rho=1e308", "--output", str(d / "m.obj")]),
    ("check-overflowing-residual", 3, lambda d: [
        "check", "--model", "mxiii", "--input", _spin(d), "--param", "a1=1e308",
        "--param", "a2=1e308", "--output", str(d / "r.json")]),
    ("initial-conflicting-dx", 2, lambda d: _initial(d, "--dx", "0.5")),
    ("initial-conflicting-dy", 2, lambda d: _initial(d, "--dy", "0.5")),
    ("initial-conflicting-ny", 2, lambda d: _initial(d, "--ny", "5")),
    ("initial-conflicting-boundary", 2, lambda d: _initial(d, "--boundary", "clamped")),
    ("external-u-vector-field", 2, lambda d: _external_u(
        d, "m-lvii", lambda g: synth.smooth_spin(g, seed=1))),
    ("external-u-for-hf", 2, lambda d: _external_u(
        d, "hf", lambda g: constant_field(g, 0.5))),
    ("param-not-read-by-catalog-model", 2, lambda d: _simulate(
        d, "--model", "m-xxxiv", "--nx", "16", "--dx", "0.2", "--dt", "1e-5",
        "--param", "mu=5")),
    ("check-param-not-read", 2, lambda d: _check_phi(
        d, "mxiiib", PHI_GRID, "--param", "a5=3")),
    ("check-phi-for-hf", 2, lambda d: _check_phi(d, "hf", PHI_GRID)),
    ("kdv-dt-above-h3-bound", 2, lambda d: _simulate(
        d, "--model", "m-xlix", "--nx", "128", "--dx", "0.1", "--dt", "0.002",
        "--steps", "100")),
    ("check-phi-other-nx", 2, lambda d: _check_phi(
        d, "ishimori", Grid(10, 6, 0.25, 0.25, "clamped"), "--param", "alpha=1")),
    ("check-phi-other-spacing", 2, lambda d: _check_phi(
        d, "ishimori", Grid(8, 6, 0.5, 0.5, "clamped"), "--param", "alpha=1")),
    ("check-ishimori-overflowing-alpha", 3, lambda d: _check_phi(
        d, "ishimori", PHI_GRID, "--param", "alpha=1e200")),
    ("catalog-density-zero", 2, lambda d: _simulate(
        d, "--model", "m-lii", "--nx", "32", "--dx", "0.2", "--dt", "1e-3",
        "--steps", "3", "--param", "rho=0")),
    ("catalog-density-negative", 2, lambda d: _simulate(
        d, "--model", "m-lii", "--nx", "32", "--dx", "0.2", "--dt", "1e-3",
        "--steps", "3", "--param", "rho=-1")),
    ("initial-with-seed", 2, lambda d: _initial(d, "--seed", "7")),
    ("catalog-list-with-name", 2, lambda d: ["catalog", "list", "m-xxxiv"]),
    ("simulate-stationary-ishimori", 2, lambda d: _simulate(
        d, "--model", "ishimori", "--nx", "16", "--ny", "16", "--dx", "0.2",
        "--dy", "0.2", "--dt", "1e-4", "--param", "alpha=1")),
    ("0-type-without-external-u", 2, lambda d: _simulate(
        d, "--model", "m-lvii", "--nx", "16", "--dx", "0.2", "--dt", "1e-5")),
    ("external-u-on-other-grid", 2, lambda d: _simulate(
        d, "--model", "m-lvii", "--nx", "16", "--dx", "0.2", "--dt", "1e-5",
        "--external-u", _field_file(d, "u.csv", constant_field(
            Grid(20, 1, 0.2, 1.0, "periodic"), 0.5)))),
    ("config-unreadable", 2, lambda d: ["simulate", "--config", str(d / "none.cfg")]),
    ("param-without-equals", 2, lambda d: ["check", "--param", "a1"]),
    ("input-not-a-spin-field", 2, lambda d: [
        "check", "--model", "hf", "--input", _field_file(d, "f.csv", constant_field(
            Grid(8, 6, 0.25, 0.25, "clamped"), 0.5))]),
    ("phi-not-a-scalar-field", 2, lambda d: [
        "check", "--model", "ishimori", "--input", _spin(d), "--param", "alpha=1",
        "--phi", _field_file(d, "phi.csv", synth.smooth_vec(PHI_GRID, seed=4))]),
    ("check-unknown-model", 2, lambda d: ["check", "--model", "heat", "--input", _spin(d)]),
    ("catalog-bad-action", 2, lambda d: ["catalog", "describe", "m-xxxiv"]),
    ("reconstruct-1d-field", 2, lambda d: [
        "reconstruct", "--output", str(d / "m.obj"), "--input",
        _field_file(d, "s1d.csv", synth.smooth_spin(Grid(16, 1, 0.1, 1.0), seed=2))]),
    ("steps-not-a-multiple-of-snapshot-every", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.1", "--dt", "1e-4",
        "--steps", "7", "--snapshot-every", "5")),
    ("missing-dt", 2, lambda d: _simulate(d, "--model", "hf", "--nx", "16", "--dx", "0.1")),
    ("renormalize-maybe", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.1", "--dt", "1e-4",
        "--renormalize", "maybe")),
    ("config-line-without-equals", 2, lambda d: _config(d, "model = hf\nnx 16\n")),
    ("catalog-model-on-2d-grid", 2, lambda d: _simulate(
        d, "--model", "m-lii", "--nx", "16", "--ny", "16", "--dx", "0.2", "--dy", "0.2",
        "--dt", "1e-4")),
    # h ** spatial_order in the step bound and nu0 ** 2 in the phonon flow would
    # overflow as Python floats; both are refused where they are formed
    ("step-bound-overflow", 3, lambda d: _simulate(
        d, "--model", "hf", "--nx", "64", "--dx", "1e200", "--dt", "0.002", "--steps", "2")),
    ("phonon-speed-overflow", 3, lambda d: _simulate(
        d, "--model", "m-lii", "--nx", "64", "--dx", "0.1", "--dt", "0.002", "--steps", "2",
        "--param", "nu0=1e200")),
    # argparse's own refusals, which print usage text unless the parser raises
    ("argparse-unknown-flag", 2, lambda d: ["simulate", "--bogus", "1"]),
    ("argparse-no-command", 2, lambda d: []),
    ("argparse-param-without-value", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.2", "--dt", "1e-4", "--param")),
    ("dt-zero", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.2", "--dt", "0")),
    ("steps-zero", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.2", "--dt", "1e-4", "--steps", "0")),
    ("snapshot-every-negative", 2, lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.2", "--dt", "1e-4",
        "--snapshot-every", "-1")),
]

# what the message of a failure in FAILURES names: its setting, or the way out
FAILURE_MESSAGES = {
    "initial-with-seed": "seed",
    "catalog-list-with-name": "m-xxxiv",
    "simulate-stationary-ishimori": "use check",
    "0-type-without-external-u": "needs an external displacement field u",
    "external-u-on-other-grid": "Grid(nx=20",
    "config-unreadable": "none.cfg",
    "param-without-equals": "'a1'",
    "input-not-a-spin-field": "f.csv does not hold a unit spin field",
    "phi-not-a-scalar-field": "phi.csv does not hold a scalar field",
    "check-unknown-model": "unknown stationary kind 'heat'",
    "catalog-bad-action": "'describe'",
    "reconstruct-1d-field": "surface reconstruction needs ny >= 2",
    "missing-dt": "missing required key 'dt'",
    "renormalize-maybe": "key 'renormalize' expects bool, got 'maybe'",
    "config-line-without-equals": "run.cfg:2: expected 'key = value'",
    "catalog-model-on-2d-grid": "magnetoelastic models need a 1-D grid",
    "argparse-unknown-flag": "unrecognized arguments: --bogus 1",
    "argparse-no-command": "the following arguments are required: command",
    "argparse-param-without-value": "argument --param: expected one argument",
    "dt-zero": "error: dt must be positive, got 0.0",
    "steps-zero": "error: steps must be positive, got 0",
    "snapshot-every-negative": "error: snapshot_every must be positive, got -1",
}


@pytest.mark.parametrize("expected, argv_of", [f[1:] for f in FAILURES],
                         ids=[f[0] for f in FAILURES])
def test_failure_exit_code_and_one_line(tmp_path, capsys, expected, argv_of):
    rc = main(argv_of(tmp_path))
    err = capsys.readouterr().err
    assert rc == expected
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(FAILURE_MESSAGES))
def test_failure_message_names_the_cause(tmp_path, capsys, name):
    argv_of = next(f[2] for f in FAILURES if f[0] == name)
    assert main(argv_of(tmp_path)) == 2
    assert FAILURE_MESSAGES[name] in capsys.readouterr().err


# what the exit-3 message of an overflow in FAILURES names: the setting and its value
OVERFLOW_MESSAGES = {"step-bound-overflow": "h = 1e+200, p = 2, dt_safety = 0.2",
                     "phonon-speed-overflow": "nu0 = 1e+200"}


@pytest.mark.parametrize("name", sorted(OVERFLOW_MESSAGES))
def test_overflow_message_names_the_setting(tmp_path, capsys, name):
    argv_of = next(f[2] for f in FAILURES if f[0] == name)
    assert main(argv_of(tmp_path)) == 3
    assert OVERFLOW_MESSAGES[name] in capsys.readouterr().err


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spinsurf simulate")


def test_kdv_bound_is_named_h3(tmp_path, capsys):
    # 100 steps: at the h^2 bound this run passed the check and blew up at step 16
    assert main(_simulate(tmp_path, "--model", "m-xlix", "--nx", "128", "--dx", "0.1",
                          "--dt", "0.002", "--steps", "100")) == 2
    assert "0.2 * h^3" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mxiii", "mxiiia", "mxiiib"])
def test_check_and_simulate_share_defaults(tmp_path, capsys, kind):
    """With no --param, check's vector residual is the right-hand side that
    simulate's model evaluates on the same field (mxiiia/b with the flow's
    own potential)."""
    g = Grid(12, 10, 0.25, 0.3, "clamped" if kind == "mxiiia" else "periodic")
    spin = tmp_path / "S.csv"
    write_spin(spin, g, seed=5)
    s = fileio.read_field(spin).values
    model = evolution_model(kind, g)
    argv = ["check", "--model", kind, "--input", str(spin),
            "--output", str(tmp_path / "r.json")]
    extra, _ = model.monitor({"S": s})
    if "phi" in extra:
        fileio.write_field(tmp_path / "phi.csv", extra["phi"])
        argv += ["--phi", str(tmp_path / "phi.csv")]
    assert main(argv) == 0
    got = json.loads((tmp_path / "r.json").read_text())["vector_residual"]
    k = {"S": np.empty_like(s)}
    model.rhs({"S": s}, k)
    want = ResidualReport(VecField(g, k["S"]),
                          ScalarField(g, np.zeros((g.ny, g.nx))))
    assert want.vector_max > 0.0
    assert (got["max"], got["l2"]) == (want.vector_max, want.vector_l2)


def test_overflow_is_one_line_without_warnings(tmp_path, capsys):
    # numpy's floating-point warnings would add lines to stderr
    argv = _simulate(tmp_path, "--model", "hf", "--nx", "16", "--dx", "0.2",
                     "--dt", "inf", "--allow-unstable-dt", "true")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    assert len(capsys.readouterr().err.splitlines()) == 1


# each command and model refuses a --param name it does not read with the one
# line of fields.named_params: id -> (argv that runs as given, owner, names read)
UNREAD_PARAM = {
    "simulate": (lambda d: _simulate(
        d, "--model", "hf", "--nx", "16", "--dx", "0.2", "--dt", "1e-4"), "hf", []),
    "simulate-section-model": (lambda d: _simulate(
        d, "--model", "mxiii", "--nx", "16", "--ny", "16", "--dx", "0.2", "--dy", "0.2",
        "--dt", "1e-4"), "mxiii", ["a1", "a2", "b1", "b2", "a3", "a5", "b5"]),
    "simulate-catalog-model": (lambda d: _simulate(
        d, "--model", "m-lii", "--nx", "16", "--dx", "0.2", "--dt", "1e-4"),
        "M-LII", ["nu0", "rho", "lam"]),
    "reconstruct": (lambda d: ["reconstruct", "--input", _spin(d), "--output",
                               str(d / "m.obj")], "the hf tangent formula", []),
    "reconstruct-rodrigues": (lambda d: [
        "reconstruct", "--input", _spin(d), "--coeffs", "rodrigues", "--param", "rho1=1",
        "--param", "rho2=2", "--output", str(d / "m.obj")],
        "the rodrigues tangent formula", ["rho1", "rho2"]),
    "check": (_check, "hf", []),
    "zc": (lambda d: _curve(d, lambda ls: ls), "zc", []),
    "catalog": (lambda d: ["catalog", "list"], "catalog", []),
}


@pytest.mark.parametrize("command", UNREAD_PARAM)
def test_unused_param_is_config_error(tmp_path, capsys, command):
    argv_of, owner, reads = UNREAD_PARAM[command]
    argv = argv_of(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--param", "bogus=3"]) == 2
    assert capsys.readouterr().err == f"error: {owner} reads only {reads}, not ['bogus']\n"


def test_required_param_left_out_refused_by_one_contract(tmp_path, capsys):
    assert main(_check_phi(tmp_path, "ishimori", PHI_GRID)) == 2
    assert capsys.readouterr().err == "error: ishimori needs ['alpha']\n"
    with pytest.raises(ValueError, match=re.escape("the rodrigues tangent formula needs ['rho2']")):
        classical_coeffs("rodrigues", rho1=1.0)


@pytest.mark.parametrize("name", _REGISTRY)
def test_catalog_show_lists_the_families_constants(capsys, name):
    spec = catalog_lookup(name)
    assert main(["catalog", "show", name]) == 0
    rows = dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())
    if not spec.implemented:        # M-LXIX and M-V read nothing
        assert spec.params == {}
        assert "parameters" not in rows
        return
    reads = FAMILIES[spec.spin][0] + FAMILIES[spec.phonon][0]
    assert list(spec.params) == list(reads)
    assert rows["parameters"] == (", ".join(f"{c}=1" for c in reads) or "none")
    for c in {c for consts, _ in FAMILIES.values() for c in consts} - set(reads):
        with pytest.raises(KeyError):       # no default past the entry's own table
            spec.param(c)


# prints the top-level packages from site-packages that `import spinsurf.cli` loads
_SITE_IMPORTS = """
import sys, sysconfig
before = set(sys.modules)
import spinsurf.cli
site = (sysconfig.get_path("purelib"), sysconfig.get_path("platlib"))
files = {m: getattr(sys.modules[m], "__file__", None) or "" for m in set(sys.modules) - before}
print(*sorted({m.partition(".")[0] for m, f in files.items() if f.startswith(site)}))
"""


def test_cli_imports_no_third_party_package_but_numpy():
    # every CLI call pays for what importing the CLI loads
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _SITE_IMPORTS],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert set(out.split()) <= {"numpy", "spinsurf"}, out


# runs the CLI on its arguments under a 4 GiB address-space limit
_UNDER_4_GIB = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from spinsurf.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_and_prints_nothing(unbuffered):
    """A reader that closed stdout, as `spinsurf catalog list | head -0` does,
    is no failure of the run: the CLI exits 141, the status of a tool that
    SIGPIPE ended, with nothing on stderr, whether a print or the final flush
    meets the closed pipe. The read end is closed before the child starts,
    so the first write to stdout fails whatever the timing."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "spinsurf.cli", "catalog", "list"],
                             stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, "")


def test_out_of_memory_is_a_config_error(tmp_path):
    """10**15 nodes make an 8 PB first array, beyond any address space, so
    the run allocates nothing under any overcommit setting and exits 2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = _simulate(tmp_path, "--model", "hf", "--nx", str(10 ** 15), "--dx", "0.1",
                     "--dt", "1e-4")
    out = subprocess.run([sys.executable, "-c", _UNDER_4_GIB, *argv],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: a grid of nx = 1000000000000000 by ny = 1 nodes")
    assert "Unable to allocate" in out.stderr        # numpy's own text, kept
    assert len(out.stderr.splitlines()) == 1 and "Traceback" not in out.stderr


class TestCatalogCommand:
    def test_list_line_count_and_shape(self, capsys):
        main(["catalog", "list"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 33              # 27 registry entries + 6 named flows
        assert all(len(ln.split("\t")) == 5 for ln in lines)
        assert lines[0].startswith("M-LVII\tA\tnone\ts3\t")

    def test_show_implemented(self, capsys):
        assert main(["catalog", "show", "m-xxxiv"]) == 0
        out = capsys.readouterr().out
        assert "advection" in out and "trform" in out

    def test_show_unknown(self, capsys):
        assert main(["catalog", "show", "m-foo"]) == 2

    def test_show_unimplemented_prints_its_reason(self, capsys):
        assert main(["catalog", "show", "m-lxix"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[4:] == ["implemented: False", "reason: " + catalog_lookup("m-lxix").reason]

    def test_show_section_models(self, capsys):
        assert main(["catalog", "show", "ishimori"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "name: ishimori", "parameters: alpha (required)",
            "check needs --phi: True", "simulate steps it: False"]
        assert main(["catalog", "show", "MXIII"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "name: mxiii", "parameters: a1=0, a2=1, b1=0, b2=0, a3=0, a5=0, b5=0"]

    @pytest.mark.parametrize("kind", ["hf", "lle", "mxiii", "mxiiia", "mxiiib", "ishimori"])
    def test_show_agrees_with_simulate_and_check(self, tmp_path, capsys, kind):
        """What `catalog show` says of a section model is what simulate and
        check do with it."""
        assert main(["catalog", "show", kind]) == 0
        lines = dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())
        g = Grid(16, 16, 0.2, 0.2, "clamped")
        boundary = "clamped" if kind == "mxiiia" else "periodic"
        simulate = _simulate(tmp_path, "--model", kind, "--nx", "16", "--ny", "16",
                             "--dx", "0.2", "--dy", "0.2", "--boundary", boundary,
                             "--dt", "1e-4")
        simulate += ["--param", "alpha=1"] if kind == "ishimori" else []
        assert (main(simulate) == 0) == (lines["simulate steps it"] == "True")
        check = ["check", "--model", kind, "--input", _field_file(
                 tmp_path, "S.csv", synth.smooth_spin(g, seed=1)),
                 "--output", str(tmp_path / "r.json")]
        check += ["--param", "alpha=1"] if kind == "ishimori" else []
        needs_phi = main(check) != 0
        assert needs_phi == (lines["check needs --phi"] == "True")
        if needs_phi:
            phi = _field_file(tmp_path, "phi.csv", synth.smooth_scalar(g, seed=2))
            assert main(check + ["--phi", phi]) == 0


class TestEndToEnd:
    def test_check_writes_report(self, tmp_path, capsys):
        g = Grid(24, 24, 0.3, 0.3, "periodic")
        spin = tmp_path / "S.csv"
        write_spin(spin, g, seed=41)
        out = tmp_path / "rep.json"
        rc = main(["check", "--model", "lle", "--input", str(spin),
                   "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "lle"
        assert doc["vector_residual"]["max"] > 0.0

    def test_reconstruct_writes_mesh(self, tmp_path, capsys):
        g = Grid(16, 16, 0.25, 0.25, "clamped")
        spin = tmp_path / "S.csv"
        write_spin(spin, g, seed=42)
        obj = tmp_path / "m.obj"
        rc = main(["reconstruct", "--input", str(spin), "--coeffs", "hf",
                   "--output", str(obj), "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert obj.read_text().count("\nf ") == 15 * 15 - 1 + 1

    def test_simulate_snapshot_files(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc = main(["simulate", "--model", "hf", "--nx", "32", "--dx", "0.2",
                   "--boundary", "periodic", "--dt", "0.002", "--steps", "10",
                   "--snapshot-every", "5", "--seed", "1",
                   "--output", str(outdir)])
        assert rc == 0
        snaps = sorted(p.name for p in outdir.glob("snap_*_S.csv"))
        assert snaps == ["snap_000000_S.csv", "snap_000001_S.csv",
                        "snap_000002_S.csv"]
        doc = json.loads((outdir / "report.json").read_text())
        assert len(doc["diagnostics"]) == 3

    def test_simulate_0_type_with_external_u(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        u = _field_file(tmp_path, "u.csv", synth.smooth_scalar(
            Grid(32, 1, 0.2, 1.0, "periodic"), seed=3))
        rc = main(["simulate", "--model", "m-lvii", "--nx", "32", "--dx", "0.2",
                   "--boundary", "periodic", "--dt", "0.002", "--steps", "10",
                   "--snapshot-every", "5", "--external-u", u, "--output", str(outdir)])
        assert rc == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "report.json", "snap_000000_S.csv", "snap_000001_S.csv", "snap_000002_S.csv"]

    def test_zc_reports_residual(self, tmp_path, capsys):
        n = 32
        x = np.linspace(0.0, 4.0, n)
        t = np.linspace(0.0, 1.0, 5)
        X, T = np.meshgrid(x, t)
        k = 1.0 + 0.3 * np.sin(X - T)
        tau = 0.1 * np.cos(X + T)
        curve = tmp_path / "c.csv"
        fileio.write_curve(curve, k, tau, x[1] - x[0], t[1] - t[0])
        rc = main(["zc", "--input", str(curve),
                   "--output", str(tmp_path / "z.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "z.json").read_text())
        assert doc["diagnostics"][0]["zc_residual_max"] < 0.1


# ---------------------------------------------------------------------------
# fuzzed inputs: every run ends in a documented exit code, never a traceback

_CONFIG = """# fuzzed run
model = hf
dx = 0.2
boundary = periodic
dt = 0.001
dt_safety = 0.2
allow_unstable_dt = false
renormalize = true
seed = 3
"""
_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "99", "x", "1.5", "=",
                     ",", "#", "-x", "periodic", "clamped"]),
    st.integers(-2, 12).map(str),
    st.text(st.characters(codec="utf-8"), max_size=5))
_EDITS = st.lists(st.tuples(
    st.sampled_from(["drop", "dup", "swap", "token", "truncate", "byte"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), _TOKENS),
    min_size=1, max_size=3)


def _garble(text, edits):
    """Apply line drops, duplicates, swaps, token swaps, truncation and
    undecodable bytes to text; returns the bytes to write."""
    lines = text.splitlines()
    data = None
    for op, a, b, token in edits:
        if not lines:
            break
        at, other = a % len(lines), b % len(lines)
        if op == "drop":
            del lines[at]
        elif op == "dup":
            lines[at] = lines[other]
        elif op == "swap":
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "token":
            parts = lines[at].replace("=", ",").replace(" ", ",").split(",")
            seps = [c for c in lines[at] if c in "=, "]
            parts[b % len(parts)] = token
            lines[at] = parts[0] + "".join(s + p for s, p in zip(seps, parts[1:]))
        else:
            raw = "\n".join(lines).encode()
            cut = a % (len(raw) + 1)
            data = raw[:cut] if op == "truncate" else raw[:cut] + b"\xff" + raw[cut:]
            lines = []
    return data if data is not None else ("\n".join(lines) + "\n").encode()


def _fuzz_argv(kind, d, edits, token):
    path = os.path.join(d, "in")
    out = os.path.join(d, "out")
    if kind == "flag":
        return ["simulate", "--model", "hf", "--nx", "8", "--boundary", "periodic",
                "--dx", token, "--dt", "1e-4", "--steps", "2", "--output", out]
    if kind == "config":
        text = _CONFIG
        argv = ["simulate", "--config", path, "--nx", "8", "--ny", "1",
                "--steps", "2", "--output", out]
    elif kind == "curve":
        fileio.write_curve(path, 1.0 + 0.1 * np.arange(24.0).reshape(3, 8),
                           np.full((3, 8), 0.2), 0.5, 0.25)
        text = Path(path).read_text()
        argv = ["zc", "--input", path, "--output", out]
    else:
        write_spin(path, Grid(6, 5, 0.25, 0.25, "clamped"), seed=7)
        text = Path(path).read_text()
        argv = {"check": ["check", "--model", "hf", "--input", path,
                          "--output", out],
                "reconstruct": ["reconstruct", "--input", path, "--normals",
                                "true", "--output", out],
                "simulate": ["simulate", "--model", "hf", "--initial", path,
                             "--dt", "1e-4", "--steps", "2", "--output", out]}[kind]
    with open(path, "wb") as fh:
        fh.write(_garble(text, edits))
    return argv


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["check", "reconstruct", "simulate", "curve",
                             "config", "flag"]),
       edits=_EDITS, token=_TOKENS)
def test_fuzzed_inputs_end_in_documented_exit_codes(kind, edits, token):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        argv = _fuzz_argv(kind, d, edits, token)
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    if rc:
        assert len(err.getvalue().splitlines()) == 1
