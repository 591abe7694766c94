"""Command-line interface.

Subcommands: simulate (time evolution with snapshots), reconstruct
(spin field file -> surface mesh + path mismatch), check (stationary
residual report), catalog (model registry), zc (zero-curvature residuals
from curve data). Options can also be supplied in a config file of
`key = value` lines (# at a line's start or after whitespace begins a
comment); flags override file values, and unknown keys are rejected.
"""

import argparse
import glob
import os
import re
import sys

import numpy as np

from . import fileio, synth
from .errors import ConfigError, GridTooSmall, SpinsurfError, UnknownModel
from .fields import CLAMPED, Grid, ScalarField, SpinField, named_params
from .geometry import classical_coeffs, reconstruct_surface, unit_normal
from .magnetoelastic import catalog_lookup, catalog_names
from .models import (PHI_KINDS, SECTION_PARAMS, STATIONARY_KINDS, STATIONARY_ONLY,
                     stationary_residual)
from .evolve import EvolveOptions, evolution_model, evolve
from .zerocurv import build_C, hasimoto, nlse_residual, solve_D, zc_residual

# key -> (type, help); the single source of truth for config validation
_GRID_KEYS = {
    "nx": (int, "grid extent in x"),
    "ny": (int, "grid extent in y (1 for 1-D)"),
    "dx": (float, "grid spacing in x"),
    "dy": (float, "grid spacing in y"),
    "boundary": (str, "boundary mode: periodic or clamped"),
}
_EVOLVE_KEYS = {
    "dt": (float, "time step"),
    "steps": (int, "number of time steps"),
    "snapshot_every": (int, f"snapshot stride (default {EvolveOptions.snapshot_every})"),
    "dt_safety": (float, f"stability safety factor (default {EvolveOptions.dt_safety})"),
    "allow_unstable_dt": (bool, "override the dt stability bound"),
    "renormalize": (bool, f"renormalize S each step (default {EvolveOptions.renormalize})"),
}
_COMMAND_KEYS = {
    "simulate": {**_GRID_KEYS, **_EVOLVE_KEYS,
                 "model": (str, "model name (section models or catalog)"),
                 "initial": (str, "input spin field CSV (else synthesized)"),
                 "external_u": (str, "displacement field CSV for 0-type models"),
                 "seed": (int, "seed for the synthesized initial field"),
                 "output": (str, "output directory")},
    "reconstruct": {"input": (str, "spin field CSV"),
                    "coeffs": (str, "coefficient kind: hf, lle_stationary, "
                                    "rodrigues, lelieuvre, schief"),
                    "output": (str, "mesh OBJ path"),
                    "report": (str, "JSON report path"),
                    "normals": (bool, "write vertex normals")},
    "check": {"input": (str, "spin field CSV"),
              "model": (str, "stationary kind: " + ", ".join(STATIONARY_KINDS)),
              "phi": (str, "potential field CSV"),
              "output": (str, "JSON report path")},
    "catalog": {"action": (str, "list or show"),
                "name": (str, "model name for show")},
    "zc": {"input": (str, "curve data CSV (k, tau slices)"),
           "output": (str, "JSON report path")},
}
_PARAM_HELP = "named real parameter, repeatable (e.g. --param a1=1 --param lam=0.5)"


class RunConfig(dict):
    """A command's option values, with its named parameters in params."""

    def __init__(self, command, values, params):
        super().__init__(values)
        self.command, self.params = command, params

    def require(self, key):
        if self.get(key) is None:
            raise ConfigError(f"missing required key {key!r}")
        return self[key]


def _coerce(key, typ, raw, finite=False):
    try:
        if typ is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} expects {typ.__name__}, got {raw!r}") from None
    if finite and not np.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    return value


def _read_config_file(path, keys):
    out = {}
    params = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for ln, line in enumerate(lines, start=1):
        line = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()     # run#1 is a value
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, _, raw = (s.strip() for s in line.partition("="))
        if key.startswith("param."):
            params[key[6:]] = _coerce(key, float, raw, finite=True)
        elif key in keys:
            out[key] = _coerce(key, keys[key][0], raw)
        else:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
    return out, params


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ConfigError, which `main` prints as
    one line, in place of argparse's usage text and exit."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="spinsurf",
        description="Spin-field evolution, surface reconstruction, and "
                    "compatibility residual checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command)
        for key, (typ, help_text) in keys.items():
            if command == "catalog":
                p.add_argument(key, nargs="?", default=None, help=help_text)
                continue
            p.add_argument("--" + key.replace("_", "-"), default=None, help=help_text,
                           metavar="BOOL" if typ is bool else None)
        p.add_argument("--param", action="append", default=None,
                       metavar="NAME=VALUE", help=_PARAM_HELP)
        p.add_argument("--config", default=None, help="config file of key = value lines")
    return parser


def parse_config(argv):
    """argv (without the program name) -> validated RunConfig."""
    ns = build_parser().parse_args(argv)
    keys = _COMMAND_KEYS[ns.command]
    values, params = {}, {}
    if ns.config:
        values, params = _read_config_file(ns.config, keys)
    for key, (typ, _) in keys.items():
        raw = getattr(ns, key)
        if raw is not None:
            values[key] = _coerce(key, typ, raw)
    for item in ns.param or ():
        if "=" not in item:
            raise ConfigError(f"--param expects NAME=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        params[name.strip()] = _coerce(name, float, raw, finite=True)
    return RunConfig(ns.command, values, params)


# ---------------------------------------------------------------------------
# subcommands

def _read(path, cls):
    """The field in the file at path, refused unless it is a cls."""
    field = fileio.read_field(path)
    if not isinstance(field, cls):
        kind = "a unit spin" if cls is SpinField else "a scalar"
        raise ConfigError(f"{path} does not hold {kind} field")
    return field


def cmd_simulate(cfg):
    name = cfg.require("model").lower()
    if cfg.get("initial"):
        if cfg.get("seed") is not None:
            raise ConfigError("seed only seeds a synthesized field; drop it or --initial")
        S0 = _read(cfg.require("initial"), SpinField)
        grid = S0.grid
        for key in _GRID_KEYS:
            if cfg.get(key) is not None and cfg.get(key) != getattr(grid, key):
                raise ConfigError(f"{key} = {cfg.get(key)} conflicts with the initial "
                                  f"field file ({getattr(grid, key)})")
    else:
        grid = Grid(cfg.require("nx"), cfg.get("ny", 1), cfg.require("dx"),
                    cfg.get("dy", 1.0), cfg.require("boundary"))
        try:
            S0 = synth.smooth_spin(grid, seed=cfg.get("seed", 0))
        except MemoryError as exc:
            raise ConfigError(f"a grid of nx = {grid.nx} by ny = {grid.ny} nodes does not "
                              f"fit in memory: {exc}") from None
    external_u = _read(cfg.get("external_u"), ScalarField) if cfg.get("external_u") else None
    model = evolution_model(name, grid, params=cfg.params, external_u=external_u)

    for key in ("dt", "steps"):     # the options without a default
        cfg.require(key)
    opts = EvolveOptions(**{k: v for k, v in cfg.items() if k in _EVOLVE_KEYS})

    initial = {f: S0.values if f == "S" else np.zeros((grid.ny, grid.nx)) for f in model.fields}
    outdir = cfg.get("output", ".")
    if glob.glob(os.path.join(glob.escape(outdir), "snap_*.csv")):     # two runs would mix
        raise ConfigError(f"{outdir} holds another run's snapshots; name a new --output")
    os.makedirs(outdir, exist_ok=True)      # before stepping, so a bad path costs no run
    traj = evolve(model, initial, opts)

    for idx, snap in enumerate(traj.snapshots):
        for fname, fobj in snap.items():
            fileio.write_field(os.path.join(outdir, f"snap_{idx:06d}_{fname}.csv"),
                               fobj)
    diag = [{"time": t, **d} for t, d in zip(traj.times, traj.diagnostics)]
    fileio.report(os.path.join(outdir, "report.json"), model.name, grid,
                  {"diagnostics": diag}, notes=[f"steps={opts.steps}", f"dt={opts.dt:.17g}"])
    print(f"wrote {len(traj.snapshots)} snapshots to {outdir}")
    return 0


def cmd_reconstruct(cfg):
    S = _read(cfg.require("input"), SpinField)
    kind = cfg.get("coeffs", "hf").lower()
    coeffs = classical_coeffs(kind, **cfg.params)
    r, mismatch = reconstruct_surface(S, coeffs)
    normals = unit_normal(r) if cfg.get("normals", False) else None
    fileio.export_mesh(cfg.require("output"), r, normals)
    if cfg.get("report"):
        fileio.report(cfg.get("report"), f"reconstruct:{kind}", S.grid,
                      {"diagnostics": [{"path_mismatch": mismatch}]})
    print(f"path mismatch {mismatch:.6e}")
    return 0


def cmd_check(cfg):
    kind = cfg.require("model").lower()
    if kind not in STATIONARY_KINDS:
        raise UnknownModel(f"unknown stationary kind {kind!r}")
    S = _read(cfg.require("input"), SpinField)
    phi = _read(cfg.get("phi"), ScalarField) if cfg.get("phi") else None
    notes = []
    if kind.startswith("mxiii") or kind == "ishimori":
        notes.append("triple-orientation:S.(Sx^Sy)")
    if kind == "ishimori":
        notes.append("drift-pairing:phi_x*S_y+phi_y*S_x")
    rr = stationary_residual(kind, S, phi=phi, params=cfg.params)
    out = cfg.get("output", "report.json")
    fileio.report(out, kind, S.grid,
                  {"vector_residual": {"max": rr.vector_max, "l2": rr.vector_l2},
                   "scalar_residual": {"max": rr.scalar_max, "l2": rr.scalar_l2}},
                  notes=notes)
    print(f"vector residual max {rr.vector_max:.6e}  "
          f"scalar residual max {rr.scalar_max:.6e}")
    return 0


def _listed(table):
    """A parameter table as `catalog show` prints it."""
    return ", ".join(f"{k}={v:g}" if v is not None else f"{k} (required)"
                     for k, v in table.items()) or "none"


def cmd_catalog(cfg):
    named_params("catalog", {}, cfg.params)
    action = cfg.get("action", "list")
    if action not in ("list", "show"):
        raise ConfigError(f"catalog action must be list or show, got {action!r}")
    if action == "list":
        if cfg.get("name") is not None:
            raise ConfigError(f"catalog list takes no name; use catalog show {cfg.get('name')}")
        for spec in map(catalog_lookup, catalog_names()):
            print("\t".join([spec.name, spec.spin, spec.phonon, spec.source,
                             "true" if spec.implemented else "false"]))
        for name in STATIONARY_KINDS:
            print("\t".join([name, "-", "-", "-", "true"]))
        return 0
    name = cfg.require("name")
    kind = name.lower()
    if kind in SECTION_PARAMS:
        rows = {"name": kind, "parameters": _listed(SECTION_PARAMS[kind]),
                "check needs --phi": kind in PHI_KINDS,
                "simulate steps it": kind not in STATIONARY_ONLY}
    else:
        spec = catalog_lookup(name)
        rows = {"name": spec.name, "spin family": spec.spin, "phonon family": spec.phonon,
                "coupling source": spec.source, "implemented": spec.implemented}
        if spec.implemented:
            rows["parameters"] = _listed(spec.params)
        else:
            rows["reason"] = spec.reason
    for label, value in rows.items():
        print(f"{label}: {value}")
    return 0


def cmd_zc(cfg):
    named_params("zc", {}, cfg.params)
    k, tau, dx, dt = fileio.read_curve(cfg.require("input"))
    nt, nx = k.shape
    c = build_C(k, tau)
    _, zc_max = zc_residual(c, solve_D(c, np.zeros(3), dx, dt), dx, dt)
    diag, notes = {"zc_residual_max": zc_max}, ["time-axis-identified-with-second-coordinate"]
    try:        # nlse_residual's shape rule is the one rule: skipped, with a note
        diag["nlse_residual_max"] = float(nlse_residual(hasimoto(k, tau, dx), dx, dt).max())
    except GridTooSmall:
        notes.append("nlse-residual-skipped:needs-nt>=3-and-nx>=4")
    grid = Grid(nx, nt, dx, dt, CLAMPED)
    fileio.report(cfg.get("output", "report.json"), "zc", grid, {"diagnostics": [diag]},
                  notes=notes)
    print(f"zero-curvature residual max {zc_max:.6e}")
    return 0


_PREFIX = {2: "error", 3: "numeric failure", 4: "io error"}
_DISPATCH = {"simulate": cmd_simulate, "reconstruct": cmd_reconstruct,
             "check": cmd_check, "catalog": cmd_catalog, "zc": cmd_zc}


def main(argv=None):
    try:
        cfg = parse_config(argv)
        # non-finite results are caught by explicit checks; keep stderr to one line
        with np.errstate(all="ignore"):
            code = _DISPATCH[cfg.command](cfg)
        sys.stdout.flush()      # a closed stdout shows here, not in the interpreter's exit
        return code
    except SpinsurfError as exc:
        code, message = exc.exit_code, exc
    except (ValueError, MemoryError) as exc:    # a library argument check, or more
        code, message = 2, exc                  # memory than the configuration can get
    except BrokenPipeError:         # the reader closed stdout: no failure of the run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())    # quiet final flush
        return 141                  # 128 + SIGPIPE, as a tool the signal ended
    except OSError as exc:
        code, message = 4, exc
    except OverflowError as exc:    # a float power out of range
        code, message = 3, exc
    print(f"{_PREFIX[code]}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
