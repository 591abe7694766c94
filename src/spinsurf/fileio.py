"""Bit-exact text formats: field CSV, OBJ-style meshes, JSON reports.

All real numbers are written with 17 significant digits so that
write -> read round-trips reproduce float64 values exactly and repeated
runs produce byte-identical files.
"""

import numpy as np

from .errors import FormatError, NonFiniteValue
from .fields import (CLAMPED, PERIODIC, Grid, ScalarField, SpinField,
                     VecField, is_unit)
from .geometry import ResidualReport

FIELD_MAGIC = "# spinsurf-field v1"
CURVE_MAGIC = "# spinsurf-curve v1"


def _g17(x):
    return format(float(x), ".17g")


def write_field(path, f):
    """Write a Scalar/Vec/SpinField as row-major CSV with a 2-line header."""
    g = f.grid
    comps = 1 if isinstance(f, ScalarField) else 3
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteValue("refusing to write non-finite field")
    lines = [FIELD_MAGIC,
             f"# nx={g.nx} ny={g.ny} dx={_g17(g.dx)} dy={_g17(g.dy)} "
             f"boundary={g.boundary} comps={comps}"]
    vals = f.values.reshape(g.ny, g.nx, comps)
    for j in range(g.ny):
        for i in range(g.nx):
            nums = ",".join(_g17(v) for v in vals[j, i])
            lines.append(f"{i},{j},{nums}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field(path):
    """Inverse of write_field; returns SpinField when the data is unit norm."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FIELD_MAGIC:
        raise FormatError(1, f"expected header {FIELD_MAGIC!r}")
    if len(lines) < 2:
        raise FormatError(2, "missing grid header")
    header = {}
    for item in lines[1].lstrip("# ").split():
        if "=" not in item:
            raise FormatError(2, f"bad header item {item!r}")
        key, _, val = item.partition("=")
        header[key] = val
    try:
        nx, ny = int(header["nx"]), int(header["ny"])
        dx, dy = float(header["dx"]), float(header["dy"])
        boundary = header["boundary"]
        comps = int(header["comps"])
    except (KeyError, ValueError) as exc:
        raise FormatError(2, f"bad grid header: {exc}") from None
    if comps not in (1, 3):
        raise FormatError(2, f"comps must be 1 or 3, got {comps}")
    if boundary not in (PERIODIC, CLAMPED):
        raise FormatError(2, f"unknown boundary {boundary!r}")
    grid = Grid(nx, ny, dx, dy, boundary)

    vals = np.empty((ny, nx, comps))
    expected = nx * ny
    if len(lines) - 2 != expected:
        raise FormatError(min(len(lines) + 1, expected + 2),
                          f"expected {expected} data rows, got {len(lines) - 2}")
    for row, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 2 + comps:
            raise FormatError(row, f"expected {2 + comps} fields")
        try:
            i, j = int(parts[0]), int(parts[1])
            nums = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise FormatError(row, str(exc)) from None
        if row - 3 != i + nx * j:
            raise FormatError(row, f"node ({i},{j}) out of row-major order")
        vals[j, i] = nums
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue(f"{path} contains non-finite values")

    if comps == 1:
        return ScalarField(grid, vals[..., 0])
    if is_unit(vals):
        return SpinField(grid, vals)
    return VecField(grid, vals)


def export_mesh(path, mesh, normals=None):
    """Wavefront-OBJ-style mesh: v [vn] lines row-major, then 1-based quads."""
    g = mesh.grid
    lines = []
    pos = mesh.positions.values
    for j in range(g.ny):
        for i in range(g.nx):
            x, y, z = pos[j, i]
            lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
    if normals is not None:
        nv = normals.values
        for j in range(g.ny):
            for i in range(g.nx):
                x, y, z = nv[j, i]
                lines.append(f"vn {x:.9g} {y:.9g} {z:.9g}")
    for quad in mesh.quad_indices():
        a, b, c, d = (int(q) + 1 for q in quad)
        lines.append(f"f {a} {b} {c} {d}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON reports with deterministic key order and float formatting

def _json_value(v):
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _g17(v)
    if isinstance(v, dict):
        items = ",".join(f'{_json_value(str(k))}:{_json_value(val)}'
                         for k, val in v.items())
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def report(path, model, grid, data, notes=()):
    """Write a residual or diagnostics report as byte-stable JSON.

    data: a ResidualReport (fixed max/l2 layout) or any dict/list of
    diagnostics records.
    """
    doc = {"model": model,
           "grid": {"nx": grid.nx, "ny": grid.ny, "dx": grid.dx,
                    "dy": grid.dy, "boundary": grid.boundary}}
    if isinstance(data, ResidualReport):
        doc["vector_residual"] = {"max": data.vector_max, "l2": data.vector_l2}
        doc["scalar_residual"] = {"max": data.scalar_max, "l2": data.scalar_l2}
    else:
        doc["diagnostics"] = data
    doc["notes"] = list(notes)
    with open(path, "w") as fh:
        fh.write(_json_value(doc) + "\n")


# ---------------------------------------------------------------------------
# curve data (k, tau) slices for zero-curvature checks

def write_curve(path, k, tau, dx, dt):
    k, tau = np.atleast_2d(k), np.atleast_2d(tau)
    nt, nx = k.shape
    lines = [CURVE_MAGIC, f"# nx={nx} nt={nt} dx={_g17(dx)} dt={_g17(dt)}"]
    for j in range(nt):
        for i in range(nx):
            lines.append(f"{i},{j},{_g17(k[j, i])},{_g17(tau[j, i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve(path):
    """Returns (k, tau, dx, dt) with k, tau shaped (nt, nx)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CURVE_MAGIC:
        raise FormatError(1, f"expected header {CURVE_MAGIC!r}")
    header = dict(item.partition("=")[::2] for item in lines[1].lstrip("# ").split())
    try:
        nx, nt = int(header["nx"]), int(header["nt"])
        dx, dt = float(header["dx"]), float(header["dt"])
    except (KeyError, ValueError) as exc:
        raise FormatError(2, f"bad curve header: {exc}") from None
    if len(lines) - 2 != nx * nt:
        raise FormatError(len(lines), f"expected {nx * nt} data rows")
    k = np.empty((nt, nx))
    tau = np.empty((nt, nx))
    for row, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(row, "expected i,j,k,tau")
        i, j = int(parts[0]), int(parts[1])
        k[j, i], tau[j, i] = float(parts[2]), float(parts[3])
    return k, tau, dx, dt
