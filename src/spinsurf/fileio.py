"""Bit-exact text formats: field CSV, OBJ-style meshes, JSON reports.

All real numbers are written with 17 significant digits so that
write -> read round-trips reproduce float64 values exactly and repeated
runs produce byte-identical files.
"""

import numpy as np

from .errors import FormatError, GridTooSmall, NonFiniteResult, NonFiniteValue
from .fields import CLAMPED, Grid, ScalarField, SpinField, VecField, is_unit
from .geometry import ResidualReport

FIELD_MAGIC = "# spinsurf-field v1"
CURVE_MAGIC = "# spinsurf-curve v1"

# Header keys and their types, in written order
_FIELD_KEYS = {"nx": int, "ny": int, "dx": float, "dy": float,
               "boundary": str, "comps": int}
_CURVE_KEYS = {"nx": int, "nt": int, "dx": float, "dt": float}


def _g17(x):
    return format(float(x), ".17g")


def _write_table(path, magic, keys, header, vals):
    """Write the versioned CSV read by _read_table; vals is (ny, nx, ncols)."""
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue(f"refusing to write non-finite values to {path}")
    items = (f"{k}={_g17(v) if keys[k] is float else v}" for k, v in header.items())
    lines = [magic, "# " + " ".join(items)]
    for j in range(vals.shape[0]):
        for i, row in enumerate(vals[j].tolist()):
            lines.append(f"{i},{j}," + ",".join([format(v, ".17g") for v in row]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path, magic, keys, layout):
    """Read a versioned CSV: the magic line, a `# key=value ...` header line
    holding `keys`, then one `i,j,v...` row per node in row-major order.

    layout(header) -> (grid, ncols) checks the typed header. Returns the
    grid and the finite values, shaped (ny, nx, ncols).
    """
    # undecodable bytes fail the token checks below, with their line number
    with open(path, errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != magic:
        raise FormatError(1, f"expected header {magic!r}")
    if len(lines) < 2:
        raise FormatError(2, "missing header line")
    header = {}
    for item in lines[1].lstrip("# ").split():
        key, eq, val = item.partition("=")
        if not eq:
            raise FormatError(2, f"bad header item {item!r}")
        header[key] = val
    try:
        grid, ncols = layout({k: typ(header[k]) for k, typ in keys.items()})
    except (KeyError, ValueError, GridTooSmall) as exc:
        raise FormatError(2, f"bad header: {exc}") from None

    nx = grid.nx
    expected = nx * grid.ny
    if len(lines) - 2 != expected:
        raise FormatError(min(len(lines), expected + 2) + 1,
                          f"expected {expected} data rows, got {len(lines) - 2}")
    vals = np.empty((expected, ncols))
    for n, line in enumerate(lines[2:]):
        parts = line.split(",")
        try:
            if len(parts) != 2 + ncols:
                raise ValueError(f"expected {2 + ncols} fields")
            if int(parts[0]) != n % nx or int(parts[1]) != n // nx:
                raise ValueError(f"expected node {n % nx},{n // nx} (row-major order)")
            vals[n] = list(map(float, parts[2:]))
        except ValueError as exc:
            raise FormatError(n + 3, str(exc)) from None
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue(f"{path} contains non-finite values")
    return grid, vals.reshape(grid.ny, nx, ncols)


def _field_layout(h):
    if h["comps"] not in (1, 3):
        raise ValueError(f"comps must be 1 or 3, got {h['comps']}")
    return Grid(h["nx"], h["ny"], h["dx"], h["dy"], h["boundary"]), h["comps"]


def _curve_layout(h):
    return Grid(h["nx"], h["nt"], h["dx"], h["dt"], CLAMPED), 2


def write_field(path, f):
    """Write a Scalar/Vec/SpinField as row-major CSV with a 2-line header."""
    g = f.grid
    comps = 1 if isinstance(f, ScalarField) else 3
    header = {"nx": g.nx, "ny": g.ny, "dx": g.dx, "dy": g.dy,
              "boundary": g.boundary, "comps": comps}
    _write_table(path, FIELD_MAGIC, _FIELD_KEYS, header,
                 f.values.reshape(g.ny, g.nx, comps))


def read_field(path):
    """Inverse of write_field; returns SpinField when the data is unit norm."""
    grid, vals = _read_table(path, FIELD_MAGIC, _FIELD_KEYS, _field_layout)
    if vals.shape[-1] == 1:
        return ScalarField(grid, vals[..., 0])
    if is_unit(vals):
        return SpinField(grid, vals)
    return VecField(grid, vals)


def export_mesh(path, mesh, normals=None):
    """Wavefront-OBJ-style mesh: v [vn] lines row-major, then 1-based quads."""
    lines = []
    for tag, data in (("v", mesh.positions), ("vn", normals)):
        if data is not None:
            for x, y, z in data.values.reshape(-1, 3).tolist():
                lines.append(f"{tag} {x:.9g} {y:.9g} {z:.9g}")
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
        if not np.isfinite(v):
            raise NonFiniteResult(f"refusing to report a non-finite value ({v})")
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
    text = _json_value(doc) + "\n"      # raises before the file is created
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# curve data (k, tau) slices for zero-curvature checks

def write_curve(path, k, tau, dx, dt):
    k, tau = np.atleast_2d(k), np.atleast_2d(tau)
    nt, nx = k.shape
    _write_table(path, CURVE_MAGIC, _CURVE_KEYS,
                 {"nx": nx, "nt": nt, "dx": dx, "dt": dt}, np.stack([k, tau], axis=-1))


def read_curve(path):
    """Returns (k, tau, dx, dt) with k, tau shaped (nt, nx)."""
    grid, vals = _read_table(path, CURVE_MAGIC, _CURVE_KEYS, _curve_layout)
    return vals[..., 0].copy(), vals[..., 1].copy(), grid.dx, grid.dy
