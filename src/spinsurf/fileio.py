"""Bit-exact text formats: field CSV, OBJ-style meshes, JSON reports.

All real numbers are written with 17 significant digits so that
write -> read round-trips reproduce float64 values exactly and repeated
runs produce byte-identical files. A file row holds one node's components,
which come first in memory, (comps, ny, nx): the transpose is made here.
"""

import functools
import warnings

import numpy as np

from .errors import FormatError, GridTooSmall, NonFiniteResult, NonFiniteValue
from .fields import CLAMPED, Grid, ScalarField, SpinField, VecField, is_unit

FIELD_MAGIC = "# spinsurf-field v1"
CURVE_MAGIC = "# spinsurf-curve v1"

# Header keys and their types, in written order
_FIELD_KEYS = {"nx": int, "ny": int, "dx": float, "dy": float,
               "boundary": str, "comps": int}
_CURVE_KEYS = {"nx": int, "nt": int, "dx": float, "dt": float}
_BLOCK = 2048   # rows per bulk parse or `%` write; a block's temporaries stay < 1 MB


def _g17(x):
    return format(float(x), ".17g")


@functools.lru_cache(maxsize=16)
def _indexed(fmt, first, rows, nx):
    """fmt for the grid rows first, ..., first + rows - 1, each led by "i,j"."""
    return "".join(f"{n % nx},{n // nx}{fmt}" for n in range(first, first + rows))


def _write_rows(fh, fmt, rows, nx=None):
    """Write a 2-D array's rows, one `%` of fmt per block, led by node i, j given nx."""
    for a in range(0, len(rows), _BLOCK):
        block = rows[a:a + _BLOCK]
        f = fmt * len(block) if nx is None else _indexed(fmt, a, len(block), nx)
        fh.write(f % tuple(block.ravel().tolist()))


def _write_table(path, magic, keys, header, vals):
    """Write the versioned CSV read by _read_table; vals is (ncols, ny, nx)."""
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue(f"refusing to write non-finite values to {path}")
    ncols, _, nx = vals.shape
    items = (f"{k}={_g17(v) if keys[k] is float else v}" for k, v in header.items())
    with open(path, "w") as fh:
        fh.write(f"{magic}\n# {' '.join(items)}\n")
        _write_rows(fh, ",%.17g" * ncols + "\n", vals.reshape(ncols, -1).T, nx)


def _parse_block(rows, first, nx, ncols):
    """Bulk parse of the data rows first, first + 1, ...: raises unless each row
    is its node's i and j as plain integers, then ncols float values."""
    with warnings.catch_warnings():     # older numpy reads an int "3.0", with a warning
        warnings.simplefilter("error")
        t = np.loadtxt(rows, [("i", np.int64), ("j", np.int64), ("v", float, (ncols,))],
                       delimiter=",", comments=None, ndmin=1)
    n = np.arange(first, first + len(rows))
    if len(t) != len(rows) or (t["i"] != n % nx).any() or (t["j"] != n // nx).any():
        raise ValueError
    return t["v"]


def _read_table(path, magic, keys, layout):
    """Read a versioned CSV: the magic line, a `# key=value ...` header line
    holding `keys`, then one `i,j,v...` row per node in row-major order.

    layout(header) -> (grid, ncols) checks the typed header. Returns the
    grid and the finite values, shaped (ncols, ny, nx).
    """
    # undecodable bytes fail the token checks below, with their line number
    with open(path, errors="replace") as fh:
        text = fh.read()
    # numpy's loadtxt can crash the process on a character beyond the BMP in
    # an integer column, so only an all-ASCII file is parsed in bulk
    bulk, lines = text.isascii(), text.splitlines()
    del text                # the rows alone, while they are parsed
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
    for a in range(0, expected, _BLOCK):
        rows = lines[2 + a:2 + a + _BLOCK]
        try:
            if not bulk:
                raise ValueError
            vals[a:a + len(rows)] = _parse_block(rows, a, nx, ncols)
        except Exception:       # per line: names the first bad row, or reads them all
            for n, line in enumerate(rows, a):
                parts = line.split(",")
                try:
                    if len(parts) != 2 + ncols:
                        raise ValueError(f"expected {2 + ncols} fields")
                    if int(parts[0]) != n % nx or int(parts[1]) != n // nx:
                        raise ValueError(f"expected node {n % nx},{n // nx} "
                                         "(row-major order)")
                    vals[n] = list(map(float, parts[2:]))
                except ValueError as exc:
                    raise FormatError(n + 3, str(exc)) from None
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue(f"{path} contains non-finite values")
    return grid, vals.T.reshape(ncols, grid.ny, nx)


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
                 f.values.reshape(comps, g.ny, g.nx))


def read_field(path):
    """Inverse of write_field; returns SpinField when the data is unit norm."""
    grid, vals = _read_table(path, FIELD_MAGIC, _FIELD_KEYS, _field_layout)
    if len(vals) == 1:
        return ScalarField(grid, vals[0])
    return (SpinField if is_unit(vals) else VecField)(grid, vals)


def export_mesh(path, r, normals=None):
    """Wavefront-OBJ-style mesh of the positions r: v [vn] lines row-major,
    then one quad per grid cell i, j, its corners the 1-based nodes
    k, k + 1, k + 1 + nx, k + nx for k = 1 + i + nx*j."""
    nx = r.grid.nx
    base = (np.arange(1, nx) + nx * np.arange(r.grid.ny - 1)[:, None]).ravel()
    with open(path, "w") as fh:
        for tag, data in (("v", r), ("vn", normals)):
            if data is not None:
                _write_rows(fh, tag + " %.9g %.9g %.9g\n", data.values.reshape(3, -1).T)
        _write_rows(fh, "f %d %d %d %d\n",
                    np.stack([base, base + 1, base + 1 + nx, base + nx], axis=1))


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


def report(path, model, grid, sections, notes=()):
    """Write a report as byte-stable JSON: the model, the grid, each of the
    sections (a dict of name -> JSON-able value) in order, then the notes."""
    doc = {"model": model,
           "grid": {"nx": grid.nx, "ny": grid.ny, "dx": grid.dx,
                    "dy": grid.dy, "boundary": grid.boundary},
           **sections, "notes": list(notes)}
    text = _json_value(doc) + "\n"      # raises before the file is created
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# curve data (k, tau) slices for zero-curvature checks

def write_curve(path, k, tau, dx, dt):
    k, tau = np.atleast_2d(k), np.atleast_2d(tau)
    nt, nx = k.shape
    _write_table(path, CURVE_MAGIC, _CURVE_KEYS,
                 {"nx": nx, "nt": nt, "dx": dx, "dt": dt}, np.stack([k, tau]))


def read_curve(path):
    """Returns (k, tau, dx, dt) with k, tau shaped (nt, nx)."""
    grid, vals = _read_table(path, CURVE_MAGIC, _CURVE_KEYS, _curve_layout)
    return vals[0].copy(), vals[1].copy(), grid.dx, grid.dy
