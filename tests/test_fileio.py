import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spinsurf import (CLAMPED, FormatError, Grid, GridTooSmall, NonFiniteResult, NonFiniteValue,
                      ScalarField, SpinField, VecField,
                      constant_field, fileio, reconstruct_surface,
                      classical_coeffs, synth, unit_normal)


class TestFieldRoundTrip:
    def test_spin_field_bitwise(self, tmp_path, grid2d):
        S = synth.smooth_spin(grid2d, seed=31)
        path = tmp_path / "S.csv"
        fileio.write_field(path, S)
        back = fileio.read_field(path)
        assert isinstance(back, SpinField)
        assert np.array_equal(back.values, S.values)
        assert back.grid == S.grid

    def test_scalar_field_bitwise(self, tmp_path, grid1d):
        f = synth.smooth_scalar(grid1d, seed=32)
        path = tmp_path / "f.csv"
        fileio.write_field(path, f)
        back = fileio.read_field(path)
        assert isinstance(back, ScalarField)
        assert np.array_equal(back.values, f.values)

    def test_non_unit_vector_field_bitwise(self, tmp_path, grid2d):
        v = synth.smooth_vec(grid2d, seed=34)
        path = tmp_path / "v.csv"
        fileio.write_field(path, v)
        back = fileio.read_field(path)
        assert type(back) is VecField
        assert np.array_equal(back.values, v.values)

    def test_write_is_deterministic(self, tmp_path, grid1d):
        f = synth.smooth_scalar(grid1d, seed=33)
        fileio.write_field(tmp_path / "a.csv", f)
        fileio.write_field(tmp_path / "b.csv", f)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_bad_comps_rejected(self, tmp_path, grid1d):
        path = tmp_path / "bad.csv"
        fileio.write_field(path, synth.smooth_scalar(grid1d, seed=1))
        text = path.read_text().replace("comps=1", "comps=2")
        path.write_text(text)
        with pytest.raises(FormatError):
            fileio.read_field(path)

    def test_truncated_file_rejected(self, tmp_path, grid1d):
        path = tmp_path / "short.csv"
        fileio.write_field(path, synth.smooth_scalar(grid1d, seed=2))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(FormatError):
            fileio.read_field(path)

    @pytest.mark.parametrize("row, node", [(8, "8,0"), (7, "-1,1")])
    def test_node_index_outside_grid_rejected(self, tmp_path, row, node):
        # both nodes have the flat index i + nx*j of their row but lie off the grid
        path = tmp_path / "S.csv"
        fileio.write_field(path, synth.smooth_spin(Grid(8, 3, 0.2, 0.2, CLAMPED), seed=4))
        lines = path.read_text().splitlines()
        lines[row + 2] = node + "," + lines[row + 2].split(",", 2)[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            fileio.read_field(path)
        assert exc.value.line == row + 3

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("hello\n")
        with pytest.raises(FormatError) as exc:
            fileio.read_field(path)
        assert exc.value.line == 1


class TestExportMesh:
    def _surface(self, nx, ny):
        g = Grid(nx, ny, 1.0, 1.0, CLAMPED)
        x, y = g.meshgrid()
        return VecField(g, np.stack([x, y, 0.1 * x * y]))

    def test_two_by_two_connectivity(self, tmp_path):
        g = Grid(2, 2, 1.0, 1.0, CLAMPED)
        pos = np.zeros((3, 2, 2))
        pos[0], pos[1] = g.meshgrid()
        path = tmp_path / "m.obj"
        fileio.export_mesh(path, VecField(g, pos))
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert [ln for ln in lines if ln.startswith("f ")] == ["f 1 2 4 3"]

    def test_normals_counts_match(self, tmp_path):
        r = self._surface(4, 3)
        path = tmp_path / "n.obj"
        fileio.export_mesh(path, r, unit_normal(r))
        lines = path.read_text().splitlines()
        nv = sum(1 for ln in lines if ln.startswith("v "))
        nn = sum(1 for ln in lines if ln.startswith("vn "))
        assert nv == nn == 12

    def test_degenerate_mesh_still_writes(self, tmp_path):
        g = Grid(3, 3, 1.0, 1.0, CLAMPED)
        path = tmp_path / "d.obj"
        fileio.export_mesh(path, constant_field(g, (1.0, 2.0, 3.0)))
        assert path.read_text().count("v 1 2 3") == 9


class TestReport:
    def test_zero_residuals_serialize_as_zero(self, tmp_path, grid2d):
        from spinsurf import CoefficientSet, n_system_residual
        rr = n_system_residual(constant_field(grid2d, (0.0, 0.0, 1.0)),
                               CoefficientSet())
        path = tmp_path / "r.json"
        fileio.report(path, "check", grid2d,
                      {"vector_residual": {"max": rr.vector_max, "l2": rr.vector_l2}})
        assert path.read_text().count('"max":0,"l2":0}') == 1

    def test_byte_stable(self, tmp_path, grid1d):
        data = {"diagnostics": [{"time": 0.1, "max_norm_drift": 1.0 / 3.0}]}
        fileio.report(tmp_path / "a.json", "m", grid1d, data, notes=["x"])
        fileio.report(tmp_path / "b.json", "m", grid1d, data, notes=["x"])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_key_order_fixed(self, tmp_path, grid1d):
        # model, grid, the sections in the order given, notes
        import json
        path = tmp_path / "r.json"
        fileio.report(path, "m", grid1d, {"z": 1, "a": [], "m2": {"b": 1, "a": 2}},
                      notes=["tag"])
        doc = json.loads(path.read_text())
        assert list(doc) == ["model", "grid", "z", "a", "m2", "notes"]
        assert list(doc["m2"]) == ["b", "a"]

    def test_valid_json(self, tmp_path, grid1d):
        import json
        path = tmp_path / "r.json"
        fileio.report(path, "m", grid1d, {"diagnostics": [{"a": 0.5}]}, notes=[])
        doc = json.loads(path.read_text())
        assert doc["model"] == "m" and doc["diagnostics"] == [{"a": 0.5}]
        assert doc["notes"] == []

    def test_no_sections(self, tmp_path, grid1d):
        path = tmp_path / "r.json"
        fileio.report(path, "m", grid1d, {})
        assert path.read_text() == ('{"model":"m","grid":{"nx":%d,"ny":1,"dx":%s,"dy":%s,'
                                    '"boundary":"%s"},"notes":[]}\n'
                                    % (grid1d.nx, format(grid1d.dx, ".17g"),
                                       format(grid1d.dy, ".17g"), grid1d.boundary))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_not_reported(self, tmp_path, grid1d, value):
        # "inf"/"nan" are not JSON; the report is refused before its file exists
        path = tmp_path / "r.json"
        with pytest.raises(NonFiniteResult):
            fileio.report(path, "m", grid1d, {"diagnostics": [{"a": 0.5, "b": value}]})
        assert not path.exists()


class TestCurveRoundTrip:
    def test_bitwise(self, tmp_path, rng):
        k = rng.standard_normal((3, 16))
        tau = rng.standard_normal((3, 16))
        path = tmp_path / "c.csv"
        fileio.write_curve(path, k, tau, 0.1, 0.05)
        k2, tau2, dx, dt = fileio.read_curve(path)
        assert np.array_equal(k, k2) and np.array_equal(tau, tau2)
        assert dx == 0.1 and dt == 0.05

    def test_non_finite_not_written(self, tmp_path):
        k = np.ones((3, 8))
        k[1, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            fileio.write_curve(tmp_path / "c.csv", k, np.ones((3, 8)), 0.1, 0.05)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# spinsurf-field v1\n")
        with pytest.raises(FormatError):
            fileio.read_curve(path)


# ---------------------------------------------------------------------------
# block writers and the bulk reader against the per-line code they replaced

def _reference_write_table(path, magic, keys, header, vals):
    """The f-string CSV writer; write_field and write_curve must match its
    bytes. vals holds the file's rows, (ny, nx, ncols)."""
    items = (f"{k}={fileio._g17(v) if keys[k] is float else v}" for k, v in header.items())
    lines = [magic, "# " + " ".join(items)]
    for j in range(vals.shape[0]):
        for i, row in enumerate(vals[j].tolist()):
            lines.append(f"{i},{j}," + ",".join([format(v, ".17g") for v in row]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_export_mesh(path, r, normals=None):
    lines = []
    for tag, data in (("v", r), ("vn", normals)):
        if data is not None:
            for x, y, z in np.moveaxis(data.values, 0, -1).reshape(-1, 3).tolist():
                lines.append(f"{tag} {x:.9g} {y:.9g} {z:.9g}")
    nx = r.grid.nx
    for j in range(r.grid.ny - 1):      # one quad per cell, counter-clockwise, 1-based
        for i in range(nx - 1):
            k = 1 + i + nx * j
            lines.append(f"f {k} {k + 1} {k + 1 + nx} {k + nx}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_read_table(path, magic, keys, layout):
    """The per-line reader; _read_table must agree with it on every file,
    values components first."""
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
    return grid, np.moveaxis(vals.reshape(grid.ny, nx, ncols), -1, 0)


TABLE_FORMATS = {
    "field": (fileio.FIELD_MAGIC, fileio._FIELD_KEYS, fileio._field_layout),
    "curve": (fileio.CURVE_MAGIC, fileio._CURVE_KEYS, fileio._curve_layout)}


def _outcome(read, path, kind):
    """What a reader makes of a file: the exception's type, line and message,
    or the grid and the values' bytes."""
    try:
        grid, vals = read(path, *TABLE_FORMATS[kind])
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return grid, vals.shape, vals.tobytes()


def _write_kind(path, kind, vals):
    ny, nx, ncols = vals.shape
    if kind == "curve":
        fileio.write_curve(path, vals[..., 0], vals[..., 1], 0.1, 0.05)
        return
    g = Grid(nx, ny, 0.25, 0.5, CLAMPED)
    fileio.write_field(path, ScalarField(g, vals[..., 0]) if ncols == 1
                       else VecField(g, np.moveaxis(vals, -1, 0)))


def _assert_readers_agree(kind, vals, edit_rows, newline="\n"):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        _write_kind(path, kind, vals)
        lines = Path(path).read_text().splitlines()
        lines = lines[:2] + edit_rows(lines[2:])
        Path(path).write_bytes((newline.join(lines) + newline).encode())
        got = _outcome(fileio._read_table, path, kind)
        assert got == _outcome(_reference_read_table, path, kind)
        return got


_TOKENS = st.sampled_from(["+3", " 3", "3 ", "03", "-0", "1_0", " 1.5", "nan", "inf",
                           "0x1p3", "1e999", "1e-400", "-0.0", "", "x", "\u0663"])
_ROW_EDITS = st.lists(st.tuples(
    st.sampled_from(["token", "extra", "merge", "swap", "dup", "drop", "compensate"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), _TOKENS), max_size=3)


def _garble_rows(rows, edits):
    """Token swaps, extra and merged fields, moved or lost rows, and pairs of
    adjacent rows whose field counts compensate."""
    rows = list(rows)
    for op, a, b, token in edits:
        if not rows:
            break
        r = a % len(rows)
        parts = rows[r].split(",")
        if op == "token":
            parts[b % len(parts)] = token
        elif op == "extra":
            parts.append(token)
        elif op == "merge" and len(parts) > 1:
            c = b % (len(parts) - 1)
            parts[c:c + 2] = [parts[c] + parts[c + 1]]
        elif op == "swap":
            s = b % len(rows)
            rows[r], rows[s] = rows[s], rows[r]
            continue
        elif op == "dup":
            rows[r] = rows[b % len(rows)]
            continue
        elif op == "drop":
            del rows[r]
            continue
        elif op == "compensate" and r + 1 < len(rows):
            # move one field across the boundary to the next row: the joined
            # token stream stays the same, only the per-row counts are wrong
            after = rows[r + 1].split(",")
            if b % 2:
                after.insert(0, parts.pop())
            else:
                parts.append(after.pop(0))
            rows[r + 1] = ",".join(after)
        rows[r] = ",".join(parts)
    return rows


@st.composite
def _tables(draw):
    """(kind, rows) of a field file (1-D or 2-D, 1 or 3 comps) or a curve file."""
    kind = draw(st.sampled_from(["field", "curve"]))
    ncols = 2 if kind == "curve" else draw(st.sampled_from([1, 3]))
    shape = (draw(st.integers(1, 7)), draw(st.integers(2, 9)), ncols)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return kind, draw(hnp.arrays(np.float64, shape, elements=finite))


@settings(deadline=None)
@given(table=_tables(), edits=_ROW_EDITS, newline=st.sampled_from(["\n", "\r\n"]),
       block=st.sampled_from([1, 3, fileio._BLOCK]))
def test_bulk_reader_matches_per_line_reader(table, edits, newline, block):
    # small blocks put block edges inside the garbled rows
    with mock.patch.object(fileio, "_BLOCK", block):
        _assert_readers_agree(*table, lambda rows: _garble_rows(rows, edits), newline)


def _set(row, col, token):
    def edit(rows):
        parts = rows[row].split(",")
        parts[col] = token
        rows[row] = ",".join(parts)
        return rows
    return edit


def _compensate(rows):
    rows[0], rows[1] = "0,0,1,1,1,1", "0,1,1,1"
    return rows


# rows 3 and 2500 (in the second block) of a 64x40 field: node i is 3 and 4
@pytest.mark.parametrize("edit, outcome", [
    (_set(3, 0, "+3"), Grid), (_set(3, 0, " 3"), Grid), (_set(2500, 0, "+4"), Grid),
    (_set(3, 0, "3.0"), FormatError), (_set(3, 0, "3e0"), FormatError),
    (_set(3, 0, "0x3"), FormatError), (_set(3, 0, "\u0663"), Grid),
    (_set(3, 2, "1_0"), Grid), (_set(2500, 3, " 1.5"), Grid), (_set(3, 2, "1.5e"), FormatError),
    (_set(3, 2, "nan"), NonFiniteValue), (_set(3, 4, "inf"), NonFiniteValue),
    (_set(2500, 2, "1e999"), NonFiniteValue),
    (_set(3, 2, "0x1p3"), FormatError), (_set(2500, 2, "0x1p3"), FormatError),
    (_compensate, FormatError), (_set(3, 0, "\U0008c57c"), FormatError)],
    ids=["plus-index", "space-index", "plus-index-2nd-block", "float-index", "exp-index",
         "hex-index", "arabic-indic-index", "underscore", "space-value", "cut-exponent",
         "nan", "inf", "1e999", "hex-float", "hex-float-2nd-block", "compensating-rows",
         "astral-index"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_bulk_reader_explicit_rows(edit, outcome, newline):
    vals = np.random.default_rng(7).standard_normal((40, 64, 3))
    got = _assert_readers_agree("field", vals, edit, newline)[0]
    assert (got if isinstance(got, type) else type(got)) is outcome


@pytest.mark.parametrize("token, bulk", [("3", True), ("\u0663", False), ("\U0008c57c", False)],
                         ids=["ascii", "arabic-indic", "astral"])
def test_only_an_ascii_file_reaches_loadtxt(tmp_path, token, bulk):
    """numpy's loadtxt can crash the process on a character beyond the BMP in
    an integer column (seen with numpy 2.4.6, in about one call of a few
    thousand), so a file with any non-ASCII character is read line by line."""
    path = tmp_path / "t.csv"
    fileio.write_field(path, ScalarField(Grid(8, 2, 0.25, 0.5, CLAMPED), np.ones((2, 8))))
    lines = path.read_text().splitlines()
    lines[5] = token + lines[5][1:]         # node i = 3 of row 0
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        if token == "\U0008c57c":
            with pytest.raises(FormatError, match="line 6"):
                fileio.read_field(path)
        else:
            assert np.array_equal(fileio.read_field(path).values, np.ones((2, 8)))
    assert loadtxt.called is bulk


# -0.0, the smallest subnormal, huge and integral values at the head of a
# table of more than one block
_SPECIAL = [-0.0, 5e-324, 1e308, -1e308, 3.0, -7.0, 0.1, 1.0 / 3.0, 2.5e-310, 1e16]


def _special(shape):
    vals = np.random.default_rng(11).standard_normal(shape).ravel()
    vals[:len(_SPECIAL)] = _SPECIAL
    vals[4096:4096 + len(_SPECIAL)] = _SPECIAL
    return vals.reshape(shape)


class TestBlockWriters:
    G = Grid(70, 61, 0.25, 0.5, CLAMPED)        # 4270 rows

    def test_write_field_bytes(self, tmp_path):
        g = self.G
        for vals in (_special((g.ny, g.nx, 3)), _special((g.ny, g.nx, 1))):
            f = (VecField(g, np.moveaxis(vals, -1, 0)) if vals.shape[-1] == 3
                 else ScalarField(g, vals[..., 0]))
            fileio.write_field(tmp_path / "a.csv", f)
            header = {"nx": g.nx, "ny": g.ny, "dx": g.dx, "dy": g.dy,
                      "boundary": g.boundary, "comps": vals.shape[-1]}
            _reference_write_table(tmp_path / "b.csv", fileio.FIELD_MAGIC,
                                   fileio._FIELD_KEYS, header, vals)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("comps", [1, 3])
    @pytest.mark.parametrize("nx, ny", [(2, 5), (2048, 3), (3000, 2), (4100, 1), (200, 180)])
    def test_write_field_bytes_by_grid_shape(self, tmp_path, nx, ny, comps):
        """A block's node indices come from its cached format: grids 2 and one
        block wide, rows longer than a block, a 1-D grid, and 18 blocks, more
        than the cache holds. Each grid is written twice; the second write
        reads every block's format from the cache when they fit in it."""
        g = Grid(nx, ny, 0.25, 0.5, CLAMPED)
        vals = np.random.default_rng(nx + comps).standard_normal(ny * nx * comps)
        vals[:len(_SPECIAL)] = _SPECIAL[:vals.size]
        vals = vals.reshape(ny, nx, comps)
        f = (VecField(g, np.moveaxis(vals, -1, 0)) if comps == 3
             else ScalarField(g, vals[..., 0]))
        header = {"nx": nx, "ny": ny, "dx": g.dx, "dy": g.dy, "boundary": g.boundary,
                  "comps": comps}
        _reference_write_table(tmp_path / "b.csv", fileio.FIELD_MAGIC, fileio._FIELD_KEYS,
                               header, vals)
        blocks = -(-nx * ny // fileio._BLOCK)
        for _ in range(2):
            hits = fileio._indexed.cache_info().hits
            fileio.write_field(tmp_path / "a.csv", f)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        fits = blocks <= fileio._indexed.cache_info().maxsize
        assert fileio._indexed.cache_info().hits - hits == (blocks if fits else 0)

    def test_write_curve_bytes(self, tmp_path):
        vals = _special((61, 70, 2))
        fileio.write_curve(tmp_path / "a.csv", vals[..., 0], vals[..., 1], 0.1, 1 / 3)
        _reference_write_table(tmp_path / "b.csv", fileio.CURVE_MAGIC, fileio._CURVE_KEYS,
                               {"nx": 70, "nt": 61, "dx": 0.1, "dt": 1 / 3}, vals)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_export_mesh_bytes(self, tmp_path, with_normals):
        g = self.G
        rows = _special((g.ny, g.nx, 3))
        r = VecField(g, np.moveaxis(rows, -1, 0))
        normals = VecField(g, np.moveaxis(rows[::-1], -1, 0)) if with_normals else None
        fileio.export_mesh(tmp_path / "a.obj", r, normals)
        _reference_export_mesh(tmp_path / "b.obj", r, normals)
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def _traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_mesh_peak_memory_below_file_size(tmp_path):
    # the bench history: 256x401 with normals, a 9 MB file; building every
    # line as a string first peaked at about 50 MB
    g = Grid(256, 401, 0.1, 0.01, CLAMPED)
    x, y = g.meshgrid()
    r = VecField(g, np.stack([x, y, np.sin(x) * y]))
    normals = unit_normal(r)
    path = tmp_path / "m.obj"
    peak = _traced_peak(lambda: fileio.export_mesh(path, r, normals))
    assert peak < path.stat().st_size


def test_read_field_peak_memory_within_four_file_sizes(tmp_path):
    # the bench history, 7.1 MB: the file's text and lines, parsed block by block
    path = tmp_path / "S.csv"
    fileio.write_field(path, synth.smooth_spin(Grid(256, 401, 0.1, 0.01, CLAMPED), seed=5))
    peak = _traced_peak(lambda: fileio.read_field(path))
    assert peak < 4 * path.stat().st_size


def test_write_field_peak_memory_below_file_size(tmp_path):
    S = synth.smooth_spin(Grid(128, 128, 0.2, 0.2), seed=5)
    path = tmp_path / "S.csv"
    peak = _traced_peak(lambda: fileio.write_field(path, S))
    assert peak < path.stat().st_size
