import numpy as np
import pytest

from spinsurf import (CLAMPED, FormatError, Grid, NonFiniteResult, NonFiniteValue,
                      ScalarField, SpinField, SurfaceMesh, VecField,
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
    def _mesh(self, nx, ny):
        g = Grid(nx, ny, 1.0, 1.0, CLAMPED)
        x, y = g.meshgrid()
        pos = np.stack([x, y, 0.1 * x * y], axis=-1)
        return SurfaceMesh(VecField(g, pos))

    def test_two_by_two_connectivity(self, tmp_path):
        g = Grid(2, 2, 1.0, 1.0, CLAMPED)
        pos = np.zeros((2, 2, 3))
        pos[..., 0], pos[..., 1] = g.meshgrid()
        mesh = SurfaceMesh(VecField(g, pos))
        path = tmp_path / "m.obj"
        fileio.export_mesh(path, mesh)
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert [ln for ln in lines if ln.startswith("f ")] == ["f 1 2 4 3"]

    def test_normals_counts_match(self, tmp_path):
        mesh = self._mesh(4, 3)
        n = unit_normal(mesh)
        path = tmp_path / "n.obj"
        fileio.export_mesh(path, mesh, n)
        lines = path.read_text().splitlines()
        nv = sum(1 for ln in lines if ln.startswith("v "))
        nn = sum(1 for ln in lines if ln.startswith("vn "))
        assert nv == nn == 12

    def test_degenerate_mesh_still_writes(self, tmp_path):
        g = Grid(3, 3, 1.0, 1.0, CLAMPED)
        mesh = SurfaceMesh(constant_field(g, (1.0, 2.0, 3.0)))
        path = tmp_path / "d.obj"
        fileio.export_mesh(path, mesh)
        assert path.read_text().count("v 1 2 3") == 9


class TestReport:
    def test_zero_residuals_serialize_as_zero(self, tmp_path, grid2d):
        from spinsurf import CoefficientSet, n_system_residual
        rr = n_system_residual(constant_field(grid2d, (0.0, 0.0, 1.0)),
                               CoefficientSet())
        path = tmp_path / "r.json"
        fileio.report(path, "check", grid2d, rr)
        text = path.read_text()
        assert '"max":0' in text

    def test_byte_stable(self, tmp_path, grid1d):
        data = [{"time": 0.1, "energy_proxy": 1.0 / 3.0}]
        fileio.report(tmp_path / "a.json", "m", grid1d, data, notes=["x"])
        fileio.report(tmp_path / "b.json", "m", grid1d, data, notes=["x"])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_key_order_fixed(self, tmp_path, grid1d):
        path = tmp_path / "r.json"
        fileio.report(path, "m", grid1d, [], notes=["tag"])
        text = path.read_text()
        assert text.index('"model"') < text.index('"grid"') < text.index('"notes"')

    def test_valid_json(self, tmp_path, grid1d):
        import json
        path = tmp_path / "r.json"
        fileio.report(path, "m", grid1d, [{"a": 0.5}], notes=[])
        doc = json.loads(path.read_text())
        assert doc["model"] == "m" and doc["diagnostics"] == [{"a": 0.5}]

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_not_reported(self, tmp_path, grid1d, value):
        # "inf"/"nan" are not JSON; the report is refused before its file exists
        path = tmp_path / "r.json"
        with pytest.raises(NonFiniteResult):
            fileio.report(path, "m", grid1d, [{"a": 0.5, "b": value}])
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
