import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spinsurf import (CLAMPED, PERIODIC, Grid, GridMismatch, NearZeroNorm,
                      ScalarField, SpinField, VecField, constant_field, cross,
                      diff, dot, norm, project_sphere, same_grid,
                      triple)
from spinsurf.errors import GridTooSmall
from spinsurf import fields
from spinsurf.models import hf_rhs, lle_rhs

E1, E2, E3 = np.eye(3)

vec3 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3).map(np.array)


class TestGrid:
    def test_axes(self):
        g = Grid(4, 3, 0.5, 0.25, PERIODIC)
        assert np.allclose(g.x(), [0, 0.5, 1.0, 1.5])
        assert np.allclose(g.y(), [0, 0.25, 0.5])
        assert not g.is_1d and g.periodic

    def test_too_small(self):
        with pytest.raises(GridTooSmall):
            Grid(1, 1, 0.1, 1.0, PERIODIC)

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            Grid(8, 1, 0.1, 1.0, "open")

    def test_1d(self):
        g = Grid(8, 1, 0.1, 1.0, PERIODIC)
        assert g.is_1d


class TestFields:
    def test_scalar_shape_check(self, grid1d):
        with pytest.raises(ValueError):
            ScalarField(grid1d, np.zeros((2, grid1d.nx)))

    def test_vec_shape_check(self, grid1d):
        with pytest.raises(ValueError):
            VecField(grid1d, np.zeros((1, grid1d.nx)))

    def test_spin_requires_unit_norm(self, grid1d):
        v = np.zeros((3, 1, grid1d.nx))
        v[2] = 1.5
        with pytest.raises(ValueError):
            SpinField(grid1d, v)

    def test_values_read_only(self, grid1d):
        f = constant_field(grid1d, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 2.0

    @pytest.mark.parametrize("kind, lead", [(ScalarField, ()), (VecField, (3,))])
    def test_callers_array_stays_writeable(self, grid1d, kind, lead):
        """A field keeps a read-only copy of a writeable array: the caller may
        go on writing it, and the field does not change with it."""
        a = np.zeros(lead + (1, grid1d.nx))
        f = kind(grid1d, a)
        assert a.flags.writeable and not f.values.flags.writeable
        a += 1.0
        assert np.all(f.values == 0.0)
        assert kind(grid1d, f.values).values is f.values     # read-only: not copied again

    def test_same_grid_mismatch(self, grid1d, grid2d):
        a = constant_field(grid1d, 1.0)
        b = constant_field(grid2d, 1.0)
        with pytest.raises(GridMismatch):
            same_grid(a, b)


class TestCross:
    def test_basis_identity(self):
        assert np.array_equal(cross(E1, E2), E3)

    def test_basis_identity_cyclic(self):
        assert np.array_equal(cross(E3, E1), E2)

    @given(vec3)
    def test_self_cross_zero(self, a):
        assert np.array_equal(cross(a, a), np.zeros(3))

    @given(vec3, vec3)
    def test_antisymmetry(self, a, b):
        assert np.array_equal(cross(a, b), -cross(b, a))

    @given(vec3, vec3)
    def test_orthogonality(self, a, b):
        c = cross(a, b)
        assert abs(dot(a, c)) <= 1e-9 * (1 + norm(a) ** 2 * norm(b) ** 2)


class TestTriple:
    def test_unit_determinant(self):
        assert triple(E1, E2, E3) == 1.0

    @given(vec3, vec3)
    def test_repeated_last_arguments(self, a, b):
        assert triple(a, b, b) == 0.0

    @given(vec3, vec3)
    def test_repeated_first_argument(self, a, b):
        scale = 1 + norm(a) ** 2 * norm(b)
        assert abs(triple(a, a, b)) <= 1e-13 * scale

    def test_constant_spin_derivatives(self, grid2d):
        S = constant_field(grid2d, (0.0, 0.0, 1.0))
        sx = diff(S.values, grid2d, "dx")
        sy = diff(S.values, grid2d, "dy")
        assert np.all(triple(S.values, sx, sy) == 0.0)


class TestDiff:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("which", ["dx", "dy", "dxx", "dyy", "dxy"])
    def test_constant_exactly_zero(self, boundary, which):
        g = Grid(16, 12, 0.3, 0.2, boundary)
        f = constant_field(g, 0.1)
        assert np.all(diff(f.values, g, which) == 0.0)

    def test_dx_second_order_periodic(self):
        errs = []
        for n in (64, 128):
            g = Grid(n, 1, 1.0 / n, 1.0, PERIODIC)
            x = g.x()
            f = ScalarField(g, np.sin(2 * np.pi * x)[None, :])
            exact = 2 * np.pi * np.cos(2 * np.pi * x)
            errs.append(np.abs(diff(f.values, g, "dx")[0] - exact).max())
        assert 3.3 < errs[0] / errs[1] < 4.7

    def test_dxy_exact_on_bilinear(self):
        g = Grid(10, 8, 0.37, 0.21, CLAMPED)
        x, y = g.meshgrid()
        f = ScalarField(g, x * y)
        assert np.allclose(diff(f.values, g, "dxy"), 1.0, rtol=0, atol=1e-12)

    # f, and each kind its stencils take exactly at every node, ends included:
    # the three-node first differences are exact on quadratics, the central
    # and the one-sided four-node second differences on cubics. Dyadic
    # spacings keep every value and every rounding step exact.
    CLOSED_FORMS = [
        (lambda x, y: x * x + 3 * x * y - y * y, "dx", lambda x, y: 2 * x + 3 * y),
        (lambda x, y: x * x + 3 * x * y - y * y, "dy", lambda x, y: 3 * x - 2 * y),
        (lambda x, y: x ** 3 - 2 * x * x * y + y ** 3, "dxx", lambda x, y: 6 * x - 4 * y),
        (lambda x, y: x ** 3 - 2 * x * x * y + y ** 3, "dyy", lambda x, y: 6 * y),
        (lambda x, y: x * x * y, "dxy", lambda x, y: 2 * x)]

    @pytest.mark.parametrize("nx, ny, dx, dy", [(10, 1, 1.0, 1.0), (9, 7, 0.5, 0.25),
                                                (6, 4, 0.125, 2.0)])
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_clamped_exact_on_closed_forms(self, nx, ny, dx, dy, vector):
        g = Grid(nx, ny, dx, dy, CLAMPED)
        x, y = g.meshgrid()
        for f, which, exact in self.CLOSED_FORMS:
            if g.is_1d and which not in ("dx", "dxx"):
                continue
            a, want = f(x, y), exact(x, y)
            if vector:
                a, want = np.stack([a, -2.0 * a, a + 1.0]), np.stack([want, -2.0 * want, want])
            assert np.array_equal(diff(a, g, which), want), which

    def test_dy_needs_2d(self, grid1d):
        f = constant_field(grid1d, 1.0)
        with pytest.raises(GridTooSmall):
            diff(f.values, grid1d, "dy")

    def test_unknown_which(self, grid1d):
        with pytest.raises(ValueError):
            diff(constant_field(grid1d, 1.0).values, grid1d, "dz")


class TestDiff4x:
    def test_constant_zero(self, grid1d):
        assert np.all(diff(constant_field(grid1d, 2.5).values, grid1d, "dxxxx") == 0.0)

    def test_cubic_interior_zero(self):
        g = Grid(16, 1, 0.25, 1.0, CLAMPED)
        x = g.x()
        f = ScalarField(g, (x ** 3 - 2 * x)[None, :])
        interior = diff(f.values, g, "dxxxx")[0, 4:-4]
        assert np.abs(interior).max() < 1e-10

    def test_sine_fourth_derivative(self):
        errs = []
        for n in (64, 128):
            g = Grid(n, 1, 1.0 / n, 1.0, PERIODIC)
            x = g.x()
            f = ScalarField(g, np.sin(2 * np.pi * x)[None, :])
            exact = (2 * np.pi) ** 4 * np.sin(2 * np.pi * x)
            errs.append(np.abs(diff(f.values, g, "dxxxx")[0] - exact).max())
        assert 3.3 < errs[0] / errs[1] < 4.7


# S ^ S_xx (hf_rhs, `fields._bind_wedge` along x): 1-D chains as (3, 1, nx)
# and as bare (3, nx) arrays, and 2-D (3, ny, nx) arrays, against the cross
# product of the second difference
WEDGE_SHAPES = [(3, 1, 17), (3, 17), (3, 6, 17)]


class TestWedgeDxx:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("shape", WEDGE_SHAPES)
    def test_constant_field_is_exactly_zero(self, boundary, shape, rng):
        for dx in (1e-3, 0.3, 10.0):
            g = Grid(shape[-1], 1, dx, 1.0, boundary)
            v = rng.standard_normal(3)
            s = np.broadcast_to((v / np.linalg.norm(v)).reshape(3, *[1] * (len(shape) - 1)),
                                shape).copy()
            assert np.all(hf_rhs(s, g) == 0.0)

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("shape", WEDGE_SHAPES)
    def test_within_16_eps_of_the_cross_of_the_second_difference(self, boundary, shape, rng):
        for dx in (1e-3, 0.1, 1.0, 10.0):
            g = Grid(shape[-1], 1, dx, 1.0, boundary)
            s = rng.standard_normal(shape)
            s /= np.linalg.norm(s, axis=0)
            want = cross(s, diff(s, g, "dxx"))
            err = np.abs(hf_rhs(s, g) - want).max()
            assert err <= 16 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_into_out_is_the_allocated_result(self, boundary, rng):
        g = Grid(9, 7, 0.3, 0.2, boundary)
        s = rng.standard_normal((3, 7, 9))
        out = np.full(s.shape, np.nan)
        assert fields._bind_wedge(s, out, g, False)() is out
        assert np.array_equal(out, hf_rhs(s, g))

    @pytest.mark.parametrize("boundary, nx", [(PERIODIC, 2), (CLAMPED, 3)])
    def test_too_few_nodes(self, boundary, nx):
        with pytest.raises(GridTooSmall):
            hf_rhs(np.ones((3, 1, nx)), Grid(nx, 1, 0.1, 1.0, boundary))


# S ^ (S_xx + S_yy) (lle_rhs, `fields._bind_wedge` along x and y; on a chain,
# hf_rhs) on square and dx != dy cells. A constant spin with no zero
# component: any vector parallel to the pole crosses it to 0, whatever the
# rounding, so the pole cannot tell one cross product per spacing from a
# (dx/dy)^2 folded into one (about 5e-15 at dx = 0.2, dy = 0.3).
CONSTANT_SPIN = np.array([0.48, 0.6, 0.64])
LAP_GRIDS = [(1, 0.2, 1.0, False), (13, 0.2, 0.2, True), (13, 0.2, 0.3, True)]


class TestWedgeLap:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("ny, dx, dy, y", LAP_GRIDS, ids=["1d", "square", "dx!=dy"])
    def test_constant_field_is_exactly_zero(self, boundary, ny, dx, dy, y):
        for scale in (1e-3, 1.0, 10.0):
            g = Grid(17, ny, scale * dx, scale * dy, boundary)
            s = np.broadcast_to(CONSTANT_SPIN.reshape(3, 1, 1), (3, ny, 17)).copy()
            assert np.all((lle_rhs if y else hf_rhs)(s, g) == 0.0)

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_within_16_eps_of_the_cross_of_the_laplacian(self, boundary, ratio, rng):
        for dx in (1e-3, 0.1, 1.0, 10.0):
            g = Grid(17, 13, dx, ratio * dx, boundary)
            s = rng.standard_normal((3, 13, 17))
            s /= np.linalg.norm(s, axis=0)
            want = cross(s, diff(s, g, "dxx") + diff(s, g, "dyy"))
            err = np.abs(lle_rhs(s, g) - want).max()
            assert err <= 16 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("dy", [0.3, 0.2])
    def test_into_out_is_the_allocated_result(self, boundary, dy, rng):
        g = Grid(9, 7, 0.3, dy, boundary)
        s = rng.standard_normal((3, 7, 9))
        out = np.full(s.shape, np.nan)
        assert fields._bind_wedge(s, out, g, True)() is out
        assert np.array_equal(out, lle_rhs(s, g))

    @pytest.mark.parametrize("dy", [0.25, 0.5])
    def test_clamped_exact_on_a_cubic(self, dy):
        """On cubic components over dyadic spacings every value and every
        rounding step is exact, so at every node, ends included, the result
        is the cross product with the exact Laplacian."""
        g = Grid(9, 7, 0.25, dy, CLAMPED)
        x, y = g.meshgrid()
        s = np.stack([x ** 3 - 2 * x * x * y + y ** 3, 1.0 + x * y, y * y - x])
        lap = np.stack([6 * x + 2 * y, 0.0 * x, 2.0 + 0.0 * x])
        assert np.array_equal(lle_rhs(s, g), cross(s, lap))

    @pytest.mark.parametrize("boundary, ny, message", [
        (PERIODIC, 2, "y-derivatives need ny >= 3"),
        (CLAMPED, 3, "clamped second derivative needs at least 4 nodes")])
    def test_too_few_y_nodes(self, boundary, ny, message):
        with pytest.raises(GridTooSmall, match=message):
            lle_rhs(np.ones((3, ny, 8)), Grid(8, ny, 0.1, 0.1, boundary))


# ---------------------------------------------------------------------------
# plans: a kernel bound once to its arrays (`fields._bind_*`), run at every stage

def planned_kernels(ny):
    """(name, binder bind(a, out, tmp, g), the fresh allocating call it
    replaces) for every bound kernel a (3, ny, nx) array admits."""
    kernels = [(w, lambda a, out, tmp, g, w=w: fields._bind_diff(a, out, tmp, g, w),
                lambda a, g, w=w: diff(a, g, w))
               for w in ("dx", "dxx", "dxxxx") + (("dy", "dyy", "dxy") if ny > 1 else ())]
    return kernels + [(f"wedge-{y}", lambda a, out, tmp, g, y=y: fields._bind_wedge(a, out, g, y),
                       lle_rhs if y else hf_rhs) for y in {False, ny > 1}]


@pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
@pytest.mark.parametrize("ny, dx, dy", [(1, 0.2, 1.0), (7, 0.2, 0.2), (7, 0.2, 0.3)],
                         ids=["chain", "square", "dx!=dy"])
def test_a_plan_equals_the_kernel_it_replaces(boundary, ny, dx, dy, rng):
    """Each plan, bound once and run three times on an input overwritten in
    place between runs, writes what a fresh allocating call returns, bit for
    bit, into the out it was bound to."""
    g = Grid(9, ny, dx, dy, boundary)
    for name, bind, fresh in planned_kernels(ny):
        a, out, tmp = np.empty((3, ny, 9)), np.empty((3, ny, 9)), np.empty((3, ny, 9))
        run = bind(a, out, tmp, g)
        for _ in range(3):
            a[...] = rng.standard_normal(a.shape)
            assert run() is out and np.array_equal(out, fresh(a, g)), name


def test_a_plan_is_bound_to_its_arrays_not_to_their_shape(rng):
    """Plans bound to two arrays of the same shape, writing into one out,
    each difference their own array, and read it afresh at every run."""
    g = Grid(9, 1, 0.2, 1.0, PERIODIC)
    a, b, out = rng.standard_normal((3, 3, 1, 9))
    run_a = fields._bind_diff(a, out, None, g, "dx")
    run_b = fields._bind_diff(b, out, None, g, "dx")
    assert np.array_equal(run_b(), diff(b, g, "dx"))
    assert np.array_equal(run_a(), diff(a, g, "dx"))
    a[...] = b
    assert np.array_equal(run_a(), diff(b, g, "dx"))


class TestProjectSphere:
    def test_scaled_pole(self, grid1d):
        v = constant_field(grid1d, (0.0, 0.0, 2.0))
        out = SpinField(grid1d, project_sphere(v.values, norm(v.values)))
        assert isinstance(out, SpinField)
        assert np.all(out.values[2] == 1.0)

    def test_idempotence(self, grid1d):
        from spinsurf import synth
        S = synth.smooth_spin(grid1d, seed=5)
        again = project_sphere(S.values, norm(S.values))
        assert np.abs(again - S.values).max() < 1e-15

    def test_zero_node_rejected(self, grid1d):
        v = np.ones((3, 1, grid1d.nx))
        v[:, 0, 3] = 0.0
        with pytest.raises(NearZeroNorm) as exc:
            project_sphere(v, norm(v))
        assert exc.value.i == 3


# ---------------------------------------------------------------------------
# given buffers (a binder's, and norm's and project_sphere's out=): the same
# code path as allocation, so the same bits

@pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
@pytest.mark.parametrize("which", ["dx", "dy", "dxx", "dyy", "dxy", "dxxxx"])
def test_diff_into_out_is_the_allocated_result(boundary, which, rng):
    g = Grid(12, 9, 0.3, 0.2, boundary)
    for shape in ((9, 12), (3, 9, 12)):
        a = rng.standard_normal(shape)
        out, tmp = np.full(shape, np.nan), np.full(shape, np.nan)
        assert fields._bind_diff(a, out, tmp, g, which)() is out
        assert np.array_equal(out, diff(a, g, which))


def test_vector_kernels_into_out_are_the_allocated_results(rng):
    a, b = rng.standard_normal((2, 3, 7, 5))
    out = np.full(a.shape, np.nan)
    assert fields._bind_cross(a, b, out)() is out and np.array_equal(out, cross(a, b))
    for kernel, args in ((norm, (a,)), (project_sphere, (a, norm(a)))):
        want = kernel(*args)
        out = np.full(want.shape, np.nan)
        assert kernel(*args, out=out) is out
        assert np.array_equal(out, want), kernel.__name__
    n, want = norm(a), a / norm(a)
    assert project_sphere(a, n, out=a) is a and np.array_equal(a, want)


def test_norm_is_numpys(rng):
    a = rng.standard_normal((3, 6, 4)) * 10.0 ** rng.integers(-5, 5, (1, 6, 4))
    assert np.array_equal(norm(a), np.linalg.norm(a, axis=0))
    assert np.array_equal(norm(a), np.sqrt(dot(a, a)))


# ---------------------------------------------------------------------------
# the components-first layout: vectors are (3, ny, nx), each component a
# scalar field, and the vector kernels are numpy's on the moved-axis array

def vector_arrays(ny, nx):
    return hnp.arrays(np.float64, (3, ny, nx),
                      elements=st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def vector_cases(draw):
    ny, nx = draw(st.integers(1, 9)), draw(st.integers(2, 9))
    return draw(vector_arrays(ny, nx)), draw(vector_arrays(ny, nx))


@settings(max_examples=300, deadline=None)
@given(vector_cases(), st.sampled_from([PERIODIC, CLAMPED]),
       st.sampled_from(["dx", "dy", "dxx", "dyy", "dxy", "dxxxx"]))
def test_diff_of_a_vector_array_is_diff_of_each_component(case, boundary, which):
    a, _ = case
    g = Grid(a.shape[2], a.shape[1], 0.3, 0.2, boundary)
    try:
        want = np.stack([diff(a[k], g, which) for k in range(3)])
    except GridTooSmall:
        with pytest.raises(GridTooSmall):
            diff(a, g, which)
        return
    assert np.array_equal(diff(a, g, which), want)


@settings(max_examples=300, deadline=None)
@given(vector_cases())
def test_vector_kernels_are_numpys_on_the_moved_axis(case):
    a, b = case
    al, bl = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    assert np.array_equal(cross(a, b), np.moveaxis(np.cross(al, bl), -1, 0))
    assert np.array_equal(dot(a, b), np.sum(al * bl, -1))
    assert np.array_equal(norm(a), np.linalg.norm(al, axis=-1))
