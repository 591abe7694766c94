from dataclasses import replace

import numpy as np
import pytest

from spinsurf import (Grid, ModelSpec, PhononAbsent, ScalarField, SpinField,
                      UnimplementedModel, UnknownModel, catalog_lookup,
                      catalog_names, constant_field, cross, diff, dot,
                      me_phonon_rhs, me_spin_rhs, pauli_oracle_rhs, synth)
from spinsurf.magnetoelastic import (_REGISTRY, _SIGMA, _comm, _to_matrix,
                                     _to_vector, SPIN_FAMILIES)
from spinsurf.magnetoelastic import FAMILIES

IMPLEMENTED = [n for n, s in _REGISTRY.items() if s.implemented]
FAMILY_EXAMPLES = {"A": "M-LVII", "B": "M-LVI", "C": "M-LV",
                   "D": "M-LIV", "E": "M-LIII"}


def pole(grid):
    return SpinField(grid, np.broadcast_to(np.reshape([0.0, 0.0, 1.0], (3, 1, 1)),
                                           (3, grid.ny, grid.nx)).copy())


def random_state(grid, seed):
    """(s, u, grid): the spin and displacement arrays of a random state."""
    S = synth.smooth_spin(grid, seed=seed)
    u = synth.smooth_scalar(grid, seed=seed + 1000)
    return S.values, u.values, grid


class TestCatalog:
    def test_lvii_entry(self):
        spec = catalog_lookup("M-LVII")
        assert (spec.spin, spec.phonon, spec.source) == ("A", "none", "s3")

    def test_xxxiv_entry(self):
        spec = catalog_lookup("M-XXXIV")
        assert (spec.spin, spec.phonon, spec.source) == ("E", "advection", "trform")

    def test_unknown_name(self):
        with pytest.raises(UnknownModel):
            catalog_lookup("M-FOO")

    def test_case_and_prefix_insensitive(self):
        assert catalog_lookup("m-liii") is catalog_lookup("LIII")

    @pytest.mark.parametrize("name", ["M-LXIX", "M-V"])
    def test_unimplemented_carry_reasons(self, name, grid1d):
        spec = catalog_lookup(name)
        assert not spec.implemented
        assert len(spec.reason) > 10
        with pytest.raises(UnimplementedModel):
            me_spin_rhs(spec, *random_state(grid1d, 0))

    @pytest.mark.parametrize("rhs", [me_spin_rhs, pauli_oracle_rhs])
    def test_spin_family_outside_a_to_e_is_refused(self, grid1d, rhs):
        spec = ModelSpec("M-TEST", "F", "none", "s3")
        with pytest.raises(UnimplementedModel, match="M-TEST has no spin family"):
            rhs(spec, *random_state(grid1d, 0))

    def test_names_sorted_by_registry(self):
        assert list(catalog_names()) == list(_REGISTRY)

    def test_with_params(self):
        spec = catalog_lookup("M-XXXIV").with_params(lam=0.5)
        assert spec.param("lam") == 0.5
        assert catalog_lookup("M-XXXIV").param("lam") == 1.0

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_density_must_be_finite_and_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            catalog_lookup("M-LII").with_params(rho=rho)
        assert catalog_lookup("M-LII").with_params(rho=1e-3).param("rho") == 1e-3


class TestSpinRhs:
    @pytest.mark.parametrize("family,name", sorted(FAMILY_EXAMPLES.items()))
    def test_constant_state_zero(self, grid1d, family, name):
        state = (pole(grid1d).values, constant_field(grid1d, 0.7).values, grid1d)
        out = me_spin_rhs(catalog_lookup(name), *state)
        assert np.all(out == 0.0)

    def test_family_e_equator_analytic(self):
        n, k, c = 256, 1.0, 0.8
        g = Grid(n, 1, 2 * np.pi / n, 1.0, "periodic")
        S = synth.equator_spin(g, a=k)
        state = (S.values, constant_field(g, c).values, g)
        out = me_spin_rhs(catalog_lookup("M-LIII"), *state)
        theta = k * g.x()
        expect = c * k * np.stack([-np.sin(theta), np.cos(theta), np.zeros(n)])
        assert np.abs(out[:, 0] - expect).max() < 2e-3

    @pytest.mark.parametrize("family,name", sorted(FAMILY_EXAMPLES.items()))
    def test_matches_pauli_oracle(self, grid1d, family, name):
        spec = catalog_lookup(name)
        for seed in range(5):
            state = random_state(grid1d, seed)
            vec = me_spin_rhs(spec, *state)
            mat = pauli_oracle_rhs(spec, *state)
            assert np.abs(vec - mat).max() <= 1e-12


class TestPhononRhs:
    def test_wave_constant_state(self, grid1d):
        du, dw = me_phonon_rhs(catalog_lookup("M-LII"), pole(grid1d).values,
                               constant_field(grid1d, 0.3).values,
                               constant_field(grid1d, 0.0).values, grid1d)
        assert np.all(du == 0.0)
        assert np.all(dw == 0.0)

    def test_advection_pure_transport(self, grid1d):
        u = synth.smooth_scalar(grid1d, seed=9)
        du, dw = me_phonon_rhs(catalog_lookup("M-L"), pole(grid1d).values, u.values,
                               None, grid1d)
        assert dw is None
        assert np.abs(du + diff(u.values, grid1d, "dx")).max() < 1e-14

    def test_none_type_has_no_phonon(self, grid1d):
        with pytest.raises(PhononAbsent):
            me_phonon_rhs(catalog_lookup("M-LVII"), pole(grid1d).values,
                          constant_field(grid1d, 0.0).values, None, grid1d)

    def test_wave_type_needs_the_velocity(self, grid1d):
        with pytest.raises(ValueError, match="needs the velocity field w"):
            me_phonon_rhs(catalog_lookup("M-LII"), pole(grid1d).values,
                          constant_field(grid1d, 0.0).values, None, grid1d)

    def test_kdv_travelling_wave_residual(self):
        # u_t + u_x + alpha (u^2)_x + beta u_xxx = 0 (lam = 0) admits
        # u = (6 beta kk^2 / alpha) sech^2(kk (x - c t)), c = 1 + 4 beta kk^2
        spec = catalog_lookup("M-XLIX").with_params(lam=0.0)
        kk = 0.4
        c = 1.0 + 4.0 * kk ** 2
        errs = []
        for n in (256, 512):
            L = 60.0
            g = Grid(n, 1, L / n, 1.0, "periodic")
            x = g.x() - L / 2
            prof = 6.0 * kk ** 2 / np.cosh(kk * x) ** 2
            du, _ = me_phonon_rhs(spec, pole(g).values,
                                  ScalarField(g, prof[None, :]).values, None, g)
            ut_exact = c * 12.0 * kk ** 3 * np.tanh(kk * x) / np.cosh(kk * x) ** 2
            errs.append(np.abs(du[0] - ut_exact).max())
        assert 3.3 < errs[0] / errs[1] < 4.7


class TestPauliOracle:
    def test_basis_commutator_identity(self):
        e1, e2, e3 = np.eye(3)
        lhs = _comm(_to_matrix(e1), _to_matrix(e2))
        assert np.abs(lhs - 2j * _to_matrix(e3)).max() == 0.0

    def test_vector_round_trip(self, rng):
        v = rng.standard_normal((3, 4, 7))
        assert np.abs(_to_vector(_to_matrix(v)) - v).max() < 1e-14

    def test_constant_state_zero(self, grid1d):
        state = (pole(grid1d).values, constant_field(grid1d, 1.3).values, grid1d)
        out = pauli_oracle_rhs(catalog_lookup("M-LVI"), *state)
        assert np.abs(out).max() < 1e-15


class TestRegistryShape:
    def test_counts(self):
        assert len(_REGISTRY) == 27
        assert len(IMPLEMENTED) == 25

    def test_every_implemented_entry_is_usable(self, grid1d):
        state = random_state(grid1d, 3)
        for name in IMPLEMENTED:
            out = me_spin_rhs(catalog_lookup(name), *state)
            assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# FAMILIES lists exactly the coupling constants each formula reads

ALL_CONSTANTS = {c for reads, _ in FAMILIES.values() for c in reads}


def all_rhs(spec, s, u, w, g):
    """Every array the spin and phonon right-hand sides return."""
    out = [me_spin_rhs(spec, s, u, g)]
    if spec.phonon != "none":
        out += [a for a in me_phonon_rhs(spec, s, u, w, g) if a is not None]
    return out


@pytest.mark.parametrize("name", IMPLEMENTED)
def test_families_list_exactly_the_constants_read(name):
    g = Grid(32, 1, 0.2, 1.0, "periodic")
    s, u, _ = random_state(g, 7)
    w = synth.smooth_scalar(g, seed=8).values
    spec = catalog_lookup(name)
    reads = FAMILIES[spec.spin][0] + FAMILIES[spec.phonon][0]
    base = all_rhs(spec, s, u, w, g)
    for c in reads:
        out = all_rhs(spec.with_params(**{c: 2.0}), s, u, w, g)
        assert any(not np.array_equal(a, b) for a, b in zip(base, out)), c
    for c in ALL_CONSTANTS - set(reads):
        with pytest.raises(ValueError, match=f"\\['{c}'\\]"):
            spec.with_params(**{c: 2.0})
        # set past with_params, the constant changes nothing
        out = all_rhs(replace(spec, params={**spec.params, c: 2.0}), s, u, w, g)
        assert all(np.array_equal(a, b) for a, b in zip(base, out)), c


# ---------------------------------------------------------------------------
# the right-hand sides against the formulas written out

E3 = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1)


def written_out_rhs(spec, s, u, w, g):
    """Each catalog formula as one allocating expression, in the
    floating-point order that me_spin_rhs and me_phonon_rhs keep."""
    p = spec.param
    sx = diff(s, g, "dx")
    if spec.spin in ("A", "B"):
        drive = u if spec.spin == "A" else u * s[2]
        ds = cross(s, diff(s, g, "dxx")) + drive * cross(s, E3)
    elif spec.spin in ("C", "D"):
        coeff = p("mu") * dot(sx, sx) - u + p("m")
        ds = diff(coeff * cross(s, sx), g, "dx")
        if spec.spin == "D":
            ds = p("n") * cross(s, diff(s, g, "dxxxx")) + 2.0 * ds
    else:
        ds = cross(s, diff(s, g, "dxx")) + u * sx
    if spec.phonon == "none":
        return [ds]
    q = {"s3": s[2], "s3sq": s[2] ** 2, "sxsq": dot(sx, sx),
         "trform": 0.5 * dot(sx, sx)}[spec.source]
    if spec.phonon in ("wave", "boussinesq"):
        acc = p("nu0") ** 2 * diff(u, g, "dxx") + p("lam") * diff(q, g, "dxx")
        if spec.phonon == "boussinesq":
            acc += p("alpha") * diff(u ** 2, g, "dxx") + p("beta") * diff(u, g, "dxxxx")
        return [ds, w, acc / p("rho")]
    du = -diff(u, g, "dx") - p("lam") * diff(q, g, "dx")
    if spec.phonon == "kdv":
        du -= (p("alpha") * diff(u ** 2, g, "dx")
               + p("beta") * diff(diff(u, g, "dxx"), g, "dx"))
    return [ds, du]


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("name", IMPLEMENTED)
def test_buffered_rhs_bitwise_equal_written_out_formula(name, boundary):
    """Computing S_x themselves, and handed one S_x for both, over two
    states in turn, both right-hand sides equal the written-out formula."""
    g = Grid(24, 1, 0.2, 1.0, boundary)
    spec = catalog_lookup(name)
    rng = np.random.default_rng(len(name))
    spec = spec.with_params(**{c: rng.uniform(0.5, 2.0) for c in
                               FAMILIES[spec.spin][0] + FAMILIES[spec.phonon][0]})
    for seed in (3, 4):
        s, u, _ = random_state(g, seed)
        w = synth.smooth_scalar(g, seed=seed + 2000).values
        want = written_out_rhs(spec, s, u, w, g)
        assert all(np.array_equal(a, b) for a, b in zip(all_rhs(spec, s, u, w, g), want))
        sx = diff(s, g, "dx")
        got = [me_spin_rhs(spec, s, u, g, sx)]
        if spec.phonon != "none":
            got += [a for a in me_phonon_rhs(spec, s, u, w, g, sx) if a is not None]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
