"""Catalog of 1+1-D spin-phonon (magnetoelastic) systems.

Each catalog entry composes a spin right-hand side family, a phonon
equation family, and a coupling source built from the spin field:

  spin families
    A: S^S_xx + u (S^e3)
    B: S^S_xx + u S3 (S^e3)
    C: d/dx[(mu |S_x|^2 - u + m) (S^S_x)]
    D: n (S^S_xxxx) + 2 d/dx[(mu |S_x|^2 - u + m) (S^S_x)]
    E: S^S_xx + u S_x

  phonon families
    none (u is a prescribed external field), wave, boussinesq,
    advection, kdv

  coupling sources
    s3 (q = S3), s3sq (q = S3^2), sxsq (q = |S_x|^2),
    trform (q = |S_x|^2 / 2)

The published source systems are written with 2x2 traceless matrices
S = S.sigma and commutators; the vector forms above divide out the 2i
from [A.sigma, B.sigma] = 2i (AxB).sigma. `pauli_oracle_rhs` redoes the
computation literally in matrix form and guards the translation.

Each family's formula is written once, as a binder in `fields`' `_bind_*`
idiom: it lists its ufunc and kernel calls into arrays made at binding, in
the order the formula reads (so the bits are those of the written-out
expression), with the entry's constants and family branches resolved there,
and the last call writes into the result. The constants are the entry's
`params`: its two families' constants, at 1 unless `with_params`
(`fields.named_params`) sets them. `me_spin_rhs` and `me_phonon_rhs` bind
and run once, each into new arrays. Catalog models evolve on 1-D chains
only, where a step costs numpy calls rather than memory traffic:
`catalog_flow`'s binder binds one x-pass for S_x (and u_x) and both
formulas, into the derivative's fields, in one runner per run.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (GridMismatch, NonFiniteResult, PhononAbsent, UnimplementedModel,
                     UnknownModel)
from .fields import _bind_cross, _bind_diff, _bind_dot, _bind_wedge, _runner, diff, named_params

# family -> (the coupling constants its formula reads, its highest x-derivative);
# each entry's params hold them at 1 so runs are reproducible without further input
FAMILIES = {"A": ((), 2), "B": ((), 2), "C": (("mu", "m"), 2),
            "D": (("mu", "m", "n"), 4), "E": ((), 2), "none": ((), 0),
            "wave": (("nu0", "rho", "lam"), 2), "advection": (("lam",), 1),
            "boussinesq": (("nu0", "rho", "lam", "alpha", "beta"), 4),
            "kdv": (("lam", "alpha", "beta"), 3)}

E3 = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    spin: str
    phonon: str
    source: str
    implemented: bool = True
    reason: str = ""
    params: dict = field(default_factory=dict)

    def with_params(self, /, **params):
        """This entry with coupling constants set; refuses any name it does not read."""
        _check(self)
        p = {k: float(v) for k, v in named_params(self.name, self.params, params).items()}
        if not 0.0 < p.get("rho", 1.0) < np.inf:
            raise ValueError(f"{self.name}: density rho must be finite and > 0")
        try:
            p.get("nu0", 1.0) ** 2      # the wave speed squared, as the flow reads it
        except OverflowError:
            raise NonFiniteResult(f"{self.name}: nu0 = {p['nu0']:g} "
                                  "squared is out of range") from None
        return replace(self, params=p)


_REGISTRY = {}
for spec in [
    # 0-type: Landau-Lifshitz equations with external potentials
    ModelSpec("M-LVII", "A", "none", "s3"),
    ModelSpec("M-LVI", "B", "none", "s3sq"),
    ModelSpec("M-LV", "C", "none", "sxsq"),
    ModelSpec("M-LIV", "D", "none", "sxsq"),
    ModelSpec("M-LIII", "E", "none", "trform"),
    # 1-type: family A coupled through S3
    ModelSpec("M-LII", "A", "wave", "s3"),
    ModelSpec("M-LI", "A", "boussinesq", "s3"),
    ModelSpec("M-L", "A", "advection", "s3"),
    ModelSpec("M-XLIX", "A", "kdv", "s3"),
    # 2-type: family B coupled through S3^2
    ModelSpec("M-XLVIII", "B", "wave", "s3sq"),
    ModelSpec("M-XLVII", "B", "boussinesq", "s3sq"),
    ModelSpec("M-XLVI", "B", "advection", "s3sq"),
    ModelSpec("M-XLV", "B", "kdv", "s3sq"),
    # 3-type: family C coupled through |S_x|^2
    ModelSpec("M-XLIV", "C", "wave", "sxsq"),
    ModelSpec("M-XLIII", "C", "boussinesq", "sxsq"),
    ModelSpec("M-XLII", "C", "advection", "sxsq"),
    ModelSpec("M-XLI", "C", "kdv", "sxsq"),
    # 4-type: family D coupled through |S_x|^2
    ModelSpec("M-XL", "D", "wave", "sxsq"),
    ModelSpec("M-XXXIX", "D", "boussinesq", "sxsq"),
    ModelSpec("M-XXXVIII", "D", "advection", "sxsq"),
    ModelSpec("M-XXXVII", "D", "kdv", "sxsq"),
    # 5-type: family E coupled through tr-form source
    ModelSpec("M-XXXVI", "E", "wave", "trform"),
    ModelSpec("M-XXXV", "E", "boussinesq", "trform"),
    ModelSpec("M-XXXIV", "E", "advection", "trform"),
    ModelSpec("M-XXXIII", "E", "kdv", "trform"),
    # deliberately unimplemented entries
    ModelSpec("M-LXIX", "-", "-", "-", implemented=False,
              reason="u_x couples to sqrt(S_t^2 - u^2): implicit in the "
                     "time derivative (and the printed square roots "
                     "disagree between the two equations)"),
    ModelSpec("M-V", "-", "-", "-", implemented=False,
              reason="spin takes values in the osp(2|1) superalgebra with "
                     "S^3 = S; not representable as a unit 3-vector"),
]:
    reads = FAMILIES[spec.spin][0] + FAMILIES[spec.phonon][0] if spec.implemented else ()
    _REGISTRY[spec.name.upper()] = replace(spec, params=dict.fromkeys(reads, 1.0))


def catalog_names():
    return list(_REGISTRY)


def catalog_lookup(name):
    """Resolve a model name (case-insensitive) to its catalog entry."""
    key = name.upper()
    if not key.startswith("M-"):
        key = "M-" + key
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownModel(f"no magnetoelastic model named {name!r}") from None


def _check(spec):
    if not spec.implemented:
        raise UnimplementedModel(f"{spec.name}: {spec.reason}")


def _x(calls, a, g, which):
    """diff(a, g, which)'s plan appended to calls; its result, an array made here."""
    out = np.empty(a.shape)
    calls.append((_bind_diff(a, out, None, g, which), ()))
    return out


# family binders: (calls, constants, s, u, grid, S_x, out) append the calls
# that write the spin family's formula into out, in the order it reads

def _spin_a(calls, p, s, u, g, sx, out):        # S^S_xx + u (S^e3)
    c = np.empty(s.shape)
    calls += [(_bind_wedge(s, out, g, False), ()), (_bind_cross(s, E3, c), ()),
              (np.multiply, (u, c, c)), (np.add, (out, c, out))]


def _spin_b(calls, p, s, u, g, sx, out):        # S^S_xx + u S3 (S^e3): A's, driven by u S3
    d = np.empty(np.broadcast_shapes(u.shape, s[2].shape))
    calls.append((np.multiply, (u, s[2], d)))
    _spin_a(calls, p, s, d, g, sx, out)


def _spin_c(calls, p, s, u, g, sx, out):        # d/dx[(mu |S_x|^2 - u + m) (S^S_x)]
    q, c = np.empty(sx.shape[1:]), np.empty(s.shape)
    calls += [(_bind_dot(sx, sx, q), ()), (np.multiply, (p["mu"], q, q)),
              (np.subtract, (q, u, q)), (np.add, (q, p["m"], q)), (_bind_cross(s, sx, c), ()),
              (np.multiply, (q, c, c)), (_bind_diff(c, out, None, g, "dx"), ())]


def _spin_d(calls, p, s, u, g, sx, out):        # n (S^S_xxxx) + 2 C's flux
    _spin_c(calls, p, s, u, g, sx, out)
    c = np.empty(s.shape)
    calls += [(np.multiply, (out, 2.0, out)), (_bind_cross(s, _x(calls, s, g, "dxxxx"), c), ()),
              (np.multiply, (p["n"], c, c)), (np.add, (c, out, out))]


def _spin_e(calls, p, s, u, g, sx, out):        # S^S_xx + u S_x
    t = np.empty(s.shape)
    calls += [(_bind_wedge(s, out, g, False), ()), (np.multiply, (u, sx, t)),
              (np.add, (out, t, out))]


_SPIN = {"A": _spin_a, "B": _spin_b, "C": _spin_c, "D": _spin_d, "E": _spin_e}


def _bind_spin(spec, s, u, g, out, sx):
    if spec.spin not in _SPIN:
        raise UnimplementedModel(f"{spec.name} has no spin family")
    out, calls = np.empty(s.shape) if out is None else out, []
    if spec.spin in ("C", "D", "E") and sx is None:
        sx = _x(calls, s, g, "dx")
    _SPIN[spec.spin](calls, spec.params, s, u, g, sx, out)
    return _runner(calls, out)


def me_spin_rhs(spec, s, u, g):
    """Vector-form spin right-hand side of a catalog model, on a spin array s
    and a displacement array u."""
    _check(spec)
    return _bind_spin(spec, s, u, g, None, None)()


def _source(calls, spec, s, sx):
    """The coupling source q: S3 itself, or S3^2, |S_x|^2 or |S_x|^2 / 2 in an
    array made here."""
    if spec.source == "s3":
        return s[2]
    q = np.empty(s.shape[1:])
    if spec.source == "s3sq":
        calls.append((np.square, (s[2], q)))
    else:
        calls.append((_bind_dot(sx, sx, q), ()))
    if spec.source == "trform":
        calls.append((np.multiply, (0.5, q, q)))
    return q


# (calls, constants, u, q, grid, u_x, out) append the calls that write the
# phonon family's formula into out: rho w_t for wave-type ones, else u_t

def _phonon_wave(calls, p, u, q, g, ux, out):           # nu0^2 u_xx + lam q_xx
    a, b = _x(calls, u, g, "dxx"), _x(calls, q, g, "dxx")
    calls += [(np.multiply, (p["nu0"] ** 2, a, a)), (np.multiply, (p["lam"], b, b)),
              (np.add, (a, b, out))]


def _phonon_boussinesq(calls, p, u, q, g, ux, out):     # wave's + alpha (u^2)_xx + beta u_xxxx
    _phonon_wave(calls, p, u, q, g, ux, out)
    u2 = np.empty(u.shape)
    calls.append((np.square, (u, u2)))
    a, b = _x(calls, u2, g, "dxx"), _x(calls, u, g, "dxxxx")
    calls += [(np.multiply, (p["alpha"], a, a)), (np.multiply, (p["beta"], b, b)),
              (np.add, (a, b, a)), (np.add, (out, a, out))]


def _phonon_advection(calls, p, u, q, g, ux, out):      # -u_x - lam q_x
    ux = _x(calls, u, g, "dx") if ux is None else ux
    b = _x(calls, q, g, "dx")
    calls += [(np.negative, (ux, out)), (np.multiply, (p["lam"], b, b)),
              (np.subtract, (out, b, out))]


def _phonon_kdv(calls, p, u, q, g, ux, out):            # advection's - alpha (u^2)_x - beta u_xxx
    _phonon_advection(calls, p, u, q, g, ux, out)
    u2 = np.empty(u.shape)
    calls.append((np.square, (u, u2)))
    a, b = _x(calls, u2, g, "dx"), _x(calls, _x(calls, u, g, "dxx"), g, "dx")
    calls += [(np.multiply, (p["alpha"], a, a)), (np.multiply, (p["beta"], b, b)),
              (np.add, (a, b, a)), (np.subtract, (out, a, out))]


_PHONON = {"wave": _phonon_wave, "boussinesq": _phonon_boussinesq,
           "advection": _phonon_advection, "kdv": _phonon_kdv}


def _bind_phonon(spec, s, u, w, g, du, dw, sx, ux):
    wave, calls, p = spec.phonon in ("wave", "boussinesq"), [], spec.params
    if wave and w is None:
        raise ValueError(f"{spec.name} needs the velocity field w = u_t")
    if spec.source in ("sxsq", "trform") and sx is None:
        sx = _x(calls, s, g, "dx")
    q = _source(calls, spec, s, sx)
    du = np.empty(u.shape) if du is None else du
    if not wave:
        _PHONON[spec.phonon](calls, p, u, q, g, ux, du)
        return _runner(calls, (du, None))
    dw = np.empty(u.shape) if dw is None else dw
    _PHONON[spec.phonon](calls, p, u, q, g, ux, dw)
    calls += [(np.divide, (dw, p["rho"], dw)), (np.copyto, (du, w))]
    return _runner(calls, (du, dw))


def me_phonon_rhs(spec, s, u, w, g):
    """First-order-form phonon right-hand side (du_dt, dw_dt) on arrays;
    dw_dt is None for first-order phonon equations, and du_dt is a copy of
    the velocity w for wave-type ones."""
    _check(spec)
    if spec.phonon == "none":
        raise PhononAbsent(f"{spec.name} prescribes u externally")
    return _bind_phonon(spec, s, u, w, g, None, None, None, None)()


def catalog_flow(spec, grid, external_u=None):
    """An entry's state fields, highest x-derivative and binder, bind(st, k)
    -> run, whose run() writes the derivative at the state st into k, on a
    1-D grid; a 0-type entry needs external_u, a ScalarField held fixed. st
    and k may be dicts of arrays, except that an entry with the shared S/u
    x-pass (spin family C, D or E with an advection or KdV phonon) needs st
    to be an `evolve.State`: that pass reads its packed `data`."""
    if not grid.is_1d:
        raise ValueError("magnetoelastic models need a 1-D grid")
    order = max(FAMILIES[spec.spin][1], FAMILIES[spec.phonon][1])
    if spec.phonon == "none":
        if external_u is None:
            raise ValueError(f"{spec.name} needs an external displacement field u")
        if external_u.grid != grid:
            raise GridMismatch(f"{external_u.grid} != {grid}")
        names = ("S",)
    else:
        names = ("S", "u", "w") if spec.phonon in ("wave", "boussinesq") else ("S", "u")
    reads_sx = spec.spin in ("C", "D", "E")
    shared = reads_sx and names == ("S", "u")

    def bind(st, k):
        s, u, calls = st["S"], (st["u"] if "u" in st else external_u.values), []
        # S_x once per run, for both equations of the families that read it; a
        # first-order phonon's state is S's rows then u's, so that pass gives u_x too
        sx = ux = None
        if reads_sx:
            d = _x(calls, st.data.reshape(-1, 1, grid.nx)[:4] if shared else s, grid, "dx")
            sx, ux = d[:3], (d[3] if shared else None)
        calls.append((_bind_spin(spec, s, u, grid, k["S"], sx), ()))
        if spec.phonon != "none":
            calls.append((_bind_phonon(spec, s, u, st.get("w"), grid, k["u"], k.get("w"), sx, ux),
                          ()))
        return _runner(calls)

    return names, order, bind


# ---------------------------------------------------------------------------
# Pauli-matrix oracle

_SIGMA = np.array([[[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)


def _to_matrix(vec):
    """(3, ...) real vectors -> (2, 2, ...) matrices V.sigma, entries first
    like the vector components, so that the x-stencils act on them as is."""
    return np.einsum("k...,kab->ab...", vec, _SIGMA)


def _to_vector(mat):
    """Inverse of _to_matrix for traceless Hermitian-combination matrices."""
    return np.real(np.einsum("ab...,kba->k...", mat, _SIGMA)) / 2.0


def _comm(a, b):
    """Node-wise commutator of (2, 2, ...) matrices."""
    return np.einsum("ab...,bc...->ac...", a, b) - np.einsum("ab...,bc...->ac...", b, a)


def pauli_oracle_rhs(spec, s, u, g):
    """me_spin_rhs recomputed literally in 2x2 matrix form.

    Builds S = S.sigma per node, evaluates the published commutator
    expressions with the same x-stencils, divides by 2i, and extracts the
    vector components. Agreement with me_spin_rhs certifies the
    matrix-to-vector translation.
    """
    _check(spec)
    sm = _to_matrix(s)                       # (2, 2, ny, nx)

    if spec.spin == "A":
        m = _comm(sm, diff(sm, g, "dxx")) + u * _comm(sm, _SIGMA[2])
    elif spec.spin == "B":
        s3 = np.real(np.einsum("ab...,ba...->...", sm, _SIGMA[2])) / 2.0     # tr(S sigma3) / 2
        m = _comm(sm, diff(sm, g, "dxx")) + u * s3 * _comm(sm, _SIGMA[2])
    elif spec.spin in ("C", "D"):
        smx = diff(sm, g, "dx")
        sx2 = np.real(np.einsum("ab...,ba...->...", smx, smx)) / 2.0        # tr(S_x S_x) / 2
        coeff = spec.params["mu"] * sx2 - u + spec.params["m"]
        m = diff(coeff * _comm(sm, smx), g, "dx")
        if spec.spin == "D":
            m = spec.params["n"] * _comm(sm, diff(sm, g, "dxxxx")) + 2.0 * m
    elif spec.spin == "E":
        m = _comm(sm, diff(sm, g, "dxx")) + 2j * u * diff(sm, g, "dx")
    else:
        raise UnimplementedModel(f"{spec.name} has no spin family")
    return _to_vector(m / 2j)
