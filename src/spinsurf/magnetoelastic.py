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

`me_spin_rhs` and `me_phonon_rhs` write each formula as one expression that
allocates its result, with the constants of the entry's `params`: its two
families' constants, at 1 unless `with_params` (`fields.named_params`) sets
them. Catalog models evolve on 1-D chains only, where a step costs numpy
calls rather than memory traffic: `catalog_flow` hands both the run's `work`
Scratch, whose plans run every stencil and cross product (A, B and E take
S^S_xx from `wedge_lap`'s), and one x-pass per stage for S_x and u_x.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (GridMismatch, NonFiniteResult, PhononAbsent, UnimplementedModel,
                     UnknownModel)
from .fields import Scratch, _bind_cross, _bind_diff, _bind_wedge, _runner, diff, dot, named_params

SPIN_FAMILIES = ("A", "B", "C", "D", "E")

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

    def param(self, key):
        return self.params[key]

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


def _x(work, a, g, which, keep=None):
    """diff(a, g, which) from the plan work keeps for a; a fresh a is first
    copied into work's buffer keep, as a plan binds arrays that last."""
    if keep:
        work[keep, a.shape][...] = a
        a = work[keep, a.shape]
    return work.plan(_bind_diff, a, None, None, g, which)()


def me_spin_rhs(spec, s, u, g, sx=None, work=None):
    """Vector-form spin right-hand side of a catalog model, on a spin array s
    and a displacement array u. sx, when given, must be S_x = diff(s, g, "dx"),
    so that a caller stepping both equations computes it once for this and
    `me_phonon_rhs`. work, a `fields.Scratch`, keeps the stencil and cross
    plans (keyed on s and sx) and their arrays (a result may be one)."""
    _check(spec)
    p, work = spec.param, Scratch() if work is None else work
    if spec.spin in ("A", "B", "E"):
        lap = work.plan(_bind_wedge, s, None, None, g, False)()
    if spec.spin in ("A", "B"):
        drive = u if spec.spin == "A" else u * s[2]
        return lap + drive * work.plan(_bind_cross, s, E3)()
    if spec.spin not in ("C", "D", "E"):
        raise UnimplementedModel(f"{spec.name} has no spin family")
    sx = _x(work, s, g, "dx") if sx is None else sx
    if spec.spin == "E":
        return lap + u * sx
    flux = _x(work, (p("mu") * dot(sx, sx) - u + p("m")) * work.plan(_bind_cross, s, sx)(), g,
              "dx", "f")
    if spec.spin == "C":
        return flux
    return p("n") * work.plan(_bind_cross, s, _x(work, s, g, "dxxxx"))() + 2.0 * flux


def me_phonon_rhs(spec, s, u, w, g, sx=None, ux=None, work=None):
    """First-order-form phonon right-hand side (du_dt, dw_dt) on arrays;
    dw_dt is None for first-order phonon equations, and du_dt is the
    velocity w itself for wave-type ones. sx, ux = u_x and work as for `me_spin_rhs`."""
    _check(spec)
    if spec.phonon == "none":
        raise PhononAbsent(f"{spec.name} prescribes u externally")
    p, work = spec.param, Scratch() if work is None else work
    if spec.source in ("s3", "s3sq"):
        q = s[2] if spec.source == "s3" else s[2] ** 2
    else:
        sx = _x(work, s, g, "dx") if sx is None else sx
        q = dot(sx, sx) if spec.source == "sxsq" else 0.5 * dot(sx, sx)

    if spec.phonon in ("wave", "boussinesq"):
        if w is None:
            raise ValueError(f"{spec.name} needs the velocity field w = u_t")
        acc = p("nu0") ** 2 * _x(work, u, g, "dxx") + p("lam") * _x(work, q, g, "dxx", "q")
        if spec.phonon == "boussinesq":
            acc += (p("alpha") * _x(work, u ** 2, g, "dxx", "u2")
                    + p("beta") * _x(work, u, g, "dxxxx"))
        return w, acc / p("rho")
    du = -(_x(work, u, g, "dx") if ux is None else ux) - p("lam") * _x(work, q, g, "dx", "q")
    if spec.phonon == "kdv":
        du -= (p("alpha") * _x(work, u ** 2, g, "dx", "u2")
               + p("beta") * _x(work, _x(work, u, g, "dxx"), g, "dx"))
    return du, None


def catalog_flow(spec, grid, external_u=None):
    """An entry's state fields, highest x-derivative and rhs(st, k, work=None)
    on a 1-D grid; a 0-type entry needs external_u, a ScalarField held fixed."""
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

    def x_pass(data):       # bound once for each State's data, with its views S_x and u_x
        d = np.empty((4 if shared else 3, 1, grid.nx))
        return _runner([(_bind_diff(data.reshape(-1, 1, grid.nx)[:len(d)], d, None, grid, "dx"),
                         ())], (d[:3], d[3] if shared else None))

    def rhs(st, k, work=None):
        s, u = st["S"], (st["u"] if "u" in st else external_u.values)
        work = Scratch() if work is None else work
        # S_x once per stage, for both equations of the families that read it; a
        # first-order phonon's state is S's rows then u's, so that pass gives u_x too
        sx, ux = work.plan(x_pass, st.data)() if reads_sx else (None, None)
        np.copyto(k["S"], me_spin_rhs(spec, s, u, grid, sx, work))
        if spec.phonon != "none":
            for f, d in zip(names[1:], me_phonon_rhs(spec, s, u, st.get("w"), grid, sx, ux, work)):
                np.copyto(k[f], d)

    return names, order, rhs


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
        coeff = spec.param("mu") * sx2 - u + spec.param("m")
        m = diff(coeff * _comm(sm, smx), g, "dx")
        if spec.spin == "D":
            m = spec.param("n") * _comm(sm, diff(sm, g, "dxxxx")) + 2.0 * m
    elif spec.spin == "E":
        m = _comm(sm, diff(sm, g, "dxx")) + 2j * u * diff(sm, g, "dx")
    else:
        raise UnimplementedModel(f"{spec.name} has no spin family")
    return _to_vector(m / 2j)
