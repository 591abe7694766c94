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
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PhononAbsent, UnimplementedModel, UnknownModel
from .fields import cross, diff, dot

SPIN_FAMILIES = ("A", "B", "C", "D", "E")

# family -> (the coupling constants its formula reads, its highest x-derivative);
# every constant defaults to 1 so runs are reproducible without further input
FAMILIES = {"A": ((), 2), "B": ((), 2), "C": (("mu", "m"), 2),
            "D": (("mu", "m", "n"), 4), "E": ((), 2), "none": ((), 0),
            "wave": (("nu0", "rho", "lam"), 2), "advection": (("lam",), 1),
            "boussinesq": (("nu0", "rho", "lam", "alpha", "beta"), 4),
            "kdv": (("lam", "alpha", "beta"), 3)}

E3 = np.array([0.0, 0.0, 1.0])


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
        return float(self.params.get(key, 1.0))

    def with_params(self, /, **params):
        """This entry with coupling constants set; refuses any name it does not read."""
        _check(self)
        reads = FAMILIES[self.spin][0] + FAMILIES[self.phonon][0]
        unread = set(params) - set(reads)
        if unread:
            raise ValueError(f"{self.name} reads only {list(reads)}, not {sorted(unread)}")
        return replace(self, params={**self.params, **params})


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
    _REGISTRY[spec.name.upper()] = spec


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


def _coupling(spec, s, g):
    if spec.source == "s3":
        return s[..., 2]
    if spec.source == "s3sq":
        return s[..., 2] ** 2
    sx = diff(s, g, "dx")
    q = dot(sx, sx)
    return 0.5 * q if spec.source == "trform" else q


def me_spin_rhs(spec, s, u, g):
    """Vector-form spin right-hand side of a catalog model, on a spin array s
    and a displacement array u."""
    _check(spec)
    if spec.spin in ("A", "B"):
        out = cross(s, diff(s, g, "dxx"))
        drive = u if spec.spin == "A" else u * s[..., 2]
        out += drive[..., None] * cross(s, E3)
    elif spec.spin in ("C", "D"):
        sx = diff(s, g, "dx")
        coeff = spec.param("mu") * dot(sx, sx) - u + spec.param("m")
        out = diff(coeff[..., None] * cross(s, sx), g, "dx")
        if spec.spin == "D":
            out = spec.param("n") * cross(s, diff(s, g, "dxxxx")) + 2.0 * out
    elif spec.spin == "E":
        out = cross(s, diff(s, g, "dxx")) + u[..., None] * diff(s, g, "dx")
    else:
        raise UnimplementedModel(f"{spec.name} has no spin family")
    return out


def me_phonon_rhs(spec, s, u, w, g):
    """First-order-form phonon right-hand side (du_dt, dw_dt) on arrays;
    dw_dt is None for first-order phonon equations, and du_dt is the
    velocity w itself for wave-type ones."""
    _check(spec)
    if spec.phonon == "none":
        raise PhononAbsent(f"{spec.name} prescribes u externally")
    q = _coupling(spec, s, g)
    lam = spec.param("lam")

    if spec.phonon in ("wave", "boussinesq"):
        if w is None:
            raise ValueError(f"{spec.name} needs the velocity field w = u_t")
        acc = (spec.param("nu0") ** 2 * diff(u, g, "dxx")
               + lam * diff(q, g, "dxx"))
        if spec.phonon == "boussinesq":
            acc += (spec.param("alpha") * diff(u ** 2, g, "dxx")
                    + spec.param("beta") * diff(u, g, "dxxxx"))
        return w, acc / spec.param("rho")

    du = -diff(u, g, "dx") - lam * diff(q, g, "dx")
    if spec.phonon == "kdv":
        uxxx = diff(diff(u, g, "dxx"), g, "dx")
        du -= spec.param("alpha") * diff(u ** 2, g, "dx") + spec.param("beta") * uxxx
    return du, None


# ---------------------------------------------------------------------------
# Pauli-matrix oracle

_SIGMA = np.array([[[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)


def _to_matrix(vec):
    """(..., 3) real vectors -> (..., 2, 2) matrices V.sigma."""
    return np.einsum("...k,kab->...ab", vec, _SIGMA)


def _to_vector(mat):
    """Inverse of _to_matrix for traceless Hermitian-combination matrices."""
    return np.real(np.einsum("...ab,kba->...k", mat, _SIGMA)) / 2.0


def _comm(a, b):
    return a @ b - b @ a


def pauli_oracle_rhs(spec, s, u, g):
    """me_spin_rhs recomputed literally in 2x2 matrix form.

    Builds S = S.sigma per node, evaluates the published commutator
    expressions with the same x-stencils, divides by 2i, and extracts the
    vector components. Agreement with me_spin_rhs certifies the
    matrix-to-vector translation.
    """
    _check(spec)
    sm = _to_matrix(s)                       # (ny, nx, 2, 2)
    u = u[..., None, None]

    if spec.spin == "A":
        m = _comm(sm, diff(sm, g, "dxx")) + u * _comm(sm, _SIGMA[2])
    elif spec.spin == "B":
        s3 = np.real(np.trace(sm @ _SIGMA[2], axis1=-2, axis2=-1))[..., None, None] / 2.0
        m = _comm(sm, diff(sm, g, "dxx")) + u * s3 * _comm(sm, _SIGMA[2])
    elif spec.spin in ("C", "D"):
        smx = diff(sm, g, "dx")
        sx2 = np.real(np.trace(smx @ smx, axis1=-2, axis2=-1))[..., None, None] / 2.0
        coeff = spec.param("mu") * sx2 - u + spec.param("m")
        m = diff(coeff * _comm(sm, smx), g, "dx")
        if spec.spin == "D":
            m = spec.param("n") * _comm(sm, diff(sm, g, "dxxxx")) + 2.0 * m
    elif spec.spin == "E":
        m = _comm(sm, diff(sm, g, "dxx")) + 2j * u * diff(sm, g, "dx")
    else:
        raise UnimplementedModel(f"{spec.name} has no spin family")
    return _to_vector(m / 2j)
