"""The benchmark's workloads: seeded inputs, CLI invocations and output checks.

Inputs are generated here with numpy only and written in the documented
`spinsurf-field v1` / `spinsurf-curve v1` text formats, so the program under
test sees nothing but files, and the same seed gives byte-identical inputs
whatever the state of `src/`. Checks read the outputs back with numpy, not
with spinsurf, so a defect in the program's reader cannot hide one in its
writer.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FIELD_MAGIC = "# spinsurf-field v1"
CURVE_MAGIC = "# spinsurf-curve v1"

# Pinned output bounds, about ten times the largest value seen over seeds
# 0-29 at the full sizes (see README.md): a correct program stays well under
# them, and a broken stencil, quadrature or writer does not.
NORM_DRIFT_MAX = {"hf": 1e-12, "m-xxxiv": 1e-7,   # report.json max_norm_drift
                  "lle": 1e-10, "mxiiib": 1e-4}
UNIT_NORM_TOL = 1e-12         # last spin snapshot, | |S| - 1 |
PATH_MISMATCH_MAX = 5e-2      # reconstruct: sweep disagreement, O(h^2)
CHECK_RESIDUAL_MAX = 1e-9     # check lle on an exactly stationary field
ZC_RESIDUAL_MAX = 5e-3        # zc: zero-curvature residual, O(h^2)
NLSE_RESIDUAL_MAX = 1.5e-2    # zc: NLSE residual of boosted-soliton data

# "full" is what the benchmark measures. "smoke", for the benchmark's own
# test, keeps the grids (so the pinned bounds still apply) and takes few steps
# and time levels.
SIZES = {
    "full": {"chain_nx": 256, "hf_steps": 4000, "me_steps": 2000, "chain_every": 200,
             "lle_n": 128, "lle_steps": 200, "lle_every": 50,
             "mx_n": 64, "mx_steps": 200, "mx_every": 100,
             "hist_nx": 256, "hist_nt": 401, "check_n": 128,
             "curve_nx": 4097, "curve_nt": 17},
    "smoke": {"chain_nx": 256, "hf_steps": 20, "me_steps": 20, "chain_every": 10,
              "lle_n": 128, "lle_steps": 10, "lle_every": 5,
              "mx_n": 64, "mx_steps": 10, "mx_every": 5,
              "hist_nx": 256, "hist_nt": 21, "check_n": 32,
              "curve_nx": 4097, "curve_nt": 17},
}

CHAIN_DX = 0.1
PLANE_DX = 0.2
HIST_DX, HIST_DT = 0.1, 0.01
CURVE_X0, CURVE_X1, CURVE_T1 = -20.0, 20.0, 0.16


def _g17(x):
    return format(float(x), ".17g")


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# writers for the documented text formats

def write_field(path, values, dx, dy, boundary):
    """values: (ny, nx, 3) unit vectors -> `spinsurf-field v1` CSV."""
    ny, nx, _ = values.shape
    lines = [FIELD_MAGIC,
             f"# nx={nx} ny={ny} dx={_g17(dx)} dy={_g17(dy)} "
             f"boundary={boundary} comps=3"]
    for j in range(ny):
        for i, (a, b, c) in enumerate(values[j].tolist()):
            lines.append(f"{i},{j},{a:.17g},{b:.17g},{c:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_curve(path, k, tau, dx, dt):
    nt, nx = k.shape
    lines = [CURVE_MAGIC, f"# nx={nx} nt={nt} dx={_g17(dx)} dt={_g17(dt)}"]
    for j in range(nt):
        for i, (a, b) in enumerate(zip(k[j].tolist(), tau[j].tolist())):
            lines.append(f"{i},{j},{a:.17g},{b:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# seeded fields

def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def smooth_spin(rng, nx, ny, modes=3, tilt=0.5):
    """Band-limited periodic perturbation of the north pole, normalized."""
    X, Y = np.meshgrid(np.arange(nx) / nx, np.arange(ny) / ny)
    v = np.zeros((ny, nx, 3))
    for c in range(3):
        for _ in range(modes):
            kx = rng.integers(-2, 3)
            ky = rng.integers(-2, 3) if ny > 1 else 0
            amp = tilt * rng.uniform(0.2, 1.0)
            v[..., c] += amp * np.sin(2 * np.pi * (kx * X + ky * Y)
                                      + rng.uniform(0, 2 * np.pi))
    v[..., 2] += 2.0
    return _unit(v)


def winding_spin(rng, n):
    """Rotated in-plane winding field: S x Lap_h S = 0 exactly on the grid."""
    mx, my = rng.integers(1, 4, size=2)
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x)
    theta = 2 * np.pi * (mx * X + my * Y) + rng.uniform(0, 2 * np.pi)
    s = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
    return _unit(s @ _rotation(rng).T)


def spin_wave_history(rng, nx, nt, dx, dt):
    """Exact HF solution S = R (sin a cos p, sin a sin p, cos a), p = kx - wt,
    w = k^2 cos a, sampled at nt time levels (rows)."""
    k = 2 * np.pi * rng.integers(1, 4) / (nx * dx)
    a = rng.uniform(0.4, 1.2)
    w = k * k * math.cos(a)
    X, T = np.meshgrid(np.arange(nx) * dx, np.arange(nt) * dt)
    p = k * X - w * T + rng.uniform(0, 2 * np.pi)
    s = np.stack([math.sin(a) * np.cos(p), math.sin(a) * np.sin(p),
                  np.full_like(p, math.cos(a))], axis=-1)
    return _unit(s @ _rotation(rng).T)


def soliton_curve(rng, nx, nt):
    """Curvature/torsion whose Hasimoto map is the boosted NLSE soliton
    a sech(a(x - 2at - x0)) e^{iax}: k = 2a sech(.), tau = -a."""
    a = rng.uniform(0.8, 1.2)
    x0 = rng.uniform(-2.0, 2.0)
    dx = (CURVE_X1 - CURVE_X0) / (nx - 1)
    dt = CURVE_T1 / (nt - 1)
    X, T = np.meshgrid(CURVE_X0 + np.arange(nx) * dx, np.arange(nt) * dt)
    k = 2 * a / np.cosh(a * (X - 2 * a * T - x0))
    return k, np.full_like(k, -a), dx, dt


# ---------------------------------------------------------------------------
# output checks (each returns a list of problems; empty means correct)

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite_below(name, value, bound):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value <= bound):
        return [f"{name} = {value!r}, not a finite number <= {bound:g}"]
    return []


def _read_field_values(path):
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)[:, 2:]


def check_simulate(outdir, steps, every, phi, drift_max):
    doc = _load_json(os.path.join(outdir, "report.json"))
    diag = doc["diagnostics"]
    want = steps // every + 1
    problems = []
    if len(diag) != want:
        problems.append(f"report has {len(diag)} snapshots, expected {want}")
    names = sorted(os.listdir(outdir))
    spins = [n for n in names if n.endswith("_S.csv")]
    if len(spins) != want:
        problems.append(f"{len(spins)} spin snapshot files, expected {want}")
    if phi and len([n for n in names if n.endswith("_phi.csv")]) != want:
        problems.append("missing phi snapshots")
    for rec in diag:
        problems += _finite_below("max_norm_drift", rec.get("max_norm_drift"),
                                  drift_max)
    if spins:
        s = _read_field_values(os.path.join(outdir, spins[-1]))
        drift = float(np.abs(np.linalg.norm(s, axis=-1) - 1.0).max())
        problems += _finite_below("last snapshot norm drift", drift, UNIT_NORM_TOL)
    return problems


def check_reconstruct(obj_path, report_path, nx, ny):
    with open(obj_path, "rb") as fh:
        data = b"\n" + fh.read()
    counts = {tag: data.count(b"\n" + tag + b" ") for tag in (b"v", b"vn", b"f")}
    want = {b"v": nx * ny, b"vn": nx * ny, b"f": (nx - 1) * (ny - 1)}
    problems = [f"OBJ has {counts[t]} {t.decode()} lines, expected {want[t]}"
                for t in want if counts[t] != want[t]]
    doc = _load_json(report_path)
    return problems + _finite_below("path_mismatch",
                                    doc["diagnostics"][0]["path_mismatch"],
                                    PATH_MISMATCH_MAX)


def check_check(report_path):
    doc = _load_json(report_path)
    return (_finite_below("vector_residual.max", doc["vector_residual"]["max"],
                          CHECK_RESIDUAL_MAX)
            + _finite_below("scalar_residual.max", doc["scalar_residual"]["max"],
                            CHECK_RESIDUAL_MAX))


def check_zc(report_path):
    diag = _load_json(report_path)["diagnostics"][0]
    return (_finite_below("zc_residual_max", diag["zc_residual_max"], ZC_RESIDUAL_MAX)
            + _finite_below("nlse_residual_max", diag.get("nlse_residual_max"),
                            NLSE_RESIDUAL_MAX))


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Invocation:
    """One `spinsurf` CLI call, where it writes, and how to check it."""

    name: str
    argv: list
    outdir: str          # everything the call writes lives here
    site_steps: int      # grid nodes x time levels the call advances or reads
    check: object        # () -> list of problems


def _simulate(model, initial, n_sites, steps, every, dx, out, phi=False):
    outdir = os.path.join(out, model)
    argv = ["simulate", "--model", model, "--initial", initial,
            "--dt", repr(0.2 * dx ** 2), "--steps", str(steps),
            "--snapshot-every", str(every), "--output", outdir]
    return Invocation(model, argv, outdir, n_sites * steps,
                      lambda: check_simulate(outdir, steps, every, phi,
                                             NORM_DRIFT_MAX[model]))


def _chain_1d(z, inp, out, seed=None):
    n = z["chain_nx"]
    if seed is not None:
        for stream, fname in ((1, "hf_S0.csv"), (2, "me_S0.csv")):
            s = smooth_spin(_rng(seed, stream), n, 1)
            write_field(os.path.join(inp, fname), s, CHAIN_DX, 1.0, "periodic")
    return [
        _simulate("hf", os.path.join(inp, "hf_S0.csv"), n,
                  z["hf_steps"], z["chain_every"], CHAIN_DX, out),
        _simulate("m-xxxiv", os.path.join(inp, "me_S0.csv"), n,
                  z["me_steps"], z["chain_every"], CHAIN_DX, out),
    ]


def _plane_2d(z, inp, out, seed=None):
    n1, n2 = z["lle_n"], z["mx_n"]
    if seed is not None:
        for stream, fname, n in ((3, "lle_S0.csv", n1), (4, "mxiiib_S0.csv", n2)):
            s = smooth_spin(_rng(seed, stream), n, n)
            write_field(os.path.join(inp, fname), s, PLANE_DX, PLANE_DX, "periodic")
    return [
        _simulate("lle", os.path.join(inp, "lle_S0.csv"), n1 * n1,
                  z["lle_steps"], z["lle_every"], PLANE_DX, out),
        _simulate("mxiiib", os.path.join(inp, "mxiiib_S0.csv"), n2 * n2,
                  z["mx_steps"], z["mx_every"], PLANE_DX, out, phi=True),
    ]


def _surface_io(z, inp, out, seed=None):
    hx, ht, nc = z["hist_nx"], z["hist_nt"], z["check_n"]
    cx, ct = z["curve_nx"], z["curve_nt"]
    hist, wind, curve = (os.path.join(inp, f) for f in
                         ("history.csv", "winding.csv", "curve.csv"))
    if seed is not None:
        write_field(hist, spin_wave_history(_rng(seed, 5), hx, ht, HIST_DX, HIST_DT),
                    HIST_DX, HIST_DT, "clamped")
        write_field(wind, winding_spin(_rng(seed, 6), nc),
                    PLANE_DX, PLANE_DX, "periodic")
        write_curve(curve, *soliton_curve(_rng(seed, 7), cx, ct))
    rdir, cdir, zdir = (os.path.join(out, d) for d in ("reconstruct", "check", "zc"))
    obj, rrep = os.path.join(rdir, "surface.obj"), os.path.join(rdir, "report.json")
    crep, zrep = os.path.join(cdir, "report.json"), os.path.join(zdir, "report.json")
    return [
        Invocation("reconstruct",
                   ["reconstruct", "--input", hist, "--coeffs", "hf", "--normals",
                    "true", "--output", obj, "--report", rrep],
                   rdir, hx * ht, lambda: check_reconstruct(obj, rrep, hx, ht)),
        Invocation("check", ["check", "--model", "lle", "--input", wind,
                             "--output", crep],
                   cdir, nc * nc, lambda: check_check(crep)),
        Invocation("zc", ["zc", "--input", curve, "--output", zrep],
                   zdir, cx * ct, lambda: check_zc(zrep)),
    ]


# Each workload function lists its invocations and, when given a seed, first
# writes their input files, so input names are spelled in one place.
WORKLOADS = {"chain-1d": _chain_1d, "plane-2d": _plane_2d, "surface-io": _surface_io}


def generate_inputs(workload, size, seed, inputs_dir):
    """Write the workload's seeded input files into inputs_dir."""
    os.makedirs(inputs_dir, exist_ok=True)
    WORKLOADS[workload](SIZES[size], inputs_dir, "", seed=seed)


def invocations(workload, size, inputs_dir, out_dir):
    """The workload's CLI calls, reading inputs_dir and writing under out_dir."""
    return WORKLOADS[workload](SIZES[size], inputs_dir, out_dir)
