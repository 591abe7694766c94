"""Output bytes pinned across commits: sha256 digests of whole output trees.

Acceptance test 9 compares two runs of the same code; these pins compare a
run with the digests recorded before the last change to the numerical
core, so a refactor that moves a single output bit fails here. The inputs
are built with +, -, *, / and sqrt only (inverse stereographic projection
of rational profiles), which IEEE 754 rounds the same on every machine, so
no libm sin/cos can move a digest. FFT paths (M-XIIIB's simulate) are left
out: pocketfft's output may differ between numpy versions. `check` reads
phi from a file, so its M-XIIIB report has no FFT and is pinned.
"""

import hashlib

import numpy as np
import pytest

from spinsurf.cli import main


def _stereo_spin(nx, ny, dx, dy):
    """(ny*nx, 3) unit vectors, row-major: the inverse stereographic image of
    the rational profile p + i q = (0.8 + 0.6 i X / (1 + r^2)) / (1 + r^2)."""
    x = (np.arange(nx) - (nx - 1) / 2.0) * dx
    y = (np.arange(ny) - (ny - 1) / 2.0) * dy
    X, Y = np.meshgrid(x, y)
    bump = 1.0 / (1.0 + X * X + Y * Y)
    p, q = 0.8 * bump, 0.6 * X * bump * bump
    d = 1.0 + p * p + q * q
    s = np.stack([2.0 * p / d, 2.0 * q / d, (1.0 - p * p - q * q) / d], axis=-1)
    s = s / np.sqrt(s[..., 0] * s[..., 0] + s[..., 1] * s[..., 1]
                    + s[..., 2] * s[..., 2])[..., None]
    return s.reshape(-1, 3)


def _write_spin(path, nx, ny, dx, dy, boundary):
    """The `spinsurf-field v1` text of _stereo_spin, written without spinsurf."""
    rows = [f"{n % nx},{n // nx},{a:.17g},{b:.17g},{c:.17g}"
            for n, (a, b, c) in enumerate(_stereo_spin(nx, ny, dx, dy).tolist())]
    path.write_text("# spinsurf-field v1\n"
                    f"# nx={nx} ny={ny} dx={dx:.17g} dy={dy:.17g} "
                    f"boundary={boundary} comps=3\n" + "\n".join(rows) + "\n")
    return str(path)


def _tree_digest(root):
    """sha256 over the sorted `<sha256 of file>  <relative path>` lines."""
    lines = sorted(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                   f"{p.relative_to(root).as_posix()}"
                   for p in root.rglob("*") if p.is_file())
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _write_u(path, nx, dx, boundary):
    """A `spinsurf-field v1` scalar on an nx-site chain: the rational profile
    u = 0.5 X / (1 + X^2), written without spinsurf."""
    x = ((np.arange(nx) - (nx - 1) / 2.0) * dx).tolist()
    rows = [f"{i},0,{0.5 * X / (1.0 + X * X):.17g}" for i, X in enumerate(x)]
    path.write_text("# spinsurf-field v1\n"
                    f"# nx={nx} ny=1 dx={dx:.17g} dy={dx:.17g} "
                    f"boundary={boundary} comps=1\n" + "\n".join(rows) + "\n")
    return str(path)


def _write_phi(path, nx, ny, dx, dy, boundary):
    """A `spinsurf-field v1` scalar: the rational potential
    phi = (0.3 X - 0.2 X Y + 0.1 Y^2) / (1 + X^2 + 2 Y^2), written without spinsurf."""
    x = (np.arange(nx) - (nx - 1) / 2.0) * dx
    y = (np.arange(ny) - (ny - 1) / 2.0) * dy
    X, Y = np.meshgrid(x, y)
    phi = (0.3 * X - 0.2 * X * Y + 0.1 * Y * Y) / (1.0 + X * X + 2.0 * Y * Y)
    rows = [f"{n % nx},{n // nx},{v:.17g}" for n, v in enumerate(phi.ravel().tolist())]
    path.write_text("# spinsurf-field v1\n"
                    f"# nx={nx} ny={ny} dx={dx:.17g} dy={dy:.17g} "
                    f"boundary={boundary} comps=1\n" + "\n".join(rows) + "\n")
    return str(path)


def _simulate(model, nx, ny, dx, boundary, steps, every, factor=0.2, order=2,
              external_u=False, dy=None):
    """A simulate run at dt = factor * dx^order, on cells dx by dy (default
    dx); external_u adds `_write_u`'s field."""
    def run(tmp):
        spin = _write_spin(tmp / "S0.csv", nx, ny, dx, dx if dy is None else dy, boundary)
        extra = ["--external-u", _write_u(tmp / "u.csv", nx, dx, boundary)] if external_u else []
        return ["simulate", "--model", model, "--initial", spin, *extra,
                "--dt", repr(factor * dx ** order), "--steps", str(steps),
                "--snapshot-every", str(every), "--output", str(tmp / "out")]
    return run


def _reconstruct(tmp):
    spin = _write_spin(tmp / "S.csv", 12, 10, 0.25, 0.25, "clamped")
    (tmp / "out").mkdir()
    return ["reconstruct", "--input", spin, "--coeffs", "hf", "--normals", "true",
            "--output", str(tmp / "out" / "surface.obj"),
            "--report", str(tmp / "out" / "report.json")]


def _check(kind, boundary, params):
    """A check run of kind on `_stereo_spin` over 14 x 12 cells of 0.25 x 0.3,
    with `_write_phi`'s potential for the kinds that read one."""
    def run(tmp):
        spin = _write_spin(tmp / "S.csv", 14, 12, 0.25, 0.3, boundary)
        phi = (["--phi", _write_phi(tmp / "phi.csv", 14, 12, 0.25, 0.3, boundary)]
               if kind in ("mxiiia", "mxiiib", "ishimori") else [])
        (tmp / "out").mkdir()
        return ["check", "--model", kind, "--input", spin, *phi,
                *(a for k, v in params.items() for a in ("--param", f"{k}={v}")),
                "--output", str(tmp / "out" / "report.json")]
    return run


_AB = {"a1": 0.7, "a2": 1.1, "b1": -0.4, "b2": 0.3}

# run -> (its argv, made in a run directory; the number of output files; the
# digest of the output tree)
PINS = {
    "hf-periodic-chain": (_simulate("hf", 64, 1, 0.1, "periodic", 40, 20), 4,
                          "50eb75795c5458b2e7dd93a7660a4a0a54cbf9a0af9a1cd91119b077d5729ef6"),
    "hf-clamped-chain": (_simulate("hf", 32, 1, 0.2, "clamped", 20, 10), 4,
                         "0f178efe4329138d84cb0d08e5e511eec0f39f10ea8a13e15937c27013faec77"),
    "m-xxxiv-periodic-chain": (_simulate("m-xxxiv", 64, 1, 0.1, "periodic", 40, 20), 7,
                               "f2e6f8ec07c7c21311fb2b74f4ab8a8729d05516ecc39f108236bd38250578a9"),
    "m-xliv-clamped-chain": (_simulate("m-xliv", 32, 1, 0.2, "clamped", 20, 10), 10,
                             "0b4327117502bfac87aed8a90706f1ecce0fe8d81d97da5fcd14171c80b22d39"),
    "lle-16x16": (_simulate("lle", 16, 16, 0.25, "periodic", 20, 10), 4,
                  "d47bcde2b6f42e413bda7ccee670e7be8d4d27ebc91349ff87eb945186d2bcdb"),
    "m-lii-periodic-chain": (_simulate("m-lii", 64, 1, 0.1, "periodic", 40, 20), 10,
                             "5057895491f798523e00eab9bcb67460586a6ac4476868c8e1d31703e0b24370"),
    "m-xlv-periodic-chain": (_simulate("m-xlv", 64, 1, 0.1, "periodic", 40, 20, order=3), 7,
                             "9fcb1d22f6f0007741c6b70d4d53b41a83f701facca439cf732ea4000c00b302"),
    "m-xxxviii-periodic-chain": (_simulate("m-xxxviii", 64, 1, 0.1, "periodic", 40, 20,
                                           factor=0.1, order=4), 7,
                                 "7b49b5a8b79175eb09045912ad97fb02a1a61846ca8a9ee20f905c34ea80230e"),
    "m-xxxv-periodic-chain": (_simulate("m-xxxv", 64, 1, 0.1, "periodic", 40, 20,
                                        factor=0.1, order=4), 10,
                              "4dd22404c6c1f40c6106f698b2d9d3008f8357e4c2c9d102fd3aa62638b09a38"),
    "m-xlvii-clamped-chain": (_simulate("m-xlvii", 32, 1, 0.2, "clamped", 20, 10,
                                        factor=0.1, order=4), 10,
                              "cf4d8e8eef015506af8dda2c96b259ce60c99f02adae76f0ab52e53c2f4bdc74"),
    "m-lvii-external-u": (_simulate("m-lvii", 64, 1, 0.1, "periodic", 40, 20,
                                    external_u=True), 4,
                          "1a24d43ddc3d8a208791b3140cef17a01e2f63ad3feb5d7c8c3fbeee08436f12"),
    "mxiii-16x16": (_simulate("mxiii", 16, 16, 0.25, "periodic", 20, 10), 4,
                    "e37610056edb4ad616348f9263fae43ffd35f02ea16c417b58e0dbfd20005d29"),
    "mxiiia-clamped-16x16": (_simulate("mxiiia", 16, 16, 0.25, "clamped", 20, 10), 7,
                             "eb373ac5e93fdfccaf47d83dbabc21a854c18f79481a87285f1b4ea7421aab9c"),
    "reconstruct-hf": (_reconstruct, 2,
                       "b2469b155f4e19f57dc5477b2275251dc3cad82a7ce2b742d2baedd156e21d99"),
    "lle-clamped-16x14-dy": (_simulate("lle", 16, 14, 0.25, "clamped", 20, 10, dy=0.3), 4,
                             "da1020de480346031c449c6240ac0114a2a221689c4de0e29792322c2f5497cb"),
    "check-hf": (_check("hf", "periodic", {}), 1,
                 "e40646e6060c82e98bebc346ce1063a3fbfc4ca546fe3354603c74e47fb55fb7"),
    "check-lle": (_check("lle", "clamped", {}), 1,
                  "5c318de385c00791e284df6bc2a30c07473cc5ec8d377797d087385c5244cdb2"),
    "check-mxiii": (_check("mxiii", "periodic", {**_AB, "a3": 0.2, "a5": 0.1, "b5": -0.3}), 1,
                    "defa97678605b7fa589a98b27e1501b289d730ead4e9b2ff95a503a4c2436e6e"),
    "check-mxiiia": (_check("mxiiia", "clamped", _AB), 1,
                     "a3d228a148b9496f4f4beaf8214c2993eb39f4e2f2a15c25956568561fa8934c"),
    "check-mxiiib": (_check("mxiiib", "periodic", _AB), 1,
                     "928e549b052228994e2e232dc0e74fb4e95a484b17a6e4352f141e605e664902"),
    "check-ishimori": (_check("ishimori", "clamped", {"alpha": 0.8}), 1,
                       "f2cff5c603ad9a18fc1d8a91af847ca469eea5a500cd69ec0f9ef98b879e0761"),
}


@pytest.mark.parametrize("name", PINS)
def test_output_tree_matches_its_pinned_digest(name, tmp_path):
    argv, files, digest = PINS[name]
    assert main(argv(tmp_path)) == 0
    assert _tree_digest(tmp_path / "out") == (files, digest)
