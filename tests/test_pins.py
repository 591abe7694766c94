"""Output bytes pinned across commits: sha256 digests of whole output trees,
and of both right-hand sides of every catalog entry on a fixed chain.

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

from spinsurf import Grid, catalog_lookup, catalog_names, me_phonon_rhs, me_spin_rhs
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
                         "c9a7f230f1b5cebc23728bf697d8730bf9a1a5a996a4dc69eb72bb4a6bae3866"),
    "m-xxxiv-periodic-chain": (_simulate("m-xxxiv", 64, 1, 0.1, "periodic", 40, 20), 7,
                               "f2e6f8ec07c7c21311fb2b74f4ab8a8729d05516ecc39f108236bd38250578a9"),
    "m-xliv-clamped-chain": (_simulate("m-xliv", 32, 1, 0.2, "clamped", 20, 10), 10,
                             "c9ced9e9233304e9a651c891bc0147c0a83688679ed22029af85b8e5bfdec284"),
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
                              "33921444f7e11d4d5513da42c11114c0830d9b37f59036d0b30e1c3c8f259561"),
    "m-lvii-external-u": (_simulate("m-lvii", 64, 1, 0.1, "periodic", 40, 20,
                                    external_u=True), 4,
                          "1a24d43ddc3d8a208791b3140cef17a01e2f63ad3feb5d7c8c3fbeee08436f12"),
    "mxiii-16x16": (_simulate("mxiii", 16, 16, 0.25, "periodic", 20, 10), 4,
                    "e37610056edb4ad616348f9263fae43ffd35f02ea16c417b58e0dbfd20005d29"),
    "mxiiia-clamped-16x16": (_simulate("mxiiia", 16, 16, 0.25, "clamped", 20, 10), 7,
                             "d1e3d69b7de65dd23b0363544d990a258e5f8a04a3ce7a0cd0ac80200592244d"),
    "reconstruct-hf": (_reconstruct, 2,
                       "b2469b155f4e19f57dc5477b2275251dc3cad82a7ce2b742d2baedd156e21d99"),
    "lle-clamped-16x14-dy": (_simulate("lle", 16, 14, 0.25, "clamped", 20, 10, dy=0.3), 4,
                             "0e694deda67bd13f60ec86ad320ec9f8e4ee3324e689002ed1f90b92dbf78b3d"),
    "check-hf": (_check("hf", "periodic", {}), 1,
                 "e40646e6060c82e98bebc346ce1063a3fbfc4ca546fe3354603c74e47fb55fb7"),
    "check-lle": (_check("lle", "clamped", {}), 1,
                  "05f711b157d59616ee228a4725a46c3ffe26e03a2c0505f216d2a8193b82ab7c"),
    "check-mxiii": (_check("mxiii", "periodic", {**_AB, "a3": 0.2, "a5": 0.1, "b5": -0.3}), 1,
                    "defa97678605b7fa589a98b27e1501b289d730ead4e9b2ff95a503a4c2436e6e"),
    "check-mxiiia": (_check("mxiiia", "clamped", _AB), 1,
                     "802b717f173a06d69c310705004dd585fd208a04f7456c75d0ba5b1459733982"),
    "check-mxiiib": (_check("mxiiib", "periodic", _AB), 1,
                     "928e549b052228994e2e232dc0e74fb4e95a484b17a6e4352f141e605e664902"),
    "check-ishimori": (_check("ishimori", "clamped", {"alpha": 0.8}), 1,
                       "b42457d696cce3b40a53e274581a12e1a9b5d106769086bd12a8a36d285ff1e8"),
}


@pytest.mark.parametrize("name", PINS)
def test_output_tree_matches_its_pinned_digest(name, tmp_path):
    argv, files, digest = PINS[name]
    assert main(argv(tmp_path)) == 0
    assert _tree_digest(tmp_path / "out") == (files, digest)


# ---------------------------------------------------------------------------
# every catalog entry's right-hand sides, one digest per entry and boundary

_CONSTANTS = {"mu": 0.75, "m": 1.25, "n": 0.5, "nu0": 1.5, "rho": 1.25, "lam": 0.625,
              "alpha": 0.375, "beta": 0.875}


def _rhs_digest(name, boundary):
    """sha256 over the bytes of me_spin_rhs's result and, where the entry has
    a phonon equation, me_phonon_rhs's (du_dt, then dw_dt when there is one),
    on `_stereo_spin` and rational u, w over 32 sites of 0.2, with every
    constant the entry reads set from _CONSTANTS."""
    g = Grid(32, 1, 0.2, 0.2, boundary)
    spec = catalog_lookup(name)
    spec = spec.with_params(**{k: _CONSTANTS[k] for k in spec.params})
    s = np.ascontiguousarray(_stereo_spin(32, 1, 0.2, 0.2).T.reshape(3, 1, 32))
    X = ((np.arange(32) - 15.5) * 0.2).reshape(1, 32)
    u, w = 0.5 * X / (1.0 + X * X), (0.25 - 0.5 * X * X) / (2.0 + X * X)
    out = [me_spin_rhs(spec, s, u, g)]
    if spec.phonon != "none":
        out += [a for a in me_phonon_rhs(spec, s, u, w, g) if a is not None]
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in out)).hexdigest()


RHS_PINS = {
    ("M-LVII", "periodic"): "027166dcab5f067766916d42f338ef163c4088c8cdd1495eace7e0f974f15c7e",
    ("M-LVII", "clamped"): "f3de38f2fd35f0b8c5ee28d1d475fdff381c9581954952bea54ec4fdf14df304",
    ("M-LVI", "periodic"): "ca0cd72951a1b30b89068c1223c7101ec665a5b26601b1fded3dd291b7464d1e",
    ("M-LVI", "clamped"): "7e5b90fe0b481d110d6f0c6ed8b12846f010daee5cb4a99580075a4c40022974",
    ("M-LV", "periodic"): "276a43dd4e590bdef36518b24324d250a6014eaa1d65a30e1f9584389f8a8a3c",
    ("M-LV", "clamped"): "730e0b6130c7faed8bd137fae254d64cb0b275c3d11619356190eedb56a82e2d",
    ("M-LIV", "periodic"): "13aa5d9ea47892c7af0599c1c482d0b77363e671bf69cf05edf8a5e63a743d98",
    ("M-LIV", "clamped"): "5410c6be3d7083751f0b67a4bd5844d3748e4631444d07da05d21b9fbcdbffd0",
    ("M-LIII", "periodic"): "d241f5ea5804f7ba5cc4ef6473e46d26ad8f2bbebd5574bb931b54246cce38df",
    ("M-LIII", "clamped"): "5fac2a7786b8ec590bba2462c29431a183bc38c27453365d8ddcda53e168e492",
    ("M-LII", "periodic"): "a20360b0ff663c10b5d290003c76a3118eab5e317e73b00b8fb5e3fb32077d05",
    ("M-LII", "clamped"): "b1f2b438ae35c444510e334a80a9f94aa975b27a22a148f33c99d1bf91f09a50",
    ("M-LI", "periodic"): "74227b7fead80c45618b38b3785608679abdfbd996008ce998e2cf8a8bd5cb93",
    ("M-LI", "clamped"): "ad8ec9e91d09c5e1aba6007917064639fc3c14ffe7b52f5ca1e2b3c59f5121cd",
    ("M-L", "periodic"): "0538654807bb58dfdf7537ccc45bfc016c1d699ed63613efa5a8caeae523568e",
    ("M-L", "clamped"): "e84c1a609ece9e2e4e9c190ff2734f28c0ff4462959092acfcef9b79755402fe",
    ("M-XLIX", "periodic"): "65df4e1605205d5cc6b339274b29b316c9a329a05d0ecfde8fcce33138472297",
    ("M-XLIX", "clamped"): "eaa0f59e51efd2819656245e1cfaf0cf9c888ced65984c1e9eed14d0b01fcd57",
    ("M-XLVIII", "periodic"): "a2f170e699f91cbfb93c37ac19bef89da14a1183bc3e56cad5d0254df47e2c1a",
    ("M-XLVIII", "clamped"): "23d7e3d92a7f32e9ac256b31f97bfee01d513a010ef22f4c0456599f9365aa92",
    ("M-XLVII", "periodic"): "651779d623eff22aae73fbc3cbf69cbdc8fe5bd6131a0c31378ca23e10e82fd5",
    ("M-XLVII", "clamped"): "c973e6a5f0a2bb033fbaf6edd56d04d1dcdaa2deecd8a2c9573dd47e5f55dccb",
    ("M-XLVI", "periodic"): "4856725e4e58db9e26d002d9178953a345953b157e3ac1895dd8560d5d2b7f20",
    ("M-XLVI", "clamped"): "38dfbab682f16c1555dc3770b8eb4f6fb36965aa3bca6df7c739e232d17ea50b",
    ("M-XLV", "periodic"): "9e9e195ea7fbceee747f2959607ccdfe8714295b693820cc7d24d94594c11917",
    ("M-XLV", "clamped"): "69d79e2b8b2ca36954d76849e8109420f3298226b99c36ea643d5482e152686d",
    ("M-XLIV", "periodic"): "d47e6ae876d45d01d565bfec885c632b357fddc51860ed4480d59b40c8fef7b9",
    ("M-XLIV", "clamped"): "062aa9d97339fcc4e5858908b8f179a7fd000454b6ea2659410096586733176c",
    ("M-XLIII", "periodic"): "5d0fdf7057fe5ebebd61a4e882d57cdc46203cc0ea091273f51eb02b5305fd7f",
    ("M-XLIII", "clamped"): "4294cfbc441cf44d7877a32621a7deb57c972906b1ca70e82bf61eb9f63876a7",
    ("M-XLII", "periodic"): "ba88c5a3bbcb9a637f6da00b8f31414d3c6207c598765652ebb4cdcd580b56d8",
    ("M-XLII", "clamped"): "1de2356110260c6c520358cda76194a9f9ae067b56e9d5030f273022009c8322",
    ("M-XLI", "periodic"): "4a269176c2e0b8d198b48cea28d204b01d13987eda5ff4f6679d48aa348db424",
    ("M-XLI", "clamped"): "1b31b161210db765426839f64bc8dbb66eec12c8f48956676a4a2f22b1144ee6",
    ("M-XL", "periodic"): "f3a1e2e7f0ca3fc659f0f9dab9bb5b58b9505424e6c83f2fdfd1f23b063cb7c4",
    ("M-XL", "clamped"): "be08b9aaffb1352b8015fcd2d9859d1ceb84d3a4ed61a9f81e66136d62f4dd8f",
    ("M-XXXIX", "periodic"): "150041647b8e55478a9690153a9b761ce98db4e06910da0bf131e5204b52e270",
    ("M-XXXIX", "clamped"): "3c87b2c21ceabce4a18322f4dc18e1b8cb479266f7c064a590791c5b45075dbd",
    ("M-XXXVIII", "periodic"): "4320fc169edcfcf89e79145c8160e99dd23644153510ecd74d9820453ee85786",
    ("M-XXXVIII", "clamped"): "7955ae0fbf6050c7dd11d068542b29395021c247e33054fa885da853ccaa0fe6",
    ("M-XXXVII", "periodic"): "8ea93bce561bad110f10c1debaed8550a237a8efc876c81249dd5a91a646e285",
    ("M-XXXVII", "clamped"): "4018ba22f0814943a28bf9e49c100deb90f88bdbf29d352dfce0bf96983d0f30",
    ("M-XXXVI", "periodic"): "f823deeaa16aaed5202aec2710fb7e42fa630ccbdfe4da328ea8c3951e281e9a",
    ("M-XXXVI", "clamped"): "acd99e6c0481282cf1fb27d77a2a2c59eb2f4562041b3a05f96027d43cca0896",
    ("M-XXXV", "periodic"): "ea09445d930ba8a603122b07e24afcb7c0636e70f1c0e5cc72b6bf5c7dbcb28e",
    ("M-XXXV", "clamped"): "06d3f3b035789f0ef87cf731d27825a186c8737ae8672fd8883e66328eac2132",
    ("M-XXXIV", "periodic"): "614b69399daecc29541310c5963389b6e5445985777af29fe4ec82efa64e8858",
    ("M-XXXIV", "clamped"): "93e0b0846876601900a89c9ebb85beed5d7cce82a6542d8380bfd138c52b3fe1",
    ("M-XXXIII", "periodic"): "74238f4d0fe929705404ab8da07240211fcb1ef5ee063cb3ce3f7e1f8ac91831",
    ("M-XXXIII", "clamped"): "e048d621304aae1249c7438c4eef2ab26fe326769a96bad6c45085debe5b9a2b",
}


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_lookup(n).implemented])
def test_catalog_rhs_matches_its_pinned_digest(name, boundary):
    assert _rhs_digest(name, boundary) == RHS_PINS[name, boundary]
