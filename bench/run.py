"""spinsurf benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding `src/`):

    python3 bench/run.py --workload chain-1d --seed 1 --seconds 30 --trace 0

`--trace 0` runs the workload's `spinsurf` invocations as child processes, one
at a time, and reports the end-to-end metrics. `--trace 1` runs the same
invocations in this process through `spinsurf.cli.main`, alternating untraced
and traced passes, and reports per-layer metrics from the spans. Every output
is checked in both modes. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See bench/README.md.
"""

import os

# Children and the in-process run both use one BLAS/OpenMP thread, set before
# numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads  # noqa: E402

ENTRY = "import sys; from spinsurf.cli import main; sys.exit(main())"
# The reference child: interpreter start, numpy import, a 128^2 stencil and
# cross-product loop and %.17g formatting, the kind of work an invocation
# does, without spinsurf. It is timed next to every invocation to measure how
# fast the shared machine is running at that moment.
REFERENCE = """import numpy as np
a = np.random.default_rng(0).standard_normal((128, 128, 3))
for _ in range(60):
    b = np.roll(a, 1, 0) - 2 * a + np.roll(a, -1, 1)
    c = np.empty_like(a)
    c[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    np.isfinite(c).all()
",".join(format(v, ".17g") for v in a[:40, :, 0].ravel().tolist())
"""
# A fixed scale, the reference child's median on the reference machine
# (README.md). Calibrated times are measured times multiplied by
# REFERENCE_S / (mean reference time around them).
REFERENCE_S = 0.145
CHILD_TIMEOUT_S = 30        # one invocation; the slowest takes about 3 s
HARD_LIMIT_S = 120          # stop starting passes after this, whatever --seconds
MIN_PASSES = 2              # the second pass checks byte-identical outputs
SETUP_MIN_REPEATS = 5
SETUP_MIN_TOTAL_S = 1.0     # small set-ups repeat until this much is timed
SETUP_MAX_REPEATS = 50
IMPORT_REPEATS = 5


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def digest_tree(path):
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Bench:
    def __init__(self, root, workload, seed, seconds, size):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = os.path.join(root, ".bench_work", workload)
        self.inputs = os.path.join(self.work, "inputs")
        self.logs = os.path.join(self.work, "logs")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.invs = workloads.invocations(workload, size, self.inputs,
                                          os.path.join(self.work, "out"))
        self.digests = {}
        self.attempted = 0
        self.failures = []     # (invocation name, problems)
        self.reference_times = []
        self.raw = {}          # uncalibrated end-to-end timings, printed only
        self.traced_passes = 0
        self.untraced_names = []

    def ops_failed_ratio(self):
        return len(self.failures) / self.attempted

    # -- set-up ---------------------------------------------------------

    def clean(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.logs)

    def setup(self, timed):
        """Generate the seeded inputs; when timed, repeat and return the times.

        Every repeat writes a fresh directory and must reproduce the first
        one byte for byte.
        """
        times, first = [], None
        while True:
            target = self.inputs if first is None else self.inputs + ".again"
            t0 = time.perf_counter()
            workloads.generate_inputs(self.workload, self.size, self.seed, target)
            times.append(time.perf_counter() - t0)
            digest = digest_tree(target)
            if first is None:
                first = digest
            else:
                shutil.rmtree(target)
                if digest != first:
                    raise SystemExit("set-up is not deterministic: inputs differ "
                                     "between two generations with one seed")
            if not timed:
                return times
            if len(times) >= SETUP_MAX_REPEATS or (
                    len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_TOTAL_S):
                return times

    # -- checking -------------------------------------------------------

    def evaluate(self, inv, exit_code):
        """Problems with one invocation's outputs; also records the failure."""
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
        else:
            try:
                problems = inv.check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            digest = digest_tree(inv.outdir)
            if self.digests.setdefault(inv.name, digest) != digest:
                problems.append("outputs differ from the first pass with this seed")
        if problems:
            self.failures.append((inv.name, problems))
        return problems

    def fresh_outdir(self, inv):
        shutil.rmtree(inv.outdir, ignore_errors=True)
        os.makedirs(inv.outdir)

    # -- child processes ------------------------------------------------

    def spawn(self, args, log_name):
        """Run `python args...`; returns (exit code, wall s, max RSS MB)."""
        with open(os.path.join(self.logs, log_name), "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work,
                                    env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6

    def check_import_path(self):
        """The children must import spinsurf from this checkout's src/."""
        out = subprocess.run([sys.executable, "-c",
                              "import spinsurf.cli; print(spinsurf.__file__)"],
                             cwd=self.work, env=self.env, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        path = out.stdout.strip()
        if out.returncode != 0 or not path.startswith(self.src + os.sep):
            raise SystemExit(f"spinsurf does not import from {self.src}: "
                             f"{(out.stderr or path).strip()[-500:]}")

    def reference(self):
        code, wall, _ = self.spawn(["-c", REFERENCE], "reference.log")
        if code != 0:
            raise SystemExit(f"the reference child failed with exit code {code}")
        self.reference_times.append(wall)
        return wall

    def child_pass(self):
        """One pass; each invocation's wall time is also calibrated by the
        mean of the reference times just before and just after it."""
        rec = {"wall": 0.0, "calibrated": 0.0, "rss": 0.0, "site_steps": 0}
        before = self.reference_times[-1] if self.reference_times else self.reference()
        for inv in self.invs:
            self.fresh_outdir(inv)
            code, wall, rss = self.spawn(["-c", ENTRY, *inv.argv], inv.name + ".log")
            after = self.reference()
            self.evaluate(inv, code)
            rec["wall"] += wall
            rec["calibrated"] += wall * REFERENCE_S / ((before + after) / 2)
            rec["rss"] = max(rec["rss"], rss)
            rec["site_steps"] += inv.site_steps
            before = after
        return rec

    # -- in-process -----------------------------------------------------

    def inproc_pass(self, main):
        wall = 0.0
        for inv in self.invs:
            self.fresh_outdir(inv)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = main(inv.argv)
                wall += time.perf_counter() - t0
            self.evaluate(inv, code)
        return wall

    def import_cli(self):
        sys.path.insert(0, self.src)
        import spinsurf.cli
        if not spinsurf.cli.__file__.startswith(self.src + os.sep):
            raise SystemExit(f"spinsurf does not import from {self.src}")
        return spinsurf.cli

    # -- the two modes --------------------------------------------------

    def passes(self, run_one):
        """Repeat run_one until --seconds is used up (at least MIN_PASSES)."""
        out = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out.append(run_one())
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if len(out) >= MIN_PASSES and (elapsed + took > self.seconds
                                           or elapsed > HARD_LIMIT_S):
                return out

    def end_to_end(self):
        """Calibrated end-to-end metrics; the uncalibrated ones go to self.raw."""
        self.clean()
        self.check_import_path()      # also compiles bytecode before timing
        before = self.reference()
        setup = self.setup(timed=True)
        setup_scale = REFERENCE_S / ((before + self.reference()) / 2)
        runs = self.passes(self.child_pass)
        self.raw = timings(runs, "wall", setup)
        self.raw["reference_s"] = ("s", self.reference_times)
        out = timings(runs, "calibrated", [t * setup_scale for t in setup])
        out["peak_rss_mb"] = ("MB", [r["rss"] for r in runs])
        return out

    def per_layer(self):
        self.clean()
        self.setup(timed=False)
        self.check_import_path()
        imports = []
        for _ in range(IMPORT_REPEATS):
            bare = self.spawn(["-c", "pass"], "bare.log")[1]
            imports.append(self.spawn(["-c", "import spinsurf.cli"], "import.log")[1] - bare)

        cli = self.import_cli()
        untraced, traced, aggs = [], [], []
        tracer = None

        def pair():
            nonlocal tracer
            untraced.append(self.inproc_pass(cli.main))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(self.inproc_pass(tracer.span(tracing.ROOT, cli.main)))
            finally:
                tracer.uninstall()
            aggs.append(tracing.aggregate(tracer.spans, tracer.counts))

        self.passes(pair)
        self.traced_passes = len(aggs)
        self.untraced_names = tracer.missing
        tracer.write(os.path.join(self.work, "spans.jsonl"))
        return layer_metrics(aggs, imports,
                             [t - u for t, u in zip(traced, untraced)])


def timings(runs, key, setup):
    """End-to-end samples, {name: (unit, values)}, from pass records."""
    walls = [r[key] for r in runs]
    return {"wall_s": ("s", walls),
            "site_steps_per_s": ("1/s", [r["site_steps"] / w for r, w in zip(runs, walls)]),
            "setup_s": ("s", setup)}


def layer_metrics(aggs, imports, overheads):
    """Per-layer samples, {name: (unit, values)}.

    Span and counter metrics come from one traced pass, the one with the
    median cli.main.s, so that its self times add up to its cli.main.s.
    import.s has one value per fresh interpreter minus a bare one, and
    trace.overhead_s one per adjacent traced and untraced pass.
    """
    spans, counts, errors = sorted(aggs, key=lambda a: a[0][tracing.ROOT]["s"])[
        (len(aggs) - 1) // 2]
    main_s = spans[tracing.ROOT]["s"]
    out = {}
    for name, rec in spans.items():
        out[f"{name}.s"] = ("s", [rec["s"]])
        out[f"{name}.self_s"] = ("s", [rec["self_s"]])
        out[f"{name}.calls"] = ("count", [rec["calls"]])
        if name != tracing.ROOT:
            out[f"{name}.share"] = ("ratio", [rec["s"] / main_s])
        if name in tracing.BYTES:
            unit = "B-computed" if name == "fields.diff" else "B"
            out[f"{name}.bytes"] = (unit, [rec["bytes"]])
    for name, count in counts.items():
        out[name] = ("count", [count])
    out["trace.errors"] = ("count", [errors])
    out["import.s"] = ("s", imports)
    out["trace.overhead_s"] = ("s", overheads)
    return out


def environment():
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as a, \
                    open(os.path.join(base, idx, "size")) as b:
                caches.append(f"L{a.read().strip()}={b.read().strip()}")
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    return (f"python {platform.python_version()}, {', '.join(versions)}, "
            f"nproc {os.cpu_count()}, cpu {cpu or 'unknown'}, "
            f"caches {' '.join(caches) or 'unknown'}, "
            + ", ".join(f"{v}=1" for v in THREAD_VARS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="few steps and time levels, for the benchmark's own test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinsurf", "cli.py")):
        print(f"error: {root} is not a spinsurf checkout (no src/spinsurf/cli.py)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds,
                  "smoke" if args.smoke else "full")
    metrics = bench.per_layer() if args.trace else bench.end_to_end()

    print(f"environment: {environment()}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced in-process' if args.trace else 'child processes, untraced'}: "
          + ", ".join(inv.name for inv in bench.invs))
    if args.trace:
        print(f"  span metrics: the traced pass with the median cli.main.s, "
              f"of {bench.traced_passes}")
        if bench.untraced_names:
            print(f"  not in the program, so reading 0: {', '.join(bench.untraced_names)}")
    for label, table in (("", metrics), ("uncalibrated ", bench.raw)):
        for name, (unit, vals) in table.items():
            spread = ""
            if len(vals) > 1:
                q1, q3 = quartiles(vals)
                spread = f"median of {len(vals)}  [q1 {q1:.6g}, q3 {q3:.6g}]"
            print(f"  {label + name:40s} {median(vals):14.6g} {unit:10s} {spread}")
    failed = len(bench.failures)
    print(f"  {'ops_failed_ratio':40s} {bench.ops_failed_ratio():14.6g} "
          f"{'ratio':10s} {failed} of {bench.attempted} invocations")
    seen = collections.Counter((name, "; ".join(p)) for name, p in bench.failures)
    for (name, problems), times in seen.items():
        print(f"  FAILED {times}x {name}: {problems}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": median(vals), "unit": unit}
                    for name, (unit, vals) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
