"""Span tracing of spinsurf's public functions, installed from outside `src/`.

`Tracer.install()` wraps each traced function and re-binds the wrapper under
every name that refers to the original in any loaded `spinsurf.*` module:
`diff` and `cross` are imported by name into models, geometry,
magnetoelastic, evolve, solvers and zerocurv, and `fields` calls `diff`
itself. `uninstall()` puts the originals back, so an untraced pass runs the
unmodified program.

Spans are kept in memory as (id, parent id, name, start, end, failed, bytes)
tuples and aggregated or written out after the run.
"""

import json
import os
import sys
import time

# span name -> (defining module, function, modules that get the wrapper;
# None means every spinsurf module that holds the original)
SPANS = {
    "evolve.evolve": ("evolve", "evolve", None),
    "evolve.rk4_step": ("evolve", "rk4_step", None),
    # project_sphere lives in fields; the span is the per-step projection
    "evolve.project_sphere": ("fields", "project_sphere", ("evolve",)),
    "evolve.diagnostics": ("evolve", "diagnostics", None),
    "models.hf_rhs": ("models", "hf_rhs", None),
    "models.lle_rhs": ("models", "lle_rhs", None),
    "models.mxiiib_system": ("models", "mxiiib_system", None),
    "models.stationary_residual": ("models", "stationary_residual", None),
    "magnetoelastic.me_spin_rhs": ("magnetoelastic", "me_spin_rhs", None),
    "magnetoelastic.me_phonon_rhs": ("magnetoelastic", "me_phonon_rhs", None),
    "fields.diff": ("fields", "diff", None),
    "fields.cross": ("fields", "cross", None),
    "solvers.poisson_solve": ("solvers", "poisson_solve", None),
    "geometry.reconstruct_surface": ("geometry", "reconstruct_surface", None),
    "geometry.unit_normal": ("geometry", "unit_normal", None),
    "zerocurv.solve_D": ("zerocurv", "solve_D", None),
    "zerocurv.zc_residual": ("zerocurv", "zc_residual", None),
    "zerocurv.nlse_residual": ("zerocurv", "nlse_residual", None),
    "fileio.write_field": ("fileio", "write_field", None),
    "fileio.read_field": ("fileio", "read_field", None),
    "fileio.export_mesh": ("fileio", "export_mesh", None),
    "fileio.read_curve": ("fileio", "read_curve", None),
    "fileio.report": ("fileio", "report", None),
}

# counter name -> (defining module, function): calls counted, no span.
# Every ScalarField/VecField/SpinField construction runs _frozen_array once.
COUNTERS = {
    "fields.field_constructions": ("fields", "_frozen_array"),
    "evolve.snapshots": ("evolve", "_snapshot"),
}

ROOT = "cli.main"


# Byte counters read the call's arguments as the functions take them today;
# they return 0 rather than raise into the program if a signature changes.
_SIGNATURE_CHANGED = (AttributeError, IndexError, KeyError, TypeError, OSError)


def _file_bytes(args, kwargs, out):
    try:
        return os.path.getsize(args[0])
    except _SIGNATURE_CHANGED:
        return 0


def _diff_bytes(args, kwargs, out):
    # computed, not measured: the stencil reads its input array and writes
    # its output array. "dxy" is two nested diff calls that count themselves.
    try:
        if str(args[1]).lower() == "dxy":
            return 0
        return args[0].values.nbytes + out.values.nbytes
    except _SIGNATURE_CHANGED:
        return 0


# spans that carry a `.bytes` metric
BYTES = {"fields.diff": _diff_bytes, "fileio.write_field": _file_bytes,
         "fileio.read_field": _file_bytes, "fileio.export_mesh": _file_bytes}


def _lookup(short, fn_name):
    return getattr(sys.modules.get("spinsurf." + short), fn_name, None)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.next_id = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []      # traced names the program no longer has
        self._rebound = []     # (module, attribute, original)

    def span(self, name, fn, nbytes=None):
        """fn wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            out, failed = None, True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                size = nbytes(args, kwargs, out) if nbytes and not failed else 0
                spans.append((sid, parent, name, t0, t1, failed, size))

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, original, wrapper, scope):
        names = ([m for m in sys.modules if m == "spinsurf" or m.startswith("spinsurf.")]
                 if scope is None else ["spinsurf." + s for s in scope])
        for modname in names:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, original))

    def install(self):
        """Wrap every traced function; one that no longer exists is listed in
        self.missing and its metrics read 0."""
        for name, (short, fn_name, scope) in SPANS.items():
            original = _lookup(short, fn_name)
            if original is None:
                self.missing.append(name)
                continue
            self._rebind(original, self.span(name, original, BYTES.get(name)), scope)
        for name, (short, fn_name) in COUNTERS.items():
            original = _lookup(short, fn_name)
            if original is None:
                self.missing.append(name)
                continue
            self._rebind(original, self._counted(name, original), (short,))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def write(self, path):
        """All spans as JSON lines, in start order."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, failed, size in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "failed": failed,
                                     "bytes": size}) + "\n")


def aggregate(spans, counts):
    """Per-name totals from a list of spans.

    `.s` is inclusive busy time: a span nested inside a span of the same name
    (diff "dxy" calling diff) is not counted twice. `.self_s` is a span's
    duration minus the durations of its direct children, so the self times of
    one tree sum to its root's duration.
    """
    by_id = {s[0]: s for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for sid, parent, name, t0, t1, failed, size in spans:
        if parent in child_time:
            child_time[parent] += t1 - t0
    names = [ROOT] + list(SPANS)
    out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0} for n in names}
    errors = 0
    for sid, parent, name, t0, t1, failed, size in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (t1 - t0) - child_time[sid]
        rec["bytes"] += size
        errors += failed
        p = parent
        while p in by_id and by_id[p][2] != name:
            p = by_id[p][1]
        if p not in by_id:
            rec["s"] += t1 - t0
    return out, dict(counts), errors
