"""In-memory span tracer for the igamf benchmark's traced run.

The tracer rebinds public igamf functions and methods on their module and
class attributes, so every call into a layer opens a span (name, start,
end, parent).  Nothing inside the package changes; the original bindings
come back when the ``with`` block ends.  Counts (points, flops, iterations)
are taken from arguments and results after the span's clock has stopped.

Top-level spans of the layers in ``MEMORY_SPANS`` also record the
``tracemalloc`` peak of the memory they allocated.  ``tracemalloc`` runs
only inside those spans: it slows allocation-heavy Python loops (the WQ
rule build measured 12x slower under it), which would distort the times of
the other layers.
"""

import functools
import sys
import time
import tracemalloc

import numpy as np
import scipy.sparse as sp


def _points(tracer, args, out):
    return {"points": int(np.atleast_2d(args[1]).shape[0])}


def _rule(tracer, args, out):
    return {"n_points": int(out.n_points)}


def _operator(tracer, args, out):
    tracer.captured["operator"] = out
    return {"coeff_scalars": int(out.coeff_scalars)}


def _precond(tracer, args, out):
    tracer.captured["precond"] = args[0]
    return {}


def _krylov(tracer, args, out):
    report = out[1]
    return {"iters": int(report.iterations), "matvecs": int(report.matvecs)}


def _kron_bytes(tracer, args, out):
    """Bytes read and written by one sum-factorized apply, from array sizes.

    Each one-mode stage reads its input block and the factor and writes its
    output block; cache reuse is ignored, so this is a computed figure.
    """
    factors = args[0]
    total = 0
    size = np.size(args[1])
    for A in reversed(factors):
        n_out = size // A.shape[1] * A.shape[0]
        if sp.issparse(A):
            fbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        else:
            fbytes = np.asarray(A).nbytes
        total += 8 * (size + n_out) + fbytes
        size = n_out
    return {"bytes_computed": total}


#: (module, attribute, span name, count hook).  A dotted attribute names a
#: method on a class; a plain one is a module-level function and is
#: rebound in every igamf module that imported it by name.  A hook sees the
#: tracer, the positional arguments and the result; it returns counts for
#: the span and may keep the built operator or preconditioner in
#: ``captured``.
LAYER_BINDINGS = [
    ("wq", "build_tensor_rule", "wq.build_tensor_rule", _rule),
    ("geometry", "GeometryMap.jacobian", "geometry.jacobian", _points),
    ("geometry", "GeometryMap.evaluate", "geometry.evaluate", _points),
    ("operators", "setup_stiffness", "operators.setup_stiffness", _operator),
    ("operators", "StiffnessOperator.apply", "operators.apply", None),
    ("kron", "kron_apply", "kron.kron_apply", _kron_bytes),
    ("assembly", "assemble_rhs", "assembly.assemble_rhs", None),
    ("solvers", "FDPreconditioner.__init__", "solvers.fd_setup", _precond),
    ("solvers", "FDPreconditioner.apply", "solvers.fd_apply", None),
    ("solvers", "bicgstab", "solvers.krylov", _krylov),
    ("solvers", "cg", "solvers.krylov", _krylov),
    ("problems", "h1_relative_error", "problems.h1_error", None),
    ("problems", "l2_relative_error", "problems.l2_error", None),
    ("splines", "collocation_matrix", "splines.collocation_matrix", None),
]


#: layers whose top-level spans report a ``tracemalloc`` peak
MEMORY_SPANS = ("operators.setup_stiffness", "assembly.assemble_rhs",
                "problems.h1_error", "problems.l2_error")


class Tracer:
    """Records spans while active; ``spans`` is a list of dicts."""

    def __init__(self, igamf_pkg):
        self.pkg = igamf_pkg
        self.spans = []
        self.captured = {}
        self._stack = []
        self._patches = []

    def note(self, **counts):
        """Add counts to the innermost open span."""
        span = self.spans[self._stack[-1]]
        for key, val in counts.items():
            span[key] = span.get(key, 0) + val

    def _traced(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "parent": parent}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            memory = parent is None and name in MEMORY_SPANS
            if memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
            if hook is not None:
                span.update(hook(tracer, args, out))
            return out

        return wrapper

    def _metered_kron(self, kron_apply, CostMeter):
        """kron_apply that counts its flops with the program's own CostMeter."""
        tracer = self

        def kron_with_meter(factors, x, meter=None):
            m = meter if meter is not None else CostMeter()
            before = m.flops
            out = kron_apply(factors, x, m)
            tracer.note(flops=m.flops - before)
            return out

        return kron_with_meter

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "igamf" or n.startswith("igamf."))]
        for mod_name, attr, name, hook in LAYER_BINDINGS:
            mod = getattr(self.pkg, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._traced(name, cls.__dict__[meth], hook))
                continue
            orig = getattr(mod, attr)
            fn = orig
            if name == "kron.kron_apply":
                fn = self._metered_kron(orig, self.pkg.kron.CostMeter)
            wrapped = self._traced(name, fn, hook)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._set(m, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False


def _dur(span):
    return span["end"] - span["start"]


def _under(spans, span, names):
    """Name of the nearest ancestor of ``span`` whose name is in ``names``."""
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] in names:
            return spans[parent]["name"]
        parent = spans[parent]["parent"]
    return None


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


#: parent span that each kron_apply time is attributed to
_KRON_PARENTS = {"operators.apply": "apply", "solvers.fd_apply": "fd",
                 "assembly.assemble_rhs": "rhs", "problems.h1_error": "error",
                 "problems.l2_error": "error"}


def layer_metrics(spans, wall_s, untraced_wall_s, apply_flops, fd_flops):
    """Per-layer metrics of one traced round.

    ``apply_flops`` / ``fd_flops`` are per-call flop counts taken from one
    untimed apply with a CostMeter (0 when the layer did not run).
    """
    by_name = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_time[span["parent"]] += _dur(span)
    for i, span in enumerate(spans):
        span["self_s"] = _dur(span) - child_time[i]

    def calls(name):
        return len(by_name.get(name, []))

    def total(name, key=None):
        return sum((_dur(s) if key is None else s.get(key, 0))
                   for s in by_name.get(name, []))

    def durations_ms(name):
        return [1e3 * _dur(s) for s in by_name.get(name, [])]

    def points_under(parents):
        return sum(s["points"] for s in by_name.get("geometry.evaluate", [])
                   if _under(spans, s, parents) is not None)

    def peak(*names):
        return max([s.get("peak_mb", 0.0) for n in names
                    for s in by_name.get(n, [])], default=0.0)

    kron_split = {"apply": 0.0, "fd": 0.0, "rhs": 0.0, "error": 0.0}
    for s in by_name.get("kron.kron_apply", []):
        parent = _under(spans, s, _KRON_PARENTS)
        if parent is not None:
            kron_split[_KRON_PARENTS[parent]] += _dur(s)

    top_s = sum(_dur(s) for s in spans if s["parent"] is None)
    rules = by_name.get("wq.build_tensor_rule", [])
    setups = by_name.get("operators.setup_stiffness", [])
    op = "operators.apply"
    apply_s = total(op)
    error_names = ("problems.h1_error", "problems.l2_error")
    return {
        "wq.build_tensor_rule.s": (total("wq.build_tensor_rule"), "s"),
        "wq.n_points": (rules[-1]["n_points"] if rules else 0, "count"),
        "geometry.jacobian.s": (total("geometry.jacobian"), "s"),
        "geometry.jacobian.points": (total("geometry.jacobian", "points"), "count"),
        "geometry.evaluate.s": (total("geometry.evaluate"), "s"),
        "geometry.evaluate.points": (total("geometry.evaluate", "points"), "count"),
        "operators.setup_stiffness.s": (total("operators.setup_stiffness"), "s"),
        "operators.setup_stiffness.peak_mb": (peak("operators.setup_stiffness"), "MB"),
        "operators.coeff_scalars": (setups[-1]["coeff_scalars"] if setups else 0,
                                    "count"),
        "operators.apply.calls": (calls(op), "count"),
        "operators.apply.p50_ms": (_pct(durations_ms(op), 50), "ms"),
        "operators.apply.p95_ms": (_pct(durations_ms(op), 95), "ms"),
        "operators.apply.self_s": (total(op, "self_s"), "s"),
        "operators.apply.flops": (apply_flops * calls(op), "flop"),
        "operators.apply.gflops": (apply_flops * calls(op) / apply_s / 1e9
                                   if apply_s > 0 else 0.0, "GF/s"),
        "kron.kron_apply.calls": (calls("kron.kron_apply"), "count"),
        "kron.kron_apply.s": (total("kron.kron_apply"), "s"),
        "kron.kron_apply.s.apply": (kron_split["apply"], "s"),
        "kron.kron_apply.s.fd": (kron_split["fd"], "s"),
        "kron.kron_apply.s.rhs": (kron_split["rhs"], "s"),
        "kron.kron_apply.s.error": (kron_split["error"], "s"),
        "kron.kron_apply.flops": (total("kron.kron_apply", "flops"), "flop"),
        "kron.bytes_computed": (total("kron.kron_apply", "bytes_computed"), "B"),
        "assembly.assemble_rhs.s": (total("assembly.assemble_rhs"), "s"),
        "assembly.assemble_rhs.peak_mb": (peak("assembly.assemble_rhs"), "MB"),
        "assembly.assemble_rhs.points": (points_under(("assembly.assemble_rhs",)), "count"),
        "solvers.fd_setup.s": (total("solvers.fd_setup"), "s"),
        "solvers.fd_apply.calls": (calls("solvers.fd_apply"), "count"),
        "solvers.fd_apply.p50_ms": (_pct(durations_ms("solvers.fd_apply"), 50), "ms"),
        "solvers.fd_apply.flops": (fd_flops * calls("solvers.fd_apply"), "flop"),
        "solvers.krylov.calls": (calls("solvers.krylov"), "count"),
        "solvers.krylov.iters": (total("solvers.krylov", "iters"), "count"),
        "solvers.krylov.matvecs": (total("solvers.krylov", "matvecs"), "count"),
        "solvers.krylov.self_s": (total("solvers.krylov", "self_s"), "s"),
        "problems.h1_error.s": (total("problems.h1_error"), "s"),
        "problems.l2_error.s": (total("problems.l2_error"), "s"),
        "problems.error.peak_mb": (peak(*error_names), "MB"),
        "problems.error.points": (points_under(error_names), "count"),
        "splines.collocation_matrix.s": (total("splines.collocation_matrix"), "s"),
        "splines.collocation_matrix.calls": (calls("splines.collocation_matrix"), "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_s": (wall_s - untraced_wall_s, "s"),
        "trace.other_s": (wall_s - top_s, "s"),
    }
