"""In-memory span recorder that wraps calmcert's public functions.

The program is not edited: `Tracer.install()` replaces every public
function of every calmcert module by a recording wrapper, in each module
that holds it (so `from .linalg import null_space` in cones.py is wrapped
too), plus `numpy.linalg.svd` and `scipy.optimize.linprog`.
`Tracer.uninstall()` restores the originals.

A span is (name, layer, start, end, parent index, op id); spans of one
benchmark op share the op id.  Times are `time.perf_counter()` values.
"""

import json
import time
import types

PACKAGE = "calmcert"
MODULES = ("linalg", "model", "regularizers", "cones", "solver",
           "certificates", "empirics", "reporting", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, op]
        self.counts = {}
        self.samples = {}        # name -> list of numbers (iterations etc.)
        self._stack = []
        self._op = None
        self._patches = []

    # -- spans ------------------------------------------------------------

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        popped = self._stack.pop()
        assert popped == idx, "spans closed out of order"

    def begin_op(self, op_id, name):
        self._op = op_id
        return self.open(name, "bench")

    def end_op(self, idx):
        self.close(idx)
        self._op = None

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer, name):
        tracer = self
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        import numpy.linalg
        import scipy.optimize

        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(obj, layer, f"{layer}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        self._patch(numpy.linalg, "svd",
                    self._wrap(numpy.linalg.svd, "numpy", "numpy.linalg.svd"))
        self._patch(scipy.optimize, "linprog",
                    self._wrap(scipy.optimize.linprog, "scipy",
                               "scipy.optimize.linprog"))
        subspace = mods["linalg"].Subspace
        init = subspace.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            tracer.count("linalg.subspace_inits")
            init(obj, *args, **kwargs)

        self._patch(subspace, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output -----------------------------------------------------------

    def dump(self, fh):
        """Write the spans, then the counts and samples, as JSON lines."""
        for name, layer, start, end, parent, op in self.spans:
            fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                 "end": end, "parent": parent, "op": op}) + "\n")
        fh.write(json.dumps({"counts": self.counts,
                             "samples": self.samples}) + "\n")


# ---------------------------------------------------------------------------
# per-function hooks: counts read from arguments and results


def _solver_solve(tracer, args, kwargs, result, exc):
    warm = kwargs.get("x0", args[2] if len(args) > 2 else None) is not None
    if exc is not None:
        pair = getattr(exc, "pair", None)
        if pair is None:
            return
        tracer.count("solver.nonconverged")
        iters = pair.iterations
    else:
        iters = result.iterations
    tracer.sample("solver.warm_iters" if warm else "solver.cold_iters", iters)


def _svd(tracer, args, kwargs, result, exc):
    shape = getattr(args[0], "shape", ())
    if len(shape) == 2:
        m, n = shape
        tracer.count("linalg.svd_flops_computed", m * n * min(m, n))


def _trivial(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count(f"cones.outcome_{result.outcome}")


def _sweep(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("empirics.sweep_samples", len(result.samples))
        tracer.count("empirics.sweep_ok",
                     sum(s["flag"] == "ok" for s in result.samples))


HOOKS = {
    "solver.solve": _solver_solve,
    "numpy.linalg.svd": _svd,
    "cones.trivial_intersection": _trivial,
    "empirics.perturbation_sweep": _sweep,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

LAYERS = ("bench", "cli", "model", "solver", "regularizers", "linalg", "cones",
          "certificates", "empirics", "reporting", "numpy", "scipy")
GEOMETRY = ("conj_subdiff_face", "tangent_subdiff", "tangent_conj_subdiff",
            "ri_intersects_range", "project_multiplier")


class SpanIndex:
    """Durations, self times and outermost-call totals over a span list."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [s[3] - s[2] - c for s, c in zip(spans, child)]
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def calls(self, *names):
        return sum(len(self.by_name.get(n, ())) for n in names)

    def outer(self, *names):
        """Indices of spans named in `names` with no ancestor so named."""
        names = set(names)
        out = []
        for n in names:
            for i in self.by_name.get(n, ()):
                p = self.spans[i][4]
                while p >= 0 and self.spans[p][0] not in names:
                    p = self.spans[p][4]
                if p < 0:
                    out.append(i)
        return out

    def total(self, *names):
        return sum(self.spans[i][3] - self.spans[i][2] for i in self.outer(*names))

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, self.self_time):
            out[s[1]] = out.get(s[1], 0.0) + t
        return out


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def summarize(spans, counts, samples):
    """The per-layer metric values (name -> number) of one traced run."""
    ix = SpanIndex(spans)
    cnt = lambda k: counts.get(k, 0)
    cold = samples.get("solver.cold_iters", [])
    warm = samples.get("solver.warm_iters", [])
    iters = sum(cold) + sum(warm)
    solve_s = ix.total("solver.solve")
    prox_s = ix.total("regularizers.prox")
    prox_calls = ix.calls("regularizers.prox")
    geometry = [f"regularizers.{g}" for g in GEOMETRY]
    sweep_samples = cnt("empirics.sweep_samples")
    roots = [i for i, s in enumerate(spans) if s[4] < 0]
    wall = sum(spans[i][3] - spans[i][2] for i in roots)
    m = {
        "solver.calls": ix.calls("solver.solve"),
        "solver.solve_s": solve_s,
        "solver.iters": iters,
        "solver.us_per_iter": 1e6 * solve_s / iters if iters else 0.0,
        "solver.cold_iters_per_solve": _mean(cold),
        "solver.warm_iters_per_solve": _mean(warm),
        "solver.warm_start_saving":
            1.0 - _mean(warm) / _mean(cold) if cold and warm else 0.0,
        "solver.nonconverged": cnt("solver.nonconverged"),
        "solver.kkt_s": ix.total("solver.kkt_residual"),
        "regularizers.prox_calls": prox_calls,
        "regularizers.prox_s": prox_s,
        "regularizers.prox_us": 1e6 * prox_s / prox_calls if prox_calls else 0.0,
        "regularizers.value_calls": ix.calls("regularizers.value"),
        "regularizers.value_s": ix.total("regularizers.value"),
        "regularizers.geometry_calls": ix.calls(*geometry),
        "regularizers.geometry_s": ix.total(*geometry),
        "linalg.null_space_calls": ix.calls("linalg.null_space"),
        "linalg.null_space_s": ix.total("linalg.null_space"),
        "linalg.range_space_calls": ix.calls("linalg.range_space"),
        "linalg.intersect_calls": ix.calls("linalg.intersect_subspaces"),
        "linalg.intersect_s": ix.total("linalg.intersect_subspaces"),
        "linalg.subspace_inits": cnt("linalg.subspace_inits"),
        "linalg.svd_calls": ix.calls("numpy.linalg.svd"),
        "linalg.svd_s": ix.total("numpy.linalg.svd"),
        "linalg.svd_flops_computed": cnt("linalg.svd_flops_computed"),
        "cones.trivial_intersection_calls": ix.calls("cones.trivial_intersection"),
        "cones.trivial_intersection_s": ix.total("cones.trivial_intersection"),
        "cones.outcome_trivial": cnt("cones.outcome_trivial"),
        "cones.outcome_nontrivial": cnt("cones.outcome_nontrivial"),
        "cones.outcome_unknown": cnt("cones.outcome_unknown"),
        "cones.lp_calls": ix.calls("scipy.optimize.linprog"),
        "cones.lp_s": ix.total("scipy.optimize.linprog"),
        "cones.preimage_s": ix.total("cones.preimage"),
        "cones.range_restriction_s": ix.total("cones.tangent_with_range_restriction"),
        "certificates.calls": len(ix.outer("certificates.certify_solution_map",
                                           "certificates.certify_primal_dual")),
        "empirics.sweep_s": ix.total("empirics.perturbation_sweep"),
        "empirics.sweep_ok_ratio":
            cnt("empirics.sweep_ok") / sweep_samples if sweep_samples else 0.0,
        "empirics.kernel_check_s": ix.total("empirics.kernel_formula_check"),
        "empirics.quotient_calls": ix.calls("empirics.second_subderivative_estimate"),
        "empirics.zero_product_s": ix.total("empirics.zero_product_check"),
        "empirics.graph_samples": ix.calls("empirics.graph_sample"),
        "empirics.probe_s": ix.total("empirics.instability_probe"),
        "model.load_calls": ix.calls("model.load_instance"),
        "model.load_s": ix.total("model.load_instance"),
        "reporting.save_s": ix.total("reporting.save_report"),
        "reporting.bytes": cnt("reporting.bytes"),
        "trace.spans": len(spans),
        "op.count": len(roots),
        "op.wall_s": wall,
    }
    for layer, t in ix.layer_self().items():
        m[f"{layer}.self_s"] = t
    return m
