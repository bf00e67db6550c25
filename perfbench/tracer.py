"""Span tracing of fbm_infoflow from outside the package.

`Tracer.install()` replaces the public functions of each package module (the
layers) with wrappers that record one span per call: function, start, end,
parent span and cell id.  A few boundaries that are not module functions are
wrapped too, because the per-layer metrics need them:

- the `fn`/`d1`/`d2` callables of every sigma model a sigma constructor returns;
- the `pdf`/`score_fn` callables of every field `channels.density_at` returns;
- `scipy.integrate.quad` as `infofunc` sees it (error estimate and integrand
  evaluation count);
- `cli._SuiteRunner.run_combo`, one call per (suite, t, H) cell.

`Tracer.uninstall()` puts every original attribute back.  Spans stay in
memory until `save()`; `layer_metrics()` derives busy and self time from them.
"""

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("sigma", "fbm", "doss", "channels", "infofunc", "identities",
          "montecarlo", "cli")


class _QuadProxy:
    """Stands in for the `scipy.integrate` module inside `infofunc`."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names = []             # function id -> "layer.function"
        self.fn_layer = []          # function id -> layer index
        self._fn_ids = {}
        self.fn = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = defaultdict(int)
        self.errors = [0] * len(LAYERS)
        self._stack = [-1]
        self._cell = -1
        self._n_cells = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _fn_id(self, name):
        if name not in self._fn_ids:
            self._fn_ids[name] = len(self.names)
            self.names.append(name)
            self.fn_layer.append(LAYERS.index(name.split(".")[0]))
        return self._fn_ids[name]

    def wrap(self, func, name, post=None):
        """Return `func` wrapped to record a span named `name`.

        `post(duration_ns, result, *args, **kwargs)` runs after a successful
        call, outside the span, and returns the value handed to the caller.
        """
        fid = self._fn_id(name)
        layer = self.fn_layer[fid]
        fn, parent, cell = self.fn.append, self.parent.append, self.cell.append
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            i = len(start)
            fn(fid)
            parent(stack[-1])
            cell(self._cell)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = func(*args, **kwargs)
            except BaseException:
                p = stack[-2]
                if p < 0 or self.fn_layer[self.fn[p]] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                start[i] = t0
                end[i] = t1
                stack.pop()
            if post is not None:
                out = post(t1 - t0, out, *args, **kwargs)
            return out

        return wrapper

    def _count(self, key, size_arg):
        counts = self.counts

        def post(_dt, out, *args, **kwargs):
            counts[key] += int(np.size(args[size_arg]))
            return out
        return post

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import fbm_infoflow
        from fbm_infoflow import cli, infofunc

        posts = self._posts()
        for layer in LAYERS:
            mod = getattr(fbm_infoflow, layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._replace(mod, attr, self.wrap(obj, name, posts.get(name)))

        quad = self.wrap(infofunc.integrate.quad, "infofunc.quad",
                         self._quad_post)
        self._replace(infofunc, "integrate", _QuadProxy(infofunc.integrate, quad))

        combo = self.wrap(cli._SuiteRunner.run_combo, "cli.run_combo")

        def run_combo(*args, **kwargs):
            self._cell = self._n_cells
            self._n_cells += 1
            try:
                return combo(*args, **kwargs)
            finally:
                self._cell = -1
        self._replace(cli._SuiteRunner, "run_combo",
                      functools.wraps(combo)(run_combo))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _posts(self):
        counts = self.counts
        wrap_sigma = self._wrap_sigma
        wrap_field = self._wrap_field

        def sample_endpoint(_dt, out, channel, t, n, rng):
            counts["montecarlo.samples"] += int(n)
            _count_flow_lookup(counts, channel)
            return out

        def density_at(_dt, out, channel, t):
            _count_flow_lookup(counts, channel)
            return wrap_field(out, channel)

        def sample_paths(dt, out, grid, h, method="circulant", seed=0,
                         n_paths=1):
            counts["fbm.paths"] += int(n_paths)
            counts[f"fbm.{method}.paths"] += int(n_paths)
            counts[f"fbm.{method}.ns"] += dt
            counts["fbm.circulant.fallbacks"] += int(bool(out[1]))
            return out

        posts = {
            "doss.invert_phi": self._count("doss.invert_phi.points", 1),
            "doss.pushforward_density":
                self._count("doss.pushforward_density.points", 3),
            "channels.density_at": density_at,
            "montecarlo.sample_endpoint": sample_endpoint,
            "fbm.sample_paths": sample_paths,
        }
        for ctor in ("constant", "identity_channel", "sqrt_one_plus_square",
                     "custom"):
            posts[f"sigma.{ctor}"] = lambda _dt, model, *a, **k: wrap_sigma(model)
        return posts

    def _quad_post(self, _dt, result, *args, **kwargs):
        counts = self.counts
        counts["infofunc.quad.neval"] += int(result[2]["neval"])
        counts["infofunc.quad.failures"] += int(len(result) > 3)
        abserr = float(result[1])
        if abserr > counts.get("infofunc.quad.max_abserr", 0.0):
            counts["infofunc.quad.max_abserr"] = abserr
        return result

    def _wrap_sigma(self, model):
        # SigmaModel is a frozen dataclass; the wrapped callables replace the
        # instance's own, after the constructor's validation probes ran.
        # `identity_channel` returns a model `constant` already wrapped.
        if hasattr(model.fn, "__wrapped__"):
            return model
        for attr in ("fn", "d1", "d2"):
            object.__setattr__(model, attr, self.wrap(
                getattr(model, attr), f"sigma.{attr}",
                self._count("sigma.points", 0)))
        return model

    def _wrap_field(self, field, channel):
        counts = self.counts
        grid = getattr(channel.initial, "grid", None)
        if channel.variant == "additive" and grid is not None:
            row_bytes = 8 * len(grid)
        else:
            row_bytes = 0

        def pdf_post(_dt, out, x):
            n = int(np.size(x))
            counts["channels.pdf.points"] += n
            counts["channels.kernel_bytes_computed"] += n * row_bytes
            return out

        def score_post(_dt, out, x):
            n = int(np.size(x))
            counts["channels.score.points"] += n
            # The grid-law score builds two kernels: one for pdf, one for dpdf.
            counts["channels.kernel_bytes_computed"] += 2 * n * row_bytes
            return out

        object.__setattr__(field, "pdf",
                           self.wrap(field.pdf, "channels.pdf", pdf_post))
        object.__setattr__(field, "score_fn",
                           self.wrap(field.score_fn, "channels.score", score_post))
        return field

    # -- output ------------------------------------------------------------

    def spans(self):
        """Spans as numpy arrays (one entry per span, in start order)."""
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cell": np.frombuffer(self.cell, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "names": np.array(self.names),
            "fn_layer": np.array(self.fn_layer, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, **self.spans())

    def layer_metrics(self):
        s = self.spans()
        return layer_metrics(s, self.counts, self.errors)


def _count_flow_lookup(counts, channel):
    if (channel.variant == "multiplicative"
            and channel.sigma.kind not in ("constant", "identity")):
        counts["doss.flow_lookups"] += 1


def busy_ns(start, end):
    """Time covered by the union of properly nested spans given in start order."""
    if start.size == 0:
        return 0
    prev_end = np.maximum.accumulate(end)
    outer = np.ones(start.size, dtype=bool)
    outer[1:] = start[1:] >= prev_end[:-1]
    return int(np.sum(end[outer] - start[outer]))


def self_ns(parent, start, end):
    """Per span: its duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child.astype(np.int64)


def layer_metrics(spans, counts, errors):
    """Per-layer metrics from span arrays (see `Tracer.spans`) and counts."""
    fn, parent = spans["fn"], spans["parent"]
    start, end = spans["start_ns"], spans["end_ns"]
    names = [str(n) for n in spans["names"]]
    fn_layer = spans["fn_layer"]
    span_layer = fn_layer[fn] if fn.size else np.zeros(0, dtype=np.int32)
    own = self_ns(parent, start, end)
    m = {}

    def fn_mask(name):
        return fn == names.index(name) if name in names else np.zeros(fn.size, bool)

    def span_metrics(prefix, mask):
        m[f"{prefix}.calls"] = int(mask.sum())
        m[f"{prefix}.busy_s"] = busy_ns(start[mask], end[mask]) / 1e9
        m[f"{prefix}.self_s"] = float(own[mask].sum()) / 1e9

    for i, layer in enumerate(LAYERS):
        span_metrics(layer, span_layer == i)
        m[f"{layer}.errors"] = int(errors[i])
    for name in ("doss.invert_phi", "doss.pushforward_density", "doss.solve_phi",
                 "channels.density_at", "channels.pdf", "channels.score",
                 "montecarlo.mc_expectation", "montecarlo.sample_endpoint",
                 "fbm.sample_paths", "infofunc.quad", "cli.run_combo",
                 "cli.write_reports"):
        span_metrics(name, fn_mask(name))

    for key in ("doss.invert_phi.points", "doss.pushforward_density.points",
                "sigma.points", "channels.pdf.points", "channels.score.points",
                "channels.kernel_bytes_computed", "montecarlo.samples",
                "fbm.paths", "fbm.circulant.fallbacks", "infofunc.quad.neval",
                "infofunc.quad.failures"):
        m[key] = int(counts.get(key, 0))
    m["infofunc.quad.max_abserr"] = float(counts.get("infofunc.quad.max_abserr", 0.0))

    m["doss.invert_phi.points_per_call"] = _ratio(
        m["doss.invert_phi.points"], m["doss.invert_phi.calls"])
    m["channels.pdf.points_per_call"] = _ratio(
        m["channels.pdf.points"], m["channels.pdf.calls"])
    lookups = counts.get("doss.flow_lookups", 0)
    m["doss.flow_cache_hit_ratio"] = (
        1.0 - m["doss.solve_phi.calls"] / lookups if lookups else 0.0)
    m["montecarlo.samples_per_s"] = _ratio(
        m["montecarlo.samples"], m["montecarlo.mc_expectation.busy_s"])
    for method in ("cholesky", "circulant"):
        m[f"fbm.{method}.paths_per_s"] = _ratio(
            counts.get(f"fbm.{method}.paths", 0),
            counts.get(f"fbm.{method}.ns", 0) / 1e9)
    m["cli.cells"] = m["cli.run_combo.calls"]
    return m


def _ratio(num, den):
    return float(num) / den if den else 0.0
