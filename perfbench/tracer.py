"""Per-layer tracing of drinfan from outside the package.

The tracer wraps the public entry points of every ``drinfan.*`` module (the
layers) and records one span per call: its layer, its duration and the time
covered by its child spans.  Nothing under ``src/`` is modified; the wrappers
are installed by rebinding names and removed again afterwards.

Rebinding one module attribute is not enough, because the package imports by
name: ``xi`` and ``drinfeld`` hold their own ``epsilon`` binding and ``cli``
holds ``sigma_upper_fan``, ``iterate_tate``, ``Cone`` and more.  A module
function is therefore rebound in every ``drinfan`` module namespace that holds
the same object, and methods are rebound on their class.

Two self times are kept:

* ``<layer>.self_s`` sums, over the layer's spans, the span duration minus
  the time covered by all child spans.  Summed over layers this is the traced
  time once, with no double counting.
* ``<layer>.<entry>.self_s`` is the time of one entry point's outermost spans
  minus the child spans of *other* layers (same-layer callees stay in), so it
  is the layer's work on behalf of that entry point.

Per-coefficient and per-entry leaves get no span (see ``HOT_LEAVES``): a span
costs about a microsecond and these run hundreds of thousands of times per
batch, which would distort every self time around them.  The tracer's own
bookkeeping is subtracted from the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("gf", "linalg", "series", "cones", "epsilon", "points", "xi",
          "norms", "bruhat_tits", "drinfeld", "atlas", "cli")

# Leaves called per coefficient, per entry or per vector: never spanned.
HOT_LEAVES = {
    "gf.GF",  # the whole class: add, mul, neg, sub, inv, div, pow, ...
    "gf.Poly.coeff", "gf.Poly.is_zero", "gf.Poly.absolute_value",
    "linalg.dot", "linalg.primitive", "linalg.frac_vec",
    "series.LaurentSeries.coeff", "series.LaurentSeries.valuation",
    "series.LaurentSeries.low_exponent",
    "series.LaurentSeries.is_zero_to_precision",
    "series.AdditiveSeries.coeff", "series.AdditiveSeries.tau_degree",
    "series.AdditiveSeries.z_degree",
    "points.ClassPoint.sign_two_term",
}

ARITH_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
                 "__mod__", "__floordiv__")

# Only the CLI's entry point is a span: the command functions are cli code.
EXPLICIT_ONLY = {"cli": ("main",)}

# Private names that are spanned or counted anyway, because a metric needs
# them.  A refactor that removes one must update this file: a missing name
# stops the traced run instead of silently reporting zero.
EXTRA_SPANS = {"cones": ("_dd_convert",)}
COUNTERS = {"cones.Cone.__init__": "cones.created"}

# Entry points behind the named per-entry metrics.
NAMED = {
    "series.mul": ("series.LaurentSeries.__mul__",),
    "series.inverse": ("series.LaurentSeries.inverse",),
    "series.compose": ("series.AdditiveSeries.compose",),
    "series.apply": ("series.AdditiveSeries.apply",),
    "series.newton": ("series.AdditiveSeries.newton_points",
                      "series.root_valuations"),
    "cones.validate": ("cones.Fan.validate",),
    "cones.hilbert": ("cones.dual_monoid_hilbert_basis",),
    "cones.refine": ("cones.Fan.regular_refinement",),
    "cones.dd": ("cones._dd_convert",),
    "xi.sigma_upper": ("xi.sigma_upper_fan",),
    "xi.linearize": ("xi.linearize_xi",),
    "linalg.solve": ("linalg.solve",),
    "linalg.rref": ("linalg.rref",),
    "epsilon.closed": ("epsilon.epsilon_closed",),
    "epsilon.oracle": ("epsilon.epsilon_oracle",),
    "drinfeld.tate_step": ("drinfeld.tate_step",),
    "gf.poly_mul": ("gf.Poly.__mul__",),
}

TATE_PRECISIONS = (64, 96, 128)
SIGMA_UPPER_DIMS = (4, 5)


_RAISED = object()


class TraceError(RuntimeError):
    """The tracer cannot measure what the benchmark promises to report."""


class _Frame:
    __slots__ = ("key", "layer", "child_ns", "other_ns", "ovh_ns")

    def __init__(self, key, layer):
        self.key = key
        self.layer = layer
        self.child_ns = 0   # intervals of all child spans
        self.other_ns = 0   # intervals of other-layer children + overhead
        self.ovh_ns = 0     # tracer bookkeeping inside this span


class Tracer:
    """Installs wrappers, aggregates spans, and removes the wrappers."""

    def __init__(self):
        self.paused = False
        self.stack: list[_Frame] = []
        # key -> [calls, layer self ns, entry self ns, inclusive ns]
        self.stats: dict[str, list[int]] = {}
        self.edges: dict[tuple[str | None, str], int] = {}
        self.counters: dict[str, int] = {}
        self.active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._modules = {layer: importlib.import_module(f"drinfan.{layer}")
                         for layer in LAYERS}
        self._posts = self._post_hooks()

    # -- discovery ---------------------------------------------------------

    def _targets(self):
        """Yield (key, layer, owner, attr, original, kind) for every hook."""
        for layer, mod in self._modules.items():
            names = EXPLICIT_ONLY.get(layer)
            if names is None:
                names = [n for n, obj in vars(mod).items()
                         if not n.startswith("_")
                         and getattr(obj, "__module__", None) == mod.__name__
                         and (inspect.isfunction(obj) or inspect.isclass(obj))]
            names = list(names) + list(EXTRA_SPANS.get(layer, ()))
            for name in names:
                if not hasattr(mod, name):
                    raise TraceError(f"drinfan.{layer}.{name} is gone; "
                                     "update perfbench/tracer.py")
                obj = getattr(mod, name)
                key = f"{layer}.{name}"
                if key in HOT_LEAVES:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    yield from self._class_targets(layer, key, obj)
                elif inspect.isgeneratorfunction(obj):
                    yield key, layer, mod, name, obj, "count"
                elif inspect.isfunction(obj):
                    yield key, layer, mod, name, obj, "span"

    def _class_targets(self, layer, prefix, cls):
        for attr, obj in vars(cls).items():
            key = f"{prefix}.{attr}"
            if key in COUNTERS:
                yield key, layer, cls, attr, obj, "count"
                continue
            if not inspect.isfunction(obj) or key in HOT_LEAVES:
                continue  # properties, static methods, slots, data
            if attr.startswith("_") and attr not in ARITH_DUNDERS:
                continue
            yield key, layer, cls, attr, obj, "span"

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        try:
            seen = self._install()
        except BaseException:
            self.remove()
            raise
        wanted = set(COUNTERS)
        for keys in NAMED.values():
            wanted.update(keys)
        wanted.update(("drinfeld.iterate_tate", "cli.main", "cones.Fan.add"))
        missing = sorted(wanted - seen)
        if missing:
            self.remove()
            raise TraceError(f"hooked names missing: {missing}; "
                             "update perfbench/tracer.py")

    def _install(self) -> set[str]:
        seen = set()
        for key, layer, owner, attr, orig, kind in self._targets():
            seen.add(key)
            if kind == "span":
                wrapper = self._span_wrapper(key, layer, orig)
            else:
                wrapper = self._count_wrapper(key, orig)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
                continue
            # every drinfan module that imported the function by name
            for mod in self._modules.values():
                if vars(mod).get(attr) is orig:
                    self._rebind(mod, attr, wrapper)
        return seen

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- wrappers ----------------------------------------------------------

    def _count_wrapper(self, key, fn):
        counters = self.counters
        name = COUNTERS.get(key)
        stat = None if name else self.stats.setdefault(key, [0, 0, 0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.paused:
                if stat is None:
                    counters[name] = counters.get(name, 0) + 1
                else:
                    stat[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, key, layer, fn):
        now = time.perf_counter_ns
        stack = self.stack
        stat = self.stats.setdefault(key, [0, 0, 0, 0])
        edges = self.edges
        active = self.active
        post = self._posts.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            t0 = now()
            parent = stack[-1] if stack else None
            frame = _Frame(key, layer)
            stack.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            result = _RAISED
            t1 = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = now()
                dur = t2 - t1
                stat[0] += 1
                stat[1] += dur - frame.child_ns
                if depth == 0:
                    stat[2] += dur - frame.other_ns
                    stat[3] += dur
                active[key] = depth
                stack.pop()
                edge = (parent.key if parent else None, key)
                edges[edge] = edges.get(edge, 0) + 1
                if post is not None and result is not _RAISED:
                    self.paused = True
                    try:
                        post(args, kwargs, result, dur)
                    finally:
                        self.paused = False
                if parent is not None:
                    t3 = now()
                    ovh = frame.ovh_ns + (t1 - t0) + (t3 - t2)
                    parent.child_ns += t3 - t0
                    parent.other_ns += (t3 - t0) if parent.layer != layer \
                        else ovh
                    parent.ovh_ns += ovh
        return span

    # -- metric-specific observations ----------------------------------------

    def _post_hooks(self):
        c = self.counters

        def add(name, v):
            c[name] = c.get(name, 0) + v

        def arg(args, kwargs, i, name):
            return kwargs[name] if name in kwargs else args[i]

        def mul(args, kwargs, result, dur):
            na, nb = len(args[0].coeffs), len(args[1].coeffs)
            add("series.mul.terms_in", na + nb)
            c["series.mul.max_terms"] = max(c.get("series.mul.max_terms", 0),
                                            na, nb)
            if result.coeffs:
                add("series.mul.span_out",
                    max(result.coeffs) - min(result.coeffs) + 1)

        def tate_step(args, kwargs, result, dur):
            add("drinfeld.lattice_points", len(result.lattice_valuations))

        def iterate_tate(args, kwargs, result, dur):
            prec = arg(args, kwargs, 3, "precision")
            add(f"drinfeld.iterate_tate.p{prec}.ns", dur)

        def sigma_upper(args, kwargs, result, dur):
            add(f"xi.sigma_upper.d{arg(args, kwargs, 1, 'd')}.ns", dur)
            add("xi.sigma_upper.maximal", len(result.maximal_cones()))

        return {"series.LaurentSeries.__mul__": mul,
                "drinfeld.tate_step": tate_step,
                "drinfeld.iterate_tate": iterate_tate,
                "xi.sigma_upper_fan": sigma_upper}

    # -- results -----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this tracer reports, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            rows = [v for k, v in self.stats.items()
                    if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
            out[f"{layer}.self_s"] = (sum(r[1] for r in rows) / 1e9, "s")
        for name, keys in NAMED.items():
            rows = [self.stats.get(k, [0, 0, 0, 0]) for k in keys]
            out[f"{name}.calls"] = (sum(r[0] for r in rows), "count")
            out[f"{name}.self_s"] = (sum(r[2] for r in rows) / 1e9, "s")
        c = self.counters
        for name in ("series.mul.terms_in", "series.mul.span_out",
                     "series.mul.max_terms", "cones.created",
                     "drinfeld.lattice_points"):
            out[name] = (c.get(name, 0), "count")
        for p in TATE_PRECISIONS:
            out[f"drinfeld.iterate_tate.p{p}.s"] = (
                c.get(f"drinfeld.iterate_tate.p{p}.ns", 0) / 1e9, "s")
        for d in SIGMA_UPPER_DIMS:
            out[f"xi.sigma_upper.d{d}.s"] = (
                c.get(f"xi.sigma_upper.d{d}.ns", 0) / 1e9, "s")
        tried = self.edges.get(("xi.sigma_upper_fan", "cones.Fan.add"), 0)
        kept = c.get("xi.sigma_upper.maximal", 0)
        out["xi.sigma_upper.useful_ratio"] = (kept / tried if tried else 0.0,
                                              "ratio")
        return out

