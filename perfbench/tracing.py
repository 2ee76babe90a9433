"""Spans around the calls into each layer of the package, recorded from outside it.

``Tracer.install`` wraps every public function of the layer modules, the
public methods of their classes and the two quadrature constructors.  Each
wrapper is bound at every name that held the original: module globals
(``from .surfaces import surface_geometry`` binds it in four modules), and
the values of module-level dicts and tuples such as ``REPORT_BUILDERS``.
Spans stay in memory; ``op_sums`` folds them into per-op layer metrics.
A span's self time is its duration minus the durations of its direct
children on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter

LAYERS = ("charts", "surfaces", "quadrature", "families", "weights", "ambient",
          "supports", "inequalities", "cli")

# private methods that are still layer boundaries: building the node sets
TRACED_INITS = frozenset({"quadrature.SurfaceQuadrature.__init__",
                          "quadrature.RegionQuadrature.__init__"})


def _rows(a) -> int:
    """Number of points in a batch of shape (..., d); 1 for a single point."""
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a) if hasattr(a, "__len__") else 1
    count = 1
    for d in shape[:-1]:
        count *= d
    return count


def _points_of_second_arg(args, result) -> int:
    return _rows(args[1]) if len(args) > 1 else 0


def _region_count(args, result) -> int:
    return args[0].count


def _points_for(name: str, chart_classes: frozenset):
    layer, *rest = name.split(".")
    if name == "surfaces.surface_geometry":
        return _points_of_second_arg
    if name == "quadrature.RegionQuadrature.__init__":
        return _region_count
    if len(rest) == 2 and layer == "charts" and rest[0] in chart_classes and rest[1] == "evaluate":
        return _points_of_second_arg
    if len(rest) == 2 and layer == "weights" and rest[0] == "WeightField":
        return _points_of_second_arg
    return None


class Span:
    __slots__ = ("op", "name", "parent", "dur", "child", "points")

    def __init__(self, op, name, parent):
        self.op = op
        self.name = name
        self.parent = parent
        self.dur = 0.0
        self.child = 0.0
        self.points = 0


class Tracer:
    """Records spans of the traced op set by ``op`` (None outside ops)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.chart_classes: frozenset = frozenset()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, points=None):
        tracer = self
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(tracer.op, name, stack[-1] if stack else None)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = perf_counter() - t0
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.dur
                spans.append(span)
            if points is not None:
                span.points = points(args, result)
            return result

        return traced

    def _replace(self, owner, key, new, item: bool = False) -> None:
        if item:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = new
        else:
            self._undo.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, new)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"fbmink.{layer}") for layer in LAYERS}
        self.chart_classes = frozenset(
            name for name, obj in vars(mods["charts"]).items()
            if inspect.isclass(obj) and obj.__module__ == mods["charts"].__name__
            and inspect.isfunction(vars(obj).get("evaluate"))
            and inspect.isfunction(vars(obj).get("normal_hint"))
            and not getattr(obj, "_is_protocol", False))
        wrappers: dict[int, tuple] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, _points_for(name, self.chart_classes)))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{mname}"
                        if not inspect.isfunction(meth):
                            continue
                        if mname.startswith("_") and name not in TRACED_INITS:
                            continue
                        self._replace(obj, mname, self.wrap(name, meth, _points_for(name, self.chart_classes)))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, mod in list(sys.modules.items()):
            if modname != "fbmink" and not modname.startswith("fbmink."):
                continue
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not None:
                    self._replace(mod, attr, new)
                elif isinstance(value, dict) and attr != "__builtins__":
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not None:
                            self._replace(value, key, new, item=True)
                elif isinstance(value, tuple) and any(swap(v) is not None for v in value):
                    self._replace(mod, attr, tuple(swap(v) or v for v in value))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, item = self._undo.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- aggregation -----------------------------------------------------------------

    def _metric_table(self):
        def named(*names):
            names = frozenset(names)
            return names.__contains__

        def prefixed(prefix):
            return lambda name: name.startswith(prefix)

        def chart_evaluate(name):
            parts = name.split(".")
            return (len(parts) == 3 and parts[0] == "charts"
                    and parts[1] in self.chart_classes and parts[2] == "evaluate")

        geometry = named("surfaces.surface_geometry")
        curvature = named("surfaces.curvature_arrays", "surfaces.principal_curvatures")
        region = named("quadrature.RegionQuadrature.__init__")
        return [
            ("surfaces.geometry_calls", "calls", geometry),
            ("surfaces.geometry_points", "points", geometry),
            ("surfaces.geometry_self_s", "self", geometry),
            ("surfaces.curvature_calls", "calls", curvature),
            ("surfaces.curvature_self_s", "self", curvature),
            ("surfaces.boundary_self_s", "self", prefixed("surfaces.boundary_")),
            ("quadrature.surface_builds", "calls", named("quadrature.SurfaceQuadrature.__init__")),
            ("quadrature.region_builds", "calls", region),
            ("quadrature.region_points", "points", region),
            ("quadrature.self_s", "self", prefixed("quadrature.")),
            ("families.build_s", "inclusive", named("families.make_umbilical_cap",
                                                   "families.make_perturbed_cap",
                                                   "families.validate_scenario")),
            ("families.margins_calls", "calls", named("families.region_margins")),
            ("charts.evaluate_calls", "calls", chart_evaluate),
            ("charts.evaluate_points", "points", chart_evaluate),
            ("charts.evaluate_self_s", "self", chart_evaluate),
            ("weights.eval_points", "points", prefixed("weights.WeightField.")),
            ("weights.self_s", "self", prefixed("weights.")),
            ("ambient.self_s", "self", prefixed("ambient.")),
            ("weights.identity_s", "inclusive", named("weights.hessian_identity_residual",
                                                      "weights.neumann_identity_residual")),
            ("supports.sample_s", "inclusive", named("supports.sample_admissible_points",
                                                     "supports.sample_support_points")),
            ("ambient.probe_s", "inclusive", named("ambient.sectional_curvature_probe")),
            ("inequalities.minkowski_s", "inclusive", named("inequalities.minkowski_report")),
            ("inequalities.af_s", "inclusive", named("inequalities.af_report")),
            ("inequalities.schur_s", "inclusive", named("inequalities.schur_report")),
            ("inequalities.audit_s", "inclusive", named("inequalities.hypothesis_audit")),
            ("inequalities.reilly_s", "inclusive", named("inequalities.reilly_residual")),
            ("inequalities.self_s", "self", prefixed("inequalities.")),
            ("cli.load_config_s", "inclusive", named("cli.load_config")),
            ("cli.build_scenario_s", "inclusive", named("cli.build_scenario")),
            ("cli.render_s", "inclusive", named("cli.render_json", "cli.render_sweep_csv")),
        ]

    def metric_names(self) -> list[str]:
        return [m for m, _, _ in self._metric_table()]

    def op_sums(self) -> dict:
        """Per traced op: each layer metric summed over that op's spans.

        ``inclusive`` metrics count only the outermost span of their group,
        so a perturbed cap built on an umbilical one is timed once.
        """
        table = self._metric_table()
        by_name: dict[str, list] = {}
        out: dict = {}
        for span in self.spans:
            if span.op is None:
                continue
            rules = by_name.get(span.name)
            if rules is None:
                rules = by_name[span.name] = [(m, kind, pred) for m, kind, pred in table
                                              if pred(span.name)]
            sums = out.setdefault(span.op, dict.fromkeys((m for m, _, _ in table), 0.0))
            for metric, kind, pred in rules:
                if kind == "calls":
                    sums[metric] += 1
                elif kind == "points":
                    sums[metric] += span.points
                elif kind == "self":
                    sums[metric] += span.dur - span.child
                else:
                    p = span.parent
                    while p is not None and not pred(p.name):
                        p = p.parent
                    if p is None:
                        sums[metric] += span.dur
        return out
