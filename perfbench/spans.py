"""Span tracing around the cmag_wkb layers, and the per-layer metrics.

The tracer runs inside the traced workload process (see child.py). It wraps
every public function of the six modules at every name it is bound to
(``cli`` imports ``solve_wkb`` by name, ``wkb`` imports ``compose_w`` by
name, and so on), plus the ``BiSeries`` and ``WKBSolution`` methods that the
metrics name. Spans live in compact arrays until the process ends; then one
JSON document is written. The analysis half turns that document into the
per-layer metrics; it needs nothing but the standard library.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

LAYERS = ("cli", "fieldmodel", "cseries", "wkb", "pseudomode", "numop")

# methods wrapped on their class: (module, class, attribute) -> span name
METHOD_SPANS = {
    ("cseries", "BiSeries", "exp"): "cseries.BiSeries.exp",
    ("cseries", "BiSeries", "reciprocal"): "cseries.BiSeries.reciprocal",
    ("cseries", "BiSeries", "evaluate"): "cseries.BiSeries.evaluate",
    ("wkb", "WKBSolution", "to_json"): "wkb.WKBSolution.to_json",
    ("pseudomode", "_ThetaEvaluator", "__init__"): "pseudomode.theta_evaluator.build",
    ("pseudomode", "_ThetaEvaluator", "_calibrate"): "pseudomode.theta_evaluator.calibrate",
}

_now = time.perf_counter_ns


class Tracer:
    """Records (name, start, end, parent) for each wrapped call, plus counts."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = {}
        self.residual_h = []  # (span index, h) of each residual_series_exact call

    # -- recording ----------------------------------------------------------
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name, post=None):
        nid = self._name_id(name)
        stack, name_of, parent, start, end = (self._stack, self.name_of, self.parent,
                                              self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if post is not None:
                result = post(idx, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------
    def install(self):
        """Wrap the package in place, for the rest of the process."""
        import importlib

        package = importlib.import_module("cmag_wkb")
        modules = {layer: importlib.import_module(f"cmag_wkb.{layer}") for layer in LAYERS}
        from cmag_wkb.cseries import BiSeries

        posts = self._posts(BiSeries)
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self.wrap(obj, name, posts.get(name))
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
                elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]
        for (layer, cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, posts.get(name)))
        BiSeries.__mul__ = BiSeries.__rmul__ = self._wrap_product(BiSeries)

    def _wrap_product(self, BiSeries):
        """Span only series-by-series products; scalar scaling passes through."""
        plain = BiSeries.__mul__
        traced = self.wrap(plain, "cseries.BiSeries.mul")
        count = self.count

        def mul(self_, other):
            if not isinstance(other, BiSeries):
                return plain(self_, other)
            count("cseries.BiSeries.mul.pair_products",
                  pair_products(self_.coeffs, other.coeffs, self_.cap))
            return traced(self_, other)

        return mul

    def _posts(self, BiSeries):
        import numpy as np

        count = self.count

        def evaluate(idx, args, result):
            series, z, w = args[0], args[1], args[2]
            points = int(np.broadcast(np.asarray(z), np.asarray(w)).size)
            count("cseries.BiSeries.evaluate.points", points)
            count("cseries.BiSeries.evaluate.monomial_evals",
                  points * (series.cap + 1) * (series.cap + 2) // 2)
            return result

        def residual(idx, args, result):
            self.residual_h.append((idx, float(result.h)))
            count("pseudomode.quad_nodes", int(result.quadrature_points))
            return result

        def apply_L(idx, args, result):
            count("numop.apply_L.grid_points", int(result.values.size))
            return result

        def assemble(idx, args, result):
            return self.wrap(result, "pseudomode.assemble.u")

        return {
            "cseries.BiSeries.evaluate": evaluate,
            "pseudomode.residual_series_exact": residual,
            "numop.apply_L": apply_L,
            "pseudomode.assemble": assemble,
        }

    # -- output -----------------------------------------------------------------
    def document(self):
        return {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counts": self.counts,
            "residual_h": self.residual_h,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.document(), fh)


_DEGREES = {}


def pair_products(x, y, cap):
    """Nonzero coefficient pairs (x_ab, y_cd) with a+b+c+d <= cap."""
    import numpy as np

    deg = _DEGREES.get(cap)
    if deg is None:
        deg = _DEGREES[cap] = np.add.outer(np.arange(cap + 1), np.arange(cap + 1))
    hx = np.bincount(deg[x != 0], minlength=cap + 1)[: cap + 1]
    cy = np.cumsum(np.bincount(deg[y != 0], minlength=cap + 1)[: cap + 1])
    return int(hx @ cy[::-1])


# ----------------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------------

def self_times(start, end, parent):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another or reach past their parent; only the
    union of their intervals inside the parent's interval is subtracted.
    """
    n = len(start)
    children = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [0] * n
    for i in range(n):
        s, e = start[i], end[i]
        covered, reach = 0, s
        for c in sorted(children[i], key=start.__getitem__):
            cs, ce = max(start[c], reach), min(end[c], e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[i] = (e - s) - covered
    return out


def _ancestor_flags(doc, target):
    """For each span: is it, or does it sit below, a span named ``target``."""
    names, name_of, parent = doc["names"], doc["name"], doc["parent"]
    tid = names.index(target) if target in names else -1
    flags = [False] * len(name_of)
    for i, (nid, p) in enumerate(zip(name_of, parent)):  # parents precede children
        flags[i] = nid == tid or (p >= 0 and flags[p])
    return flags


def _outermost(doc):
    """Spans with no ancestor of the same name (inclusive time counts once)."""
    name_of, parent = doc["name"], doc["parent"]
    open_names = [None] * len(name_of)
    keep = [True] * len(name_of)
    for i, (nid, p) in enumerate(zip(name_of, parent)):
        above = open_names[p] if p >= 0 else frozenset()
        keep[i] = nid not in above
        open_names[i] = above if nid in above else above | {nid}
    return keep


def aggregate(doc):
    """name -> {"calls", "s" (inclusive, outermost only), "self_s"}."""
    start, end = doc["start_ns"], doc["end_ns"]
    self_ns = self_times(start, end, doc["parent"])
    keep = _outermost(doc)
    agg = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in doc["names"]}
    for i, nid in enumerate(doc["name"]):
        a = agg[doc["names"][nid]]
        a["calls"] += 1
        a["self_s"] += self_ns[i] * 1e-9
        if keep[i]:
            a["s"] += (end[i] - start[i]) * 1e-9
    return agg, self_ns


def layer_metrics(doc):
    """The per-layer metric values of one traced process (names as declared)."""
    agg, self_ns = aggregate(doc)
    counts = doc["counts"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {}
    for metric in PER_LAYER:  # span metrics; the derived ones are filled in below
        span, key = metric.rsplit(".", 1)
        if key in ("calls", "s", "self_s"):
            m[metric] = get(span, key)
    for key in ("cseries.BiSeries.mul.pair_products", "cseries.BiSeries.evaluate.points",
                "cseries.BiSeries.evaluate.monomial_evals", "pseudomode.quad_nodes",
                "numop.apply_L.grid_points"):
        m[key] = counts.get(key, 0)
    monomials = m["cseries.BiSeries.evaluate.monomial_evals"]
    m["cseries.BiSeries.evaluate.ns_per_monomial"] = (
        m["cseries.BiSeries.evaluate.self_s"] * 1e9 / monomials if monomials else 0.0)
    m["pseudomode.theta_evaluator.calls"] = (get("pseudomode.theta_evaluator.build", "calls")
                                             + get("pseudomode.theta_evaluator.calibrate", "calls"))
    m["pseudomode.assemble.eval_s"] = get("pseudomode.assemble.u", "s")

    start, end = doc["start_ns"], doc["end_ns"]
    hmin = min(doc["residual_h"], key=lambda t: t[1]) if doc["residual_h"] else None
    m["pseudomode.residual_series_exact.s_hmin"] = (
        (end[hmin[0]] - start[hmin[0]]) * 1e-9 if hmin else 0.0)
    in_residual = _ancestor_flags(doc, "pseudomode.residual_series_exact")
    evaluate = "cseries.BiSeries.evaluate"
    eval_id = doc["names"].index(evaluate) if evaluate in doc["names"] else -1
    eval_in_residual = sum(self_ns[i] for i, nid in enumerate(doc["name"])
                           if nid == eval_id and in_residual[i]) * 1e-9
    residual_s = m["pseudomode.residual_series_exact.s"]
    m["pseudomode.evaluate_share"] = eval_in_residual / residual_s if residual_s else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(a["self_s"] for name, a in agg.items()
                                   if name.split(".", 1)[0] == layer)
    m["trace.spans"] = len(doc["name"])
    return m


def _unit(name):
    if name.endswith(".calls") or name.rsplit(".", 1)[-1] in (
            "pair_products", "points", "monomial_evals", "quad_nodes", "grid_points", "spans"):
        return "count"
    return {"ns_per_monomial": "ns", "evaluate_share": "ratio", "out_bytes": "bytes"}.get(
        name.rsplit(".", 1)[-1], "s")


# every per-layer metric a traced run reports, with its unit: layer_metrics()
# plus what the benchmark measures around the traced process
PER_LAYER = {name: _unit(name) for name in (
    "cli.run_sweep.s", "cli.write_residual_csv.s", "cli.write_gamma_csv.s", "cli.out_bytes",
    "fieldmodel.make_field.calls", "fieldmodel.make_field.s",
    "fieldmodel.compute_Q.calls", "fieldmodel.compute_Q.s", "fieldmodel.gamma_scan.s",
    "cseries.BiSeries.mul.calls", "cseries.BiSeries.mul.self_s",
    "cseries.BiSeries.mul.pair_products",
    "cseries.BiSeries.exp.s", "cseries.BiSeries.reciprocal.s",
    "cseries.compose_w.calls", "cseries.compose_w.s", "cseries.exact_divide_by_curve.s",
    "cseries.implicit_w.s", "cseries.complexify_real_taylor.calls",
    "cseries.complexify_real_taylor.s",
    "cseries.BiSeries.evaluate.calls", "cseries.BiSeries.evaluate.points",
    "cseries.BiSeries.evaluate.self_s", "cseries.BiSeries.evaluate.monomial_evals",
    "cseries.BiSeries.evaluate.ns_per_monomial",
    "wkb.solve_wkb.s", "wkb.transport_step.calls", "wkb.transport_step.s", "wkb.fit_growth.s",
    "wkb.WKBSolution.to_json.s",
    "pseudomode.select_cutoff.s", "pseudomode.make_pseudomode.s",
    "pseudomode.theta_evaluator.calls",
    "pseudomode.residual_series_exact.calls", "pseudomode.residual_series_exact.s",
    "pseudomode.residual_series_exact.s_hmin", "pseudomode.quad_nodes",
    "pseudomode.evaluate_share",
    "pseudomode.residual_finite_difference.s", "pseudomode.assemble.eval_s",
    "pseudomode.fit_decay.s",
    "numop.apply_L.calls", "numop.apply_L.s", "numop.apply_L.grid_points",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.spans", "trace.wall_s", "trace.overhead_s",
)}
