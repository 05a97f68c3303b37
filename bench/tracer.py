"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` wraps the public entry points of every ``morseflow``
module and rebinds each wrapped name wherever a module looked it up (the CLI
imports names directly).  A span records its layer, name, start, end, parent
span and the op it belongs to.  A layer's self time is the time its spans
cover minus the time their child spans cover.  Spans stop at public entry
points: accessors such as ``PCategory.leq`` and ``compose``, ring arithmetic
and the other hot helpers listed in ``HOT`` are not wrapped, so their time
is booked to whichever layer called them.  Counts are read from the values
that cross the wrapped boundaries, so they repeat exactly from run to run.
The time spent counting is recorded as a ``trace`` span and is charged to
no layer.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli", "complexes", "categories", "matchings", "localization",
    "nerves", "homology", "rings", "cosheaves",
)

# Public functions called per simplex, per element or per output line.
HOT = {
    "categories.identity_morphism",
    "categories.sort_key",
    "localization.zigzag_to_text",
    "nerves.is_degenerate",
}

# Public methods that are layer entry points (the rest are accessors).
METHODS = {
    "complexes": (("Complex", "from_json"),),
    "categories": (("HomPoset", "build"), ("HomPoset", "covers")),
    "matchings": (("Matching", "from_json"),),
    "homology": (("ChainComplex", "check_boundary_squares_to_zero"),),
    "rings": (("Mat", "mul"),),
    "cosheaves": (("Cosheaf", "from_json"),),
}

# Per-layer metrics: unit, and which end-to-end metric each should move on
# which workload ("flat on" names workloads where it must not move).
PER_LAYER = {
    "complexes.self_s": ("s", "wall_s on cellular-compress (cycle ops); ~0 elsewhere"),
    "complexes.cells": ("count", "wall_s on cellular-compress"),
    "complexes.errors": ("count", "fail_ratio on cellular-compress"),
    "categories.self_s": ("s", "wall_s on flow-classical (paths of the 3-sphere) and nerve-en"),
    "categories.morphisms": ("count", "wall_s on flow-classical and nerve-en"),
    "categories.order_pairs": ("count", "wall_s on flow-classical and nerve-en"),
    "matchings.self_s": ("s", "wall_s on flow-classical and generalized"),
    "matchings.arrows": ("count", "wall_s on flow-classical and generalized"),
    "matchings.mildness_nerve_fallbacks": ("count", "wall_s on flow-classical and generalized"),
    "localization.self_s": ("s", "wall_s, op_s_p50, peak_rss_mb on flow-classical and generalized; flat on nerve-en and cellular-compress"),
    "localization.zigzags": ("count", "wall_s, op_s_p50, peak_rss_mb on flow-classical and generalized"),
    "localization.classes": ("count", "wall_s on flow-classical and generalized"),
    "localization.class_yield": ("ratio", "wall_s on generalized (classes / zigzags)"),
    "localization.order_pairs": ("count", "wall_s on flow-classical and generalized"),
    "localization.flow_compose_calls": ("count", "wall_s on flow-classical and generalized"),
    "localization.errors": ("count", "fail_ratio on flow-classical and generalized"),
    "nerves.self_s": ("s", "wall_s on flow-classical (flow nerve) and nerve-en"),
    "nerves.simplices": ("count", "wall_s on flow-classical and nerve-en"),
    "nerves.nondegenerate": ("count", "wall_s on flow-classical and nerve-en"),
    "nerves.nondegenerate_ratio": ("ratio", "wall_s on flow-classical and nerve-en"),
    "homology.self_s": ("s", "wall_s, op_s_p50, peak_rss_mb on nerve-en (most), cellular-compress, flow-classical"),
    "homology.dd_check_s": ("s", "wall_s on nerve-en and cellular-compress"),
    "homology.snf_s": ("s", "wall_s on nerve-en (Z) and cellular-compress"),
    "homology.matrix_entries": ("count", "wall_s, peak_rss_mb on nerve-en and cellular-compress"),
    "homology.nnz": ("count", "wall_s on nerve-en and cellular-compress"),
    "homology.density": ("ratio", "wall_s on nerve-en and cellular-compress (nnz / entries)"),
    "homology.errors": ("count", "fail_ratio on every workload"),
    "rings.mat_mul_s": ("s", "wall_s on nerve-en (d o d) and cellular-compress (cosheaf maps)"),
    "rings.rank_s": ("s", "wall_s on nerve-en (Q rank) and cellular-compress"),
    "rings.inverse_s": ("s", "wall_s on cellular-compress (cosheaf and Morse inverses)"),
    "cosheaves.self_s": ("s", "wall_s on cellular-compress only"),
    "cosheaves.stalk_total": ("count", "wall_s on cellular-compress only"),
    "cosheaves.morse_generators": ("count", "wall_s on cellular-compress only"),
    "cosheaves.errors": ("count", "fail_ratio on cellular-compress (the n=1500 Morse op)"),
    "cli.self_s": ("s", "op_s_p50 on every workload (JSON load and emit; expected small)"),
    "trace.overhead_ratio": ("ratio", "none: traced wall time / untraced wall time of the same pass"),
}

# Inclusive-time metrics: the time covered by the outermost spans of these names.
INCLUSIVE = {
    "homology.dd_check_s": {"homology.ChainComplex.check_boundary_squares_to_zero"},
    "homology.snf_s": {"homology.invariant_factors", "homology.smith_normal_form"},
    "rings.mat_mul_s": {"rings.Mat.mul"},
    "rings.rank_s": {"rings.rank_over_field"},
    "rings.inverse_s": {"rings.mat_inverse"},
}


def _count_category(counts, args, cat):
    for a in cat.objects:
        for b in cat.objects:
            hp = cat.hom(a, b)
            counts["categories.morphisms"] += len(hp.elements)
            counts["categories.order_pairs"] += len(hp.relation) - len(hp.elements)


def _count_mildness(counts, args, report):
    counts["matchings.mildness_nerve_fallbacks"] += sum(
        1 for e in report.entries
        if e.detail.startswith(("reduced homology vanishes", "nerve Betti numbers"))
    )


def _count_order(counts, args, rel):
    reflexive = sum(1 for a, b in rel if a == b)
    counts["localization.classes"] += reflexive
    counts["localization.order_pairs"] += len(rel) - reflexive


def _count_chain_complex(counts, args, result):
    for m in args[0].boundaries.values():
        counts["homology.matrix_entries"] += m.rows * m.cols
        counts["homology.nnz"] += sum(1 for row in m.data for x in row if x)


COUNTERS = {
    "complexes.Complex.from_json": lambda c, a, r: c.update({"complexes.cells": len(r.cells)}),
    "categories.entrance_path_category": _count_category,
    "categories.face_poset_category": _count_category,
    "matchings.morse_system_from_arrows": lambda c, a, r: c.update({"matchings.arrows": len(r.sigma)}),
    "matchings.check_mildness": _count_mildness,
    "localization.enumerate_zigzags": lambda c, a, r: c.update({"localization.zigzags": len(r)}),
    "localization.close_order_relation": _count_order,
    "nerves.geometric_nerve": lambda c, a, r: c.update(
        {"nerves.simplices": sum(len(v) for v in r.simplices.values())}),
    "nerves.normalized_chain_complex": lambda c, a, r: c.update({"nerves.nondegenerate": sum(r.ranks)}),
    "homology.homology": _count_chain_complex,
    "cosheaves.Cosheaf.from_json": lambda c, a, r: c.update({"cosheaves.stalk_total": sum(r.stalks.values())}),
    "cosheaves.constant_cosheaf": lambda c, a, r: c.update({"cosheaves.stalk_total": sum(r.stalks.values())}),
    "cosheaves.morse_chain_complex": lambda c, a, r: c.update({"cosheaves.morse_generators": sum(r.chain.ranks)}),
}


class Tracer:
    """Records spans and counts while installed; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []  # [layer, name, parent, start, end, op, error]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        namespaces = [m.__dict__ for n, m in sorted(sys.modules.items())
                      if n == "morseflow" or n.startswith("morseflow.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"morseflow.{layer}")
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or f"{layer}.{attr}" in HOT):
                    continue
                wrapped = self._wrap(layer, f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            ns[key] = wrapped
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, name, raw.__func__))
                else:
                    wrapped = self._wrap(layer, name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        if name == "localization.flow_category":
            counter = self._count_flow_compose

        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = clock()
                rec[6] = type(exc).__name__
                stack.pop()
                raise
            rec[4] = clock()
            stack.pop()
            if counter is not None:
                start = clock()
                counter(self.counts, args, result)
                spans.append(["trace", "count", stack[-1] if stack else -1, start, clock(), self.op, None])
            return result

        return traced

    def _count_flow_compose(self, counts, args, flow):
        """Count calls of the returned flow category's composition."""
        compose = flow.category._compose

        def counted(f, g):
            counts["localization.flow_compose_calls"] += 1
            return compose(f, g)

        flow.category._compose = counted

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric except the tracing overhead, from spans and counts."""
    out = {name: 0 for name in PER_LAYER if name != "trace.overhead_ratio"}
    for name, value in counts.items():
        out[name] = value
    own = self_times(spans)
    for s, t in zip(spans, own):
        key = f"{s[0]}.self_s"
        if key in out:
            out[key] += t
    for metric, names in INCLUSIVE.items():
        for s in spans:
            if s[1] in names and not _has_ancestor(spans, s, names):
                out[metric] += s[4] - s[3]
    for s in spans:
        if s[6] is not None and (s[2] < 0 or spans[s[2]][0] != s[0]):
            key = f"{s[0]}.errors"
            if key in out:
                out[key] += 1
    out["localization.class_yield"] = _ratio(out["localization.classes"], out["localization.zigzags"])
    out["nerves.nondegenerate_ratio"] = _ratio(out["nerves.nondegenerate"], out["nerves.simplices"])
    out["homology.density"] = _ratio(out["homology.nnz"], out["homology.matrix_entries"])
    return out


def _has_ancestor(spans, s, names) -> bool:
    p = s[2]
    while p >= 0:
        if spans[p][1] in names:
            return True
        p = spans[p][2]
    return False


def _ratio(a, b):
    return a / b if b else 0.0
